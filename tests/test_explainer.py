import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrex.blackbox import train_bagged_forest
from aggrex.data import FeatureSchema, synth_multiclass
from aggrex.explainer import _dropped_splits, _fit, _grown_from_twins, label_ball, train_local_explainer
from aggrex.infofilter import EPS_MI, select_informative_features
from aggrex.sampler import sample_ball
from aggrex.tree import tree_to_lines

from oracles import TableOracle, encode, features_used, local_fidelity, tree_fit


class ConstantBox:
    def predict_batch(self, X):
        return np.zeros(X.shape[0], dtype=int)


class FeatureIndicatorBox:
    """Black box that returns the value of one binary feature."""

    def __init__(self, feature):
        self.feature = feature

    def predict_batch(self, X):
        return np.asarray(X)[:, self.feature].astype(int)


class RandomLabelBox:
    """Labels from a seeded stream, independent of the points."""

    def __init__(self, seed, n_labels):
        self.seed, self.n_labels = seed, n_labels

    def predict_batch(self, X):
        return np.random.default_rng(self.seed).integers(0, self.n_labels, size=X.shape[0]) * 2 - 1


SCHEMA = FeatureSchema.mixed(2, 3)
CENTER = np.array([0.0, 0.0, 0.0, 1.0, 0.0])


def explain(box, center, r, N, schema, seed, filtered=True, **options):
    """The explainer of one freshly labelled ball: a group of one."""
    ball = label_ball(box, center, r, N, schema, seed)
    return train_local_explainer([ball], schema, (filtered,), **options)[0]


class TestTrainLocalExplainer:
    def test_constant_blackbox_single_leaf(self):
        ex = explain(ConstantBox(), CENTER, 2.0, 300, schema=SCHEMA, seed=1)
        assert ex.leaf_count == 1
        assert ex.train_fidelity == 1.0
        assert ex.selected_features == ()  # filter finds nothing, fallback leaf

    def test_indicator_blackbox_two_leaves(self):
        ex = explain(
            FeatureIndicatorBox(3), CENTER, 2.0, 500, schema=SCHEMA, seed=2, filtered=True
        )
        assert 3 in ex.selected_features
        assert ex.leaf_count == 2
        assert features_used(ex.tree) == {3}
        assert ex.train_fidelity == 1.0

    def test_filtered_beats_unfiltered_complexity(self):
        # same seed -> same samples: a paired trial; the black box depends on
        # one binary feature, the other four are noise to the surrogate
        wins = 0
        trials = 5
        for t in range(trials):
            box = FeatureIndicatorBox(4)
            filt = explain(
                box, CENTER, 2.0, 400, schema=SCHEMA, seed=50 + t, filtered=True
            )
            raw = explain(
                box, CENTER, 2.0, 400, schema=SCHEMA, seed=50 + t, filtered=False
            )
            assert filt.train_fidelity >= 0.9 and raw.train_fidelity >= 0.9
            if filt.leaf_count <= raw.leaf_count:
                wins += 1
        assert wins == trials

    def test_filtered_tree_stays_inside_selection(self):
        d = synth_multiclass(seed=3, n=200, m_cont=2, m_bin=3, classes=3, relevant=(0, 2))
        box = train_bagged_forest(d, n_trees=5, seed=1)
        ex = explain(box, d.X[0], 1.5, 300, schema=d.schema, seed=9, filtered=True)
        assert features_used(ex.tree) <= set(ex.selected_features)

    def test_deterministic(self):
        box = FeatureIndicatorBox(3)
        a = explain(box, CENTER, 2.0, 300, schema=SCHEMA, seed=4)
        b = explain(box, CENTER, 2.0, 300, schema=SCHEMA, seed=4)
        assert tree_to_lines(a.tree) == tree_to_lines(b.tree)
        assert a.train_fidelity == b.train_fidelity
        assert a.selected_features == b.selected_features

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 120),
        st.sampled_from([(False, EPS_MI), (True, EPS_MI), (True, math.inf)]),
    )
    def test_train_fidelity_equals_a_recount(self, seed, n_labels, N, variant):
        # eps_mi=inf selects nothing: the single-leaf fallback
        filtered, eps_mi = variant
        box = RandomLabelBox(seed, n_labels)
        ex = explain(box, CENTER, 1.5, N, schema=SCHEMA, seed=seed, filtered=filtered, eps_mi=eps_mi)
        points = sample_ball(CENTER, 1.5, N, SCHEMA, seed).points
        assert ex.train_fidelity == float(np.mean(ex.tree.predict_batch(points) == box.predict_batch(points)))
        if filtered and eps_mi == math.inf:
            assert ex.leaf_count == 1 and ex.selected_features == ()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            explain(ConstantBox(), CENTER, 1.0, 1, schema=SCHEMA, seed=0)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError, match="^need at least 2 bins$"):
            explain(ConstantBox(), CENTER, 1.0, 50, schema=SCHEMA, seed=0, max_bins=1)


def separately_trained(box, center, r, N, seed, filtered):
    """The explainer's stages run on their own: the filter on the labels encoded here, the fit on the raw labels."""
    samples = sample_ball(center, r, N, SCHEMA, seed)
    labels = box.predict_batch(samples.points)
    features = select_informative_features(samples, *encode(labels), SCHEMA) if filtered else tuple(range(SCHEMA.count))
    if not features:
        values, counts = np.unique(labels, return_counts=True)
        return (), [f"node 0 leaf {int(values[np.argmax(counts)])}"], int(counts.max()) / N
    tree, agree = tree_fit(samples.points, labels, features)
    return features, tree_to_lines(tree), agree / N


class TestSharedBall:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["random", "indicator", "constant"]),
        st.integers(1, 6),
        st.integers(2, 150),
        st.sampled_from([0.5, 1.5, 3.0]),
    )
    def test_one_ball_gives_the_separately_trained_explainers(self, seed, kind, n_labels, N, r):
        boxes = {"random": RandomLabelBox(seed, n_labels), "indicator": FeatureIndicatorBox(3), "constant": ConstantBox()}
        box = boxes[kind]
        ball = label_ball(box, CENTER, r, N, SCHEMA, seed)
        for filtered, ex in zip((True, False), train_local_explainer([ball], SCHEMA, (True, False))):
            got = ex.selected_features, tree_to_lines(ex.tree), ex.train_fidelity
            assert got == separately_trained(box, CENTER, r, N, seed, filtered)


def summary(ex):
    return ex.selected_features, tree_to_lines(ex.tree), ex.train_fidelity, ex.radius, ex.filtered


class TestExplainerGroups:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(2, 120)), min_size=1, max_size=5),
        st.sampled_from([EPS_MI, 0.05, math.inf]),
    )
    def test_a_group_gives_each_balls_own_explainers(self, specs, eps_mi):
        # eps_mi=inf gives every filtered explainer the single-leaf fallback, which fits no tree
        balls = [
            label_ball(RandomLabelBox(seed, n_labels), CENTER, 1.5, N, SCHEMA, seed, center_index=i)
            for i, (seed, n_labels, N) in enumerate(specs)
        ]
        group = train_local_explainer(balls, SCHEMA, (True, False), eps_mi=eps_mi)
        alone = [ex for ball in balls for ex in train_local_explainer([ball], SCHEMA, (True, False), eps_mi=eps_mi)]
        assert [summary(ex) for ex in group] == [summary(ex) for ex in alone]
        assert [(ex.center_index, ex.filtered) for ex in group] == [(i, f) for i in range(len(specs)) for f in (True, False)]


EVERY = tuple(range(SCHEMA.count))


def fit_bytes(fit):
    tree, agree = fit
    return [getattr(tree, name).tobytes() for name in ("feature", "threshold", "label", "right")], agree


def random_ball(seed, n_labels, N=150):
    return label_ball(RandomLabelBox(seed, n_labels), CENTER, 1.5, N, SCHEMA, seed)


class TestGrownFromTwins:
    """A filtered tree grown from its unfiltered twin is the direct filtered fit, bit for bit, agree count too."""

    @staticmethod
    def grown(balls, selected, max_depth, min_leaf):
        """The twins and the grown trees, after checking the grown ones against direct fits."""
        twins = _fit(balls, [EVERY] * len(balls), max_depth, min_leaf)
        grown = _grown_from_twins(balls, selected, twins, max_depth, min_leaf)
        direct = _fit(balls, selected, max_depth, min_leaf)
        assert [fit_bytes(fit) for fit in grown] == [fit_bytes(fit) for fit in direct]
        return twins, grown

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 200), st.sets(st.integers(0, 4))),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([None, 0, 1, 2, 3, 12]),
        st.sampled_from([1, 2, 3]),
    )
    def test_any_selection_in_any_group(self, specs, max_depth, min_leaf):
        balls = [random_ball(seed, n_labels, N) for seed, n_labels, N, _ in specs]
        self.grown(balls, [tuple(sorted(features)) for *_, features in specs], max_depth, min_leaf)

    @pytest.mark.parametrize("min_leaf", [1, 3])
    @pytest.mark.parametrize("n_labels", [3, 9])
    def test_named_cases(self, min_leaf, n_labels):
        cases = {}  # name: (ball, selected, max_depth)

        def first_depth(ball, max_depth, depth):
            """The selection that drops one feature whose first split on some path is at `depth`, if any."""
            twin = _fit([ball], [EVERY], max_depth, min_leaf)[0][0]
            for f in EVERY:
                selected = tuple(g for g in EVERY if g != f)
                if any(d == depth for *_, d in _dropped_splits(twin, selected)):
                    return selected
            return None

        for seed in range(40):
            ball = random_ball(seed, n_labels)
            twin = _fit([ball], [EVERY], 12, min_leaf)[0][0]
            used = tuple(sorted(features_used(twin)))
            if len(used) < len(EVERY):
                cases.setdefault("twin reused", (ball, used, 12))
            cases.setdefault("root refit", (ball, tuple(f for f in EVERY if f != twin.feature[0]), 12))
            if features_used(twin) & {2, 3, 4}:
                cases.setdefault("binary features dropped", (ball, (0, 1), 12))
            cases.setdefault("empty selection", (ball, (), 12))
            for name, max_depth, depth in (("graft at max_depth - 1", 3, 2), ("no depth cap", None, 4)):
                selected = first_depth(ball, max_depth, depth)
                if name not in cases and selected is not None:
                    cases[name] = (ball, selected, max_depth)
        assert len(cases) == 6, sorted(cases)
        for name, (ball, selected, max_depth) in cases.items():
            [(twin, _)], [(tree, _)] = self.grown([ball], [selected], max_depth, min_leaf)
            dropped = _dropped_splits(twin, selected) if selected else []
            assert (tree is twin) == (name == "twin reused") == (selected != () and not dropped)
            if name == "root refit":
                assert dropped == [(0, twin.feature.size, 0)]
        # every case's grafts in one group, at their common depth cap
        balls, selected = zip(*[(ball, selected) for ball, selected, max_depth in cases.values() if max_depth == 12])
        self.grown(list(balls), list(selected), 12, min_leaf)


class TestLocalFidelity:
    def test_perfect_agreement(self):
        box = ConstantBox()
        ex = explain(box, CENTER, 1.0, 100, schema=SCHEMA, seed=0)
        points = np.tile(CENTER, (10, 1))
        assert local_fidelity(ex, box, points) == 1.0

    def test_three_of_four(self):
        # oracle disagrees with a constant surrogate on exactly 1 of 4 points
        pairs = [((0.0, 0.0), 0), ((1.0, 0.0), 0), ((2.0, 0.0), 0), ((3.0, 0.0), 1)]
        box = TableOracle(pairs)
        schema = FeatureSchema.mixed(2, 0)
        ex = explain(
            ConstantBox(), np.zeros(2), 1.0, 50, schema=schema, seed=1
        )
        points = np.array([p for p, _ in pairs])
        assert local_fidelity(ex, box, points) == 0.75

    def test_matches_brute_recount(self):
        rng = np.random.default_rng(8)
        schema = FeatureSchema.mixed(2, 1)
        points = np.column_stack(
            [rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 30), rng.integers(0, 2, 30).astype(float)]
        )
        box = TableOracle([(tuple(points[i]), int(rng.integers(0, 2))) for i in range(30)], schema=schema)
        ex = explain(box, points[0], 1.0, 200, schema=schema, seed=3)
        got = local_fidelity(ex, box, points)
        manual = sum(
            1 for i in range(30) if ex.tree.predict_batch(points[i : i + 1])[0] == box.predict(points[i])
        ) / 30
        assert got == manual

    def test_empty_points_rejected(self):
        ex = explain(ConstantBox(), CENTER, 1.0, 50, schema=SCHEMA, seed=0)
        with pytest.raises(ValueError):
            local_fidelity(ex, ConstantBox(), np.empty((0, 5)))
