import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrex.blackbox import table_oracle, train_bagged_forest
from aggrex.data import FeatureSchema, synth_multiclass
from aggrex.explainer import label_ball, local_fidelity, train_local_explainer
from aggrex.infofilter import select_informative_features
from aggrex.sampler import sample_ball
from aggrex.tree import tree_fit, tree_to_lines


class ConstantBox:
    def predict_batch(self, X):
        return np.zeros(X.shape[0], dtype=int)

    def predict(self, x):
        return 0


class FeatureIndicatorBox:
    """Black box that returns the value of one binary feature."""

    def __init__(self, feature):
        self.feature = feature

    def predict_batch(self, X):
        return np.asarray(X)[:, self.feature].astype(int)

    def predict(self, x):
        return int(x[self.feature])


class RandomLabelBox:
    """Labels from a seeded stream, independent of the points."""

    def __init__(self, seed, n_labels):
        self.seed, self.n_labels = seed, n_labels

    def predict_batch(self, X):
        return np.random.default_rng(self.seed).integers(0, self.n_labels, size=X.shape[0]) * 2 - 1


SCHEMA = FeatureSchema.mixed(2, 3)
CENTER = np.array([0.0, 0.0, 0.0, 1.0, 0.0])


class TestTrainLocalExplainer:
    def test_constant_blackbox_single_leaf(self):
        ex = train_local_explainer(ConstantBox(), CENTER, 2.0, 300, schema=SCHEMA, seed=1)
        assert ex.leaf_count == 1
        assert ex.train_fidelity == 1.0
        assert ex.selected_features == ()  # filter finds nothing, fallback leaf

    def test_indicator_blackbox_two_leaves(self):
        ex = train_local_explainer(
            FeatureIndicatorBox(3), CENTER, 2.0, 500, schema=SCHEMA, seed=2, filtered=True
        )
        assert 3 in ex.selected_features
        assert ex.leaf_count == 2
        assert ex.tree.features_used == {3}
        assert ex.train_fidelity == 1.0

    def test_filtered_beats_unfiltered_complexity(self):
        # same seed -> same samples: a paired trial; the black box depends on
        # one binary feature, the other four are noise to the surrogate
        wins = 0
        trials = 5
        for t in range(trials):
            box = FeatureIndicatorBox(4)
            filt = train_local_explainer(
                box, CENTER, 2.0, 400, schema=SCHEMA, seed=50 + t, filtered=True
            )
            raw = train_local_explainer(
                box, CENTER, 2.0, 400, schema=SCHEMA, seed=50 + t, filtered=False
            )
            assert filt.train_fidelity >= 0.9 and raw.train_fidelity >= 0.9
            if filt.leaf_count <= raw.leaf_count:
                wins += 1
        assert wins == trials

    def test_filtered_tree_stays_inside_selection(self):
        d = synth_multiclass(seed=3, n=200, m_cont=2, m_bin=3, classes=3, relevant=(0, 2))
        box = train_bagged_forest(d, n_trees=5, seed=1)
        ex = train_local_explainer(box, d.X[0], 1.5, 300, schema=d.schema, seed=9, filtered=True)
        assert ex.tree.features_used <= set(ex.selected_features)

    def test_deterministic(self):
        box = FeatureIndicatorBox(3)
        a = train_local_explainer(box, CENTER, 2.0, 300, schema=SCHEMA, seed=4)
        b = train_local_explainer(box, CENTER, 2.0, 300, schema=SCHEMA, seed=4)
        assert tree_to_lines(a.tree) == tree_to_lines(b.tree)
        assert a.train_fidelity == b.train_fidelity
        assert a.selected_features == b.selected_features

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(2, 120),
        st.sampled_from([(False, None), (True, None), (True, 0)]),
    )
    def test_train_fidelity_equals_a_recount(self, seed, n_labels, N, variant):
        # max_features=0 selects nothing: the single-leaf fallback
        filtered, max_features = variant
        box = RandomLabelBox(seed, n_labels)
        ex = train_local_explainer(
            box, CENTER, 1.5, N, schema=SCHEMA, seed=seed, filtered=filtered, max_features=max_features
        )
        points = sample_ball(CENTER, 1.5, N, SCHEMA, seed).points
        assert ex.train_fidelity == float(np.mean(ex.predict_batch(points) == box.predict_batch(points)))
        if max_features == 0:
            assert ex.leaf_count == 1 and ex.selected_features == ()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            train_local_explainer(ConstantBox(), CENTER, 1.0, 1, schema=SCHEMA, seed=0)


def separately_trained(box, center, r, N, seed, filtered):
    """The explainer's stages run on their own: raw labels, each stage encoding them itself."""
    samples = sample_ball(center, r, N, SCHEMA, seed)
    labels = box.predict_batch(samples.points)
    features = select_informative_features(samples, labels, SCHEMA) if filtered else tuple(range(SCHEMA.count))
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
        for filtered in (True, False):
            ex = train_local_explainer(box, CENTER, r, N, schema=SCHEMA, seed=seed, filtered=filtered, ball=ball)
            got = ex.selected_features, tree_to_lines(ex.tree), ex.train_fidelity
            assert got == separately_trained(box, CENTER, r, N, seed, filtered)


class TestLocalFidelity:
    def test_perfect_agreement(self):
        box = ConstantBox()
        ex = train_local_explainer(box, CENTER, 1.0, 100, schema=SCHEMA, seed=0)
        points = np.tile(CENTER, (10, 1))
        assert local_fidelity(ex, box, points) == 1.0

    def test_three_of_four(self):
        # oracle disagrees with a constant surrogate on exactly 1 of 4 points
        pairs = [((0.0, 0.0), 0), ((1.0, 0.0), 0), ((2.0, 0.0), 0), ((3.0, 0.0), 1)]
        box = table_oracle(pairs)
        schema = FeatureSchema.mixed(2, 0)
        ex = train_local_explainer(
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
        box = table_oracle([(tuple(points[i]), int(rng.integers(0, 2))) for i in range(30)], schema=schema)
        ex = train_local_explainer(box, points[0], 1.0, 200, schema=schema, seed=3)
        got = local_fidelity(ex, box, points)
        manual = sum(
            1 for i in range(30) if ex.predict(points[i]) == box.predict(points[i])
        ) / 30
        assert got == manual

    def test_empty_points_rejected(self):
        ex = train_local_explainer(ConstantBox(), CENTER, 1.0, 50, schema=SCHEMA, seed=0)
        with pytest.raises(ValueError):
            local_fidelity(ex, ConstantBox(), np.empty((0, 5)))
