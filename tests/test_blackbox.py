import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrex.blackbox import (
    BlackBoxModel,
    load_model,
    save_model,
    table_oracle,
    train_bagged_forest,
)
from aggrex.data import Dataset, FeatureSchema, synth_multiclass
from aggrex.tree import DecisionTree, route, tree_fit


def constant_tree(label):
    return DecisionTree.leaf(label)


def reference_vote(model, X):
    """Per-tree bincount tally, one tree at a time, each row walked node by node."""
    labels = np.array(model.label_set, dtype=int)
    n_labels = labels.size
    size = X.shape[0] * n_labels
    row_base = np.arange(X.shape[0]) * n_labels
    votes = np.zeros(size, dtype=np.int64)
    for tree in model.trees:
        preds = []
        for x in X:
            node = 0
            while tree.feature[node] >= 0:
                node = node + 1 if x[tree.feature[node]] <= tree.threshold[node] else int(tree.right[node])
            preds.append(tree.label[node])
        votes += np.bincount(row_base + np.searchsorted(labels, preds), minlength=size)
    return labels[np.argmax(votes.reshape(-1, n_labels), axis=1)]


@st.composite
def forests(draw):
    """Forests mixing single-leaf and deep trees over a few labels, with probe rows on thresholds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 4))
    label_pool = sorted(draw(st.sets(st.integers(-3, 6), min_size=1, max_size=4)))
    trees = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            trees.append(DecisionTree.leaf(int(rng.choice(label_pool))))
        else:
            n = int(rng.integers(2, 40))
            X = rng.integers(0, 5, size=(n, m)) * 0.5
            y = rng.choice(label_pool, size=n)
            trees.append(tree_fit(X, y, range(m), max_depth=draw(st.sampled_from([1, 3, 12])), min_leaf=1)[0])
    X = rng.integers(-2, 11, size=(int(rng.integers(1, 30)), m)) * 0.25  # quarter steps hit every midpoint cut
    return BlackBoxModel(kind="bagged_forest", label_set=tuple(label_pool), trees=trees), X


THRESHOLDS = (-1.5, -0.5, -0.0, 0.0, 0.25, 1.0, 2.5)  # -0.0 and 0.0 are one value to `<=`
PROBES = THRESHOLDS + (np.nan, np.inf, -np.inf, -1.0, 0.1, 3.0)


def random_tree(rng, n_leaves, features, label_pool, root_feature=None):
    """A pre-order tree of any shape with n_leaves leaves; splits draw a feature and a threshold from THRESHOLDS.

    Thresholds need not be consistent along a path (a split may be
    unreachable), which the traversal must not care about.
    """
    nodes = []
    chain = rng.random() < 0.3  # then most splits put one leaf on a side, so paths run deep

    def grow(k, feature):
        at = len(nodes)
        if k == 1:
            nodes.append([-1, 0.0, int(rng.choice(label_pool)), -1])
            return
        nodes.append([feature, float(rng.choice(THRESHOLDS)), -1, -1])
        left = int(rng.choice([1, k - 1])) if chain else int(rng.integers(1, k))
        grow(left, int(rng.choice(features)))
        nodes[at][3] = len(nodes)
        grow(k - left, int(rng.choice(features)))

    grow(n_leaves, int(rng.choice(features)) if root_feature is None else root_feature)
    return DecisionTree(*zip(*nodes))


@st.composite
def compiled_forests(draw):
    """Forests at the bitmask tables' edges, with probe rows on every threshold and at NaN, ±inf and ±0.

    Trees of 65-200 leaves need 2-4 words per mask and mix with single-leaf
    trees; some forests never split; feature m - 1 is split on by one tree
    only; X may have no rows or one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 4))
    label_pool = sorted(draw(st.sets(st.integers(-3, 6), min_size=1, max_size=4)))
    n_trees = draw(st.integers(1, 6))
    lone = draw(st.integers(0, n_trees - 1))  # the one tree that splits on feature m - 1
    no_splits = draw(st.integers(0, 3)) == 0
    leaves = st.just(1) if no_splits else st.one_of(st.just(1), st.integers(2, 64), st.integers(65, 200))
    trees = [
        random_tree(rng, draw(leaves), range(m), label_pool, root_feature=m - 1)
        if t == lone
        else random_tree(rng, draw(leaves), range(m - 1), label_pool)
        for t in range(n_trees)
    ]
    X = rng.choice(PROBES, size=(int(rng.integers(1, 12)), m))
    for f in range(m):  # a row exactly on each threshold of each feature
        on_cut = rng.choice(PROBES, size=(len(THRESHOLDS), m))
        on_cut[:, f] = THRESHOLDS
        X = np.vstack([X, on_cut])
    X = X[: draw(st.sampled_from([0, 1, None]))]
    return BlackBoxModel(kind="bagged_forest", label_set=tuple(label_pool), trees=trees), X


class TestForestVote:
    @settings(max_examples=200, deadline=None)
    @given(forests())
    def test_one_pass_vote_matches_per_tree_tally(self, case):
        model, X = case
        assert model.predict_batch(X).tolist() == reference_vote(model, X).tolist()

    @settings(max_examples=150, deadline=None)
    @given(compiled_forests())
    def test_compiled_forest_matches_per_tree_walks(self, case):
        model, X = case
        ranks = model._forest.exit_ranks(X)
        for t, tree in enumerate(model.trees):  # the exit leaf itself, not only its label
            assert np.flatnonzero(tree.feature < 0)[ranks[:, t]].tolist() == route(tree, X).tolist()
        assert model.predict_batch(X).tolist() == reference_vote(model, X).tolist()

    def test_split_and_leaf_trees_tie(self):
        split, _ = tree_fit(np.array([[0.0], [1.0]]), np.array([2, 5]), [0], min_leaf=1)
        model = BlackBoxModel(kind="bagged_forest", label_set=(2, 5), trees=[constant_tree(5), split])
        # row 0: 5 vs 2 ties to 2; row 1: 5 and 5
        assert model.predict_batch(np.array([[0.0], [1.0]])).tolist() == [2, 5]


class TestForest:
    def test_memory_does_not_grow_with_the_tree_count(self):
        # Each tree's bootstrap copy (6000 x 5 floats, 240 kB) exceeds the group budget, so every tree is
        # fitted alone; the copies are drawn as the fit asks for them, not all held at once.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6000, 5))
        d = Dataset(X, (X[:, 0] > 0).astype(int), FeatureSchema.mixed(5, 0))

        def peak(n_trees):
            tracemalloc.start()
            try:
                train_bagged_forest(d, n_trees=n_trees, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < peak(2) + X.nbytes / 2

    def test_single_class_constant_model(self):
        schema = FeatureSchema.mixed(2, 0)
        d = Dataset(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]), np.array([7, 7, 7]), schema)
        f = train_bagged_forest(d, n_trees=5, seed=0)
        assert f.predict([100.0, -100.0]) == 7

    def test_one_row_one_tree(self):
        schema = FeatureSchema.mixed(1, 0)
        d = Dataset(np.array([[3.0]]), np.array([4]), schema)
        f = train_bagged_forest(d, n_trees=1, seed=0)
        assert f.predict([3.0]) == 4

    def test_retrain_same_seed_identical_on_probe_grid(self):
        d = synth_multiclass(seed=8, n=120, m_cont=3, m_bin=2, classes=3, relevant=(0, 3))
        a = train_bagged_forest(d, n_trees=10, seed=5)
        b = train_bagged_forest(d, n_trees=10, seed=5)
        rng = np.random.default_rng(0)
        probe = np.column_stack(
            [rng.uniform(-3, 3, 100), rng.uniform(-3, 3, 100), rng.uniform(-3, 3, 100)]
            + [rng.integers(0, 2, 100).astype(float) for _ in range(2)]
        )
        assert np.array_equal(a.predict_batch(probe), b.predict_batch(probe))

    def test_majority_vote(self):
        f = BlackBoxModel(
            kind="bagged_forest",
            label_set=(2, 3),
            trees=[constant_tree(2), constant_tree(2), constant_tree(3)],
        )
        assert f.predict([0.0]) == 2

    def test_vote_tie_smaller_label(self):
        f = BlackBoxModel(
            kind="bagged_forest",
            label_set=(1, 3),
            trees=[constant_tree(1), constant_tree(1), constant_tree(3), constant_tree(3)],
        )
        assert f.predict([0.0]) == 1

    def test_labels_stay_in_label_set(self):
        d = synth_multiclass(seed=2, n=150, m_cont=4, m_bin=2, classes=4, relevant=(0, 1, 4))
        f = train_bagged_forest(d, n_trees=8, seed=3)
        rng = np.random.default_rng(1)
        probe = np.column_stack(
            [rng.uniform(-5, 5, 200) for _ in range(4)]
            + [rng.integers(0, 2, 200).astype(float) for _ in range(2)]
        )
        preds = f.predict_batch(probe)
        assert set(int(v) for v in preds) <= set(f.label_set)

    def test_dimension_mismatch_rejected(self):
        d = synth_multiclass(seed=2, n=30, m_cont=2, m_bin=0, classes=2, relevant=(0,))
        f = train_bagged_forest(d, n_trees=2, seed=0)
        with pytest.raises(ValueError):
            f.predict([1.0, 2.0, 3.0])

    def test_bagging_sanity_vs_single_tree(self):
        # forest training accuracy >= a single tree trained the same way
        # (one bootstrap tree), averaged over 20 seeded trials
        forest_acc, single_acc = [], []
        for trial in range(20):
            d = synth_multiclass(
                seed=100 + trial, n=250, m_cont=4, m_bin=2, classes=4, relevant=(0, 1, 4)
            )
            forest = train_bagged_forest(d, n_trees=15, seed=trial)
            single = train_bagged_forest(d, n_trees=1, seed=trial)
            forest_acc.append(np.mean(forest.predict_batch(d.X) == d.y))
            single_acc.append(np.mean(single.predict_batch(d.X) == d.y))
        assert np.mean(forest_acc) >= np.mean(single_acc)


class TestTableOracle:
    def test_stored_lookup(self):
        f = table_oracle([((0.0, 0.0), 1), ((1.0, 1.0), 2)])
        assert f.predict([0.0, 0.0]) == 1
        assert f.predict([1.0, 1.0]) == 2

    def test_equidistant_tie_lower_index(self):
        f = table_oracle([((0.0,), 1), ((2.0,), 2)])
        assert f.predict([1.0]) == 1

    def test_exhaustive_binary_cube_exact(self):
        pairs = [((float(a), float(b)), a ^ b) for a in (0, 1) for b in (0, 1)]
        f = table_oracle(pairs, schema=FeatureSchema.mixed(0, 2))
        for (point, label) in pairs:
            assert f.predict(list(point)) == label

    def test_conflicting_duplicates_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            table_oracle([((0.0,), 1), ((0.0,), 2)])

    def test_consistent_duplicates_deduped(self):
        f = table_oracle([((0.0,), 1), ((0.0,), 1), ((1.0,), 0)])
        assert f.table_points.shape[0] == 2


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        d = synth_multiclass(seed=4, n=100, m_cont=3, m_bin=1, classes=3, relevant=(0, 3))
        f = train_bagged_forest(d, n_trees=6, seed=9)
        path = tmp_path / "model.txt"
        save_model(f, path)
        first = path.read_bytes()
        g = load_model(path)
        assert g.kind == "bagged_forest"
        assert g.label_set == f.label_set
        assert np.array_equal(f.predict_batch(d.X), g.predict_batch(d.X))
        save_model(g, tmp_path / "model2.txt")
        assert (tmp_path / "model2.txt").read_bytes() == first

    def test_header_format(self, tmp_path):
        d = synth_multiclass(seed=4, n=30, m_cont=2, m_bin=0, classes=2, relevant=(0,))
        f = train_bagged_forest(d, n_trees=3, seed=1)
        path = tmp_path / "model.txt"
        save_model(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "aggrex-model v1 bagged_forest 3"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("something-else v1 bagged_forest 3\n")
        with pytest.raises(ValueError, match="header"):
            load_model(path)

    def test_table_oracle_not_serializable(self, tmp_path):
        f = table_oracle([((0.0,), 1)])
        with pytest.raises(ValueError):
            save_model(f, tmp_path / "x.txt")

    def test_truncated_model_rejected(self, tmp_path):
        d = synth_multiclass(seed=4, n=40, m_cont=2, m_bin=0, classes=2, relevant=(0,))
        f = train_bagged_forest(d, n_trees=3, seed=1)
        path = tmp_path / "model.txt"
        save_model(f, path)
        lines = path.read_text().splitlines()
        (tmp_path / "cut.txt").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            load_model(tmp_path / "cut.txt")

    def test_trailing_records_rejected(self, tmp_path):
        d = synth_multiclass(seed=4, n=40, m_cont=2, m_bin=0, classes=2, relevant=(0,))
        f = train_bagged_forest(d, n_trees=3, seed=1)
        path = tmp_path / "model.txt"
        save_model(f, path)
        (tmp_path / "extra.txt").write_text(path.read_text() + "node 0 leaf 1\n")
        with pytest.raises(ValueError, match="trailing"):
            load_model(tmp_path / "extra.txt")

    def test_zero_trees_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("aggrex-model v1 bagged_forest 0\n")
        with pytest.raises(ValueError, match="declares 0 trees"):
            load_model(path)

    def test_negative_split_feature_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("aggrex-model v1 bagged_forest 1\nnode 0 split -1 0.5\nnode 1 leaf 0\nnode 2 leaf 1\n")
        with pytest.raises(ValueError, match="negative split feature"):
            load_model(path)

    def test_label_set_and_feature_count_from_leaves(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "aggrex-model v1 bagged_forest 2\n"
            "node 0 split 2 0.5\nnode 1 leaf 4\nnode 2 leaf -1\n"
            "node 0 leaf 4\n"
        )
        f = load_model(path)
        assert f.label_set == (-1, 4)
        with pytest.raises(ValueError, match="references feature 2"):
            f.predict([0.0, 0.0])
        assert f.predict_batch(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])).tolist() == [-1, 4]
