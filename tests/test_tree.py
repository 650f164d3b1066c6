import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggrex.blackbox import CompiledForest
from aggrex.tree import (
    DecisionTree,
    _best_split,
    _class_sum,
    route,
    stack_trees,
    tree_fit,
    tree_from_lines,
    tree_to_lines,
    tree_to_rules,
)


def predictions(tree, X):
    return tree.predict_batch(np.asarray(X, dtype=float))


class TestTreeFit:
    def test_pure_labels_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3, 3, 3])
        t, _ = tree_fit(X, y, [0])
        assert t.leaf_count == 1
        assert t.predict([5.0]) == 3

    def test_xor_four_leaves_perfect_fit(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        t, _ = tree_fit(X, y, [0, 1], max_depth=2, min_leaf=1)
        assert t.leaf_count == 4
        assert np.array_equal(predictions(t, X), y)

    def test_min_leaf_equal_n_majority_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        t, _ = tree_fit(X, y, [0], min_leaf=4)
        assert t.leaf_count == 1
        assert t.predict([9.0]) == 0

    def test_feature_restriction_respected(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 4))
        y = (X[:, 3] > 0.5).astype(int)  # signal lives in an excluded feature
        t, _ = tree_fit(X, y, [0, 1], max_depth=4)
        assert t.features_used <= {0, 1}

    def test_tie_breaks_lower_feature(self):
        # two identical columns: the split must use feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        t, _ = tree_fit(X, y, [0, 1], min_leaf=1)
        assert t.feature[0] == 0

    def test_tie_breaks_lower_threshold(self):
        # labels 0,1,0: cutting at 0.5 or 1.5 gives equal Gini gain (one
        # pure singleton either way); the lower midpoint must win
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        t, _ = tree_fit(X, y, [0], min_leaf=1)
        assert t.threshold[0] == 0.5

    def test_unrestricted_fit_is_exact_without_conflicts(self):
        rng = np.random.default_rng(4)
        X = rng.random((80, 3))
        y = rng.integers(0, 3, size=80)
        t, _ = tree_fit(X, y, [0, 1, 2], max_depth=None, min_leaf=1)
        assert np.array_equal(predictions(t, X), y)

    def test_leaf_count_at_least_distinct_predictions(self):
        rng = np.random.default_rng(5)
        X = rng.random((50, 2))
        y = rng.integers(0, 4, size=50)
        t, _ = tree_fit(X, y, [0, 1], max_depth=6)
        preds = predictions(t, X)
        assert t.leaf_count >= len(set(int(v) for v in preds))

    def test_majority_tie_smaller_label(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([2, 5])
        t, _ = tree_fit(X, y, [0])
        assert t.predict([0.0]) == 2


class TestTreeText:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        X = rng.random((70, 3))
        y = rng.integers(0, 3, size=70)
        t, _ = tree_fit(X, y, [0, 1, 2], max_depth=5)
        lines = tree_to_lines(t)
        t2, consumed = tree_from_lines(lines)
        assert consumed == len(lines)
        assert t2.leaf_count == t.leaf_count
        assert t2.features_used == t.features_used
        probe = rng.random((40, 3))
        assert np.array_equal(predictions(t, probe), predictions(t2, probe))
        assert tree_to_lines(t2) == lines

    def test_rules_render(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        t, _ = tree_fit(X, y, [0], min_leaf=1)
        text = tree_to_rules(t, ["age"])
        assert "if age <= 0.5:" in text
        assert "predict 0" in text and "predict 1" in text


# -- reference: the per-feature split search the whole-node search replaced --

def reference_split_for_feature(xs, y_codes, n_classes, min_leaf, parent_gini):
    """Best (gain, threshold) for one feature column, or None if no valid split."""
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    cuts = np.nonzero(xs_sorted[1:] > xs_sorted[:-1])[0]
    if cuts.size == 0:
        return None
    onehot = np.zeros((xs.size, n_classes))
    onehot[np.arange(xs.size), y_codes[order]] = 1.0
    cum = np.cumsum(onehot, axis=0)
    total = cum[-1]
    n = xs.size
    left_counts = cum[cuts]
    left_n = (cuts + 1).astype(float)
    right_counts = total[None, :] - left_counts
    right_n = n - left_n
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    if not np.any(valid):
        return None
    gini_l = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
    weighted = (left_n * gini_l + right_n * gini_r) / n
    gain = np.where(valid, parent_gini - weighted, -np.inf)
    best = int(np.argmax(gain))
    below, above = xs_sorted[cuts[best]], xs_sorted[cuts[best] + 1]
    threshold = (below + above) / 2.0
    if not below <= threshold < above:  # the midpoint rounded onto the upper value, or overflowed
        threshold = below
    return float(gain[best]), float(threshold)


def reference_tree_fit(X, y, features, max_depth, min_leaf):
    """Tree induction that scans features one at a time, keeping strict improvements.

    Returns the tree's pre-order text records.
    """
    features = sorted(features)
    classes, y_codes = np.unique(y, return_inverse=True)
    n_classes = classes.size
    lines = []

    def build(idx, depth):
        nid = len(lines)
        counts = np.bincount(y_codes[idx], minlength=n_classes).astype(float)
        label = int(classes[int(np.argmax(counts))])
        n_here = idx.size
        if np.max(counts) == n_here or (max_depth is not None and depth >= max_depth) or n_here < 2 * min_leaf:
            lines.append(f"node {nid} leaf {label}")
            return
        parent_gini = 1.0 - float(np.sum((counts / n_here) ** 2))
        best = None
        for f in features:
            cand = reference_split_for_feature(X[idx, f], y_codes[idx], n_classes, min_leaf, parent_gini)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (cand[0], f, cand[1])
        if best is None or best[0] < -1e-12:
            lines.append(f"node {nid} leaf {label}")
            return
        _, f, threshold = best
        lines.append(f"node {nid} split {f} {threshold!r}")
        go_left = X[idx, f] <= threshold
        build(idx[go_left], depth + 1)
        build(idx[~go_left], depth + 1)

    build(np.arange(X.shape[0]), 0)
    return lines


ADJACENT_FLOATS = np.array([np.nextafter(1.0, -np.inf), 1.0, np.nextafter(1.0, np.inf), 3.0, np.nextafter(3.0, np.inf)])


def tie_rich_columns(draw, rng, n, m, kinds=("coarse", "fine", "binary", "constant", "copy", "adjacent")):
    """m columns of n values, each of a drawn kind."""
    cols = []
    for _ in range(m):
        kind = draw(st.sampled_from(kinds))
        if kind == "copy" and cols:
            cols.append(cols[int(rng.integers(0, len(cols)))].copy())
        elif kind == "binary":
            cols.append(rng.integers(0, 2, size=n).astype(float))
        elif kind == "constant":
            cols.append(np.full(n, float(rng.normal())))
        elif kind == "fine":
            cols.append(rng.normal(size=n))
        elif kind == "adjacent":  # neighbouring floats, whose midpoints round onto one of them
            cols.append(rng.choice(ADJACENT_FLOATS, size=n))
        else:
            cols.append(rng.integers(0, 4, size=n) * 0.5)
    return cols


@st.composite
def fit_problems(draw):
    """Small fits rich in ties: duplicate, constant, {0,1}, coarse-valued and adjacent-float columns."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack(tie_rich_columns(draw, rng, n, m))
    n_classes = draw(st.integers(1, 9))
    y = rng.integers(0, n_classes, size=n) * 3 - 2  # sparse, partly negative labels
    features = draw(st.sets(st.integers(0, m - 1), min_size=1))
    min_leaf = draw(st.integers(1, max(1, n // 2 + 1)))
    max_depth = draw(st.sampled_from([None, 0, 1, 2, 3, 12]))
    return X, y, features, max_depth, min_leaf


class TestWholeNodeSplitSearch:
    @settings(max_examples=300, deadline=None)
    @given(fit_problems())
    def test_matches_per_feature_reference(self, problem):
        X, y, features, max_depth, min_leaf = problem
        got, _ = tree_fit(X, y, features, max_depth=max_depth, min_leaf=min_leaf)
        want = reference_tree_fit(X, y, features, max_depth, min_leaf)
        assert tree_to_lines(got) == want

    def test_matches_reference_on_forest_sized_fits(self):
        rng = np.random.default_rng(17)
        for n_classes in (2, 5, 9):
            X = np.column_stack([rng.normal(size=300), rng.integers(0, 2, 300), rng.integers(0, 5, 300) * 0.25])
            X = np.column_stack([X, X[:, 1], rng.normal(size=300)])
            y = rng.integers(0, n_classes, size=300)
            got, _ = tree_fit(X, y, range(5), max_depth=12, min_leaf=2)
            assert tree_to_lines(got) == reference_tree_fit(X, y, range(5), 12, 2)


def recounted_gini(counts, n):
    return 1.0 - float(((np.array(counts) / n) ** 2).sum())


class TestInheritedGini:
    """A child's Gini comes from its parent's chosen cut, bit for bit what a recount gives.

    numpy sums 8 or more terms pairwise, so C = 8 and 9 run a second
    summation order.
    """

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9), st.integers(2, 60), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_child_gini_equals_a_recount(self, n_classes, n, n_cols, min_leaf, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, n_classes, size=n)
        cols = rng.integers(0, 8, size=(n_cols, n)) * 0.25
        order = cols.argsort(axis=1, kind="stable")
        xs = np.take_along_axis(cols, order, axis=1)
        table = np.eye(n_classes, dtype=np.int32)[:, y]
        gini = recounted_gini(np.bincount(y, minlength=n_classes), n)
        best = _best_split(order, xs, table, np.arange(n + 1.0), min_leaf, gini)
        assume(best is not None)
        _, _, cut, left_counts, gini_left, gini_right = best
        right_counts = (np.bincount(y, minlength=n_classes) - left_counts).tolist()
        assert len(left_counts) == n_classes
        assert gini_left == recounted_gini(left_counts, cut + 1)
        assert gini_right == recounted_gini(right_counts, n - cut - 1)


# -- the class-major split search against the row-major one it replaced ------

def row_major_best_split(order, xs, onehot, min_leaf, parent_gini):
    """The split search over (N, C) one-hot rows that scores only the valid cuts, gathered."""
    n = xs.shape[1]
    lo = max(min_leaf, 1) - 1
    col, cut = (xs[:, lo + 1 : n - lo] > xs[:, lo : n - lo - 1]).nonzero()
    if not col.size:
        return None
    cut += lo
    cum = onehot[order]
    cum.cumsum(axis=1, out=cum)
    left = cum[col, cut]
    right = cum[0, -1] - left
    left_n = cut + 1.0
    right_n = n - left_n
    gini_l = 1.0 - ((left / left_n[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / right_n[:, None]) ** 2).sum(axis=1)
    gain = parent_gini - (left_n * gini_l + right_n * gini_r) / n
    best = int(gain.argmax())
    return (
        float(gain[best]), int(col[best]), int(cut[best]), left[best].tolist(), float(gini_l[best]), float(gini_r[best])
    )


@st.composite
def split_problems(draw):
    """One node's presorted columns, rich in ties, with up to 12 classes."""
    n = draw(st.integers(2, 80))
    n_cols = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = np.array(tie_rich_columns(draw, rng, n, n_cols, ("coarse", "binary", "constant", "copy", "adjacent")))
    y = rng.integers(0, n_classes, size=n)
    order = cols.argsort(axis=1, kind="stable")
    return order, np.take_along_axis(cols, order, axis=1), y, n_classes, draw(st.integers(1, 4))


class TestClassMajorSplitSearch:
    @settings(max_examples=400, deadline=None)
    @given(split_problems())
    def test_matches_row_major_search(self, problem):
        order, xs, y, n_classes, min_leaf = problem
        n = y.size
        gini = recounted_gini(np.bincount(y, minlength=n_classes), n)
        got = _best_split(order, xs, np.eye(n_classes, dtype=np.int32)[:, y], np.arange(n + 1.0), min_leaf, gini)
        want = row_major_best_split(order, xs, np.eye(n_classes, dtype=np.int32)[y], min_leaf, gini)
        assert got == want

    @pytest.mark.parametrize("n_terms", [*range(1, 141), 200, 256, 257, 517])
    def test_class_sum_is_numpy_row_sum(self, n_terms):
        # numpy sums a contiguous last axis pairwise; a numpy that sums in another order fails here
        rng = np.random.default_rng(n_terms)
        for shape in ((3, 17), (1, 1)):
            rows = rng.random((*shape, n_terms)) * 10.0 ** rng.integers(-12, 13, size=(*shape, n_terms))
            rows *= rng.choice([-1.0, 1.0], size=rows.shape)
            want = rows.sum(axis=-1)
            got = _class_sum(np.ascontiguousarray(np.moveaxis(rows, -1, 0)))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestStoppingChildren:
    """A split whose children both stop: they become leaves straight from the cut's counts."""

    @pytest.mark.parametrize(
        "y, max_depth, min_leaf",
        [
            ([0, 0, 0, 1, 1, 1], None, 1),  # both halves pure
            ([0, 1, 0, 1, 0], None, 2),  # n = 2 * min_leaf + 1: neither side can split again
            ([0, 1, 0, 0, 1, 1, 0, 1], 1, 1),  # both children at the depth cap
        ],
        ids=["pure-halves", "too-small", "depth-cap"],
    )
    def test_both_children_stop(self, y, max_depth, min_leaf):
        y = np.array(y)
        X = np.arange(y.size, dtype=float)[:, None]
        t, agree = tree_fit(X, y, [0], max_depth=max_depth, min_leaf=min_leaf)
        assert tree_to_lines(t) == reference_tree_fit(X, y, [0], max_depth, min_leaf)
        assert t.leaf_count == 2 and t.feature[0] == 0
        assert agree == int(np.count_nonzero(t.label[route(t, X)] == y))


class TestAdjacentValues:
    """A cut between neighbouring floats whose midpoint rounds onto the upper value."""

    BELOW = float(np.nextafter(1.0, -np.inf))

    @pytest.mark.parametrize("max_depth", [3, None])
    def test_one_cut_separates_the_classes(self, max_depth):
        X = np.array([[self.BELOW], [1.0]])
        t, agree = tree_fit(X, np.array([0, 1]), [0], max_depth=max_depth, min_leaf=1)
        assert tree_to_lines(t) == [f"node 0 split 0 {self.BELOW!r}", "node 1 leaf 0", "node 2 leaf 1"]
        assert predictions(t, X).tolist() == [0, 1] and agree == 2

    def test_threshold_stays_below_an_overflowing_midpoint(self):
        X = np.array([[1e308], [1.5e308]])
        t, _ = tree_fit(X, np.array([0, 1]), [0], min_leaf=1)
        assert t.threshold[0] == 1e308
        assert predictions(t, X).tolist() == [0, 1]


class TestFitAgreement:
    @settings(max_examples=200, deadline=None)
    @given(fit_problems())
    def test_agree_counts_the_rows_predicted_right(self, problem):
        X, y, features, max_depth, min_leaf = problem
        t, agree = tree_fit(X, y, features, max_depth=max_depth, min_leaf=min_leaf)
        assert type(agree) is int
        assert agree / y.size == float(np.mean(t.predict_batch(X) == y))


# -- the array router against a scalar walk of the same arrays ----------------

def scalar_leaf(tree, x):
    """Leaf index one row reaches, one node at a time."""
    node = 0
    while tree.feature[node] >= 0:
        node = node + 1 if x[tree.feature[node]] <= tree.threshold[node] else int(tree.right[node])
    return node


def probe_rows(tree, X, rng):
    """The fit's rows, random rows, and rows that sit exactly on each split's threshold."""
    rows = [X, rng.normal(size=(5, X.shape[1]))]
    for f, t in zip(tree.feature.tolist(), tree.threshold.tolist()):
        if f >= 0:
            on_cut = X[rng.integers(0, X.shape[0], size=2)].copy()
            on_cut[:, f] = t
            rows.append(on_cut)
    return np.vstack(rows)


class TestRouter:
    @settings(max_examples=200, deadline=None)
    @given(fit_problems(), st.integers(0, 2**32 - 1))
    def test_matches_scalar_walk(self, problem, seed):
        X, y, features, max_depth, min_leaf = problem
        t, _ = tree_fit(X, y, features, max_depth=max_depth, min_leaf=min_leaf)
        probe = probe_rows(t, X, np.random.default_rng(seed))
        want = [scalar_leaf(t, x) for x in probe]
        assert route(t, probe).tolist() == want
        assert t.predict_batch(probe).tolist() == t.label[want].tolist()
        assert [t.predict(x) for x in probe[:5]] == t.label[want[:5]].tolist()

    def test_threshold_value_goes_left(self):
        t, _ = tree_fit(np.array([[0.0], [1.0]]), np.array([4, 9]), [0], min_leaf=1)
        assert t.threshold[0] == 0.5
        assert t.predict_batch(np.array([[0.5], [np.nextafter(0.5, 1.0)]])).tolist() == [4, 9]

    def test_single_leaf_tree(self):
        t = DecisionTree.leaf(-3)
        assert t.leaf_count == 1 and t.features_used == frozenset()
        assert t.predict_batch(np.zeros((4, 2))).tolist() == [-3] * 4
        assert t.predict([7.0]) == -3

    def test_rows_narrower_than_a_split_feature_rejected(self):
        # flat indexing would otherwise read the next row's values
        t = DecisionTree(feature=[2, -1, -1], threshold=[0.5, 0.0, 0.0], label=[-1, 0, 1], right=[2, -1, -1])
        with pytest.raises(ValueError, match="splits on feature 2"):
            route(t, np.zeros((3, 2)))

    def test_no_rows(self):
        t, _ = tree_fit(np.array([[0.0], [1.0]]), np.array([0, 1]), [0], min_leaf=1)
        assert t.predict_batch(np.empty((0, 1))).shape == (0,)

    def test_stacked_trees_route_independently(self):
        rng = np.random.default_rng(3)
        X = rng.random((30, 2))
        trees = [
            tree_fit(X, (X[:, 0] > 0.5).astype(int), [0, 1], min_leaf=1)[0],
            DecisionTree.leaf(7),
            tree_fit(X, (X[:, 1] > 0.3).astype(int) + 2 * (X[:, 0] > 0.8), [0, 1], min_leaf=1)[0],
        ]
        both, roots = stack_trees(trees)
        assert roots.tolist() == [0, trees[0].feature.size, trees[0].feature.size + 1]
        # the compiled forest finds each tree's exit leaf, as a pre-order leaf rank, where route on that tree alone does
        ranks = CompiledForest(trees, (0, 1, 2, 3, 7)).exit_ranks(X)
        for t, reached in zip(trees, ranks.T):
            assert np.flatnonzero(t.feature < 0)[reached].tolist() == route(t, X).tolist()


# -- the array layout and its text form -----------------------------------------

def assert_same_arrays(a, b):
    for name in ("feature", "threshold", "label", "right"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestArrays:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(fit_problems(), min_size=1, max_size=4))
    def test_text_round_trip_gives_equal_arrays(self, problems):
        trees = [tree_fit(X, y, f, max_depth=d, min_leaf=m)[0] for X, y, f, d, m in problems]
        for t in trees:
            lines = tree_to_lines(t)
            back, consumed = tree_from_lines(lines)
            assert consumed == len(lines)
            assert_same_arrays(back, t)
            assert tree_to_lines(back) == lines
        records = iter([line for t in trees for line in tree_to_lines(t)])
        for t in trees:
            back, consumed = tree_from_lines(records)
            assert consumed == t.feature.size
            assert_same_arrays(back, t)
        assert next(records, None) is None

    def test_arrays_read_only(self):
        t, _ = tree_fit(np.array([[0.0], [1.0], [2.0]]), np.array([0, 1, 1]), [0], min_leaf=1)
        for name in ("feature", "threshold", "label", "right"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.feature = np.zeros(3, dtype=np.int64)

    def test_caller_arrays_not_aliased(self):
        feature = np.array([0, -1, -1])
        t = DecisionTree(feature=feature, threshold=[0.5, 0.0, 0.0], label=[-1, 1, 2], right=[2, -1, -1])
        feature[0] = -1
        assert t.feature[0] == 0 and t.leaf_count == 2 and t.features_used == {0}

    def test_ragged_arrays_rejected(self):
        with pytest.raises(ValueError, match="label"):
            DecisionTree(feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0], label=[1], right=[2, -1, -1])


class TestParserRejects:
    def test_negative_split_feature(self):
        with pytest.raises(ValueError, match="negative split feature"):
            tree_from_lines(["node 0 split -1 0.5", "node 1 leaf 0", "node 2 leaf 1"])

    def test_id_not_preorder_position(self):
        with pytest.raises(ValueError, match="pre-order position"):
            tree_from_lines(["node 0 split 0 0.5", "node 2 leaf 0", "node 1 leaf 1"])

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, threshold):
        with pytest.raises(ValueError, match="non-finite"):
            tree_from_lines([f"node 0 split 0 {threshold}", "node 1 leaf 0", "node 2 leaf 1"])

    def test_truncated_stream(self):
        with pytest.raises(ValueError, match="truncated"):
            tree_from_lines(["node 0 split 0 0.5", "node 1 leaf 0"])
