import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggrex import tree as tree_module
from aggrex.blackbox import CompiledForest
from aggrex.tree import (
    DecisionTree,
    _class_sum,
    _gini,
    _search_level,
    fit_job,
    fit_trees,
    route,
    runs,
    stack_trees,
    tree_from_lines,
    tree_to_lines,
    tree_to_rules,
)

from conftest import random_tree
from oracles import features_used, tree_fit


def predictions(tree, X):
    return tree.predict_batch(np.asarray(X, dtype=float))


class TestTreeFit:
    def test_pure_labels_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3, 3, 3])
        t, _ = tree_fit(X, y, [0])
        assert t.leaf_count == 1
        assert t.predict_batch([[5.0]])[0] == 3

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
        assert t.predict_batch([[9.0]])[0] == 0

    def test_feature_restriction_respected(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 4))
        y = (X[:, 3] > 0.5).astype(int)  # signal lives in an excluded feature
        t, _ = tree_fit(X, y, [0, 1], max_depth=4)
        assert features_used(t) <= {0, 1}

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
        assert t.predict_batch([[0.0]])[0] == 2


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
        assert features_used(t2) == features_used(t)
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


def node_split(order, xs, table, min_leaf, parent_gini, ranked=True):
    """One node's best cut through the level search: (gain, column, cut, left counts, left Gini, right Gini) or None.

    order and xs are the node's (F, n) presorted columns, its rows 0 .. n-1.
    Unranked, the search checks no ties, as for a group whose columns hold none.
    """
    n = order.shape[1]
    vals = np.empty_like(xs)
    np.put_along_axis(vals, order, xs, axis=1)  # each column's values by row
    counts = table.sum(axis=1)[None, :]
    one = np.array([0]), np.array([n])
    no_pad = np.zeros((order.shape[0], 1), dtype=bool)
    best, col, at, right = _search_level(
        order, vals if ranked else None, no_pad, table, *one, counts, np.array([parent_gini]), min_leaf
    )
    if best[0] == -np.inf:
        return None
    left = counts[0] - right[0]
    gini_l, gini_r = _gini(np.stack([left, right[0]]), np.array([at[0] + 1, n - at[0] - 1]))  # as the fit's children
    return float(best[0]), int(col[0]), int(at[0]), left.tolist(), float(gini_l), float(gini_r)


class TestInheritedGini:
    """A child's Gini, taken from the chosen cut's counts, is bit for bit what a recount gives.

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
        best = node_split(order, xs, table, min_leaf, gini)
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
        got = node_split(order, xs, np.eye(n_classes, dtype=np.int32)[:, y], min_leaf, gini)
        want = row_major_best_split(order, xs, np.eye(n_classes, dtype=np.int32)[y], min_leaf, gini)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 80), st.integers(1, 4), st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_tie_free_columns_match_row_major_search_unranked(self, n, n_cols, n_classes, min_leaf, seed):
        rng = np.random.default_rng(seed)
        cols = np.array([rng.permutation(n) * rng.choice([0.5, -3.0]) for _ in range(n_cols)])  # distinct values
        y = rng.integers(0, n_classes, size=n)
        order = cols.argsort(axis=1, kind="stable")
        xs = np.take_along_axis(cols, order, axis=1)
        gini = recounted_gini(np.bincount(y, minlength=n_classes), n)
        got = node_split(order, xs, np.eye(n_classes, dtype=np.int32)[:, y], min_leaf, gini, ranked=False)
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


class TestLevelSearch:
    """Many nodes searched as one level: each node's result is its own search's, whatever the blocks."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(split_problems(), min_size=1, max_size=6), st.sampled_from([1, 40, 1 << 15]), st.integers(1, 4),
        st.booleans(),
    )
    def test_each_node_gets_its_own_best_cut(self, problems, search_cells, min_leaf, tie_free):
        # nodes share the level's column count and class table, as a level's nodes do
        if tie_free:  # each column's values made distinct, as in a group whose columns hold no tie
            problems = [(order, np.arange(float(xs.shape[1])), *rest) for order, xs, *rest in problems]
        width = max(order.shape[0] for order, *_ in problems)
        n_classes = max(c for *_, c, _ in problems)
        orders, values, pads, labels, starts, counts, ginis, want = [], [], [], [], [], [], [], []
        first = 0
        for order, xs, y, _, _ in problems:
            n = y.size
            xs = np.broadcast_to(xs, order.shape)
            node_counts = np.bincount(y, minlength=n_classes)
            gini = recounted_gini(node_counts, n)
            want.append(node_split(order, xs, np.eye(n_classes, dtype=np.int32)[:, y], min_leaf, gini))
            pad = width - order.shape[0]  # rows in row order, as a narrower job is padded
            pads.append(np.arange(width) >= order.shape[0])
            order = np.vstack([order, np.tile(np.arange(n), (pad, 1))])
            xs = np.vstack([xs, np.zeros((pad, n))])
            vals = np.empty_like(xs)
            np.put_along_axis(vals, order, xs, axis=1)
            orders.append(order + first)
            values.append(vals)
            labels.append(y)
            starts.append(first)
            counts.append(node_counts)
            ginis.append(gini)
            first += n
        sizes = np.array([y.size for y in labels])
        order, vals = np.hstack(orders), np.hstack(values)
        table = np.eye(n_classes, dtype=np.int32)[:, np.concatenate(labels)]
        with mock.patch.object(tree_module, "SEARCH_CELLS", search_cells):
            got = _search_level(
                order, None if tie_free else vals, np.array(pads).T, table, np.array(starts), sizes, np.array(counts),
                np.array(ginis), min_leaf,
            )
        for k, expected in enumerate(want):
            best, col, at, right = (part[k] for part in got)
            if expected is None:
                assert best == -np.inf
            else:
                left = (counts[k] - right).tolist()
                assert (float(best), int(col), int(at) - starts[k], left) == expected[:4]


# -- the grouped fit against a copy of the recursive fit it replaced --------------

def recursive_best_split(order, xs, table, sizes, min_leaf, parent_gini):
    """Best (gain, column, cut, left counts, left Gini, right Gini) of one node, or None: the per-node search."""
    n = xs.shape[1]
    lo = max(min_leaf, 1) - 1
    hi = n - lo - 1
    if hi <= lo:
        return None
    invalid = ~(xs[:, lo + 1 : hi + 1] > xs[:, lo:hi])
    cum = table.take(order, axis=1)
    cum.cumsum(axis=2, out=cum)
    left = cum[:, :, lo:hi]
    left_n = sizes[lo + 1 : hi + 1]
    right_n = left_n[::-1]
    share = left / left_n
    share *= share
    gini_l = _class_sum(share)
    np.subtract(1.0, gini_l, out=gini_l)
    np.divide(cum[:, :1, -1:] - left, right_n, out=share)
    share *= share
    gini_r = _class_sum(share)
    np.subtract(1.0, gini_r, out=gini_r)
    gain = left_n * gini_l
    gain += right_n * gini_r
    gain /= n
    np.subtract(parent_gini, gain, out=gain)
    gain[invalid] = -np.inf
    col, cut = divmod(int(gain.argmax()), hi - lo)
    if invalid[col, cut]:
        return None
    return float(gain[col, cut]), col, cut + lo, left[:, col, cut].tolist(), float(gini_l[col, cut]), float(gini_r[col, cut])


def recursive_tree_fit(X, y, features, max_depth, min_leaf):
    """The one-tree recursive fit that the grouped fit replaced: (pre-order records, agree)."""
    X = np.asarray(X, dtype=float)
    features = sorted(int(f) for f in features)
    cols = X[:, features].T
    classes, y_codes = np.unique(y, return_inverse=True)
    labels = classes.tolist()
    n_rows = X.shape[0]
    table = np.eye(len(labels), dtype=np.int32)[:, y_codes]
    sizes = np.arange(n_rows + 1.0)
    depth_cap = float("inf") if max_depth is None else max_depth
    nodes = []
    is_left = np.empty(n_rows, dtype=bool)
    agree = 0

    def stops(counts, n_here, depth):
        return max(counts) == n_here or depth >= depth_cap or n_here < 2 * min_leaf

    def leaf(counts):
        nonlocal agree
        top = max(counts)
        nodes.append([-1, 0.0, labels[counts.index(top)], -1])
        agree += top

    def build(order, xs, counts, gini, depth):
        n_here = order.shape[1]
        best = recursive_best_split(order, xs, table, sizes, min_leaf, gini)
        if best is None or best[0] < -1e-12:
            leaf(counts)
            return
        _, col, cut, left_counts, gini_left, gini_right = best
        below, above = xs[col, cut : cut + 2].tolist()
        threshold = (below + above) / 2.0
        if not below <= threshold < above:
            threshold = below
        node = [features[col], threshold, -1, -1]
        nodes.append(node)
        right_counts = [c - c_left for c, c_left in zip(counts, left_counts)]
        left_stops = stops(left_counts, cut + 1, depth + 1)
        right_stops = stops(right_counts, n_here - cut - 1, depth + 1)
        if not (left_stops and right_stops):
            is_left[order[col]] = np.arange(n_here) <= cut
            go = is_left.take(order)
        if left_stops:
            leaf(left_counts)
        else:
            build(order[go].reshape(len(features), -1), xs[go].reshape(len(features), -1), left_counts, gini_left, depth + 1)
        node[3] = len(nodes)
        if right_stops:
            leaf(right_counts)
        else:
            go = ~go
            build(order[go].reshape(len(features), -1), xs[go].reshape(len(features), -1), right_counts, gini_right, depth + 1)

    counts = np.bincount(y_codes, minlength=len(labels)).tolist()
    if stops(counts, n_rows, 0):
        leaf(counts)
    else:
        order = cols.argsort(axis=1, kind="stable")
        gini = 1.0 - float(((np.array(counts) / n_rows) ** 2).sum())
        build(order, np.take_along_axis(cols, order, axis=1), counts, gini, 0)
    return tree_to_lines(DecisionTree(*zip(*nodes))), agree


@st.composite
def fit_groups(draw):
    """1-6 fit problems of mixed size, width and class count (1-17), some resampled with duplicates."""
    problems = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 60))
        m = draw(st.integers(1, 5))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        X = np.column_stack(tie_rich_columns(draw, rng, n, m))
        y = rng.integers(0, draw(st.integers(1, 17)), size=n) * 3 - 2
        if draw(st.booleans()):  # a bootstrap resample: repeated rows
            idx = rng.integers(0, n, size=n)
            X, y = X[idx], y[idx]
        problems.append((X, y, sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))))
    return problems, draw(st.sampled_from([None, 0, 1, 2, 3, 12])), draw(st.sampled_from([1, 2, 3]))


def fitted_records(problems, max_depth, min_leaf):
    return [(tree_to_lines(t), agree) for t, agree in fit_trees([fit_job(*p) for p in problems], max_depth, min_leaf)]


class TestGroupedFit:
    """A group's trees are each the recursive fit's tree, whatever the group, its order and its blocks."""

    @settings(max_examples=150, deadline=None)
    @given(fit_groups(), st.randoms(use_true_random=False), st.sampled_from([1, 60, 1 << 15]))
    def test_matches_recursive_fit_in_any_group(self, group, random, search_cells):
        problems, max_depth, min_leaf = group
        want = [recursive_tree_fit(X, y, f, max_depth, min_leaf) for X, y, f in problems]
        with mock.patch.object(tree_module, "SEARCH_CELLS", search_cells):
            assert fitted_records(problems, max_depth, min_leaf) == want
            shuffled = list(range(len(problems)))
            random.shuffle(shuffled)
            got = fitted_records([problems[i] for i in shuffled], max_depth, min_leaf)
            assert [got[shuffled.index(i)] for i in range(len(problems))] == want
            alone = [fitted_records([p], max_depth, min_leaf)[0] for p in problems]
            assert alone == want
        for record in fitted_records(problems, max_depth, min_leaf):
            assert type(record[1]) is int

    @pytest.mark.parametrize("max_depth", [0, 1, None])
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_named_cases(self, max_depth, min_leaf):
        rng = np.random.default_rng(5)
        n = 40
        binary = rng.integers(0, 2, size=(n, 2)).astype(float)
        mixed = np.column_stack([rng.normal(size=n), binary, rng.integers(0, 4, size=n) * 0.5])
        idx = rng.integers(0, n, size=n)
        problems = [
            (mixed, np.full(n, 4), [0, 1, 2, 3]),  # a pure root
            (mixed[idx], rng.integers(0, 3, size=n)[idx], [0, 1, 2, 3]),  # bootstrap duplicates
            (binary, (binary[:, 0] + 2 * binary[:, 1]).astype(int), [0, 1]),  # binary columns only
            (mixed, rng.integers(0, 5, size=n), [0, 3]),  # 5 classes, padded next to 9
            (mixed, rng.integers(0, 9, size=n), [1, 2, 3]),  # 9 classes: grouped apart
            (mixed[:, :1], rng.integers(0, 12, size=n), [0]),  # 12 classes: grouped apart
        ]
        want = [recursive_tree_fit(X, y, f, max_depth, min_leaf) for X, y, f in problems]
        assert fitted_records(problems, max_depth, min_leaf) == want
        assert [fitted_records([p], max_depth, min_leaf)[0] for p in problems] == want

    def test_a_near_tie_keeps_its_class_order(self):
        # Two cuts whose gains differ only in the last bit, where the order the 6 class terms are
        # added in decides the winner. Padded to 9 classes, as in a group with a 9-class job, the
        # terms would be added pairwise and the other cut would win at node 10.
        digits = ("1102120011122221022000121", "2111201022211020110002110", "3412024422430052035104440")
        col0, col1, y = (np.array([int(c) for c in text]) for text in digits)
        six = (np.column_stack([col0, col1]).astype(float), y, [0, 1])
        nine = (np.arange(10.0)[:, None], np.arange(10) % 9, [0])
        want = recursive_tree_fit(*six, None, 1)
        assert want[0][10] == "node 10 split 1 1.5"
        assert fitted_records([six, nine], None, 1) == [want, recursive_tree_fit(*nine, None, 1)]

    def test_runs_draw_their_items_lazily(self):
        drawn = []

        def items():
            for i in range(5):
                drawn.append(i)
                yield i

        with mock.patch.object(tree_module, "GROUP_CELLS", 20):
            grouped = runs(items(), lambda item: (2, 5))  # 10 cells each: two to a run
            assert next(grouped) == [0, 1] and drawn == [0, 1, 2]
            assert list(grouped) == [[2, 3], [4]]

    def test_groups_split_at_the_cell_budget(self):
        rng = np.random.default_rng(8)
        problems = [(rng.normal(size=(30, 3)), rng.integers(0, 3, size=30), [0, 1, 2]) for _ in range(5)]
        want = [recursive_tree_fit(X, y, f, 12, 2) for X, y, f in problems]
        for budget in (1, 90, 180, 1 << 15):  # one tree per group, one, two, and all five
            with mock.patch.object(tree_module, "GROUP_CELLS", budget):
                assert fitted_records(problems, 12, 2) == want


class TestTwoValuedColumns:
    """Two-valued columns, scored outside the cut grid, give the recursive fit's trees."""

    def fits(self, problems, max_depth=None, min_leaf=1):
        want = [recursive_tree_fit(X, y, f, max_depth, min_leaf) for X, y, f in problems]
        assert fitted_records(problems, max_depth, min_leaf) == want
        assert [fitted_records([p], max_depth, min_leaf)[0] for p in problems] == want
        return [lines for lines, _ in want]

    @pytest.mark.parametrize("binary_first", [True, False])
    def test_exact_tie_with_a_many_valued_column_goes_to_the_lower_column(self, binary_first):
        # both columns split the rows 0,0 | 1,1: the same counts, so the same gain to the last bit
        binary, many = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([binary, many] if binary_first else [many, binary])
        [lines] = self.fits([(X, np.array([0, 0, 1, 1]), [0, 1])])
        assert lines[0] == ("node 0 split 0 0.5" if binary_first else "node 0 split 0 1.5")

    def test_a_continuous_column_with_two_values(self):
        rng = np.random.default_rng(21)
        col = rng.choice([-1.7, 2.3], size=30)
        X = np.column_stack([rng.normal(size=30), col])
        y = (col > 0).astype(int) ^ (rng.random(30) < 0.2)
        [lines] = self.fits([(X, y, [1])], max_depth=3)
        assert lines[0] == f"node 0 split 1 {(-1.7 + 2.3) / 2.0!r}"

    @pytest.mark.parametrize("max_depth", [1, None])
    def test_a_job_of_two_valued_columns_only(self, max_depth):
        rng = np.random.default_rng(22)
        X = rng.integers(0, 2, size=(50, 3)) * np.array([1.0, 0.5, -3.0])
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 2] < 0)
        self.fits([(X, y, [0, 1, 2])], max_depth=max_depth)

    def test_a_group_of_jobs_with_no_and_with_only_two_valued_columns(self):
        rng = np.random.default_rng(23)
        many = rng.normal(size=(40, 3))
        binary = rng.integers(0, 2, size=(40, 4)).astype(float)
        problems = [
            (many, rng.integers(0, 3, size=40), [0, 1, 2]),
            (binary, rng.integers(0, 3, size=40), [0, 1, 2, 3]),
            (np.column_stack([binary[:, :1], many[:, :1]]), rng.integers(0, 2, size=40), [0, 1]),
            (binary, rng.integers(0, 4, size=40), [1]),
        ]
        self.fits(problems, min_leaf=2)

    def test_a_binary_cut_that_leaves_too_few_rows_on_one_side(self):
        # the binary column separates the classes exactly, but its upper side holds one row
        binary = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        X = np.column_stack([binary, [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]])
        y = np.array([0, 0, 0, 0, 0, 1])
        [lines] = self.fits([(X, y, [0, 1])], min_leaf=2)
        assert not lines[0].startswith("node 0 split 0 ")
        [lines] = self.fits([(X, y, [0, 1])], min_leaf=1)
        assert lines[0] == "node 0 split 0 0.5"

    def test_signed_zeros_below_infinity_keep_the_nodes_own_threshold(self):
        # the midpoint with +inf overflows, so the threshold is the value below the cut: the node's last
        # zero in row order, here -0.0, which a row of the job's smaller value would not always give
        X = np.array([[0.0], [-0.0], [np.inf], [np.inf], [0.0], [-0.0]])
        [lines] = self.fits([(X, np.array([0, 0, 1, 1, 0, 0]), [0])])
        assert lines[0] == "node 0 split 0 -0.0"

    @pytest.mark.parametrize("min_leaf", [1, 2])
    def test_nine_classes(self, min_leaf):
        rng = np.random.default_rng(24)
        X = np.column_stack([rng.integers(0, 2, size=(90, 3)), rng.normal(size=90), rng.integers(0, 3, size=90)])
        y = (rng.integers(0, 9, size=90) + 3 * X[:, 0].astype(int)) % 9
        assert np.unique(y).size == 9
        self.fits([(X, y, [0, 1, 2, 3, 4]), (X, y, [0, 2, 4])], min_leaf=min_leaf)


def ranks_kept(problems, max_depth=None, min_leaf=1):
    """Whether each group's search checks ties: the `ranks` that `_root_columns` hands it are not None."""
    kept = []

    def spy(*args):
        out = root_columns(*args)
        kept.append(out[0] is not None)
        return out

    root_columns = tree_module._root_columns
    with mock.patch.object(tree_module, "_root_columns", spy):
        fitted_records(problems, max_depth, min_leaf)
    return kept


class TestTieFreeGroups:
    """A group whose grid columns hold no tie skips the rank check and masks its padding per node."""

    fits = TestTwoValuedColumns.fits

    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_a_tie_free_group(self, min_leaf):
        rng = np.random.default_rng(31)
        problems = [
            (rng.normal(size=(50, 3)), rng.integers(0, 3, size=50), [0, 1, 2]),
            (rng.uniform(-3, 3, size=(30, 2)), rng.integers(0, 5, size=30), [1]),
            (rng.normal(size=(40, 4)), rng.integers(0, 2, size=40), [0, 2, 3]),
        ]
        assert ranks_kept(problems, None, min_leaf) == [False]
        self.fits(problems, min_leaf=min_leaf)

    @pytest.mark.parametrize("tie", [0.25, np.nan], ids=["repeated-value", "nan"])
    def test_a_group_where_one_job_ties(self, tie):
        rng = np.random.default_rng(32)
        tied = rng.normal(size=(40, 2))
        tied[[3, 17, 29], 1] = tie
        problems = [
            (rng.normal(size=(40, 2)), rng.integers(0, 3, size=40), [0, 1]),
            (tied, rng.integers(0, 3, size=40), [0, 1]),
            (rng.normal(size=(40, 2)), rng.integers(0, 3, size=40), [0, 1]),
        ]
        assert ranks_kept(problems) == [True]
        assert ranks_kept(problems[:1]) == [False]
        self.fits(problems)

    @pytest.mark.parametrize("max_depth, min_leaf", [(None, 1), (2, 1), (None, 2)])
    def test_jobs_with_fewer_many_valued_columns_than_the_widest(self, max_depth, min_leaf):
        rng = np.random.default_rng(33)
        fine = rng.normal(size=(40, 3))
        binary = rng.integers(0, 2, size=(40, 3)).astype(float)
        problems = [
            (fine, rng.integers(0, 3, size=40), [0, 1, 2]),  # three grid columns: the group's widest
            (np.column_stack([binary[:, :2], fine[:, :1]]), rng.integers(0, 3, size=40), [0, 1, 2]),  # one
            (np.column_stack([np.full(40, 2.5), fine[:, 1]]), rng.integers(0, 2, size=40), [0, 1]),  # one
            (binary, rng.integers(0, 4, size=40), [0, 1, 2]),  # none: every grid slot a pad
        ]
        assert ranks_kept(problems, max_depth, min_leaf) == [False]
        self.fits(problems, max_depth, min_leaf)

    def test_the_last_node_splits_on_a_two_valued_column_with_no_grid_cut(self):
        # The level's last node belongs to a job with no many-valued column: its grid best is -inf and
        # its position can be the level's last, past which the grid has no row to read.
        rng = np.random.default_rng(34)
        binary = rng.integers(0, 2, size=(30, 2)).astype(float)
        problems = [
            (rng.normal(size=(30, 2)), rng.integers(0, 3, size=30), [0, 1]),
            (binary, (binary[:, 0] + 2 * binary[:, 1]).astype(int), [0, 1]),
        ]
        assert ranks_kept(problems) == [False]
        self.fits(problems)


class TestCountDtype:
    """Class counts are summed in int16 while every tree has fewer than 2^15 rows, else in int32."""

    def test_a_block_past_the_int16_range(self):
        # three 12000-row trees searched as one block: it spans more rows than int16 counts, each node fewer
        rng = np.random.default_rng(9)
        problems = [(rng.normal(size=(12000, 1)), rng.integers(0, 2, size=12000), [0]) for _ in range(3)]
        want = [recursive_tree_fit(X, y, f, 1, 2) for X, y, f in problems]
        with mock.patch.object(tree_module, "GROUP_CELLS", 1 << 20), mock.patch.object(tree_module, "SEARCH_CELLS", 1 << 20):
            assert fitted_records(problems, 1, 2) == want

    def test_a_tree_past_the_int16_range(self):
        # one class holds about 36000 rows: more than int16 counts
        rng = np.random.default_rng(10)
        X, y = rng.normal(size=(40000, 1)), (rng.random(40000) < 0.1).astype(int)
        assert fitted_records([(X, y, [0])], 1, 2) == [recursive_tree_fit(X, y, [0], 1, 2)]


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
        assert [int(t.predict_batch(probe[k : k + 1])[0]) for k in range(5)] == t.label[want[:5]].tolist()

    def test_threshold_value_goes_left(self):
        t, _ = tree_fit(np.array([[0.0], [1.0]]), np.array([4, 9]), [0], min_leaf=1)
        assert t.threshold[0] == 0.5
        assert t.predict_batch(np.array([[0.5], [np.nextafter(0.5, 1.0)]])).tolist() == [4, 9]

    def test_single_leaf_tree(self):
        t = DecisionTree.leaf(-3)
        assert t.leaf_count == 1 and features_used(t) == frozenset()
        assert t.predict_batch(np.zeros((4, 2))).tolist() == [-3] * 4
        assert t.predict_batch([[7.0]])[0] == -3

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

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_stacked_route_from_every_root_matches_each_tree(self, width, depths, rows, seed):
        # thresholds come from a small grid that the rows draw most values from, so many rows sit exactly on a cut
        rng = np.random.default_rng(seed)
        grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        trees = [random_tree(rng, width, depth, grid) for depth in depths]
        X = np.where(rng.random((rows, width)) < 0.8, rng.choice(grid, (rows, width)), rng.normal(size=(rows, width)))
        stacked, roots = stack_trees(trees)
        leaves = route(stacked, X, roots)
        assert leaves.shape == (len(trees), rows)
        for t, (tree, leaf) in enumerate(zip(trees, leaves)):
            assert (leaf - roots[t]).tolist() == route(tree, X).tolist()
            assert stacked.label[leaf].tolist() == tree.predict_batch(X).tolist()


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
        assert t.feature[0] == 0 and t.leaf_count == 2 and features_used(t) == {0}

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

    def test_extra_tokens_on_a_leaf_record(self):
        with pytest.raises(ValueError, match="bad leaf record"):
            tree_from_lines(["node 0 leaf 2 junk"])

    def test_extra_tokens_on_a_split_record(self):
        with pytest.raises(ValueError, match="bad split record"):
            tree_from_lines(["node 0 split 0 0.5 junk", "node 1 leaf 0", "node 2 leaf 1"])

    @pytest.mark.parametrize(
        "records, match",
        [
            (["node 0 split 9223372036854775808 0.5", "node 1 leaf 0", "node 2 leaf 1"], "split feature outside int64"),
            (["node 0 leaf 9223372036854775808"], "leaf label outside int64"),
            (["node 0 leaf -9223372036854775809"], "leaf label outside int64"),
            ([0], "record 0 is not a string"),
            (["node 0 split 0 0.5", None, "node 2 leaf 1"], "record 1 is not a string"),
        ],
        ids=["feature-past-int64", "label-past-int64", "label-below-int64", "int-record", "null-record"],
    )
    def test_records_the_tree_arrays_cannot_hold(self, records, match):
        with pytest.raises(ValueError, match=match):
            tree_from_lines(records)

    def test_int64_extremes_parse(self):
        records = [
            "node 0 split 9223372036854775807 0.5", "node 1 leaf -9223372036854775808", "node 2 leaf 9223372036854775807"
        ]
        tree, _ = tree_from_lines(records)
        assert tree_to_lines(tree) == records


class TestRootDepth:
    """A job whose root sits at depth d grows what a job at depth 0 grows under a cap d lower."""

    @settings(max_examples=60, deadline=None)
    @given(fit_groups(), st.lists(st.integers(0, 4), min_size=6, max_size=6))
    def test_a_job_at_depth_d_is_the_job_at_depth_0_with_the_cap_d_lower(self, group, depths):
        problems, max_depth, min_leaf = group
        for cap in (max_depth, None if max_depth is None else max_depth + 4):
            at_depth = [fit_job(*p, depth=d) for p, d in zip(problems, depths)]
            got = [(tree_to_lines(t), agree) for t, agree in fit_trees(at_depth, cap, min_leaf)]
            want = [
                fitted_records([p], None if cap is None else max(cap - d, 0), min_leaf)[0]
                for p, d in zip(problems, depths)
            ]
            assert got == want

    def test_a_root_at_the_cap_is_a_leaf(self):
        X = np.arange(8.0)[:, None]
        tree, agree = fit_trees([fit_job(X, np.arange(8) % 2, [0], depth=3)], 3, 1)[0]
        assert tree_to_lines(tree) == ["node 0 leaf 0"] and agree == 4
