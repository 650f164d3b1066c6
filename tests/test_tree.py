import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aggrex.tree import DecisionTree, Node, tree_fit, tree_from_lines, tree_to_lines, tree_to_rules


def predictions(tree, X):
    return tree.predict_batch(np.asarray(X, dtype=float))


class TestTreeFit:
    def test_pure_labels_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3, 3, 3])
        t = tree_fit(X, y, [0])
        assert t.leaf_count == 1
        assert t.predict([5.0]) == 3

    def test_xor_four_leaves_perfect_fit(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        t = tree_fit(X, y, [0, 1], max_depth=2, min_leaf=1)
        assert t.leaf_count == 4
        assert np.array_equal(predictions(t, X), y)

    def test_min_leaf_equal_n_majority_leaf(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        t = tree_fit(X, y, [0], min_leaf=4)
        assert t.leaf_count == 1
        assert t.predict([9.0]) == 0

    def test_feature_restriction_respected(self):
        rng = np.random.default_rng(0)
        X = rng.random((60, 4))
        y = (X[:, 3] > 0.5).astype(int)  # signal lives in an excluded feature
        t = tree_fit(X, y, [0, 1], max_depth=4)
        assert t.features_used <= {0, 1}

    def test_tie_breaks_lower_feature(self):
        # two identical columns: the split must use feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        t = tree_fit(X, y, [0, 1], min_leaf=1)
        assert t.root.feature == 0

    def test_tie_breaks_lower_threshold(self):
        # labels 0,1,0: cutting at 0.5 or 1.5 gives equal Gini gain (one
        # pure singleton either way); the lower midpoint must win
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])
        t = tree_fit(X, y, [0], min_leaf=1)
        assert t.root.threshold == 0.5

    def test_unrestricted_fit_is_exact_without_conflicts(self):
        rng = np.random.default_rng(4)
        X = rng.random((80, 3))
        y = rng.integers(0, 3, size=80)
        t = tree_fit(X, y, [0, 1, 2], max_depth=None, min_leaf=1)
        assert np.array_equal(predictions(t, X), y)

    def test_leaf_count_at_least_distinct_predictions(self):
        rng = np.random.default_rng(5)
        X = rng.random((50, 2))
        y = rng.integers(0, 4, size=50)
        t = tree_fit(X, y, [0, 1], max_depth=6)
        preds = predictions(t, X)
        assert t.leaf_count >= len(set(int(v) for v in preds))

    def test_majority_tie_smaller_label(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([2, 5])
        t = tree_fit(X, y, [0])
        assert t.predict([0.0]) == 2


class TestTreeText:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        X = rng.random((70, 3))
        y = rng.integers(0, 3, size=70)
        t = tree_fit(X, y, [0, 1, 2], max_depth=5)
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
        t = tree_fit(X, y, [0], min_leaf=1)
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
    threshold = (xs_sorted[cuts[best]] + xs_sorted[cuts[best] + 1]) / 2.0
    return float(gain[best]), float(threshold)


def reference_tree_fit(X, y, features, max_depth, min_leaf):
    """Tree induction that scans features one at a time, keeping strict improvements."""
    features = sorted(features)
    classes, y_codes = np.unique(y, return_inverse=True)
    n_classes = classes.size

    def build(idx, depth):
        counts = np.bincount(y_codes[idx], minlength=n_classes).astype(float)
        label = int(classes[int(np.argmax(counts))])
        n_here = idx.size
        if np.max(counts) == n_here or (max_depth is not None and depth >= max_depth) or n_here < 2 * min_leaf:
            return Node(label=label)
        parent_gini = 1.0 - float(np.sum((counts / n_here) ** 2))
        best = None
        for f in features:
            cand = reference_split_for_feature(X[idx, f], y_codes[idx], n_classes, min_leaf, parent_gini)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (cand[0], f, cand[1])
        if best is None or best[0] < -1e-12:
            return Node(label=label)
        _, f, threshold = best
        go_left = X[idx, f] <= threshold
        node = Node(feature=f, threshold=threshold, label=label)
        node.left = build(idx[go_left], depth + 1)
        node.right = build(idx[~go_left], depth + 1)
        return node

    return DecisionTree(root=build(np.arange(X.shape[0]), 0))


@st.composite
def fit_problems(draw):
    """Small fits rich in ties: duplicate, constant, {0,1} and coarse-valued columns."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(m):
        kind = draw(st.sampled_from(["coarse", "fine", "binary", "constant", "copy"]))
        if kind == "copy" and cols:
            cols.append(cols[int(rng.integers(0, len(cols)))].copy())
        elif kind == "binary":
            cols.append(rng.integers(0, 2, size=n).astype(float))
        elif kind == "constant":
            cols.append(np.full(n, float(rng.normal())))
        elif kind == "fine":
            cols.append(rng.normal(size=n))
        else:
            cols.append(rng.integers(0, 4, size=n) * 0.5)
    X = np.column_stack(cols)
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
        got = tree_fit(X, y, features, max_depth=max_depth, min_leaf=min_leaf)
        want = reference_tree_fit(X, y, features, max_depth, min_leaf)
        assert tree_to_lines(got) == tree_to_lines(want)

    def test_matches_reference_on_forest_sized_fits(self):
        rng = np.random.default_rng(17)
        for n_classes in (2, 5, 9):
            X = np.column_stack([rng.normal(size=300), rng.integers(0, 2, 300), rng.integers(0, 5, 300) * 0.25])
            X = np.column_stack([X, X[:, 1], rng.normal(size=300)])
            y = rng.integers(0, n_classes, size=300)
            got = tree_fit(X, y, range(5), max_depth=12, min_leaf=2)
            assert tree_to_lines(got) == tree_to_lines(reference_tree_fit(X, y, range(5), 12, 2))
