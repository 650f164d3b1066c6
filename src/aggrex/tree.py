"""Greedy Gini decision trees with deterministic tie-breaking.

Induction rules: best split by Gini gain; ties broken by (lower feature
index, lower threshold); leaves take the majority label, ties toward the
smaller label. Zero-gain splits are allowed on impure nodes (both children
are always non-empty, see the threshold rule below, so growth terminates),
which lets the tree represent parity-style targets no single split can
improve on.

A fit sorts once, as SLIQ and SPRINT do: each selected column is
stable-argsorted at the root, and every node holds two (F, n) arrays,
each column's rows and values in ascending value order. A split
partitions them with one boolean mask (a row goes left exactly when its
position in the chosen column is at or before the cut); boolean indexing
keeps order, so each child's columns arrive sorted and no node sorts
again. A child that stops (pure, smaller than 2 * min_leaf, or at the
depth cap, all known from the chosen cut's counts) is appended as a leaf
and never partitioned out; when both children stop, nothing is.

The split search is class-major. A fit makes one (C, N) int32 one-hot
table; a node takes its (C, F, n) columns by the node's rows and sums
them in place along the rows into integer class counts, exact when cast
to float in the Gini formula. Every cut that leaves min_leaf rows on each
side is scored on contiguous slices of those counts (a cut where the
value does not strictly increase scores -inf), and the class terms are
summed by `_class_sum` in the order numpy sums a row, so each Gini is bit
for bit the row-major one. The (F, cuts) grid is feature-major in
ascending value order, so argmax's first maximum is exactly the (lower
feature, lower threshold) tie order. The chosen cut's left counts become
the left child's counts, and the parent's counts minus them the right
child's, so no node counts its labels again; likewise each child takes
its Gini from the chosen cut (the same float a recount gives, as the sums
run over the same C terms in the same order), and only the root computes
its own. The fit also sums each leaf's majority count: the number of
training rows the tree predicts correctly.

A threshold is the midpoint between the values either side of the cut,
unless the midpoint rounds onto the upper value (neighbouring floats) or
overflows; then it is the lower value. Either way a row goes left exactly
when its value is at most the lower one, so "<= threshold" and the
positional partition agree and both children are non-empty.

A tree is four read-only node arrays in pre-order, as in scikit-learn's
`Tree`: `feature` (-1 at a leaf), `threshold`, `label` (-1 at a split) and
`right`, a split's right child (a split's left child is the next node).
`route` moves only the rows still at a split, one level per step, so its
temporaries span one tree's rows. A forest does not route: `stack_trees`
concatenates its trees' arrays as the input of the compiled forest in
`blackbox`, which finds every tree's exit leaf without walking the levels.

Trees serialize to a line-oriented text grammar, one pre-order record per
line: `node <id> split <feature> <threshold>` | `node <id> leaf <label>`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DTYPES = {"feature": np.int64, "threshold": np.float64, "label": np.int64, "right": np.int64}


@dataclass(frozen=True, eq=False)
class DecisionTree:
    feature: np.ndarray
    threshold: np.ndarray
    label: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        n_nodes = len(self.feature)
        for name, dtype in _DTYPES.items():
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != (n_nodes,):
                raise ValueError(f"{name} must be a vector of {n_nodes} nodes, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def leaf(cls, label: int) -> "DecisionTree":
        """The single-leaf tree that predicts `label` everywhere."""
        return cls(feature=[-1], threshold=[0.0], label=[label], right=[-1])

    @property
    def leaf_count(self) -> int:
        return int(np.count_nonzero(self.feature < 0))

    @property
    def features_used(self) -> frozenset[int]:
        return frozenset(np.unique(self.feature[self.feature >= 0]).tolist())

    def predict(self, x) -> int:
        return int(self.predict_batch(np.asarray(x, dtype=float)[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.label[route(self, np.asarray(X, dtype=float))]


def stack_trees(trees) -> tuple[DecisionTree, np.ndarray]:
    """All trees' nodes in one DecisionTree, and the node where each tree's root lands."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, label, right = (np.concatenate([getattr(t, name) for t in trees]) for name in _DTYPES)
    right = np.where(feature >= 0, right + np.repeat(roots, sizes), -1)
    return DecisionTree(feature, threshold, label, right), roots


def route(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Leaf node reached by each row of X.

    Each step moves every row still at a split one level down (left when
    the value is <= the threshold, so NaN goes right) and drops the rows
    that reached a leaf, so the loop runs once per level of the deepest
    path taken.
    """
    width = X.shape[1]
    if tree.feature.max() >= width:  # flat indexing would read the next row's values
        raise ValueError(f"rows have {width} features, tree splits on feature {tree.feature.max()}")
    flat = X.ravel()  # row i's feature f is flat[i * width + f]
    node = np.zeros(X.shape[0], dtype=np.int64)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        at = np.where(flat[live * width + tree.feature[at]] <= tree.threshold[at], at + 1, tree.right[at])
        node[live] = at
        live = live[tree.feature[at] >= 0]
    return node


def _class_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 (the classes) in the order numpy's sum over a contiguous last axis takes.

    That order is pairwise: sequential below 8 terms; up to 128 terms, eight
    running sums over blocks of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the tail added one by one; above 128, the two halves (the first
    rounded down to a multiple of 8) summed apart and added. So a class-major
    Gini is bit for bit the row-major one. Below 8 terms `sum(axis=0)` adds
    the rows one by one, which is that order.
    """
    n = terms.shape[0]
    if n < 8:
        return terms.sum(axis=0)
    if n <= 128:
        blocks = n - n % 8
        r = terms[:8].copy()
        for i in range(8, blocks, 8):
            r += terms[i : i + 8]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for row in terms[blocks:]:
            total += row
        return total
    half = n // 2
    half -= half % 8
    return _class_sum(terms[:half]) + _class_sum(terms[half:])


def _best_split(
    order: np.ndarray, xs: np.ndarray, table: np.ndarray, sizes: np.ndarray, min_leaf: int, parent_gini: float
):
    """Best (gain, column, cut, left class counts, left Gini, right Gini) over a node's presorted columns.

    Cut i lies between sorted positions i and i+1 of a column. It is valid
    where the value strictly increases and both sides keep min_leaf points.
    `table` is the fit's (C, N) int32 one-hot table and `sizes` its
    arange(N + 1.0). The node's (C, F, n) class counts are `table` taken
    by `order` and summed in place along the rows; the cuts lo .. n-lo-2
    (the ones leaving min_leaf points each side) are contiguous slices of
    them, with the left sizes a slice of `sizes` and the right sizes that
    slice reversed. The per-cut Gini formula is the row-major one, its
    class terms summed by `_class_sum`. Invalid cuts score -inf, so the
    first maximum of the feature-major (F, cuts) grid is the lowest
    column, then the lowest cut. Returns None when no cut is valid. The
    temporaries die with this frame, so they are not held across the
    caller's recursion.
    """
    n = xs.shape[1]
    lo = max(min_leaf, 1) - 1  # cuts lo .. n - lo - 2 leave min_leaf points on each side
    hi = n - lo - 1
    if hi <= lo:
        return None
    invalid = ~(xs[:, lo + 1 : hi + 1] > xs[:, lo:hi])  # the value does not strictly increase (or is NaN)
    cum = table.take(order, axis=1)  # (C, F, n) one-hot columns, summed in place into integer class counts
    cum.cumsum(axis=2, out=cum)
    left = cum[:, :, lo:hi]  # (C, F, cuts): the class counts left of each cut
    left_n = sizes[lo + 1 : hi + 1]
    right_n = left_n[::-1]  # the cut grid is symmetric: cut i leaves n - i - 1 points on the right
    share = left / left_n
    share *= share  # the same floats ** 2 gives
    gini_l = _class_sum(share)
    np.subtract(1.0, gini_l, out=gini_l)
    # the right counts are the node's (its last cumsum column) less the left ones; the
    # arithmetic runs in place, as reusing warm buffers takes several percent off a fit
    np.divide(cum[:, :1, -1:] - left, right_n, out=share)
    share *= share
    gini_r = _class_sum(share)
    np.subtract(1.0, gini_r, out=gini_r)
    gain = left_n * gini_l  # parent_gini - (left_n * gini_l + right_n * gini_r) / n
    gain += right_n * gini_r
    gain /= n
    np.subtract(parent_gini, gain, out=gain)
    gain[invalid] = -np.inf
    col, cut = divmod(int(gain.argmax()), hi - lo)  # the first maximum: lowest column, then lowest cut
    if invalid[col, cut]:
        return None  # no cut is valid
    return (
        float(gain[col, cut]),
        col,
        cut + lo,
        left[:, col, cut].tolist(),
        float(gini_l[col, cut]),
        float(gini_r[col, cut]),
    )


def tree_fit(
    X: np.ndarray,
    y: np.ndarray,
    features,
    max_depth: int | None = 12,
    min_leaf: int = 2,
    classes: np.ndarray | None = None,
) -> tuple[DecisionTree, int]:
    """Fit a Gini decision tree on X[:, features] vs integer labels y.

    With classes given (sorted distinct labels), y already holds each
    row's index into it and is not encoded again. Returns (tree, agree),
    where agree is the number of training rows whose label is their
    leaf's majority label: the rows the tree predicts correctly, summed
    as the leaves are made.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero points")
    features = sorted(int(f) for f in features)
    if not features:
        raise ValueError("feature subset must be non-empty")
    cols = X[:, features].T
    if classes is None:
        classes, y_codes = np.unique(y, return_inverse=True)
    else:
        y_codes = y
    labels = np.asarray(classes).tolist()
    n_rows = X.shape[0]
    table = np.eye(len(labels), dtype=np.int32)[:, y_codes]  # (C, N): column i is the one-hot of y[i]
    sizes = np.arange(n_rows + 1.0)
    depth_cap = math.inf if max_depth is None else max_depth
    n_cols = len(features)
    nodes: list[list] = []  # [feature, threshold, label, right] in pre-order
    is_left = np.empty(n_rows, dtype=bool)  # reused by every split: each row's side of it
    agree = 0

    def stops(counts: list[int], n_here: int, depth: int) -> bool:
        return max(counts) == n_here or depth >= depth_cap or n_here < 2 * min_leaf  # pure, at the cap, too small

    def leaf(counts: list[int]) -> None:
        nonlocal agree
        top = max(counts)
        nodes.append([-1, 0.0, labels[counts.index(top)], -1])  # the first maximum: ties to the smaller label
        agree += top

    def build(order: np.ndarray, xs: np.ndarray, counts: list[int], gini: float, depth: int) -> None:
        # A node that does not stop. order and xs are (F, n): each column's
        # rows and values in ascending value order; counts is per class,
        # gini is the node's.
        n_here = order.shape[1]
        best = _best_split(order, xs, table, sizes, min_leaf, gini)
        if best is None or best[0] < -1e-12:  # zero-gain splits allowed, rounding noise too
            leaf(counts)
            return
        _, col, cut, left_counts, gini_left, gini_right = best
        below, above = xs[col, cut : cut + 2].tolist()
        threshold = (below + above) / 2.0
        if not below <= threshold < above:  # the midpoint rounded onto the upper value, or overflowed
            threshold = below
        node = [features[col], threshold, -1, -1]
        nodes.append(node)
        right_counts = [c - c_left for c, c_left in zip(counts, left_counts)]
        # A child that stops becomes a leaf straight from its counts: its rows are never partitioned out.
        left_stops = stops(left_counts, cut + 1, depth + 1)
        right_stops = stops(right_counts, n_here - cut - 1, depth + 1)
        if not (left_stops and right_stops):
            # A row goes left exactly when its position in column col is <= cut;
            # boolean indexing keeps each column's order, so both children stay sorted.
            is_left[order[col]] = np.arange(n_here) <= cut
            go = is_left.take(order)
        if left_stops:
            leaf(left_counts)
        else:
            build(order[go].reshape(n_cols, -1), xs[go].reshape(n_cols, -1), left_counts, gini_left, depth + 1)
        node[3] = len(nodes)
        if right_stops:
            leaf(right_counts)
        else:
            go = ~go
            build(order[go].reshape(n_cols, -1), xs[go].reshape(n_cols, -1), right_counts, gini_right, depth + 1)

    counts = np.bincount(y_codes, minlength=len(labels)).tolist()
    if stops(counts, n_rows, 0):
        leaf(counts)
    else:
        order = cols.argsort(axis=1, kind="stable")
        gini = 1.0 - float(((np.array(counts) / n_rows) ** 2).sum())  # every other node inherits its Gini
        build(order, np.take_along_axis(cols, order, axis=1), counts, gini, 0)
    return DecisionTree(*zip(*nodes)), agree


# -- text format ------------------------------------------------------------

def tree_to_lines(tree: DecisionTree) -> list[str]:
    """Pre-order node records; a record's id is its node index."""
    return [
        f"node {i} leaf {lab}" if f < 0 else f"node {i} split {f} {t!r}"
        for i, (f, t, lab) in enumerate(zip(tree.feature.tolist(), tree.threshold.tolist(), tree.label.tolist()))
    ]


def tree_from_lines(lines) -> tuple[DecisionTree, int]:
    """Parse one pre-order tree from an iterable of records.

    Returns (tree, records consumed). Records are read only up to the
    tree's last one, so an iterator over concatenated trees (a forest has
    no separators) is left at the next tree's first record. Raises
    ValueError on a malformed or truncated record stream, a record whose
    id is not its pre-order position, a negative split feature or a
    non-finite threshold.
    """
    nodes: list[list] = []
    open_splits: list[int] = []  # splits whose right child comes next, innermost last
    for pos, record in enumerate(lines):
        parts = record.split()
        if len(parts) < 4 or parts[0] != "node":
            raise ValueError(f"bad node record: {record!r}")
        if int(parts[1]) != pos:
            raise ValueError(f"record id {parts[1]} at pre-order position {pos}: {record!r}")
        if parts[2] == "leaf":
            nodes.append([-1, 0.0, int(parts[3]), -1])
            if not open_splits:
                return DecisionTree(*zip(*nodes)), pos + 1
            nodes[open_splits.pop()][3] = pos + 1
        elif parts[2] == "split":
            if len(parts) != 5:
                raise ValueError(f"bad split record: {record!r}")
            f, t = int(parts[3]), float(parts[4])
            if f < 0:
                raise ValueError(f"negative split feature: {record!r}")
            if not math.isfinite(t):
                raise ValueError(f"non-finite threshold: {record!r}")
            nodes.append([f, t, -1, -1])
            open_splits.append(pos)
        else:
            raise ValueError(f"unknown node type in record: {record!r}")
    raise ValueError("truncated tree record stream")


def tree_to_rules(tree: DecisionTree, feature_names=None) -> str:
    """Human-readable nested if/else rendering."""
    out: list[str] = []
    feature, threshold, label, right = (a.tolist() for a in (tree.feature, tree.threshold, tree.label, tree.right))

    def name(f: int) -> str:
        return feature_names[f] if feature_names is not None else f"x{f}"

    def walk(node: int, indent: int) -> None:
        pad = "  " * indent
        if feature[node] < 0:
            out.append(f"{pad}predict {label[node]}")
            return
        out.append(f"{pad}if {name(feature[node])} <= {threshold[node]:.6g}:")
        walk(node + 1, indent + 1)
        out.append(f"{pad}else:")
        walk(right[node], indent + 1)

    walk(0, 0)
    return "\n".join(out) + "\n"
