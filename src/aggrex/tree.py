"""Greedy Gini decision trees with deterministic tie-breaking.

Induction rules: best split by Gini gain; ties broken by (lower feature
index, lower threshold); leaves take the majority label, ties toward the
smaller label. Zero-gain splits are allowed on impure nodes (both children
are always non-empty, so growth terminates), which lets the tree represent
parity-style targets no single split can improve on.

Each node scores every candidate cut of every feature in one pass, as
CART implementations do: the node's n x F block is stable-sorted column by
column, one one-hot cumulative sum gives the class counts left of each
cut, and the (F, n-1) gain array is reduced by a single argmax. The gain
array is laid out feature-major with cuts in ascending value order, so
argmax's first maximum is exactly the (lower feature, lower threshold)
tie order. Thresholds are midpoints between adjacent distinct values.

A tree is four read-only node arrays in pre-order, as in scikit-learn's
`Tree`: `feature` (-1 at a leaf), `threshold`, `label` (-1 at a split) and
`right`, a split's right child (a split's left child is the next node).
`route` moves only the rows still at a split, one level per step, from any
set of roots, so a forest concatenated by `stack_trees` routes in one loop.

Trees serialize to a line-oriented text grammar, one pre-order record per
line: `node <id> split <feature> <threshold>` | `node <id> leaf <label>`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_DTYPES = {"feature": np.int64, "threshold": np.float64, "label": np.int64, "right": np.int64}
ROOT = np.zeros(1, dtype=np.int64)


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
        return self.label[route(self, np.asarray(X, dtype=float), ROOT)[0]]


def stack_trees(trees) -> tuple[DecisionTree, np.ndarray]:
    """All trees' nodes in one DecisionTree, and the node where each tree's root lands."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, label, right = (np.concatenate([getattr(t, name) for t in trees]) for name in _DTYPES)
    right = np.where(feature >= 0, right + np.repeat(roots, sizes), -1)
    return DecisionTree(feature, threshold, label, right), roots


def route(tree: DecisionTree, X: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Leaf reached by every row of X from every root: shape (len(roots), n_rows).

    Each step moves every (root, row) pair still at a split one level
    down (left when the value is <= the threshold) and drops the pairs
    that reached a leaf, so the loop runs once per level of the deepest
    path taken.
    """
    n_rows = X.shape[0]
    node = np.repeat(roots, n_rows)  # pair k is (root k // n_rows, row k % n_rows)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        at = np.where(X[live % n_rows, tree.feature[at]] <= tree.threshold[at], at + 1, tree.right[at])
        node[live] = at
        live = live[tree.feature[at] >= 0]
    return node.reshape(len(roots), n_rows)


def _majority_label(counts: np.ndarray, classes: np.ndarray) -> int:
    # argmax returns the first maximum; classes are sorted, so ties go to
    # the smaller label.
    return int(classes[int(np.argmax(counts))])


def _best_split(Xn: np.ndarray, y_codes: np.ndarray, n_classes: int, min_leaf: int, parent_gini: float):
    """Best (gain, column, threshold) over every column of the node's n x F block.

    All candidate cuts are scored at once: each column is stable-sorted,
    one (F, n, C) one-hot cumsum gives the left class counts after every
    sorted position, and a cut between positions i and i+1 is valid where
    the value strictly increases and both sides keep min_leaf points.
    Invalid cuts score -inf. The temporaries die with this frame, so they
    are not held across the caller's recursion.
    """
    n, n_cols = Xn.shape
    cols = Xn.T
    order = cols.argsort(axis=1, kind="stable")  # (F, n)
    xs = cols[np.arange(n_cols)[:, None], order]
    cum = (y_codes[order][:, :, None] == np.arange(n_classes)).cumsum(axis=1, dtype=float)  # (F, n, C)
    left_counts = cum[:, :-1, :]
    right_counts = cum[:, -1:, :] - left_counts
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    gini_l = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=2)
    gini_r = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=2)
    weighted = (left_n * gini_l + right_n * gini_r) / n
    valid = (xs[:, 1:] > xs[:, :-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    gain = np.where(valid, parent_gini - weighted, -np.inf)
    # Feature-major flattening: the first maximum is the lowest column,
    # then the lowest cut position, i.e. the lowest threshold.
    col, cut = divmod(int(np.argmax(gain)), n - 1)
    threshold = (xs[col, cut] + xs[col, cut + 1]) / 2.0
    return float(gain[col, cut]), col, float(threshold)


def tree_fit(
    X: np.ndarray,
    y: np.ndarray,
    features,
    max_depth: int | None = 12,
    min_leaf: int = 2,
) -> DecisionTree:
    """Fit a Gini decision tree on X[:, features] vs integer labels y."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero points")
    features = sorted(int(f) for f in features)
    if not features:
        raise ValueError("feature subset must be non-empty")
    Xf = X[:, features]
    classes, y_codes = np.unique(y, return_inverse=True)
    n_classes = classes.size
    nodes: list[list] = []  # [feature, threshold, label, right] in pre-order

    def build(idx: np.ndarray, depth: int) -> None:
        counts = np.bincount(y_codes[idx], minlength=n_classes).astype(float)
        node = [-1, 0.0, _majority_label(counts, classes), -1]
        nodes.append(node)
        n_here = idx.size
        if np.max(counts) == n_here or (max_depth is not None and depth >= max_depth) or n_here < 2 * min_leaf:
            return  # pure, at the depth limit, or too small to split
        gini = 1.0 - float(np.sum((counts / n_here) ** 2))
        gain, col, threshold = _best_split(Xf[idx], y_codes[idx], n_classes, min_leaf, gini)
        if gain < -1e-12:  # no valid cut (-inf); zero-gain splits allowed, rounding noise too
            return
        f = features[col]
        node[:3] = f, threshold, -1
        go_left = X[idx, f] <= threshold
        build(idx[go_left], depth + 1)
        node[3] = len(nodes)
        build(idx[~go_left], depth + 1)

    build(np.arange(X.shape[0]), 0)
    return DecisionTree(*zip(*nodes))


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
