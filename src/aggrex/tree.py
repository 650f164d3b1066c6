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

Trees serialize to a line-oriented text grammar, one pre-order record per
line: `node <id> split <feature> <threshold>` | `node <id> leaf <label>`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Node:
    feature: int = -1
    threshold: float = 0.0
    label: int = -1
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class DecisionTree:
    root: Node
    features_used: frozenset[int] = field(default_factory=frozenset)

    @property
    def leaf_count(self) -> int:
        def count(node: Node) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self.root)

    def predict(self, x) -> int:
        node = self.root
        x = np.asarray(x, dtype=float)
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.label

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=int)

        def route(node: Node, idx: np.ndarray) -> None:
            if idx.size == 0:
                return
            if node.is_leaf:
                out[idx] = node.label
                return
            go_left = X[idx, node.feature] <= node.threshold
            route(node.left, idx[go_left])
            route(node.right, idx[~go_left])

        route(self.root, np.arange(X.shape[0]))
        return out

    def max_feature_index(self) -> int:
        best = -1

        def walk(node: Node) -> None:
            nonlocal best
            if not node.is_leaf:
                best = max(best, node.feature)
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return best


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
    used: set[int] = set()

    def gini(counts: np.ndarray, n: int) -> float:
        return 1.0 - float(np.sum((counts / n) ** 2))

    def build(idx: np.ndarray, depth: int) -> Node:
        counts = np.bincount(y_codes[idx], minlength=n_classes).astype(float)
        label = _majority_label(counts, classes)
        n_here = idx.size
        pure = np.max(counts) == n_here
        depth_ok = max_depth is None or depth < max_depth
        if pure or not depth_ok or n_here < 2 * min_leaf:
            return Node(label=label)
        gain, col, threshold = _best_split(Xf[idx], y_codes[idx], n_classes, min_leaf, gini(counts, n_here))
        if gain < -1e-12:  # no valid cut (-inf); zero-gain splits allowed, rounding noise too
            return Node(label=label)
        f = features[col]
        used.add(f)
        go_left = X[idx, f] <= threshold
        node = Node(feature=f, threshold=threshold, label=label)
        node.left = build(idx[go_left], depth + 1)
        node.right = build(idx[~go_left], depth + 1)
        return node

    root = build(np.arange(X.shape[0]), 0)
    return DecisionTree(root=root, features_used=frozenset(used))


# -- text format ------------------------------------------------------------

def tree_to_lines(tree: DecisionTree) -> list[str]:
    """Pre-order node records, ids numbered in visit order."""
    lines: list[str] = []

    def emit(node: Node) -> None:
        nid = len(lines)
        if node.is_leaf:
            lines.append(f"node {nid} leaf {node.label}")
        else:
            lines.append(f"node {nid} split {node.feature} {node.threshold!r}")
            emit(node.left)
            emit(node.right)

    emit(tree.root)
    return lines


def tree_from_lines(lines) -> tuple[DecisionTree, int]:
    """Parse one pre-order tree from an iterable of records.

    Returns (tree, records consumed); extra trailing lines are left for the
    caller, which lets forests concatenate trees without separators.
    """
    records = list(lines)
    pos = 0
    used: set[int] = set()

    def parse() -> Node:
        nonlocal pos
        if pos >= len(records):
            raise ValueError("truncated tree record stream")
        parts = records[pos].split()
        pos += 1
        if len(parts) < 4 or parts[0] != "node":
            raise ValueError(f"bad node record: {records[pos - 1]!r}")
        if parts[2] == "leaf":
            return Node(label=int(parts[3]))
        if parts[2] == "split":
            if len(parts) != 5:
                raise ValueError(f"bad split record: {records[pos - 1]!r}")
            feature = int(parts[3])
            threshold = float(parts[4])
            used.add(feature)
            node = Node(feature=feature, threshold=threshold)
            node.left = parse()
            node.right = parse()
            return node
        raise ValueError(f"unknown node type in record: {records[pos - 1]!r}")

    root = parse()
    return DecisionTree(root=root, features_used=frozenset(used)), pos


def tree_to_rules(tree: DecisionTree, feature_names=None) -> str:
    """Human-readable nested if/else rendering."""
    out: list[str] = []

    def name(f: int) -> str:
        return feature_names[f] if feature_names is not None else f"x{f}"

    def walk(node: Node, indent: int) -> None:
        pad = "  " * indent
        if node.is_leaf:
            out.append(f"{pad}predict {node.label}")
            return
        out.append(f"{pad}if {name(node.feature)} <= {node.threshold:.6g}:")
        walk(node.left, indent + 1)
        out.append(f"{pad}else:")
        walk(node.right, indent + 1)

    walk(tree.root, 0)
    return "\n".join(out) + "\n"
