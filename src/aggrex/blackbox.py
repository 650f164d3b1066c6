"""Black-box classifiers whose predictions the explainers must match.

Two kinds: a bagged forest of Gini trees (the working black box) and an
exact lookup table with nearest-neighbor fallback (a test oracle). Both
predict deterministically; forest votes break ties toward the smaller
label. Forests serialize to a versioned text file so pipeline stages can
run separately:

    aggrex-model v1 bagged_forest <n_trees>
    node 0 split 3 0.52
    node 1 leaf 2
    ...

with each tree's pre-order records concatenated (pre-order is
self-delimiting, so no separators are needed).

A forest predicts through a `CompiledForest`, built once per model: it
finds every tree's exit leaf with a fixed number of array operations per
feature instead of one step per tree level (QuickScorer, Lucchese et al.
2015), and a single `bincount` over (row, leaf label) codes tallies the
votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Dataset, FeatureSchema
from .sampler import mixed_distance
from .tree import DecisionTree, fit_job, fit_trees, stack_trees, tree_from_lines, tree_to_lines

FOREST_MAX_DEPTH = 12
FOREST_MIN_LEAF = 2

MODEL_MAGIC = "aggrex-model"
MODEL_VERSION = "v1"


@dataclass
class BlackBoxModel:
    """Deterministic classifier: bagged_forest or table_oracle."""

    kind: str
    label_set: tuple[int, ...]
    trees: list[DecisionTree] | None = None
    table_points: np.ndarray | None = None
    table_labels: np.ndarray | None = None
    schema: FeatureSchema | None = None

    def predict(self, x) -> int:
        x = np.asarray(x, dtype=float)
        self._check_dim(x.shape[-1])
        if self.kind == "bagged_forest":
            return int(self.predict_batch(x[None, :])[0])
        return self._table_lookup(x)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self._check_dim(X.shape[1])
        if self.kind == "bagged_forest":
            forest = self._forest
            n_rows, n_labels = X.shape[0], len(self.label_set)
            codes = forest.leaf_code[forest.tree_base + forest.exit_ranks(X)]  # (rows, trees) label_set indices
            votes = np.bincount((codes + np.arange(n_rows)[:, None] * n_labels).ravel(), minlength=n_rows * n_labels)
            # argmax takes the first maximum; label_set is sorted, so vote
            # ties resolve toward the smaller label.
            return np.array(self.label_set, dtype=int)[np.argmax(votes.reshape(-1, n_labels), axis=1)]
        return np.array([self._table_lookup(X[i]) for i in range(X.shape[0])], dtype=int)

    def _check_dim(self, m: int) -> None:
        if self.schema is not None:
            if m != self.schema.count:
                raise ValueError(f"point has {m} features, schema expects {self.schema.count}")
        elif self.kind == "bagged_forest":
            if m < self._forest.width:
                raise ValueError(f"point has {m} features, model references feature {self._forest.width - 1}")
        elif self.table_points is not None and m != self.table_points.shape[1]:
            raise ValueError(f"point has {m} features, table stores {self.table_points.shape[1]}")

    @cached_property
    def _forest(self) -> CompiledForest:
        return CompiledForest(self.trees, self.label_set)

    def _table_lookup(self, x: np.ndarray) -> int:
        exact = np.nonzero(np.all(self.table_points == x, axis=1))[0]
        if exact.size:
            return int(self.table_labels[exact[0]])
        if self.schema is not None:
            dists = np.array(
                [mixed_distance(x, self.table_points[i], self.schema) for i in range(self.table_points.shape[0])]
            )
        else:
            dists = np.max(np.abs(self.table_points - x[None, :]), axis=1)
        # argmin takes the first minimum: equidistant ties go to the
        # lower-index stored point.
        return int(self.table_labels[int(np.argmin(dists))])


class CompiledForest:
    """A forest's trees compiled to bitmask tables that find every tree's exit leaf at once.

    Each tree's leaves are ranked in pre-order, and a row's state in a tree
    is a mask of W = ceil(max leaves per tree / 64) uint64 words, bit r for
    leaf rank r. A split whose test `x <= threshold` fails rules out its
    left subtree's leaves, which are the contiguous ranks from its left
    child to its right child; the exit leaf is never ruled out, and every
    leaf left of it is (the split where the two paths part sent the row
    right), so the exit leaf is the lowest bit left set.

    For one feature, the splits whose test fails on a value x are the
    prefix of its splits sorted by threshold that lie below x, so the AND of
    their masks is row `searchsorted(thresholds, x)` of a prefix-AND table
    of shape (splits on f + 1, T, W). NaN sorts past every threshold and
    fails every test, and a value equal to a threshold passes, as in
    `tree.route`. The tables take (splits on f + 1) x trees x W x 8 bytes
    per feature, about 73 KB for the protocol benchmark forest and 100 KB
    for the wide one; since splits and W both grow with the leaves per
    tree, the size grows with leaves squared, which bounds how large a
    forest this suits.
    """

    def __init__(self, trees, label_set) -> None:
        nodes, roots = stack_trees(trees)
        n_trees = len(trees)
        tree_of = np.repeat(np.arange(n_trees), [t.feature.size for t in trees])
        is_leaf = nodes.feature < 0
        before = np.cumsum(is_leaf) - is_leaf  # leaves before each node in the stacked pre-order
        rank = before - before[roots][tree_of]  # pre-order leaf rank within the node's own tree
        words = -(-int(np.bincount(tree_of, weights=is_leaf).max()) // 64)
        self.width = int(nodes.feature.max()) + 1  # one past the highest split feature
        self.n_trees, self.words = n_trees, words
        self.tree_base = np.arange(n_trees) * 64 * words  # tree t's leaf of rank r is entry tree_base[t] + r
        leaf = np.flatnonzero(is_leaf)
        self.leaf_code = np.zeros(n_trees * 64 * words, dtype=np.int64)  # each leaf's label_set index
        self.leaf_code[self.tree_base[tree_of[leaf]] + rank[leaf]] = np.searchsorted(
            np.array(label_set, dtype=int), nodes.label[leaf]
        )
        split = np.flatnonzero(~is_leaf)
        bit = np.arange(64 * words)
        left = (bit >= rank[split, None]) & (bit < rank[nodes.right[split], None])  # the left subtree's leaves
        masks = np.packbits(~left.reshape(-1, words, 64), axis=2, bitorder="little").view("<u8")[..., 0]
        self.features = []  # (feature, its splits' thresholds ascending, prefix-AND table (k + 1, T * W))
        for f in np.unique(nodes.feature[split]).tolist():
            on_f = np.flatnonzero(nodes.feature[split] == f)
            on_f = on_f[np.argsort(nodes.threshold[split[on_f]], kind="stable")]
            table = np.full((on_f.size + 1, n_trees, words), ~np.uint64(0))
            table[np.arange(1, on_f.size + 1), tree_of[split[on_f]]] = masks[on_f]
            table = np.bitwise_and.accumulate(table, axis=0).reshape(on_f.size + 1, n_trees * words)
            self.features.append((f, nodes.threshold[split[on_f]], table))

    def exit_ranks(self, X: np.ndarray) -> np.ndarray:
        """Pre-order rank of the leaf each row of X reaches in each tree: shape (rows, trees)."""
        n_rows = X.shape[0]
        state = np.full((n_rows, self.n_trees * self.words), ~np.uint64(0))
        for f, thresholds, table in self.features:
            state &= np.take(table, np.searchsorted(thresholds, X[:, f], side="left"), axis=0)
        state = state.reshape(n_rows, self.n_trees, self.words)
        word, w = self.words - 1, state[..., -1]
        for k in range(self.words - 2, -1, -1):  # down to the first word with a bit left
            kept = state[..., k] != 0
            word, w = np.where(kept, k, word), np.where(kept, state[..., k], w)
        low = w & (~w + np.uint64(1))  # its lowest set bit alone, a power of two exact in float64
        return word * 64 + np.frexp(low.astype(np.float64))[1] - 1


def train_bagged_forest(d: Dataset, n_trees: int = 50, seed: int = 0) -> BlackBoxModel:
    """Fit n_trees Gini trees on seeded bootstrap resamples, grown together; predict by majority vote."""
    if d.n == 0:
        raise ValueError("cannot train on an empty dataset")
    if n_trees < 1:
        raise ValueError("need at least one tree")
    rng = np.random.default_rng(seed)
    # drawn as fit_trees asks for them, so only the resamples of the run being fitted are held
    resamples = (rng.integers(0, d.n, size=d.n) for _ in range(n_trees))
    jobs = (fit_job(d.X[idx], d.y[idx], range(d.m)) for idx in resamples)
    trees = [tree for tree, _ in fit_trees(jobs, max_depth=FOREST_MAX_DEPTH, min_leaf=FOREST_MIN_LEAF)]
    return BlackBoxModel(kind="bagged_forest", label_set=d.label_set, trees=trees, schema=d.schema)


def table_oracle(pairs, schema: FeatureSchema | None = None) -> BlackBoxModel:
    """Exact point->label lookup; unseen points resolve to the nearest stored point.

    Distinct stored points are required; duplicate points with conflicting
    labels raise. The nearest-neighbor metric is the pool's mixed metric
    when a schema is given, else plain Linf.
    """
    points = np.array([np.asarray(p, dtype=float) for p, _ in pairs])
    labels = np.array([int(lab) for _, lab in pairs], dtype=int)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("need at least one (point, label) pair")
    seen: dict[tuple, int] = {}
    keep = []
    for i in range(points.shape[0]):
        key = tuple(points[i].tolist())
        if key in seen:
            if seen[key] != labels[i]:
                raise ValueError(f"duplicate point {key} with conflicting labels")
            continue
        seen[key] = int(labels[i])
        keep.append(i)
    points = points[keep]
    labels = labels[keep]
    return BlackBoxModel(
        kind="table_oracle",
        label_set=tuple(sorted(set(int(v) for v in labels))),
        table_points=points,
        table_labels=labels,
        schema=schema,
    )


def predict(model: BlackBoxModel, x) -> int:
    return model.predict(x)


def save_model(model: BlackBoxModel, path) -> None:
    if model.kind != "bagged_forest":
        raise ValueError("only bagged_forest models serialize to the model file format")
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION} {model.kind} {len(model.trees)}"]
    for tree in model.trees:
        lines.extend(tree_to_lines(tree))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> BlackBoxModel:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("empty model file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != MODEL_MAGIC:
        raise ValueError(f"bad model header: {lines[0]!r}")
    if header[1] != MODEL_VERSION:
        raise ValueError(f"unsupported model version {header[1]!r}")
    kind, n_trees = header[2], int(header[3])
    if kind != "bagged_forest":
        raise ValueError(f"unsupported model kind {kind!r}")
    if n_trees < 1:
        raise ValueError(f"model declares {n_trees} trees, need at least one")
    records = iter(lines[1:])
    trees = [tree_from_lines(records)[0] for _ in range(n_trees)]
    rest = sum(1 for _ in records)
    if rest:
        raise ValueError(f"{rest} trailing records after {n_trees} trees")
    leaves = np.concatenate([t.label[t.feature < 0] for t in trees])
    return BlackBoxModel(kind="bagged_forest", label_set=tuple(np.unique(leaves).tolist()), trees=trees)
