"""The black box the explainers must match: a bagged forest of Gini trees.

It predicts deterministically; votes break ties toward the smaller label.
A forest serializes to a versioned text file so pipeline stages can run
separately:

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

import io
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .data import Dataset, FeatureSchema
from .tree import DecisionTree, fit_job, fit_trees, stack_trees, tree_from_lines, tree_to_lines

FOREST_MAX_DEPTH = 12
FOREST_MIN_LEAF = 2

MODEL_MAGIC = "aggrex-model"
MODEL_VERSION = "v1"
MODEL_KIND = "bagged_forest"


@dataclass
class BlackBoxModel:
    """Bagged forest: each row's label is its trees' majority vote."""

    label_set: tuple[int, ...]
    trees: list[DecisionTree]
    schema: FeatureSchema | None = None

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        self._check_dim(X.shape[1])
        forest = self._forest
        n_rows, n_labels = X.shape[0], len(self.label_set)
        codes = forest.leaf_code[forest.tree_base + forest.exit_ranks(X)]  # (rows, trees) label_set indices
        votes = np.bincount((codes + np.arange(n_rows)[:, None] * n_labels).ravel(), minlength=n_rows * n_labels)
        # argmax takes the first maximum; label_set is sorted, so vote
        # ties resolve toward the smaller label.
        return np.array(self.label_set, dtype=int)[np.argmax(votes.reshape(-1, n_labels), axis=1)]

    def _check_dim(self, m: int) -> None:
        if self.schema is not None:
            if m != self.schema.count:
                raise ValueError(f"point has {m} features, schema expects {self.schema.count}")
        elif m < self._forest.width:
            raise ValueError(f"point has {m} features, model references feature {self._forest.width - 1}")

    @cached_property
    def _forest(self) -> CompiledForest:
        return CompiledForest(self.trees, self.label_set)


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
    labels, codes = np.unique(d.y, return_inverse=True)  # encoded once, for every resample
    # drawn as fit_trees asks for them, so only the resamples of the run being fitted are held; each fits on the
    # dataset's full class list, where a class it misses is an empty one
    resamples = (rng.integers(0, d.n, size=d.n) for _ in range(n_trees))
    jobs = (fit_job(d.X[idx], codes[idx], range(d.m), classes=labels) for idx in resamples)
    trees = [tree for tree, _ in fit_trees(jobs, max_depth=FOREST_MAX_DEPTH, min_leaf=FOREST_MIN_LEAF)]
    return BlackBoxModel(label_set=d.label_set, trees=trees, schema=d.schema)


def save_model(model: BlackBoxModel, path) -> None:
    lines = [f"{MODEL_MAGIC} {MODEL_VERSION} {MODEL_KIND} {len(model.trees)}"]
    for tree in model.trees:
        lines.extend(tree_to_lines(tree))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path) -> BlackBoxModel:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def parse_model(text: str) -> BlackBoxModel:
    """The forest a model file's text holds; a \r\n or \r ends a line too, as it does where `open` reads the file."""
    lines = [ln.rstrip("\n") for ln in io.StringIO(text, newline=None) if ln.strip()]
    if not lines:
        raise ValueError("empty model file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != MODEL_MAGIC:
        raise ValueError(f"bad model header: {lines[0]!r}")
    if header[1] != MODEL_VERSION:
        raise ValueError(f"unsupported model version {header[1]!r}")
    kind, n_trees = header[2], int(header[3])
    if kind != MODEL_KIND:
        raise ValueError(f"unsupported model kind {kind!r}")
    if n_trees < 1:
        raise ValueError(f"model declares {n_trees} trees, need at least one")
    records = iter(lines[1:])
    trees = [tree_from_lines(records)[0] for _ in range(n_trees)]
    rest = sum(1 for _ in records)
    if rest:
        raise ValueError(f"{rest} trailing records after {n_trees} trees")
    leaves = np.concatenate([t.label[t.feature < 0] for t in trees])
    return BlackBoxModel(label_set=tuple(np.unique(leaves).tolist()), trees=trees)
