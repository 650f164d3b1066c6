"""Mutual-information feature filtering over histogram bins.

Feature relevance is scored by a plug-in estimate of the conditional
mutual information between a feature's bin index and the label, given the
features selected so far. Conditioning is represented by partition leaves:
disjoint sample subsets, one per realized bin combination of the selected
features. Within each leaf the estimator reduces to empirical frequencies:

    I_hat = sum over leaves L, samples x in L of
            (1/N) * ln( p_L(bin(x), y(x)) / (p_L(bin(x)) * p_L(y(x))) )

with 0*ln(0) = 0 and N the full sample count (samples in dropped leaves
contribute nothing but still divide). Each term group is a scaled KL
divergence, so the estimate is nonnegative up to float rounding.

All candidates of a round are scored together: one bincount over packed
((bin, label), (feature, leaf)) codes yields every per-leaf contingency
table as one cell-major (W, C, F * L) table, every feature padded to the
widest feature's bin count W (padded bins are empty and add nothing). A
(feature, leaf) pair is a column, so its bin and label totals are sums
over the outer axes, and each cell's ratio is a broadcast along the long
(feature, leaf) axis; only the nonzero cells take a logarithm, since an
empty cell's term is an exact zero. Terms are summed in sequence, cell by
cell within a leaf (W * C - 1 in-place adds of whole rows, in (bin, label)
order) and then leaf by leaf. A single-feature estimate goes through the
same scorer, so it equals that feature's score in a round bit for bit.

Forward selection (`forward_select`) is one loop over the unselected
features and the partition, which starts as one leaf of every sample and
is held flat (member indices grouped by leaf, plus leaf sizes). Each
round scores the unselected features, appends the highest-scoring one
(argmax's first maximum, so ties go to the lowest feature index) and
re-splits every leaf by that feature's bins: one stable argsort by (leaf,
bin), one bincount of the cell sizes and one keep-mask over the sorted
members. Cells smaller than 2 samples are dropped at each split:
singletons carry zero empirical information and would otherwise keep the
recursion alive. Selection stops when no remaining feature scores above a
small positive threshold (a plug-in estimate is almost never exactly zero
in floating point), or when no feature or no leaf is left. Each round
leaves a `RoundRecord`: every candidate's score, the pick (None in a round
that stopped on the threshold) and the leaf count after the split; the
round's best score is the largest of its scores. The labels come in as
codes 0..C-1, encoded once by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import BINARY, FeatureSchema
from .sampler import SampleSet

EPS_MI = 1e-9
MIN_CELL = 2
# at most this many (feature, member) codes per bincount, so the codes and
# their temporaries stay cache-sized and the count work grows linearly in
# the sample count
COUNT_BLOCK = 1 << 16


@dataclass(frozen=True)
class BinAssignment:
    """Each feature's bin count, and the m x N array of every sample's bin index by feature.

    Equivalent to the dense (bin, feature, sample) 0/1 membership tensor:
    membership[b, f, x] == 1 iff by_feature[f, x] == b. The index array
    carries the same information in 1/B of the space, each feature's bins
    contiguous, so that gathering members reads rows.
    """

    n_bins: tuple[int, ...]
    by_feature: np.ndarray

    @property
    def n_features(self) -> int:
        return len(self.n_bins)

    @property
    def n_samples(self) -> int:
        return self.by_feature.shape[1]


@dataclass(frozen=True, eq=False)
class PartitionLeaves:
    """Disjoint sample-index sets conditioning the MI estimate, held flat.

    `members` lists every leaf's sample indices, leaf after leaf, and
    `sizes` gives each leaf's length, so leaf k is
    members[sum(sizes[:k]) : sum(sizes[:k + 1])].
    """

    members: np.ndarray
    sizes: np.ndarray

    @staticmethod
    def whole(n: int) -> "PartitionLeaves":
        return PartitionLeaves(np.arange(n), np.array([n]))

    @cached_property
    def leaf_of(self) -> np.ndarray:
        """Each member's leaf number."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def __len__(self) -> int:
        return self.sizes.size

    def __iter__(self):
        ends = np.cumsum(self.sizes).tolist()
        return (self.members[end - size : end] for end, size in zip(ends, self.sizes.tolist()))

    @property
    def empty(self) -> bool:
        return self.sizes.size == 0


@dataclass(frozen=True)
class RoundRecord:
    """One forward-selection round: each candidate's score, the pick, and the leaf count after it.

    `selected` is None in the round that stopped selection, when the best
    score, max(scores.values()), did not clear eps_mi; that round's leaves
    are left as they were.
    """

    scores: dict[int, float]
    selected: int | None
    leaf_count: int


def build_histograms(samples: SampleSet, schema: FeatureSchema, max_bins: int = 3) -> BinAssignment:
    """Equal-width bins over each continuous feature's sampled range; {0},{1} for binary.

    A degenerate (constant) continuous range collapses to a single bin.
    """
    if max_bins < 2:
        raise ValueError("need at least 2 bins")
    points = samples.points
    n_bins: list[int] = []
    columns = np.ascontiguousarray(points.T)  # one strided pass, so each feature below reads a contiguous row
    by_feature = np.empty(columns.shape, dtype=np.int32)  # feature-major too: each row is one feature's bins
    for f in range(schema.count):
        col = columns[f]
        if schema.kinds[f] == BINARY:
            n_bins.append(2)
            by_feature[f] = col.astype(np.int32)
            continue
        lo, hi = float(col.min()), float(col.max())
        if hi == lo:
            n_bins.append(1)
            by_feature[f] = 0
            continue
        n_bins.append(max_bins)
        idx = ((col - lo) / (hi - lo) * max_bins).astype(np.int32)
        by_feature[f] = np.clip(idx, 0, max_bins - 1)
    by_feature.setflags(write=False)
    return BinAssignment(tuple(n_bins), by_feature)


def _cmi_scores(
    features,
    y_codes: np.ndarray,
    n_labels: int,
    leaves: PartitionLeaves,
    bins: BinAssignment,
) -> np.ndarray:
    """Plug-in conditional MI of each listed feature given the leaves, from blocked bincounts.

    Every (bin, label, feature, leaf) count comes from a bincount over
    packed codes, one per block of features of at most COUNT_BLOCK codes,
    into a cell-major (W, C, F * L) table: all features share the bin
    width W = max(n_bins), and each (feature, leaf) pair is one column.
    Terms are added strictly in sequence, first over a leaf's (bin, label)
    cells, then leaf by leaf. Empty and padded cells add exact zeros, so a
    score depends neither on the padding nor on which other features are
    scored with it, and features with the same nonzero leaf terms in the
    same order tie exactly, leaving the tie to the lowest index.
    """
    n_feat = len(features)
    n_leaves = len(leaves)
    width = max(bins.n_bins)
    members, leaf_of, sizes = leaves.members, leaves.leaf_of, leaves.sizes
    member_labels = y_codes[members]
    n_cols = n_feat * n_leaves
    joint = np.empty((width, n_labels, n_cols), dtype=np.int64)
    step = max(1, COUNT_BLOCK // members.size)
    for start in range(0, n_feat, step):
        block = features[start : start + step]
        block_cols = len(block) * n_leaves
        # (block, members) codes ((bin * C + label) * block_cols + feature * L + leaf), built in place
        codes = bins.by_feature.take(block, axis=0).take(members, axis=1).astype(np.int64)
        codes *= n_labels * block_cols
        codes += np.arange(0, block_cols, n_leaves, dtype=np.int64)[:, None] + (member_labels * block_cols + leaf_of)
        counts = np.bincount(codes.ravel(), minlength=width * n_labels * block_cols)
        joint[:, :, start * n_leaves : start * n_leaves + block_cols] = counts.reshape(width, n_labels, block_cols)
    # row and column totals are sums of integers, exact in any order
    row = joint.sum(axis=1)  # (W, F * L): each (bin, feature, leaf)'s count
    col = joint.sum(axis=0)  # (C, F * L): each (label, feature, leaf)'s count
    # ln(p(bin, label) / (p(bin) p(label))) from integer products, exact as floats (below 2^53)
    cell = np.flatnonzero(joint)  # an empty cell's term is an exact zero, so only the others are scored
    count = joint.ravel()[cell]
    num = (joint * np.tile(sizes, n_feat)).ravel()[cell]
    den = (row[:, None, :] * col).ravel()[cell]
    terms = np.zeros((width * n_labels, n_cols))
    terms.ravel()[cell] = count * np.log(num / den)
    per_leaf = terms[0].copy()
    for cell_terms in terms[1:]:  # in (bin, label) order, as a cumsum over a leaf's cells adds them
        per_leaf += cell_terms
    per_leaf /= bins.n_samples
    return np.cumsum(per_leaf.reshape(n_feat, n_leaves), axis=1)[:, -1]


def bin_partition(
    bins: BinAssignment,
    leaves: PartitionLeaves,
    feature: int,
    min_cell: int = MIN_CELL,
) -> PartitionLeaves:
    """Split every leaf by the feature's bin index; drop empty and sub-min_cell cells."""
    nb = bins.n_bins[feature]
    # A stable sort by (leaf, bin) lists the cells in leaf-then-bin order
    # and keeps each cell's samples in their order within the leaf.
    key = leaves.leaf_of * nb + bins.by_feature[feature].take(leaves.members)
    counts = np.bincount(key, minlength=len(leaves) * nb)
    keep = counts >= min_cell
    members = leaves.members[np.argsort(key, kind="stable")]
    return PartitionLeaves(members[np.repeat(keep, counts)], counts[keep])


def forward_select(
    bins: BinAssignment, codes: np.ndarray, n_labels: int, eps_mi: float = EPS_MI
) -> tuple[tuple[int, ...], list[RoundRecord]]:
    """Forward selection by conditional MI: the selected features, and one record per round.

    `codes` are the labels as 0..n_labels-1. A round scores every
    unselected feature given the leaves; if the best score clears eps_mi,
    the argmax (ties to the lowest index) is selected and every leaf split
    by its bins. Selection stops at the first round whose best score does
    not (its record selects None), or when no feature or no leaf is left.
    """
    selected, rounds = [], []
    unselected = list(range(bins.n_features))
    leaves = PartitionLeaves.whole(bins.n_samples)
    while unselected and not leaves.empty:
        values = _cmi_scores(unselected, codes, n_labels, leaves, bins)
        scores = dict(zip(unselected, values.tolist()))
        pick = int(np.argmax(values))  # first maximum: ties keep the lowest feature index
        if values[pick] <= eps_mi:
            rounds.append(RoundRecord(scores, None, len(leaves)))
            break
        feature = unselected.pop(pick)
        selected.append(feature)
        leaves = bin_partition(bins, leaves, feature)
        rounds.append(RoundRecord(scores, feature, len(leaves)))
    return tuple(selected), rounds


def select_informative_features(
    samples: SampleSet,
    codes: np.ndarray,
    n_labels: int,
    schema: FeatureSchema,
    max_bins: int = 3,
    eps_mi: float = EPS_MI,
) -> tuple[int, ...]:
    """Histogram the samples, then forward-select features by conditional MI on the label codes 0..n_labels-1."""
    return forward_select(build_histograms(samples, schema, max_bins=max_bins), codes, n_labels, eps_mi)[0]
