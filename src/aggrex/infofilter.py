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
(feature, leaf, bin, label) codes yields every per-leaf contingency table,
with every feature padded to the widest feature's bin count (padded bins
are empty and add nothing). Terms are summed in sequence, cell by cell
within a leaf and then leaf by leaf. A single-feature estimate goes through
the same scorer, so it equals that feature's score in a round bit for bit.

Forward selection greedily appends the highest-scoring feature (argmax's
first maximum, so ties go to the lowest feature index), re-splits
every leaf by that feature's bins, and stops when no remaining feature
scores above a small positive threshold (a plug-in estimate is almost
never exactly zero in floating point) or when every leaf has been dropped.
Cells smaller than 2 samples are dropped at each split: singletons carry
zero empirical information and would otherwise keep the recursion alive.

The labels are encoded once per selection, not per round, and the
partition is held flat (member indices grouped by leaf, plus leaf sizes),
so a re-split is one stable argsort by (leaf, bin), one bincount of the
cell sizes and one keep-mask over the sorted members.
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
    """Per-feature histogram edges plus the N x m array of bin indices.

    Equivalent to the dense (bin, feature, sample) 0/1 membership tensor:
    membership[b, f, x] == 1 iff assignment[x, f] == b. The index array
    carries the same information in 1/B of the space.
    """

    edges: tuple[np.ndarray, ...]
    n_bins: tuple[int, ...]
    assignment: np.ndarray

    @cached_property
    def by_feature(self) -> np.ndarray:
        """The m x N assignment, each feature's bins contiguous, so that gathering members reads rows.

        `build_histograms` stores it this way and hands out `assignment` as
        its transpose, so here no copy is made.
        """
        return np.ascontiguousarray(self.assignment.T)

    @property
    def n_features(self) -> int:
        return len(self.n_bins)

    @property
    def n_samples(self) -> int:
        return self.assignment.shape[0]


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
    """One forward-selection round: candidate scores and the outcome."""

    scores: dict[int, float]
    selected: int | None
    best_score: float
    leaf_count: int


@dataclass(frozen=True)
class SelectionState:
    selected: tuple[int, ...]
    unselected: tuple[int, ...]
    leaves: PartitionLeaves
    trace: tuple[RoundRecord, ...] = ()

    @staticmethod
    def fresh(n_features: int, n_samples: int) -> "SelectionState":
        return SelectionState(
            selected=(),
            unselected=tuple(range(n_features)),
            leaves=PartitionLeaves.whole(n_samples),
        )


def build_histograms(samples: SampleSet, schema: FeatureSchema, max_bins: int = 3) -> BinAssignment:
    """Equal-width bins over each continuous feature's sampled range; {0},{1} for binary.

    A degenerate (constant) continuous range collapses to a single bin.
    """
    if max_bins < 2:
        raise ValueError("need at least 2 bins")
    points = samples.points
    if points.shape[0] == 0:
        raise ValueError("empty sample set")
    edges: list[np.ndarray] = []
    n_bins: list[int] = []
    columns = np.ascontiguousarray(points.T)  # one strided pass, so each feature below reads a contiguous row
    by_feature = np.empty(columns.shape, dtype=np.int32)  # feature-major too: each row is one feature's bins
    for f in range(schema.count):
        col = columns[f]
        if schema.kinds[f] == BINARY:
            edges.append(np.array([0.0, 0.5, 1.0]))
            n_bins.append(2)
            by_feature[f] = col.astype(np.int32)
            continue
        lo, hi = float(col.min()), float(col.max())
        if hi == lo:
            edges.append(np.array([lo, hi]))
            n_bins.append(1)
            by_feature[f] = 0
            continue
        edges.append(np.linspace(lo, hi, max_bins + 1))
        n_bins.append(max_bins)
        idx = ((col - lo) / (hi - lo) * max_bins).astype(np.int32)
        by_feature[f] = np.clip(idx, 0, max_bins - 1)
    by_feature.setflags(write=False)
    return BinAssignment(edges=tuple(edges), n_bins=tuple(n_bins), assignment=by_feature.T)


def _encode_labels(labels: np.ndarray, n_labels: int | None = None) -> tuple[np.ndarray, int]:
    """The labels as codes 0..C-1, and C; labels already encoded (n_labels given) pass through."""
    if n_labels is not None:
        return np.asarray(labels), n_labels
    classes, codes = np.unique(np.asarray(labels, dtype=int), return_inverse=True)
    return codes, classes.size


def _cmi_scores(
    features,
    y_codes: np.ndarray,
    n_labels: int,
    leaves: PartitionLeaves,
    bins: BinAssignment,
) -> np.ndarray:
    """Plug-in conditional MI of each listed feature given the leaves, from blocked bincounts.

    Every (feature, leaf, bin, label) count comes from a bincount over
    packed codes, one per block of features of at most COUNT_BLOCK codes;
    all features share the bin width max(n_bins).
    Terms are added strictly in sequence (cumsum), first over a leaf's
    (bin, label) cells, then leaf by leaf. Empty and padded cells add
    exact zeros, so a score depends neither on the padding nor on which
    other features are scored with it, and features with the same
    nonzero leaf terms in the same order tie exactly, leaving the tie to
    the lowest index.
    """
    n_feat = len(features)
    if n_feat == 0 or leaves.empty:
        return np.zeros(n_feat)
    n_leaves = len(leaves)
    width = max(bins.n_bins)
    members, leaf_of, sizes = leaves.members, leaves.leaf_of, leaves.sizes
    member_labels = y_codes[members]
    cells = n_leaves * width * n_labels
    joint = np.empty((n_feat, cells))
    step = max(1, COUNT_BLOCK // members.size)
    for start in range(0, n_feat, step):
        block = features[start : start + step]
        b = bins.by_feature.take(block, axis=0).take(members, axis=1).astype(np.int64)  # (block, members)
        slot = np.arange(len(block), dtype=np.int64)[:, None] * n_leaves + leaf_of
        codes = (slot * width + b) * n_labels + member_labels
        joint[start : start + len(block)] = np.bincount(codes.ravel(), minlength=len(block) * cells).reshape(-1, cells)
    joint = joint.reshape(n_feat, n_leaves, width, n_labels)
    row = joint.sum(axis=3, keepdims=True)
    col = joint.sum(axis=2, keepdims=True)
    nz = joint > 0
    ratio = np.divide(joint * sizes[:, None, None], row * col, out=np.ones_like(joint), where=nz)
    terms = (joint * np.log(ratio)).reshape(n_feat, n_leaves, -1)
    per_leaf = np.cumsum(terms, axis=2)[:, :, -1] / bins.n_samples
    return np.cumsum(per_leaf, axis=1)[:, -1]


def cond_mutual_info(
    feature: int,
    labels: np.ndarray,
    leaves: PartitionLeaves,
    bins: BinAssignment,
) -> float:
    """Plug-in conditional MI (nats) between a feature's bins and the labels, given the leaves."""
    if feature < 0 or feature >= bins.n_features:
        raise IndexError(f"feature {feature} out of range for {bins.n_features} features")
    y_codes, n_labels = _encode_labels(labels)
    return float(_cmi_scores([feature], y_codes, n_labels, leaves, bins)[0])


def bin_partition(
    bins: BinAssignment,
    leaves: PartitionLeaves,
    feature: int,
    min_cell: int = MIN_CELL,
) -> PartitionLeaves:
    """Split every leaf by the feature's bin index; drop empty and sub-min_cell cells."""
    if feature < 0 or feature >= bins.n_features:
        raise IndexError(f"feature {feature} out of range")
    if leaves.empty:
        return leaves
    nb = bins.n_bins[feature]
    # A stable sort by (leaf, bin) lists the cells in leaf-then-bin order
    # and keeps each cell's samples in their order within the leaf.
    key = leaves.leaf_of * nb + bins.by_feature[feature].take(leaves.members)
    counts = np.bincount(key, minlength=len(leaves) * nb)
    keep = counts >= min_cell
    members = leaves.members[np.argsort(key, kind="stable")]
    return PartitionLeaves(members[np.repeat(keep, counts)], counts[keep])


def select_feature(
    state: SelectionState,
    bins: BinAssignment,
    labels: np.ndarray,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    n_labels: int | None = None,
) -> SelectionState:
    """One forward-selection round.

    Scores every unselected feature; if the best score clears eps_mi, moves
    the argmax (ties to the lowest index) into the selected list and
    re-partitions the leaves, else empties the unselected set as the
    termination signal, leaving selection and leaves untouched. With
    n_labels given, labels are already codes 0..n_labels-1.
    """
    if not state.unselected:
        raise ValueError("no unselected features left")
    y_codes, n_labels = _encode_labels(labels, n_labels)
    values = _cmi_scores(state.unselected, y_codes, n_labels, state.leaves, bins)
    scores = {f: float(v) for f, v in zip(state.unselected, values)}
    pick = int(np.argmax(values))  # first maximum: ties keep the lowest feature index
    best_f, best = state.unselected[pick], float(values[pick])
    if best <= eps_mi:
        record = RoundRecord(scores=scores, selected=None, best_score=best, leaf_count=len(state.leaves))
        return SelectionState(
            selected=state.selected,
            unselected=(),
            leaves=state.leaves,
            trace=state.trace + (record,),
        )
    leaves = bin_partition(bins, state.leaves, best_f, min_cell=min_cell)
    record = RoundRecord(scores=scores, selected=best_f, best_score=best, leaf_count=len(leaves))
    return SelectionState(
        selected=state.selected + (best_f,),
        unselected=tuple(f for f in state.unselected if f != best_f),
        leaves=leaves,
        trace=state.trace + (record,),
    )


def forward_select(
    state: SelectionState,
    bins: BinAssignment,
    labels: np.ndarray,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    max_features: int | None = None,
    n_labels: int | None = None,
) -> SelectionState:
    """Run selection rounds until no features remain, leaves empty, or the cap is hit.

    The labels are encoded once, here, not once per round.
    """
    y_codes, n_labels = _encode_labels(labels, n_labels)
    while state.unselected and not state.leaves.empty:
        if max_features is not None and len(state.selected) >= max_features:
            break
        state = select_feature(state, bins, y_codes, eps_mi=eps_mi, min_cell=min_cell, n_labels=n_labels)
    return state


def _forward_selection(
    samples, labels, schema, max_bins, eps_mi, min_cell, max_features, n_labels=None
) -> SelectionState:
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != samples.count:
        raise ValueError("labels and samples must align")
    bins = build_histograms(samples, schema, max_bins=max_bins)
    state = SelectionState.fresh(schema.count, samples.count)
    return forward_select(
        state, bins, labels, eps_mi=eps_mi, min_cell=min_cell, max_features=max_features, n_labels=n_labels
    )


def select_informative_features(
    samples: SampleSet,
    labels: np.ndarray,
    schema: FeatureSchema,
    max_bins: int = 3,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    max_features: int | None = None,
    n_labels: int | None = None,
) -> tuple[int, ...]:
    """Histogram the samples, then forward-select features by conditional MI.

    With n_labels given, labels are already codes 0..n_labels-1 (a caller
    that fits several models on one labelled sample encodes it once).
    """
    return _forward_selection(samples, labels, schema, max_bins, eps_mi, min_cell, max_features, n_labels).selected


def selection_trace(
    samples: SampleSet,
    labels: np.ndarray,
    schema: FeatureSchema,
    max_bins: int = 3,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    max_features: int | None = None,
) -> dict:
    """JSON-ready debug dump: per-round candidate scores, pick, and leaf counts."""
    state = _forward_selection(samples, labels, schema, max_bins, eps_mi, min_cell, max_features)
    return {
        "selected": list(state.selected),
        "rounds": [
            {
                "scores": {str(f): rec.scores[f] for f in sorted(rec.scores)},
                "selected": rec.selected,
                "best_score": rec.best_score,
                "leaf_count": rec.leaf_count,
            }
            for rec in state.trace
        ],
    }
