"""Greedy Gini decision trees with deterministic tie-breaking.

Induction rules: best split by Gini gain; ties broken by (lower feature
index, lower threshold); leaves take the majority label, ties toward the
smaller label. Zero-gain splits are allowed on impure nodes (both children
are always non-empty, see the threshold rule below, so growth terminates),
which lets the tree represent parity-style targets no single split can
improve on.

Trees are grown a group at a time, level by level, as SLIQ and SPRINT
(Mehta et al. 1996; Shafer et al. 1996) grow one tree breadth-first: the
nodes at one depth of every tree in the group are searched together, so
the number of numpy calls grows with the depth and not with the node
count. `fit_trees` draws its jobs one at a time and cuts them into runs of
at most GROUP_CELLS (column, row) cells (`runs`, the rule the explainer
groups its balls by too); a tree's bytes do not depend on its group, so
one tree is fitted as a group of one.

A root's columns fall in two sections, by the number of distinct values
each has within its job. A many-valued column (three or more) has a cut
between each pair of neighbouring values and goes in the cut grid below.
A two-valued column (exactly two, as every binary feature, neither of them
NaN or +inf) has one cut, at its smaller value, and is held as one int8
bit per row, 1 for the larger value; the search scores it from one class
count per node, outside the grid. A constant column holds no cut and is
dropped. Each section maps its (job, slot) to the job's column, and a job
with fewer columns of a section than the group's widest is padded in it
(in the grid with its rows in row order, whose best cut the search sets
to -inf node by node; in the other with zero bits, which never hold a
valid cut).

A group sorts once: each root's many-valued columns are stable-argsorted,
and a depth holds one (F, R) `order` array, the rows of every node that
goes on, node after node, each column in ascending value order (a job
with none keeps one constant column, as `order` also says which rows are
a node's). Where some grid column of the group holds a tie (or a NaN,
which is never greater than its neighbour), values are compared by their
int32 ranks within the job's column (`ranks`), which increase exactly
where the values do; a group with no tie keeps no ranks, since every
neighbouring pair of its sorted values increases (explain roots are
continuous samples and never tie; bootstrap forest roots do). The
thresholds are read from the jobs' own values at the end. A split
partitions `order` a column at a time (a row goes left exactly when its
position in the chosen column is at or before the cut, or, on a
two-valued column, when its bit is 0); `compress` keeps order, so each
child's segments arrive sorted and nothing sorts again. A child that
stops (pure, smaller than 2 * min_leaf, or at the depth cap, all known
from the chosen cut's counts) becomes a leaf and its rows are dropped,
never partitioned.

The split search is class-major and covers a block of consecutive nodes,
about SEARCH_CELLS cells of the (C, F, positions) class table at a time,
with one `take`, one `cumsum` and one Gini pass per block. A group makes
one (C, rows) one-hot table, int16 while every tree has fewer than 2^15
rows, else int32; the block takes its columns by `order`, subtracts each
node's predecessor's counts at its first position (one scatter over
(class, column, node)) and sums them in place, so each node's counts
restart at its first row and every running sum is one node's integer
class count, below 2^15, exact when cast to float in the Gini formula.
Node size, left and right sizes and parent Gini are per-position arrays,
so every cut's float formula is the per-node one, and the class terms
are summed by `_class_sum` in the order numpy sums a row, so each Gini
is bit for bit the row-major one. A cut where the value does not
strictly increase (checked only where the group keeps ranks), or that
leaves fewer than min_leaf rows on a side, scores -inf, as does a node's
best in a padding slot, set after the per-column maxima. A node's grid
winner is its first maximum in feature-major order (`maximum.reduceat`
per column, the first column at the node's maximum, then the first
position there), which is the (lower feature, lower threshold) tie
order. The two-valued cuts
come from one weighted `bincount` over (class, slot, node) of the
depth's rows, the rows on each cut's upper side, and their Gini and gain
follow the grid's float expressions in the grid's order, so every cut
scores bit for bit what it would in the grid. The node's split is the
better of the two sections' winners, an exact tie going to the lower job
column, which keeps the tie order. Groups pad the class table with empty
classes only while the padded count stays below 8, since `_class_sum`
adds 8 or more terms in another order; jobs with 8 or more classes share
a group only with jobs of as many. The chosen cut's
left counts become the left child's counts, and the parent's counts
minus them the right child's, so no node counts its labels again; each
depth's Gini comes from those counts in one row-major pass (the same
float the search gave the cut, as the sums run over the same C terms in
the same order). The fit also sums each leaf's majority count: the
number of training rows the tree predicts correctly. The pre-order
arrays are assembled from the depths at the end.

A threshold is the midpoint between the values either side of the cut,
unless the midpoint rounds onto the upper value (neighbouring floats) or
overflows; then it is the lower value. Either way a row goes left exactly
when its value is at most the lower one, so "<= threshold" and the
positional partition agree and both children are non-empty.

A tree is four read-only node arrays in pre-order, as in scikit-learn's
`Tree`: `feature` (-1 at a leaf), `threshold`, `label` (-1 at a split) and
`right`, a split's right child (a split's left child is the next node).
`route` moves only the rows still at a split, one level per step, so its
temporaries span one tree's rows, or with a vector of root nodes one
entry per (root, row) pair: the aggregate pool routes every dataset point
through every explainer tree, stacked by `stack_trees`, in one level loop.
A forest does not route: `stack_trees` concatenates its trees' arrays as
the input of the compiled forest in `blackbox`, which finds every tree's
exit leaf without walking the levels.

Trees serialize to a line-oriented text grammar, one pre-order record per
line: `node <id> split <feature> <threshold>` | `node <id> leaf <label>`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (column, row) cells of the trees one level-wise fit grows together, which bounds its arrays. A
# larger group pays each level's numpy calls fewer times; on the protocol benchmark's explain stage,
# whose records are written out a group at a time, 3 << 14 reads a 1.7 MB traced peak and 1 << 16
# reads 2.01 MB, past the 2.0 MB that tests/test_cli.py allows.
GROUP_CELLS = 3 << 14
# (class, column, row) cells of the class table one split search spans
SEARCH_CELLS = 1 << 14

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

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.label[route(self, np.asarray(X, dtype=float))]


def stack_trees(trees) -> tuple[DecisionTree, np.ndarray]:
    """All trees' nodes in one DecisionTree, and the node where each tree's root lands."""
    sizes = [t.feature.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, label, right = (np.concatenate([getattr(t, name) for t in trees]) for name in _DTYPES)
    right = np.where(feature >= 0, right + np.repeat(roots, sizes), -1)
    return DecisionTree(feature, threshold, label, right), roots


def route(tree: DecisionTree, X: np.ndarray, roots: np.ndarray | None = None) -> np.ndarray:
    """Leaf node reached by each row of X from the root, or (k, rows) leaves from each of k `roots`.

    With roots, [t, j] is the leaf row j reaches when it starts at node
    roots[t] (such as the trees' roots in a `stack_trees` tree). Each step
    moves every (start, row) entry still at a split one level down (left
    when the value is <= the threshold, so NaN goes right) and drops the
    entries that reached a leaf, so the loop runs once per level of the
    deepest path taken.
    """
    rows, width = X.shape
    if tree.feature.max() >= width:  # flat indexing would read the next row's values
        raise ValueError(f"rows have {width} features, tree splits on feature {tree.feature.max()}")
    flat = X.ravel()  # row j's feature f is flat[j * width + f]
    starts = np.zeros(1, dtype=np.int64) if roots is None else np.asarray(roots, dtype=np.int64)
    node = np.repeat(starts, rows)  # entry t * rows + j: row j from starts[t]
    offset = np.tile(np.arange(rows) * width, starts.size)  # each entry's row start in flat
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        at = np.where(flat[offset[live] + tree.feature[at]] <= tree.threshold[at], at + 1, tree.right[at])
        node[live] = at
        live = live[tree.feature[at] >= 0]
    return node if roots is None else node.reshape(starts.size, rows)


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


class FitJob(NamedTuple):
    """One tree to fit on X[:, features] vs each row's index into labels.

    `depth` is the depth the tree's root sits at: a job that regrows the
    subtree below one node of a larger tree starts there, so the depth cap
    still counts from that tree's root. Labels may hold classes no row
    has.
    """

    X: np.ndarray  # (N, m) float64
    codes: np.ndarray  # (N,)
    features: list[int]  # ascending
    labels: list[int]  # the distinct labels, ascending
    depth: int = 0


def fit_job(X: np.ndarray, y: np.ndarray, features, classes: np.ndarray | None = None, depth: int = 0) -> FitJob:
    """The job of fitting a tree on X[:, features] vs integer labels y, its root at `depth`.

    With classes given (sorted distinct labels), y already holds each
    row's index into it and is not encoded again.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.shape[0] == 0:
        raise ValueError("cannot fit a tree on zero points")
    features = sorted(int(f) for f in features)
    if not features:
        raise ValueError("feature subset must be non-empty")
    if classes is None:
        classes, y = np.unique(y, return_inverse=True)
    return FitJob(X, y, features, np.asarray(classes).tolist(), int(depth))


def runs(items, grid):
    """Consecutive runs of items whose trees grow together: the rule `fit_trees` groups its jobs by.

    `grid(item)` is the item's (columns, rows); a run's grid is its widest
    item's columns by its summed rows, and a run grows while that stays
    within GROUP_CELLS (an item larger than that is a run of its own).
    Items are drawn one at a time, so a run and the item after it are all
    that is held.
    """
    run: list = []
    width = rows = 0
    for item in items:
        n_cols, n_rows = grid(item)
        if run and max(width, n_cols) * (rows + n_rows) > GROUP_CELLS:
            yield run
            run, width, rows = [], 0, 0
        run.append(item)
        width, rows = max(width, n_cols), rows + n_rows
    if run:
        yield run


def fit_trees(jobs, max_depth: int | None = 12, min_leaf: int = 2) -> list[tuple[DecisionTree, int]]:
    """(tree, agree) of each job, in order, the trees of a run (see `runs`) grown together.

    Jobs are drawn as the runs need them, so an iterator of jobs is never
    held whole. Jobs with fewer than 8 classes share a run's class table,
    padded with empty classes; a job with 8 or more shares it only with
    jobs of as many classes, because `_class_sum` adds 8 or more terms in
    another order, where a padded zero would move the rounding.
    """
    out: list = []
    for run in runs(jobs, lambda job: (len(job.features), job.codes.size)):
        by_classes: dict[int, list[int]] = {}
        for i, job in enumerate(run):
            n_classes = len(job.labels)
            by_classes.setdefault(n_classes if n_classes >= 8 else 0, []).append(i)
        fitted: list = [None] * len(run)
        for members in by_classes.values():
            for i, result in zip(members, _fit_group([run[i] for i in members], max_depth, min_leaf)):
                fitted[i] = result
        out += fitted
        del run  # drawing the next run's jobs need not hold this one's
    return out


def _gini(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Each node's Gini impurity from its (nodes, C) class counts."""
    return 1.0 - ((counts / size[:, None]) ** 2).sum(axis=1)


def _stops(counts: np.ndarray, size: np.ndarray, depth: np.ndarray, depth_cap: float, min_leaf: int) -> np.ndarray:
    """Which nodes stop: pure, at the depth cap, or too small to split."""
    return (counts.max(axis=1) == size) | (depth >= depth_cap) | (size < 2 * min_leaf)


def _root_columns(jobs: list[FitJob], width: int, first_row: np.ndarray, goes_on: np.ndarray):
    """The two sections of the roots that go on: (ranks, order, many_of, bits, two_of, two_rows).

    Each root's columns are classed by its job's own values. Many-valued
    columns give the (F, rows) int32 `ranks`, where a row's rank counts the
    distinct smaller values in its job's column, so ranks increase exactly
    where values do (None when no column ties, as then every neighbouring
    pair of sorted values increases), and the (F, R) `order` of each root's
    stable-argsorted columns, in group row ids; F is at least 1, as `order`
    also holds each node's rows. Two-valued columns give the (F2, rows) int8
    `bits`. `many_of` and `two_of` map (job, slot) to the job's column (-1
    at a pad); `two_rows` holds, for each two-valued (job, slot), the first
    group row of its smaller value and of its larger one, from which its
    threshold is read. The arrays are allocated at the group's full width,
    since a section's width is known only once every root is classed, and
    returned cut to the sections' widths.
    """
    roots = np.flatnonzero(goes_on).tolist()
    n_rows = first_row[-1] + jobs[-1].codes.size
    ranks = np.zeros((width, n_rows), dtype=np.int32)
    order = np.empty((width, sum(jobs[j].codes.size for j in roots)), dtype=np.int32)
    bits = np.zeros((width, n_rows), dtype=np.int8)
    many_of = np.full((len(jobs), width), -1)
    two_of = np.full((len(jobs), width), -1)
    two_rows = np.zeros((2, len(jobs), width), dtype=np.int64)
    n_many, n_two, end, tied = 1, 0, 0, False
    for j in roots:
        job = jobs[j]
        n = job.codes.size
        rows = slice(first_row[j], first_row[j] + n)
        start, end = end, end + n
        cols = job.X.T[job.features]  # (m, N), C-contiguous
        lo, hi = cols.min(axis=1, keepdims=True), cols.max(axis=1, keepdims=True)  # NaN where a NaN is held
        # Two values: none strictly between the extremes. A column holding a NaN or +inf stays in the grid, whose
        # thresholds come from each node's own rows; the job's rows could give another one (NaN, or -0.0 for 0.0).
        two = (lo < hi) & (hi < np.inf) & ~((cols > lo) & (cols < hi)).any(axis=1, keepdims=True)
        many = ~(two | (lo == hi))
        two, many = two[:, 0].nonzero()[0], many[:, 0].nonzero()[0]
        n_many, n_two = max(n_many, many.size), max(n_two, two.size)
        many_of[j, : many.size], two_of[j, : two.size] = many, two
        upper = cols[two] > lo[two]
        bits[: two.size, rows] = upper
        two_rows[:, j, : two.size] = upper.argmin(axis=1), upper.argmax(axis=1)
        cols = cols[many]
        by_value = cols.argsort(axis=1, kind="stable")
        flat = by_value + np.arange(0, by_value.size, n)[:, None]
        ordered = cols.ravel().take(flat)
        del cols  # each root's values are freed as soon as they are ranked
        rank = np.zeros(by_value.shape, dtype=np.int32)
        np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, out=rank[:, 1:])
        del ordered
        tied = tied or bool((rank[:, -1] < n - 1).any())  # a tie, or a NaN (never greater than its neighbour)
        by_row = np.empty_like(rank)
        by_row.put(flat, rank)
        ranks[: many.size, rows] = by_row
        order[: many.size, start:end] = by_value
        order[many.size :, start:end] = np.arange(n)
        del by_value, flat, rank, by_row
    order += np.repeat(first_row[roots], [jobs[j].codes.size for j in roots]).astype(np.int32)  # job rows to group rows
    two_rows += first_row[:, None]
    ranks = ranks[:n_many] if tied else None
    return ranks, order[:n_many], many_of[:, :n_many], bits[:n_two], two_of[:, :n_two], two_rows[:, :, :n_two]


def _thresholds(jobs: list[FitJob], first_row: np.ndarray, levels, cuts) -> list[np.ndarray]:
    """Each depth's node thresholds, from the group rows either side of each split's cut.

    A threshold is the midpoint of the two values, unless it rounds onto
    the upper one or overflows; then it is the lower value. Leaves get 0.
    """
    split = np.concatenate([level_split for _, level_split, _, _ in levels])
    job = np.concatenate([level_job[level_split] for level_job, level_split, _, _ in levels])
    feature = np.concatenate([level_feature[level_split] for _, level_split, level_feature, _ in levels])
    below_rows, above_rows = (np.concatenate(rows) for rows in zip(*cuts))
    below, above = np.empty(job.size), np.empty(job.size)
    for j, fit in enumerate(jobs):  # read from each job's own values, not a copy of them all
        at = np.flatnonzero(job == j)
        below[at] = fit.X[below_rows[at] - first_row[j], feature[at]]
        above[at] = fit.X[above_rows[at] - first_row[j], feature[at]]
    with np.errstate(over="ignore"):
        mid = (below + above) / 2.0
    threshold = np.zeros(split.size)
    threshold[split] = np.where((below <= mid) & (mid < above), mid, below)
    return np.split(threshold, np.cumsum([level_split.size for _, level_split, _, _ in levels])[:-1])


def _fit_group(jobs: list[FitJob], max_depth: int | None, min_leaf: int) -> list[tuple[DecisionTree, int]]:
    """Grow the jobs' trees level by level, searching every tree's nodes of a depth together.

    A depth's nodes are arrays: job, class counts, size and Gini, and
    whether the node goes on to be searched. The rows of the nodes that go
    on are consecutive segments of an (F, R) array of group row ids,
    `order`, each many-valued column in ascending value order (compared by
    `ranks` where the group ties); the two-valued columns are a row's
    `bits`. Each node's split is the better of the cut grid's best
    (`_search_level`) and the two-valued best (`_search_two_valued`). The
    children of a depth's splits are the next depth's nodes, every left
    child first, then every right child, so a split's children sit at the
    same offset in the two halves. A child that stops is a leaf made from
    its counts, and its rows are dropped rather than partitioned; the depth
    cap counts from each job's root `depth`. The
    thresholds are read from the jobs' values, and the pre-order arrays
    assembled from the depths, at the end.
    """
    depth_cap = math.inf if max_depth is None else max_depth
    n_jobs = len(jobs)
    width = max(len(job.features) for job in jobs)
    n_classes = max(len(job.labels) for job in jobs)
    n_rows = np.array([job.codes.size for job in jobs])
    first_row = np.cumsum(n_rows) - n_rows
    codes = np.concatenate([job.codes for job in jobs])
    # (C, rows): column i is the one-hot of row i's class. Class counts are summed in this dtype, int16
    # while every tree has fewer than 2^15 rows: a search block's running sums restart at each node's
    # first row, so each is one node's count, below 2^15.
    table = np.eye(n_classes, dtype=np.int16 if n_rows.max() < 1 << 15 else np.int32)[:, codes]
    job = np.arange(n_jobs)
    counts = np.bincount(np.repeat(job, n_rows) * n_classes + codes, minlength=n_jobs * n_classes)
    counts = counts.reshape(n_jobs, n_classes)
    feature_of = np.full((n_jobs, width), -1)
    label_of = np.zeros((n_jobs, n_classes), dtype=np.int64)
    for j, fit in enumerate(jobs):
        feature_of[j, : len(fit.features)] = fit.features
        label_of[j, : len(fit.labels)] = fit.labels
    is_left = np.empty(table.shape[1], dtype=bool)  # reused by every depth: each row's side of its node's split

    root_depth = np.array([fit.depth for fit in jobs])
    size = n_rows
    gini = _gini(counts, size)
    goes_on = ~_stops(counts, size, root_depth, depth_cap, min_leaf)
    ranks, order, many_of, bits, two_of, two_rows = _root_columns(jobs, width, first_row, goes_on)
    levels = []  # per depth: job, split mask, feature, label
    cuts = []  # per depth: the group rows either side of each split's cut
    agree = np.zeros(n_jobs)
    depth = 0
    while job.size:
        split = np.zeros(job.size, dtype=bool)
        feature = np.full(job.size, -1)
        searched = np.flatnonzero(goes_on)
        parent = searched[:0]
        if not searched.size:
            cuts.append((parent, parent))
        child_counts, child_size = counts[:0], size[:0]
        if searched.size:
            sizes = size[searched]
            starts = np.cumsum(sizes) - sizes
            node_of = np.repeat(np.arange(searched.size), sizes)  # each position's node
            node_job, node_counts, node_gini = job[searched], counts[searched], gini[searched]
            best, col, at, right = _search_level(
                order, ranks, many_of[node_job].T < 0, table, starts, sizes, node_counts, node_gini, min_leaf
            )
            column = many_of[node_job, col]
            best2, slot, right2 = _search_two_valued(
                bits, codes, order[0], node_of, node_counts, sizes, node_gini, min_leaf
            )
            column2 = two_of[node_job, slot] if bits.shape[0] else column  # no two-valued slot: best2 is -inf
            # the larger gain wins; an exact tie goes to the lower job column (a two-valued column has one cut)
            two_won = (best2 > best) | ((best2 == best) & (column2 < column))
            best = np.where(two_won, best2, best)
            splits = best >= -1e-12  # zero-gain splits allowed, rounding noise too; no valid cut is -inf
            two_won &= splits
            parent = searched[splits]
            split[parent] = True
            # a node whose grid best is -inf may have any `at`, so the grid's rows are read only where it won
            won = two_won[splits]
            below, above = np.empty((2, parent.size), dtype=np.int64)
            grid = np.flatnonzero(splits & ~two_won)
            c, p = col[grid], at[grid]
            below[~won], above[~won] = order[c, p], order[c, p + 1]
            below[won], above[won] = two_rows[:, job[parent[won]], slot[two_won]]
            cuts.append((below, above))
            feature[parent] = feature_of[job[parent], np.where(two_won, column2, column)[splits]]
            right = np.where(two_won[:, None], right2, right)[splits]
            left_size = sizes[splits] - right.sum(axis=1)
            child_counts = np.concatenate((counts[parent] - right, right))
            child_size = np.concatenate((left_size, size[parent] - left_size))
        leaf = ~split
        agree += np.bincount(job[leaf], weights=counts[leaf].max(axis=1), minlength=n_jobs)
        label = np.where(split, -1, label_of[job, counts.argmax(axis=1)])  # first maximum: ties to the smaller label
        levels.append((job, split, feature, label))

        child_job = np.concatenate((job[parent], job[parent]))
        child_goes_on = ~_stops(child_counts, child_size, root_depth[child_job] + depth + 1, depth_cap, min_leaf)
        if child_goes_on.any():
            # A row goes left exactly when its position in the split column is at or before the
            # cut; `compress` keeps each column's order, so every child's segment stays sorted.
            # A column at a time, into the next depth's array: the temporaries span one column.
            position = np.arange(node_of.size)
            is_left[order[col[node_of], position]] = position <= at[node_of]
            # a two-valued cut sends the rows of the smaller value left
            by_bit = np.flatnonzero(two_won[node_of])
            rows = order[0, by_bit]
            is_left[rows] = bits[slot[node_of[by_bit]], rows] == 0
            keep = np.zeros((2, searched.size), dtype=bool)
            keep[:, splits] = child_goes_on.reshape(2, -1)
            keep_left, keep_right = keep[0, node_of], keep[1, node_of]
            n_left = int(child_size[: parent.size][child_goes_on[: parent.size]].sum())
            children = np.empty((order.shape[0], int(child_size[child_goes_on].sum())), dtype=order.dtype)
            side = np.empty(node_of.size, dtype=bool)
            for f in range(order.shape[0]):
                np.take(is_left, order[f], out=side, mode="clip")
                np.compress(side & keep_left, order[f], out=children[f, :n_left])
                np.logical_not(side, out=side)
                np.compress(side & keep_right, order[f], out=children[f, n_left:])
            order = children
        job = child_job
        counts, size, gini, goes_on = child_counts, child_size, _gini(child_counts, child_size), child_goes_on
        depth += 1
    return _assemble(levels, _thresholds(jobs, first_row, levels, cuts), agree)


def _search_level(order, ranks, pad, table, starts, sizes, counts, gini, min_leaf):
    """The best cut of each node of a depth: (gain, column, position, right counts).

    Nodes are searched in blocks of consecutive nodes, a block spanning
    about SEARCH_CELLS cells of the (C, F, positions) class table; a node
    with no valid cut has gain -inf. Positions are level positions: the
    cut lies between position p and p + 1 of the chosen column. `ranks`
    is None where no column holds a tie; `pad` marks the (slot, node)
    pairs that are a job's padding, never a valid cut.
    """
    cells = starts * (table.shape[0] * order.shape[0])  # class-table cells before each node
    bounds = [0, *(np.flatnonzero(np.diff(cells // SEARCH_CELLS)) + 1).tolist(), starts.size]
    parts = []
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        a, b = int(starts[k0]), int(starts[k1 - 1] + sizes[k1 - 1])
        best, col, at, *rest = _search_block(
            order[:, a:b], ranks, pad[:, k0:k1], table, starts[k0:k1] - a, sizes[k0:k1], counts[k0:k1], gini[k0:k1],
            min_leaf,
        )
        parts.append((best, col, at + a, *rest))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _search_block(order, ranks, pad, table, starts, sizes, counts, gini, min_leaf):
    """The best cut of each node of a block whose rows are consecutive column segments.

    Cut i of a node lies between its sorted positions i and i+1. It is
    valid where the value strictly increases and both sides keep min_leaf
    rows; without `ranks` (no column of the group holds a tie) every value
    does. The block's (C, F, P) class counts are `table` taken by `order`
    and summed in place along the positions; each node's counts restart
    at its first row, where the previous node's counts are subtracted
    before the sum. Node size, left and right sizes and parent Gini are
    per-position arrays, so each cut's Gini formula is the row-major one,
    its class terms summed by `_class_sum`. Invalid cuts score -inf, and
    so does a node's best in a padding slot. A node's best is the first
    maximum in feature-major order: each column's maximum over the node
    (`maximum.reduceat`), the first column at the node's maximum, then the
    first position in that column, which is the (lower feature, lower
    threshold) tie order.
    """
    n_pos = order.shape[1]
    lo = max(min_leaf, 1) - 1  # cuts lo .. n - lo - 2 leave min_leaf rows on each side
    # per-position copies of per-node values are repeats, not gathers: a node's positions are consecutive
    pos = np.arange(n_pos) - np.repeat(starts, sizes)  # each position's place in its node
    n = np.repeat(sizes, sizes)
    cum = table.take(order, axis=1)  # (C, F, P) one-hot columns, summed in place into integer class counts
    cum[:, :, starts[1:]] -= counts[:-1].T.astype(cum.dtype)[:, None, :]
    cum.cumsum(axis=2, dtype=cum.dtype, out=cum)
    left_n = pos + 1.0
    right_n = n - left_n
    right_n[right_n == 0] = 1.0  # a node's last position, never a valid cut: no division by zero
    share = cum / left_n
    share *= share  # the same floats ** 2 gives
    gini_l = _class_sum(share)
    np.subtract(1.0, gini_l, out=gini_l)
    # the counts right of each cut are the node's less the left ones; the arithmetic
    # runs in place, as reusing warm buffers takes several percent off a fit
    np.subtract(np.repeat(counts.T.astype(cum.dtype), sizes, axis=1)[:, None, :], cum, out=cum)
    np.divide(cum, right_n, out=share)
    share *= share
    gini_r = _class_sum(share)
    del share  # the largest temporary: free it before the (F, P) grids that follow
    np.subtract(1.0, gini_r, out=gini_r)
    gain = gini_l  # parent Gini - (left_n * gini_l + right_n * gini_r) / n, in place
    gain *= left_n
    gini_r *= right_n
    gain += gini_r
    del gini_r
    gain /= n
    np.subtract(np.repeat(gini, sizes), gain, out=gain)
    if ranks is not None:
        xs = np.take_along_axis(ranks, order, axis=1)
        gain[:, :-1][~(xs[:, 1:] > xs[:, :-1])] = -np.inf  # the value does not strictly increase past the cut
    gain[:, (pos < lo) | (pos > n - lo - 2)] = -np.inf  # a side would keep fewer than min_leaf rows
    col_best = np.maximum.reduceat(gain, starts, axis=1)  # (F, nodes)
    col_best[pad] = -np.inf
    best = col_best.max(axis=0)
    col = (col_best == best).argmax(axis=0)
    hit = np.flatnonzero(gain[np.repeat(col, sizes), np.arange(n_pos)] == np.repeat(best, sizes))
    at = hit[np.searchsorted(hit, starts)]
    return best, col, at, cum[:, col, at].T


def _search_two_valued(bits, codes, rows, node_of, counts, sizes, gini, min_leaf):
    """The best two-valued cut of each node of a depth: (gain, slot, right counts).

    `rows` are the depth's searched rows, node after node, and `bits` a
    row's side of each two-valued slot's only cut. One weighted count over
    (class, slot, node) of the rows on the upper side gives every cut's
    right counts; the left ones are the node's less those. Both sides are
    scored in one (C, side, slot, node) array by `_search_block`'s float
    expressions in its order, so a cut's gain is bit for bit the one the
    cut grid would give it. A side with fewer than min_leaf rows (or none)
    scores -inf, as does every node when there is no two-valued slot; a
    node's best is its first maximum, the lowest slot.
    """
    n_slots, (n_nodes, n_classes) = bits.shape[0], counts.shape
    if not n_slots:
        return np.full(n_nodes, -np.inf), np.zeros(n_nodes, dtype=np.int64), counts
    cells = n_slots * n_nodes
    key = np.arange(0, cells, n_nodes)[:, None] + (codes[rows] * cells + node_of)  # (slots, positions)
    upper = np.bincount(key.ravel(), bits.take(rows, axis=1).ravel(), n_classes * cells)
    del key
    upper = upper.reshape(n_classes, 1, n_slots, n_nodes)
    sides = np.concatenate((counts.T[:, None, None, :] - upper, upper), axis=1)  # each cut's left and right counts
    side_n = sides.sum(axis=0)  # exact: integer counts
    invalid = side_n.min(axis=0) < max(min_leaf, 1)
    np.maximum(side_n, 1.0, out=side_n)  # a side with no rows is never valid: no division by zero
    sides /= side_n
    sides *= sides
    side_gini = _class_sum(sides)
    del sides
    np.subtract(1.0, side_gini, out=side_gini)
    side_gini *= side_n
    gain = side_gini[0] + side_gini[1]  # parent Gini - (left_n * gini_l + right_n * gini_r) / n
    gain /= sizes
    np.subtract(gini, gain, out=gain)
    gain[invalid] = -np.inf
    slot = gain.argmax(axis=0)
    node = np.arange(n_nodes)
    return gain[slot, node], slot, upper[:, 0, slot, node].T.astype(np.int64)


def _assemble(levels, thresholds, agree: np.ndarray) -> list[tuple[DecisionTree, int]]:
    """Each job's (tree, agree), its pre-order arrays filled from the depths' node arrays.

    Subtree sizes are summed from the deepest depth up; then each node's
    pre-order index is handed down: a split's left child follows it, and
    its right child follows the left child's subtree.
    """
    subtree = [np.ones(0, dtype=np.int64)] * len(levels)
    for d in range(len(levels) - 1, -1, -1):
        split = levels[d][1]
        subtree[d] = np.ones(split.size, dtype=np.int64)
        if split.any():
            below = subtree[d + 1].reshape(2, -1)
            subtree[d][split] += below[0] + below[1]
    tree_size = subtree[0]
    tree_start = np.cumsum(tree_size) - tree_size
    feature = np.empty(int(tree_size.sum()), dtype=np.int64)
    threshold = np.empty(feature.size)
    label = np.empty(feature.size, dtype=np.int64)
    right = np.full(feature.size, -1)
    at = tree_start
    for d, ((job, split, level_feature, level_label), level_threshold) in enumerate(zip(levels, thresholds)):
        feature[at], threshold[at], label[at] = level_feature, level_threshold, level_label
        if split.any():
            first = at[split] + 1
            second = first + subtree[d + 1][: first.size]
            right[at[split]] = second - tree_start[job[split]]  # a tree's node ids start at its root
            at = np.concatenate((first, second))
    return [
        (DecisionTree(feature[a:b], threshold[a:b], label[a:b], right[a:b]), int(agree[j]))
        for j, (a, b) in enumerate(zip(tree_start.tolist(), (tree_start + tree_size).tolist()))
    ]


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
    ValueError on a malformed, non-string or truncated record stream, a
    record id that is not its pre-order position, a split feature outside
    0..2**63 - 1, a leaf label outside int64 or a non-finite threshold.
    """
    nodes: list[list] = []
    open_splits: list[int] = []  # splits whose right child comes next, innermost last
    for pos, record in enumerate(lines):
        try:
            parts = record.split()
        except AttributeError:
            raise ValueError(f"record {pos} is not a string: {record!r}") from None
        if len(parts) < 4 or parts[0] != "node":
            raise ValueError(f"bad node record: {record!r}")
        if int(parts[1]) != pos:
            raise ValueError(f"record id {parts[1]} at pre-order position {pos}: {record!r}")
        if parts[2] == "leaf":
            if len(parts) != 4:
                raise ValueError(f"bad leaf record: {record!r}")
            label = int(parts[3])
            if not -(2**63) <= label < 2**63:
                raise ValueError(f"leaf label outside int64: {record!r}")
            nodes.append([-1, 0.0, label, -1])
            if not open_splits:
                return DecisionTree(*zip(*nodes)), pos + 1
            nodes[open_splits.pop()][3] = pos + 1
        elif parts[2] == "split":
            if len(parts) != 5:
                raise ValueError(f"bad split record: {record!r}")
            f, t = int(parts[3]), float(parts[4])
            if f < 0:
                raise ValueError(f"negative split feature: {record!r}")
            if f >= 2**63:
                raise ValueError(f"split feature outside int64: {record!r}")
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
    stack = [(0, 0)]  # (node, indent) still to render, next on top; node None is a split's "else:"
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if node is None:
            out.append(f"{pad}else:")
        elif feature[node] < 0:
            out.append(f"{pad}predict {label[node]}")
        else:
            f = feature[node]
            name = feature_names[f] if feature_names is not None else f"x{f}"
            out.append(f"{pad}if {name} <= {threshold[node]:.6g}:")
            stack += [(right[node], indent + 1), (None, indent), (node + 1, indent + 1)]
    return "\n".join(out) + "\n"
