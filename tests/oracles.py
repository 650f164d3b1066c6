"""Reference implementations the tests check the package against.

None of these runs in the pipeline. Each restates one step of it directly
and slowly (an exhaustive solver, a lookup-table black box, the ball test
one pair at a time, a tree group's roots one at a time, ...), reusing the package's private helpers for the
parts it does not restate.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from aggrex.aggregate import PHI_DENOM, _finish_solution, _iter_bits, _phi_num
from aggrex.data import Dataset, FeatureSchema, _region_code
from aggrex.infofilter import EPS_MI, _cmi_scores, build_histograms, forward_select
from aggrex.tree import fit_job, fit_trees


def mixed_distance(x, c, schema: FeatureSchema):
    """max of the continuous Linf distance and the binary Hamming distance; rows of x or c broadcast.

    `mixed_distance(x, c, schema) <= r` is the sampler's ball test
    (continuous Linf <= r and binary flips <= floor(r)), since the Hamming
    part is an integer.
    """
    x, c = np.asarray(x, dtype=float), np.asarray(c, dtype=float)
    ci, bi = schema.continuous_idx, schema.binary_idx
    linf = np.max(np.abs(x[..., ci] - c[..., ci]), axis=-1, initial=0.0)
    return np.maximum(linf, np.sum(x[..., bi] != c[..., bi], axis=-1))


class TableOracle:
    """Black box by exact lookup; an unseen point takes the label of the nearest stored point.

    The pipeline calls only `predict_batch` on a black box. Duplicate
    points with conflicting labels raise. The nearest-neighbor metric is
    the mixed metric when a schema is given, else plain Linf; equidistant
    ties go to the earlier stored point.
    """

    def __init__(self, pairs, schema: FeatureSchema | None = None) -> None:
        table: dict[tuple, int] = {}
        for point, label in pairs:
            key = tuple(np.asarray(point, dtype=float).tolist())
            if table.setdefault(key, int(label)) != int(label):
                raise ValueError(f"duplicate point {key} with conflicting labels")
        if not table:
            raise ValueError("need at least one (point, label) pair")
        self.points, self.labels = np.array(list(table), dtype=float), np.array(list(table.values()))
        self.label_set = tuple(sorted(set(table.values())))
        self.schema = schema

    def predict(self, x) -> int:
        x = np.asarray(x, dtype=float)
        if x.shape != self.points.shape[1:]:
            raise ValueError(f"point has shape {x.shape}, table stores {self.points.shape[1]} features")
        exact = np.flatnonzero(np.all(self.points == x, axis=1))
        if exact.size:
            return int(self.labels[exact[0]])
        if self.schema is not None:
            dists = mixed_distance(self.points, x, self.schema)
        else:
            dists = np.max(np.abs(self.points - x), axis=1)
        return int(self.labels[np.argmin(dists)])

    def predict_batch(self, X) -> np.ndarray:
        return np.array([self.predict(x) for x in np.asarray(X, dtype=float)], dtype=int)


def inverse_scale(d: Dataset, raw: Dataset) -> Dataset:
    """Undo standardize on d, with each continuous column's shift and scale computed from raw, the data d came from."""
    X = d.X.copy()
    for j in raw.schema.continuous_idx:
        shift, scale = np.mean(raw.X[:, j]), np.std(raw.X[:, j])
        X[:, j] = X[:, j] * (scale if scale > 0 else 1.0) + shift
    return Dataset(X, d.y, d.schema)


def synth_label_fn(schema: FeatureSchema, relevant, classes: int):
    """The labelling rule of synth_multiclass, as a callable on raw points."""
    relevant = tuple(sorted(int(j) for j in relevant))
    return lambda x: _region_code(np.asarray(x, dtype=float), schema, relevant) % classes


def labelled_job(X, y, features, depth: int = 0):
    """`tree.fit_job` on integer labels y, encoded first as `encode` encodes them."""
    classes, codes = np.unique(np.asarray(y, dtype=int), return_inverse=True)
    return fit_job(X, codes, features, classes, depth)


def tree_fit(X, y, features, max_depth: int | None = 12, min_leaf: int = 2):
    """(tree, agree) of one Gini tree on X[:, features] vs integer labels y: `fit_trees` on a group of one."""
    return fit_trees([labelled_job(X, y, features)], max_depth, min_leaf)[0]


def root_columns(jobs, width: int, first_row: np.ndarray, goes_on: np.ndarray):
    """`tree._root_columns` one root at a time: each root's columns classed, sorted and ranked on their own.

    Returns the same (ranks, order, many_of, bits, two_of, two_rows): see
    `_root_columns` for what each holds.
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
        cols = job.X.T[job.features]  # (m, N)
        lo, hi = cols.min(axis=1, keepdims=True), cols.max(axis=1, keepdims=True)  # NaN where a NaN is held
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
        rank = np.zeros(by_value.shape, dtype=np.int32)
        np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, out=rank[:, 1:])
        tied = tied or bool((rank[:, -1] < n - 1).any())  # a tie, or a NaN (never greater than its neighbour)
        by_row = np.empty_like(rank)
        by_row.put(flat, rank)
        ranks[: many.size, rows] = by_row
        order[: many.size, start:end] = by_value
        order[many.size :, start:end] = np.arange(n)
    order += np.repeat(first_row[roots], [jobs[j].codes.size for j in roots]).astype(np.int32)  # job rows to group rows
    two_rows += first_row[:, None]
    ranks = ranks[:n_many] if tied else None
    return ranks, order[:n_many], many_of[:, :n_many], bits[:n_two], two_of[:, :n_two], two_rows[:, :, :n_two]


def features_used(tree) -> frozenset[int]:
    """The features the tree splits on."""
    return frozenset(np.unique(tree.feature[tree.feature >= 0]).tolist())


def encode(labels):
    """The labels as codes 0..C-1, and C, as `label_ball` encodes them."""
    classes, codes = np.unique(np.asarray(labels, dtype=int), return_inverse=True)
    return codes, classes.size


def cond_mutual_info(feature: int, labels, leaves, bins) -> float:
    """Plug-in conditional MI (nats) between one feature's bins and the labels, given the leaves."""
    if feature < 0 or feature >= bins.n_features:
        raise IndexError(f"feature {feature} out of range for {bins.n_features} features")
    return float(_cmi_scores([feature], *encode(labels), leaves, bins)[0])


def dense_cmi_scores(features, y_codes, n_labels: int, leaves, bins) -> np.ndarray:
    """`_cmi_scores` as a dense (feature, leaf, bin, label) table: the formula the cell-major scorer replaced.

    The counts come from one bincount; each leaf's terms are summed in
    (bin, label) order by a cumsum, then the leaves in order.
    """
    n_feat = len(features)
    if n_feat == 0 or leaves.empty:
        return np.zeros(n_feat)
    n_leaves, width = len(leaves), max(bins.n_bins)
    b = bins.by_feature.take(features, axis=0).take(leaves.members, axis=1).astype(np.int64)
    slot = np.arange(n_feat, dtype=np.int64)[:, None] * n_leaves + leaves.leaf_of
    codes = (slot * width + b) * n_labels + y_codes[leaves.members]
    joint = np.bincount(codes.ravel(), minlength=n_feat * n_leaves * width * n_labels).astype(float)
    joint = joint.reshape(n_feat, n_leaves, width, n_labels)
    row = joint.sum(axis=3, keepdims=True)
    col = joint.sum(axis=2, keepdims=True)
    ratio = np.divide(joint * leaves.sizes[:, None, None], row * col, out=np.ones_like(joint), where=joint > 0)
    terms = (joint * np.log(ratio)).reshape(n_feat, n_leaves, -1)
    per_leaf = np.cumsum(terms, axis=2)[:, :, -1] / bins.n_samples
    return np.cumsum(per_leaf, axis=1)[:, -1]


def selection_trace(samples, labels, schema, max_bins=3, eps_mi=EPS_MI) -> dict:
    """JSON-ready dump of the filter's forward selection: each round's candidate scores, pick and leaf count."""
    selected, rounds = forward_select(build_histograms(samples, schema, max_bins), *encode(labels), eps_mi)
    rounds = [{**vars(rec), "scores": {str(f): score for f, score in sorted(rec.scores.items())}} for rec in rounds]
    return {"selected": list(selected), "rounds": rounds}


def local_fidelity(explainer, blackbox, points) -> float:
    """Fraction of points where the surrogate matches the black box."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty matrix")
    return float(np.mean(explainer.tree.predict_batch(points) == blackbox.predict_batch(points)))


def pool_agreement(dataset, explainers, blackbox) -> np.ndarray:
    """agree[i, j]: explainer i and the black box give point j one label, one explainer's tree at a time."""
    labels = blackbox.predict_batch(dataset.X)
    agree = np.zeros((dataset.n, dataset.n), dtype=bool)
    for i, ex in enumerate(explainers):
        agree[i, :] = ex.tree.predict_batch(dataset.X) == labels
    return agree


class BruteForceRefused(ValueError):
    """Instance exceeds the brute-force enumeration limits."""


def brute_force(pool, budget: int, fidelity_floor: float):
    """Exhaustive solver: every selection of size <= budget, every admissible claim set.

    Agreeing in-ball points are always claimed (that never hurts a
    fidelity row nor lowers the objective); every subset of the selection's
    disagreeing in-ball (candidate, point) pairs is tried on top, and each
    fidelity row is checked in integers. Refuses instances with n > 12 or
    more than 20 disagreeing in-ball pairs.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if pool.n > 12:
        raise BruteForceRefused(f"n = {pool.n} exceeds the brute-force limit of 12")
    if pool.disagree_pair_count() > 20:
        raise BruteForceRefused(f"{pool.disagree_pair_count()} disagreeing in-ball pairs exceed the limit of 20")
    phi_num = _phi_num(fidelity_floor)
    ball, agree = pool.ball_masks, pool.agree_masks
    best, checked = (-1, (), {}), 0
    for k in range(min(budget, pool.n) + 1):
        for sel in combinations(range(pool.n), k):
            base = {i: ball[i] & agree[i] for i in sel}
            slack = {i: base[i].bit_count() * (PHI_DENOM - phi_num) for i in sel}
            pairs = [(i, j) for i in sel for j in _iter_bits(ball[i] & ~agree[i])]
            for mask in range(1 << len(pairs)):
                checked += 1
                chosen = [pair for t, pair in enumerate(pairs) if mask >> t & 1]
                if any(sum(c == i for c, _ in chosen) * phi_num > slack[i] for i in sel):
                    continue
                z = dict(base)
                for i, j in chosen:
                    z[i] |= 1 << j
                covered = reduce(or_, z.values(), 0).bit_count()
                if covered > best[0]:
                    best = (covered, sel, z)
    return _finish_solution(best[1], best[2], best[0], "optimal", pool, checked)


def parse_lp(text: str) -> dict:
    """Structural re-parse of LP text: variable and constraint counts."""
    section, n_constraints, binary = None, 0, []
    for line in map(str.strip, text.splitlines()):
        if not line or line.startswith("\\"):
            continue
        if line.lower() in ("maximize", "minimize", "subject to", "bounds", "binary", "end"):
            section = line.lower()
        elif section == "subject to" and ":" in line:
            n_constraints += 1
        elif section == "binary":
            binary.extend(line.split())
    return {"n_constraints": n_constraints, "n_variables": len(binary), "binary_variables": binary}
