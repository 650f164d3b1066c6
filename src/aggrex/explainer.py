"""Local surrogate decision trees trained on ball samples around a center.

Training samples the mixed-metric ball, labels the samples with the black
box, optionally filters features through the information filter, then fits
a Gini tree on the (possibly restricted) features against the black-box
labels. The tree's leaf count is the complexity measure; train fidelity is
the fraction of samples where surrogate and black box agree, counted by
the fit itself (each leaf's majority count) rather than by routing the
samples through the tree again.

A ball is sampled, labelled and its labels encoded once (`label_ball`);
the filtered and the unfiltered surrogate of one (center, radius, seed)
train on that same `LabelledBall`, which is exactly what each would draw
on its own from the same seed. Explainers are trained a group of balls at
a time (`explainer_groups`), so that the trees of the whole group grow
together, level by level (`tree.fit_trees`); a tree's bytes do not
depend on its group.

With both variants, each filtered tree is grown from its unfiltered twin,
as incremental tree induction keeps a fitted tree and regrows it only
where the best test changes (Utgoff, Berkman & Clouse 1997). The twin's
nodes are kept down to the first split on a dropped feature on each path,
and only the subtrees below those splits are refit. This is exact. At
every node the fit takes the first maximum in (feature, threshold) order
over ascending features, so when the twin's winner is a selected feature
it is also the first maximum among the selected ones, and the children's
rows match; by induction the two trees agree down to the first dropped
split on each path. Below it, the filtered subtree is the fit of a job
holding that node's rows in ascending order (a stable presort of a subset
is the subset of the presort), the selected features, the ball's full
class list (so the class table and the order its Gini terms are summed
in stay the same) and the node's depth (so the depth cap still counts
from the root). A twin that splits only on selected features is the
filtered tree itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema
from .infofilter import EPS_MI, select_informative_features
from .sampler import SampleSet, sample_ball
from .tree import DecisionTree, fit_job, route, runs

# Temporary alias: perfbench's tracer times `explainer.tree_fit` as its tree.fit layer. It goes
# when the tracer wraps `fit_trees` by its own name (ROADMAP item 5).
from .tree import fit_trees as tree_fit

DEFAULT_MAX_DEPTH = 12
DEFAULT_MIN_LEAF = 2


@dataclass
class LocalExplainer:
    center_index: int
    center: np.ndarray
    radius: float
    selected_features: tuple[int, ...]
    tree: DecisionTree
    filtered: bool
    train_fidelity: float

    @property
    def leaf_count(self) -> int:
        return self.tree.leaf_count


@dataclass(frozen=True)
class LabelledBall:
    """Ball samples with their black-box labels, encoded once for every fit on them."""

    center: np.ndarray
    radius: float
    center_index: int  # the dataset row the ball is centred on, or -1
    samples: SampleSet
    classes: np.ndarray  # the distinct labels, ascending
    codes: np.ndarray  # each sample's index into classes


def label_ball(
    blackbox, center, r: float, N: int, schema: FeatureSchema, seed: int, center_index: int = -1
) -> LabelledBall:
    """Draw N points from the ball around center and label them with the black box."""
    if N < 2:
        raise ValueError("need at least 2 samples")
    samples = sample_ball(center, r, N, schema, seed)
    labels = blackbox.predict_batch(samples.points)
    classes, codes = np.unique(np.asarray(labels, dtype=int), return_inverse=True)
    return LabelledBall(np.asarray(center, dtype=float), float(r), int(center_index), samples, classes, codes)


def explainer_groups(balls, schema: FeatureSchema):
    """Runs of labelled balls whose explainers `train_local_explainer` grows together.

    A ball counts once, as its rows by every feature, whatever the
    variants: each `fit_trees` call of a group fits at most one tree per
    ball on at most every feature (a ball's grafts are disjoint subtrees
    of its twin, on fewer features), so each call keeps the run whole.
    Balls are drawn one at a time (see `tree.runs`).
    """
    return runs(balls, lambda ball: (schema.count, ball.codes.size))


def train_local_explainer(
    balls,
    schema: FeatureSchema,
    variants=(True,),
    max_bins: int = 3,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    eps_mi: float = EPS_MI,
) -> list[LocalExplainer]:
    """Filter, fit: the explainers of a group of labelled balls. Deterministic given the balls.

    There is one explainer per ball and variant (True: filtered, False:
    every feature), ball by ball, variants in the given order. An empty
    filter result falls back to the unique zero-feature model: a single
    majority-label leaf. With one variant, every tree of the group is
    grown in one `fit_trees` call. With both, the unfiltered trees are
    grown in one call, and each filtered tree is its twin with the
    subtrees below splits on dropped features refit, all of the group's
    in one more call (`_grown_from_twins`).
    """
    balls = list(balls)
    features = {False: [tuple(range(schema.count))] * len(balls)}  # variant: each ball's features
    if True in variants:
        features[True] = [
            select_informative_features(ball.samples, ball.codes, ball.classes.size, schema, max_bins, eps_mi)
            for ball in balls
        ]
    fits = {}  # variant: each ball's (tree, agree)
    if False in variants:
        fits[False] = _fit(balls, features[False], max_depth, min_leaf)
    if True in variants:
        if False in variants:
            fits[True] = _grown_from_twins(balls, features[True], fits[False], max_depth, min_leaf)
        else:
            fits[True] = _fit(balls, features[True], max_depth, min_leaf)
    out = []
    for i, ball in enumerate(balls):
        for filtered in map(bool, variants):
            tree, agree = fits[filtered][i]
            out.append(
                LocalExplainer(
                    center_index=ball.center_index,
                    center=ball.center,
                    radius=ball.radius,
                    selected_features=tuple(features[filtered][i]),
                    tree=tree,
                    filtered=filtered,
                    train_fidelity=agree / ball.codes.size,
                )
            )
    return out


def _majority_leaf(ball: LabelledBall) -> tuple[DecisionTree, int]:
    """The zero-feature model and its agree count: one leaf of the majority label, ties to the smaller."""
    counts = np.bincount(ball.codes)
    return DecisionTree.leaf(int(ball.classes[np.argmax(counts)])), int(counts.max())


def _fit(balls, feature_sets, max_depth, min_leaf) -> list[tuple[DecisionTree, int]]:
    """Each ball's (tree, agree) on its feature set, every tree in one `fit_trees` call."""
    jobs = [
        fit_job(ball.samples.points, ball.codes, features, classes=ball.classes)
        for ball, features in zip(balls, feature_sets)
        if features
    ]
    fitted = iter(tree_fit(jobs, max_depth=max_depth, min_leaf=min_leaf))
    return [next(fitted) if features else _majority_leaf(ball) for ball, features in zip(balls, feature_sets)]


def _dropped_splits(tree: DecisionTree, features) -> list[tuple[int, int, int]]:
    """(node, subtree end, depth) of the first node on each path that splits outside `features`, in pre-order.

    A node's subtree is the pre-order span [node, end): end is one past
    the last leaf reached by going right from it.
    """
    feature, right = tree.feature.tolist(), tree.right.tolist()
    outside = [f >= 0 and f not in features for f in feature]
    if not any(outside):
        return []
    depth = [0] * len(feature)
    for node, f in enumerate(feature):
        if f >= 0:
            depth[node + 1] = depth[right[node]] = depth[node] + 1
    out = []
    node = 0
    while node < len(feature):
        if not outside[node]:
            node += 1
            continue
        end = node
        while feature[end] >= 0:
            end = right[end]
        out.append((node, end + 1, depth[node]))
        node = end + 1
    return out


def _grown_from_twins(balls, selected, twins, max_depth, min_leaf) -> list[tuple[DecisionTree, int]]:
    """Each ball's filtered (tree, agree), grown from its unfiltered twin's (tree, agree).

    The twin is kept down to the first split on a dropped feature on each
    path; the subtree below each such node is refit on the node's rows
    (the samples whose twin leaf lies in its pre-order span, in row order)
    and the selected features, with the ball's classes and the node's
    depth, every subtree of the group in one `fit_trees` call.
    """
    plans = []  # per ball: each sample's twin leaf, and (node, end, rows) of each refit subtree
    jobs = []
    for ball, features, (twin, _) in zip(balls, selected, twins):
        dropped = _dropped_splits(twin, features) if features else []
        leaf = route(twin, ball.samples.points) if dropped else None
        spans = []
        for node, end, depth in dropped:
            rows = np.flatnonzero((leaf >= node) & (leaf < end))
            spans.append((node, end, rows))
            points, codes = ball.samples.points[rows], ball.codes[rows]
            jobs.append(fit_job(points, codes, features, classes=ball.classes, depth=depth))
        plans.append((leaf, spans))
    fitted = iter(tree_fit(jobs, max_depth=max_depth, min_leaf=min_leaf))
    out = []
    for ball, features, twin, (leaf, spans) in zip(balls, selected, twins, plans):
        if not features:
            out.append(_majority_leaf(ball))
        elif not spans:
            out.append(twin)
        else:
            out.append(_spliced(*twin, ball, leaf, spans, [next(fitted) for _ in spans]))
    return out


def _spliced(twin: DecisionTree, agree: int, ball: LabelledBall, leaf: np.ndarray, spans, grafts):
    """The twin with each span's subtree replaced by its graft, and the (tree, agree) that gives.

    `spans` are the replaced (node, end, rows) in pre-order and `grafts`
    their refit (tree, agree). A node after a span moves by the size change
    of every span before it; a kept split's right child is a kept node or
    a graft's root, never a node inside a span. The agree count is the
    twin's, less the samples its replaced leaves predicted right, plus the
    grafts'.
    """
    nodes, ends = np.array([span[:2] for span in spans]).T
    sizes = np.array([tree.feature.size for tree, _ in grafts])
    shift = np.concatenate(([0], np.cumsum(sizes - (ends - nodes))))  # of a node after 0, 1, ... spans

    def moved(old):
        return old + shift[np.searchsorted(ends, old, side="right")]

    kept = (twin.feature, twin.threshold, twin.label, np.where(twin.feature >= 0, moved(twin.right), -1))
    pieces = []
    start = 0
    for (node, end, _), (tree, _) in zip(spans, grafts):
        pieces.append([array[start:node] for array in kept])
        right = np.where(tree.feature >= 0, tree.right + moved(node), -1)  # a graft's node ids start at its root
        pieces.append((tree.feature, tree.threshold, tree.label, right))
        start = end
    pieces.append([array[start:] for array in kept])
    replaced = np.concatenate([rows for _, _, rows in spans])
    right_before = int(np.count_nonzero(ball.classes[ball.codes[replaced]] == twin.label[leaf[replaced]]))
    grown = agree - right_before + sum(graft_agree for _, graft_agree in grafts)
    return DecisionTree(*(np.concatenate(arrays) for arrays in zip(*pieces))), grown
