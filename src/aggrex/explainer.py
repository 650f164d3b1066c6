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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema
from .infofilter import EPS_MI, MIN_CELL, select_informative_features
from .sampler import SampleSet, sample_ball
from .tree import DecisionTree, fit_job, runs

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

    def predict(self, x) -> int:
        return self.tree.predict(x)

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.tree.predict_batch(X)

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


def explainer_groups(balls, schema: FeatureSchema, variants=(True,)):
    """Runs of labelled balls whose explainers `train_local_explainer` grows together.

    A ball counts as one fit per variant on every feature: a bound, since
    filtering only narrows a fit, so `fit_trees` keeps each run whole.
    Balls are drawn one at a time (see `tree.runs`).
    """
    return runs(balls, lambda ball: (schema.count, ball.codes.size * len(variants)))


def train_local_explainer(
    balls,
    schema: FeatureSchema,
    variants=(True,),
    max_bins: int = 3,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    max_features: int | None = None,
) -> list[LocalExplainer]:
    """Filter, fit: the explainers of a group of labelled balls. Deterministic given the balls.

    There is one explainer per ball and variant (True: filtered, False:
    every feature), ball by ball, variants in the given order. Each
    variant is filtered on its own, then every tree of the group is grown
    in one `fit_trees` call. An empty filter result falls back to the
    unique zero-feature model: a single majority-label leaf.
    """
    plans = []  # (ball, filtered, features)
    jobs = []
    for ball in balls:
        for filtered in variants:
            if filtered:
                features = select_informative_features(
                    ball.samples,
                    ball.codes,
                    schema,
                    max_bins=max_bins,
                    eps_mi=eps_mi,
                    min_cell=min_cell,
                    max_features=max_features,
                    n_labels=ball.classes.size,
                )
            else:
                features = tuple(range(schema.count))
            plans.append((ball, bool(filtered), features))
            if features:
                jobs.append(fit_job(ball.samples.points, ball.codes, features, classes=ball.classes))
    fitted = iter(tree_fit(jobs, max_depth=max_depth, min_leaf=min_leaf))
    out = []
    for ball, filtered, features in plans:
        if features:
            tree, agree = next(fitted)
        else:
            counts = np.bincount(ball.codes)
            tree = DecisionTree.leaf(int(ball.classes[np.argmax(counts)]))  # ties -> smaller label
            agree = int(counts.max())
        out.append(
            LocalExplainer(
                center_index=ball.center_index,
                center=ball.center,
                radius=ball.radius,
                selected_features=tuple(features),
                tree=tree,
                filtered=filtered,
                train_fidelity=agree / ball.codes.size,
            )
        )
    return out
