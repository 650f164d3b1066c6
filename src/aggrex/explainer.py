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
on its own from the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema
from .infofilter import EPS_MI, MIN_CELL, select_informative_features
from .sampler import SampleSet, sample_ball
from .tree import DecisionTree, tree_fit

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

    samples: SampleSet
    classes: np.ndarray  # the distinct labels, ascending
    codes: np.ndarray  # each sample's index into classes


def label_ball(blackbox, center, r: float, N: int, schema: FeatureSchema, seed: int) -> LabelledBall:
    """Draw N points from the ball around center and label them with the black box."""
    samples = sample_ball(center, r, N, schema, seed)
    labels = blackbox.predict_batch(samples.points)
    classes, codes = np.unique(np.asarray(labels, dtype=int), return_inverse=True)
    return LabelledBall(samples, classes, codes)


def train_local_explainer(
    blackbox,
    center,
    r: float,
    N: int,
    max_bins: int = 3,
    filtered: bool = True,
    seed: int = 0,
    schema: FeatureSchema | None = None,
    center_index: int = -1,
    max_depth: int | None = DEFAULT_MAX_DEPTH,
    min_leaf: int = DEFAULT_MIN_LEAF,
    eps_mi: float = EPS_MI,
    min_cell: int = MIN_CELL,
    max_features: int | None = None,
    ball: LabelledBall | None = None,
) -> LocalExplainer:
    """Sample, label, filter, fit. Deterministic given the seed.

    `ball` is the labelled sample to train on; when None it is drawn here,
    as `label_ball(blackbox, center, r, N, schema, seed)`. An empty filter
    result falls back to the unique zero-feature model: a single
    majority-label leaf.
    """
    if schema is None:
        raise ValueError("schema is required")
    if N < 2:
        raise ValueError("need at least 2 samples")
    if ball is None:
        ball = label_ball(blackbox, center, r, N, schema, seed)
    samples, classes, codes = ball.samples, ball.classes, ball.codes
    if filtered:
        features = select_informative_features(
            samples,
            codes,
            schema,
            max_bins=max_bins,
            eps_mi=eps_mi,
            min_cell=min_cell,
            max_features=max_features,
            n_labels=classes.size,
        )
    else:
        features = tuple(range(schema.count))
    if features:
        tree, agree = tree_fit(
            samples.points, codes, features, max_depth=max_depth, min_leaf=min_leaf, classes=classes
        )
    else:
        counts = np.bincount(codes)
        tree = DecisionTree.leaf(int(classes[np.argmax(counts)]))  # ties -> smaller label
        agree = int(counts.max())
    fidelity = agree / codes.size
    return LocalExplainer(
        center_index=int(center_index),
        center=np.asarray(center, dtype=float),
        radius=float(r),
        selected_features=tuple(features),
        tree=tree,
        filtered=bool(filtered),
        train_fidelity=fidelity,
    )


def local_fidelity(explainer: LocalExplainer, blackbox, points: np.ndarray) -> float:
    """Fraction of points where the surrogate matches the black box."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty matrix")
    return float(np.mean(explainer.predict_batch(points) == blackbox.predict_batch(points)))
