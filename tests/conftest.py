"""Shared instance generators for the solver and estimator test suites."""

import numpy as np
import pytest

from aggrex.aggregate import CandidatePool
from aggrex.tree import DecisionTree


def random_pool(
    seed: int,
    n_max: int = 10,
    ball_prob: float = 0.35,
    agree_prob: float = 0.85,
    max_pairs_per_candidate: int = 4,
    max_pairs_total: int = 12,
) -> CandidatePool:
    """Random square pool with self-membership and bounded disagreeing pairs.

    Bounds keep brute_force enumeration cheap; the seed stream is fixed, so
    regenerating on a bound violation stays deterministic.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(3, n_max + 1))
        within = rng.random((n, n)) < ball_prob
        np.fill_diagonal(within, True)
        agree = rng.random((n, n)) < agree_prob
        per_candidate = (within & ~agree).sum(axis=1)
        if per_candidate.max(initial=0) <= max_pairs_per_candidate and per_candidate.sum() <= max_pairs_total:
            return CandidatePool(within=within, agree=agree)
    raise RuntimeError(f"could not generate a bounded pool from seed {seed}")


def geometric_pool(seed: int) -> CandidatePool:
    """Sweep-sized pool: 30-60 points in the unit square with Linf balls.

    Each candidate agrees with the black box on a random share (60-95%) of
    the points, so balls hold many disagreeing pairs; about 30-95 in all.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 61))
    points = rng.random((n, 2))
    radii = rng.uniform(0.08, 0.25, size=n)
    within = np.abs(points[None, :, :] - points[:, None, :]).max(axis=2) <= radii[:, None]
    agree = rng.random((n, n)) < rng.uniform(0.6, 0.95, size=(n, 1))
    return CandidatePool(within=within, agree=agree)


def random_tree(rng, width: int, depth: int, thresholds) -> DecisionTree:
    """A random tree at most `depth` levels deep, splitting on features below `width` at values drawn from `thresholds`.

    A node above the cap splits with probability 0.8, so a depth-0 tree is
    a single leaf and deeper trees mix leaves in at every level.
    """
    feature, threshold, label, right = [], [], [], []

    def grow(level):
        node = len(feature)
        splits = level < depth and rng.random() < 0.8
        feature.append(int(rng.integers(width)) if splits else -1)
        threshold.append(float(rng.choice(thresholds)) if splits else 0.0)
        label.append(-1 if splits else int(rng.integers(3)))
        right.append(-1)
        if splits:
            grow(level + 1)
            right[node] = len(feature)
            grow(level + 1)

    grow(0)
    return DecisionTree(feature, threshold, label, right)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
