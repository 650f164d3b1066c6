"""Uniform sampling from mixed-metric balls around a point.

The neighborhood of a point combines an L-infinity ball over the continuous
features with a Hamming (L1) ball over the binary ones: a point x lies in
the radius-r neighborhood of c iff

    max_{continuous j} |x_j - c_j| <= r   and   sum_{binary j} |x_j - c_j| <= floor(r)

i.e. both parts are bounded by r independently; since the Hamming part is
an integer, that is max(Linf part, Hamming part) <= r for any r.
`aggregate.build_pool` tests this ball for every pair of dataset points,
and sampling keeps every draw inside it. Continuous coordinates are drawn
per-coordinate uniform on [c_j - r, c_j + r] (the Linf ball factorizes).
Binary coordinates flip a uniformly random k-subset, with k itself uniform
on {0, ..., min(floor(r), #binary)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureSchema


@dataclass(frozen=True)
class SampleSet:
    """N perturbation points around a center, all inside the mixed-metric ball."""

    points: np.ndarray

    @property
    def count(self) -> int:
        return self.points.shape[0]


def sample_ball(center: np.ndarray, r: float, N: int, schema: FeatureSchema, seed: int = 0) -> SampleSet:
    """Draw N points uniformly from the mixed-metric ball around `center`.

    Reproducible: the same (center, r, N, seed) yields a bit-identical
    SampleSet. r = 0 degenerates to N copies of the center.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if N < 1:
        raise ValueError("need at least one sample")
    center = np.asarray(center, dtype=float)
    if center.shape != (schema.count,):
        raise ValueError(f"center has shape {center.shape}, schema expects ({schema.count},)")

    rng = np.random.default_rng(seed)
    points = np.tile(center, (N, 1))

    ci = schema.continuous_idx
    if ci.size and r > 0:
        low = center[ci] - r
        high = center[ci] + r
        points[:, ci] = rng.uniform(low, high, size=(N, ci.size))

    bi = schema.binary_idx
    max_flips = min(math.floor(r), int(bi.size))
    if bi.size and max_flips > 0:
        flips = rng.integers(0, max_flips + 1, size=N)
        # Rank a random matrix per row; the k smallest ranks form a uniform
        # k-subset of the binary features.
        noise = rng.random((N, bi.size))
        ranks = np.argsort(np.argsort(noise, axis=1), axis=1)
        mask = ranks < flips[:, None]
        block = points[:, bi]
        block[mask] = 1.0 - block[mask]
        points[:, bi] = block

    points.setflags(write=False)
    return SampleSet(points)


def derive_seed(root_seed: int, *indices: int) -> int:
    """Stable per-task seed from a root seed and index path (center, radius slot, ...)."""
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
