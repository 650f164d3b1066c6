import math

import numpy as np
import pytest

from aggrex.data import FeatureSchema
from aggrex.sampler import derive_seed, sample_ball

from oracles import mixed_distance

MIXED = FeatureSchema.mixed(3, 4)


def ks_uniform_pass(values, lo, hi, level_const=1.6276):
    """One-sample KS test against Uniform(lo, hi) at the 1% level.

    Statistic D = sup |ecdf - cdf|; asymptotic 1% critical value is
    1.6276 / sqrt(N).
    """
    u = np.sort((np.asarray(values) - lo) / (hi - lo))
    n = u.size
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - u)
    d_minus = np.max(u - (grid - 1.0 / n))
    return max(d_plus, d_minus) <= level_const / math.sqrt(n)


class TestSampleBall:
    def test_zero_radius_all_center(self):
        center = np.array([0.5, -1.0, 2.0, 1.0, 0.0, 1.0, 0.0])
        s = sample_ball(center, 0.0, 50, MIXED, seed=1)
        assert np.all(s.points == center)

    def test_all_binary_radius_two_hamming(self):
        schema = FeatureSchema.mixed(0, 6)
        center = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        s = sample_ball(center, 2.0, 1000, schema, seed=7)
        flips = np.sum(s.points != center, axis=1)
        assert np.all(flips <= 2)
        assert np.all((s.points == 0.0) | (s.points == 1.0))
        # k is drawn from {0, 1, 2}: all three flip counts occur
        assert set(int(v) for v in np.unique(flips)) == {0, 1, 2}

    def test_membership_and_distance(self):
        center = np.array([0.5, -1.0, 2.0, 1.0, 0.0, 1.0, 0.0])
        r = 2.5
        s = sample_ball(center, r, 400, MIXED, seed=3)
        for i in range(s.points.shape[0]):
            assert mixed_distance(s.points[i], center, MIXED) <= r

    def test_deterministic(self):
        center = np.zeros(7)
        a = sample_ball(center, 1.5, 200, MIXED, seed=11)
        b = sample_ball(center, 1.5, 200, MIXED, seed=11)
        assert np.array_equal(a.points, b.points)
        c = sample_ball(center, 1.5, 200, MIXED, seed=12)
        assert not np.array_equal(a.points, c.points)

    def test_marginal_uniformity_ks(self):
        schema = FeatureSchema.mixed(1, 0)
        center = np.array([0.25])
        r = 2.0
        s = sample_ball(center, r, 10_000, schema, seed=42)
        assert ks_uniform_pass(s.points[:, 0], center[0] - r, center[0] + r)

    def test_errors(self):
        center = np.zeros(7)
        with pytest.raises(ValueError):
            sample_ball(center, -1.0, 10, MIXED, seed=0)
        with pytest.raises(ValueError):
            sample_ball(np.zeros(3), 1.0, 10, MIXED, seed=0)

    def test_fractional_radius_never_flips(self):
        center = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        schema = FeatureSchema.mixed(0, 6)
        s = sample_ball(center, 0.9, 300, schema, seed=5)
        assert np.all(s.points == center)

    def test_flip_count_uniform_over_levels(self):
        # k is uniform on {0, 1, 2}: each level should hold about a third
        schema = FeatureSchema.mixed(0, 8)
        center = np.zeros(8)
        s = sample_ball(center, 2.0, 6000, schema, seed=13)
        flips = np.sum(s.points != center, axis=1)
        for level in (0, 1, 2):
            frac = float(np.mean(flips == level))
            assert abs(frac - 1 / 3) < 0.05

    def test_flipped_subsets_symmetric_across_features(self):
        # a uniformly random k-subset touches every binary feature equally
        schema = FeatureSchema.mixed(0, 6)
        center = np.zeros(6)
        s = sample_ball(center, 3.0, 6000, schema, seed=17)
        per_feature = np.mean(s.points != center, axis=0)
        assert np.max(per_feature) - np.min(per_feature) < 0.05


class TestMixedDistance:
    def test_product_ball_semantics(self):
        c = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        x = c.copy()
        x[0] = 1.5  # continuous
        x[3] = 1.0  # one binary flip
        x[4] = 1.0  # second binary flip
        assert mixed_distance(x, c, MIXED) == 2.0
        assert mixed_distance(x, c, MIXED) <= 2.0
        assert not mixed_distance(x, c, MIXED) <= 1.9  # floor(1.9) = 1 < 2 flips

    def test_zero_radius_identity(self):
        c = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        x = c.copy()
        assert mixed_distance(x, c, MIXED) <= 0.0
        x2 = c.copy()
        x2[3] = 1.0
        assert not mixed_distance(x2, c, MIXED) <= 0.0


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
