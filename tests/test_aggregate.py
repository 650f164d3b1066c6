import dataclasses
import gc
import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggrex import aggregate
from aggrex.aggregate import (
    PHI_DENOM,
    AggregateSolution,
    _claims_for_selection,
    CandidatePool,
    build_ip,
    build_pool,
    coverage,
    fidelity,
    solve_exact,
    solve_greedy,
    verify_solution,
)
from aggrex.data import Dataset, FeatureSchema
from aggrex.explainer import LocalExplainer
from aggrex.tree import DecisionTree

from conftest import geometric_pool, random_pool, random_tree
from oracles import BruteForceRefused, TableOracle, brute_force, mixed_distance, parse_lp, pool_agreement


def pool_from_sets(balls, agree_sets=None, n=None):
    """Pool with explicit ball membership (and optional per-candidate agreement sets)."""
    n = n if n is not None else len(balls)
    within = np.zeros((n, n), dtype=bool)
    for i, ball in enumerate(balls):
        for j in ball:
            within[i, j] = True
        within[i, i] = True
    agree = np.ones((n, n), dtype=bool)
    if agree_sets is not None:
        agree = np.zeros((n, n), dtype=bool)
        for i, good in enumerate(agree_sets):
            for j in good:
                agree[i, j] = True
    return CandidatePool(radii=np.ones(n), within=within, agree=agree)


def exhaustive_oracle(pool, budget, floor):
    """Deepest oracle: enumerate every selection and every z completion.

    Exact rational arithmetic; checks each fidelity row directly. Usable
    only on tiny pools (total in-ball pair count small).
    """
    phi = Fraction(round(floor * 10**6), 10**6)
    n = pool.n
    best = -1
    for k in range(min(budget, n) + 1):
        for sel in combinations(range(n), k):
            supports = [[j for j in range(n) if pool.within[i, j]] for i in sel]
            for z_choice in product(*(range(1 << len(s)) for s in supports)):
                claimed = set()
                feasible = True
                for idx, i in enumerate(sel):
                    js = [supports[idx][t] for t in range(len(supports[idx])) if (z_choice[idx] >> t) & 1]
                    row = sum(Fraction(1 if pool.agree[i, j] else 0) - phi for j in js)
                    if row < 0:
                        feasible = False
                        break
                    claimed.update(js)
                if feasible:
                    best = max(best, len(claimed))
    return best


def constant_explainer(i, center, radius, label):
    return LocalExplainer(
        center_index=i,
        center=np.asarray(center, dtype=float),
        radius=radius,
        selected_features=(),
        tree=DecisionTree.leaf(label),
        filtered=True,
        train_fidelity=1.0,
    )


class TestBuildPool:
    def line_dataset(self):
        schema = FeatureSchema(("x",), ("continuous",))
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1, 1])
        return Dataset(X, y, schema)

    def test_zero_radius_identity(self):
        d = self.line_dataset()
        f = TableOracle([(tuple(d.X[i]), int(d.y[i])) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 0.0, int(d.y[i])) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        assert np.array_equal(pool.within, np.eye(d.n, dtype=bool))

    def test_perfect_explainers_agree_everywhere(self):
        d = self.line_dataset()
        f = TableOracle([(tuple(d.X[i]), 1) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 1.0, 1) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        assert np.all(pool.agree)

    def test_line_instance_hand_distances(self):
        # points at 0,1,2,3,4 with r = 1.5: within iff |i - j| <= 1
        d = self.line_dataset()
        f = TableOracle([(tuple(d.X[i]), int(d.y[i])) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 1.5, int(d.y[i])) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        expected = np.array(
            [[abs(i - j) <= 1 for j in range(5)] for i in range(5)]
        )
        assert np.array_equal(pool.within, expected)

    def test_wrong_center_index_rejected(self):
        d = self.line_dataset()
        f = TableOracle([(tuple(d.X[i]), 0) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(0, d.X[0], 1.0, 0) for _ in range(d.n)]
        with pytest.raises(ValueError):
            build_pool(d, exps, f)

    def test_agreement_matches_one_explainer_at_a_time(self):
        # 300 random trees of depth 0-8, cutting at the data's own values, so some points sit on a threshold
        rng = np.random.default_rng(300)
        schema = FeatureSchema(("a", "b", "c", "d"), ("continuous", "continuous", "binary", "binary"))
        X = np.hstack([rng.normal(size=(300, 2)).round(1), rng.integers(0, 2, size=(300, 2))])
        d = Dataset(X, np.zeros(300, dtype=int), schema)
        exps = [
            dataclasses.replace(
                constant_explainer(i, X[i], 1.0, 0), tree=random_tree(rng, 4, int(rng.integers(9)), X[:, :2].ravel())
            )
            for i in range(d.n)
        ]
        f = SimpleNamespace(predict_batch=lambda X: (X[:, 0] > 0).astype(int) + X[:, 2].astype(int))
        pool = build_pool(d, exps, f)
        want = pool_agreement(d, exps, f)
        assert 0 < want.sum() < want.size
        assert np.array_equal(pool.agree, want)


class TestEvaluators:
    def test_coverage_empty(self):
        pool = pool_from_sets([{0}, {1}, {2}])
        sol = AggregateSolution((), {}, 0, 0, None, None, "optimal")
        assert coverage(sol, pool) == 0

    def test_coverage_full_ball(self):
        pool = pool_from_sets([{0, 1, 2}, {1}, {2}])
        sol = AggregateSolution((0,), {}, 0, 0, None, None, "optimal")
        assert coverage(sol, pool) == 3

    def test_coverage_union_semantics(self):
        pool = pool_from_sets([{0, 1, 2}, {2, 3}, {2}, {3}])
        sol = AggregateSolution((0, 1), {}, 0, 0, None, None, "optimal")
        assert coverage(sol, pool) == 4

    def test_fidelity_all_agree(self):
        pool = pool_from_sets([{0, 1}, {1}])
        sol = AggregateSolution((0, 1), {}, 0, 0, None, None, "optimal")
        assert fidelity(sol, pool) == 1.0

    def test_fidelity_min_of_members(self):
        # candidate 0: ball {0,1,2,3,4}, agrees on 4 of 5 -> 0.8
        # candidate 1: ball {0,1,2,3,4}, agrees on 3 of 5 -> 0.6
        balls = [{0, 1, 2, 3, 4}] * 5
        agree_sets = [{0, 1, 2, 3}, {0, 1, 2}, set(range(5)), set(range(5)), set(range(5))]
        pool = pool_from_sets(balls, agree_sets)
        sol = AggregateSolution((0, 1), {}, 0, 0, None, None, "optimal")
        assert fidelity(sol, pool) == 0.6

    def test_fidelity_three_of_four(self):
        pool = pool_from_sets([{0, 1, 2, 3}], agree_sets=[{0, 1, 2}], n=4)
        sol = AggregateSolution((0,), {}, 0, 0, None, None, "optimal")
        assert fidelity(sol, pool) == 0.75

    def test_fidelity_empty_selection_rejected(self):
        pool = pool_from_sets([{0}])
        sol = AggregateSolution((), {}, 0, 0, None, None, "optimal")
        with pytest.raises(ValueError, match="empty aggregate"):
            fidelity(sol, pool)


def z_binaries(text):
    return {name for name in parse_lp(text)["binary_variables"] if name.startswith("z_")}


def fid_coefficients(text):
    """{(i, j): coefficient of z_i_j} over every fid row of the LP text."""
    out = {}
    for line in text.splitlines():
        name, _, body = line.strip().partition(": ")
        if name.startswith("fid_"):
            tokens = ["+", *body.removesuffix(">= 0").split()]
            for sign, coef, var in zip(tokens[0::3], tokens[1::3], tokens[2::3]):
                _, i, j = var.split("_")
                out[int(i), int(j)] = float(coef) * (-1 if sign == "-" else 1)
    return out


class TestBuildIP:
    def test_two_candidate_counts(self):
        text = build_ip(pool_from_sets([{0, 1}, {0, 1}]), 1, 0.5)
        parsed = parse_lp(text)
        assert parsed["n_variables"] == 8  # 2 w + 2 y + 4 z
        assert parsed["n_constraints"] == 13  # 4 + 4 + 2 + 2 + 1
        assert len(z_binaries(text)) == 4

    def test_floor_zero_nonnegative_coefficients(self):
        pool = random_pool(3)
        coefs = fid_coefficients(build_ip(pool, 2, 0.0))
        assert coefs == {(i, j): 1.0 if pool.agree[i, j] else 0.0 for i, j in zip(*np.nonzero(pool.within))}
        assert min(coefs.values()) >= 0.0

    def test_identity_within_diagonal_support(self):
        pool = pool_from_sets([{0}, {1}, {2}])
        assert z_binaries(build_ip(pool, 1, 0.5)) == {"z_0_0", "z_1_1", "z_2_2"}

    def test_negative_budget_rejected(self):
        pool = pool_from_sets([{0}])
        with pytest.raises(ValueError):
            build_ip(pool, -1, 0.5)


class TestSolveExact:
    def test_budget_zero(self):
        pool = random_pool(1)
        sol = solve_exact(pool, 0, 0.5)
        assert sol.selected == () and sol.ip_coverage == 0 and sol.status == "optimal"

    @pytest.mark.parametrize("budget, floor", [(-1, 0.5), (1, -0.1), (1, 1.5)])
    def test_bad_budget_or_floor_rejected(self, budget, floor):
        with pytest.raises(ValueError):
            solve_exact(random_pool(1), budget, floor)

    def test_three_ball_instance(self):
        # balls {0,1}, {1,2}, {2}; K=1, floor 0: best single ball covers 2
        pool = pool_from_sets([{0, 1}, {1, 2}, {2}])
        sol = solve_exact(pool, 1, 0.0)
        assert sol.ip_coverage == 2
        assert sol.selected in ((0,), (1,))

    def test_disagreement_absorbed_by_slack(self):
        # one candidate, ball of 3, agrees on 2: at floor 0.5 the slack
        # 2*(0.5) - 0.5 >= 0 lets it claim all 3
        pool = pool_from_sets([{0, 1, 2}], agree_sets=[{0, 1}], n=3)
        sol = solve_exact(pool, 1, 0.5)
        assert sol.ip_coverage == 3
        assert exhaustive_oracle(pool, 1, 0.5) == 3

    def test_floor_one_claims_only_agreeing(self):
        pool = pool_from_sets([{0, 1, 2}], agree_sets=[{0, 1}], n=3)
        sol = solve_exact(pool, 1, 1.0)
        assert sol.ip_coverage == 2
        assert set(sol.z_assignment.get(0, ())) == {0, 1}

    def test_exact_boundary_is_feasible(self):
        # 9 agreeing + 1 disagreeing at floor 0.9 sits exactly on the row
        # boundary and must be claimable (integer arithmetic, no float slip)
        pool = pool_from_sets([set(range(10))], agree_sets=[set(range(9))], n=10)
        sol = solve_exact(pool, 1, 0.9)
        assert sol.ip_coverage == 10
        assert sol.claimed_min_fidelity == 0.9

    def test_matches_brute_force_on_random_instances(self):
        floors = [0.0, 0.5, 0.7, 0.9]
        for t in range(60):
            pool = random_pool(seed=1000 + t)
            budget = 1 + t % 3
            floor = floors[t % 4]
            exact = solve_exact(pool, budget, floor)
            brute = brute_force(pool, budget, floor)
            assert exact.ip_coverage == brute.ip_coverage, (t, budget, floor)
            assert verify_solution(pool, budget, floor, exact) == []
            assert verify_solution(pool, budget, floor, brute) == []

    def test_matches_exhaustive_z_oracle_on_tiny_instances(self):
        # full z enumeration double-checks that always claiming agreeing
        # points loses nothing
        rng = np.random.default_rng(77)
        for t in range(25):
            n = int(rng.integers(2, 5))
            within = rng.random((n, n)) < 0.6
            np.fill_diagonal(within, True)
            agree = rng.random((n, n)) < 0.7
            pool = CandidatePool(radii=np.ones(n), within=within, agree=agree)
            budget = int(rng.integers(1, 3))
            floor = [0.0, 0.5, 0.7, 1.0][t % 4]
            want = exhaustive_oracle(pool, budget, floor)
            assert solve_exact(pool, budget, floor).ip_coverage == want
            if pool.disagree_pair_count() <= 20:
                assert brute_force(pool, budget, floor).ip_coverage == want

    def test_monotone_in_budget_and_floor(self):
        for t in range(10):
            pool = random_pool(seed=2000 + t)
            for floor in (0.0, 0.5, 0.9):
                values = [
                    solve_exact(pool, k, floor).ip_coverage for k in range(4)
                ]
                assert values == sorted(values)
            for k in (1, 2):
                by_floor = [
                    solve_exact(pool, k, floor).ip_coverage
                    for floor in (0.0, 0.5, 0.7, 0.9, 1.0)
                ]
                assert by_floor == sorted(by_floor, reverse=True)

    def test_ball_coverage_dominates_ip_coverage(self):
        for t in range(10):
            pool = random_pool(seed=3000 + t)
            sol = solve_exact(pool, 2, 0.8)
            assert sol.ball_coverage >= sol.ip_coverage


class TestSolveGreedy:
    def test_budget_zero(self):
        pool = random_pool(5)
        sol = solve_greedy(pool, 0, 0.5)
        assert sol.selected == () and sol.ip_coverage == 0

    def test_disjoint_balls_greedy_optimal(self):
        pool = pool_from_sets([{0, 1}, {2, 3}, {4}], n=5)
        greedy = solve_greedy(pool, 2, 0.0)
        exact = solve_exact(pool, 2, 0.0)
        assert greedy.ip_coverage == exact.ip_coverage == 4

    def test_overlap_instance_greedy_suboptimal(self):
        # decoy ball 0 covers 5 points and straddles both halves; balls 5
        # and 6 partition all 8 points. greedy grabs the decoy and tops out
        # at 7; the exact solver finds 8.
        balls = [
            {0, 1, 2, 3, 4},
            {1},
            {2},
            {3},
            {4},
            {5, 0, 1, 2},
            {6, 3, 4, 7},
            {7},
        ]
        pool = pool_from_sets(balls)
        greedy = solve_greedy(pool, 2, 0.0)
        exact = solve_exact(pool, 2, 0.0)
        assert greedy.ip_coverage == 7
        assert greedy.selected == (0, 6)
        assert exact.ip_coverage == 8
        assert exact.selected == (5, 6)
        assert exact.status == "optimal"

    def test_never_beats_exact(self):
        for t in range(30):
            pool = random_pool(seed=4000 + t)
            budget = 1 + t % 3
            floor = [0.0, 0.5, 0.7, 0.9][t % 4]
            g = solve_greedy(pool, budget, floor)
            e = solve_exact(pool, budget, floor)
            assert e.ip_coverage >= g.ip_coverage
            assert verify_solution(pool, budget, floor, g) == []

    def test_status_always_feasible(self):
        pool = random_pool(6)
        assert solve_greedy(pool, 2, 0.5).status == "feasible"


class TestBruteForce:
    def test_single_candidate(self):
        pool = pool_from_sets([{0}])
        sol = brute_force(pool, 1, 0.5)
        assert sol.ip_coverage == 1

    def test_refuses_large_n(self):
        n = 13
        within = np.eye(n, dtype=bool)
        pool = CandidatePool(radii=np.ones(n), within=within, agree=np.ones((n, n), dtype=bool))
        with pytest.raises(BruteForceRefused):
            brute_force(pool, 1, 0.5)

    def test_refuses_many_disagreeing_pairs(self):
        n = 6
        within = np.ones((n, n), dtype=bool)
        agree = np.zeros((n, n), dtype=bool)
        pool = CandidatePool(radii=np.ones(n), within=within, agree=agree)
        with pytest.raises(BruteForceRefused):
            brute_force(pool, 1, 0.5)

    def test_floor_one_with_disagreement(self):
        # at floor 1 every claimed point must agree
        pool = pool_from_sets(
            [{0, 1}, {1, 2}, {2}], agree_sets=[{0}, {1, 2}, set()], n=3
        )
        sol = brute_force(pool, 2, 1.0)
        for i, js in sol.z_assignment.items():
            assert all(pool.agree[i, j] for j in js)


class TestVerifier:
    def test_detects_budget_violation(self):
        pool = pool_from_sets([{0}, {1}, {2}])
        sol = AggregateSolution((0, 1, 2), {}, 0, 3, 1.0, 1.0, "optimal")
        assert any("budget" in v for v in verify_solution(pool, 2, 0.5, sol))

    def test_detects_out_of_ball_claim(self):
        pool = pool_from_sets([{0}, {1}, {2}])
        sol = AggregateSolution((0,), {0: (0, 2)}, 2, 1, 1.0, 1.0, "optimal")
        assert any("radius" in v for v in verify_solution(pool, 1, 0.0, sol))

    def test_detects_unselected_claim(self):
        pool = pool_from_sets([{0}, {1}])
        sol = AggregateSolution((0,), {1: (1,)}, 1, 1, 1.0, 1.0, "optimal")
        assert any("unselected" in v for v in verify_solution(pool, 1, 0.0, sol))

    def test_detects_fidelity_violation(self):
        pool = pool_from_sets([{0, 1, 2}], agree_sets=[{0}], n=3)
        sol = AggregateSolution((0,), {0: (0, 1, 2)}, 3, 3, 1 / 3, 1 / 3, "optimal")
        assert any("fidelity" in v for v in verify_solution(pool, 1, 0.9, sol))

    def test_detects_coverage_miscount(self):
        pool = pool_from_sets([{0, 1}], n=2)
        sol = AggregateSolution((0,), {0: (0, 1)}, 3, 2, 1.0, 1.0, "optimal")
        assert any("coverage" in v for v in verify_solution(pool, 1, 0.0, sol))

    @pytest.mark.parametrize(
        "selected, z, words",
        [
            # numpy would read -1 as the last row, where the claim lies in the ball
            ((-1,), {-1: (2,)}, ["selected candidate -1 out of range", "claiming candidate -1 out of range"]),
            ((7,), {}, ["selected candidate 7 out of range"]),
            # a fidelity row reads no point out of range: not 5, nor -1 as the last point (which disagrees)
            ((0,), {0: (5,)}, ["claimed point 5 out of range"]),
            ((0,), {0: (-1,)}, ["claimed point -1 out of range"]),
        ],
        ids=["negative", "past-the-end", "claimed-past-the-end", "claimed-negative"],
    )
    def test_detects_candidate_index_out_of_range(self, selected, z, words):
        pool = pool_from_sets([{0}, {1}, {2}], agree_sets=[{0}, {1}, {2}])
        sol = AggregateSolution(selected, z, sum(map(len, z.values())), 1, 1.0, 1.0, "optimal")
        assert verify_solution(pool, 1, 0.5, sol) == words

    def test_clean_solution_passes(self):
        pool = random_pool(9)
        sol = solve_exact(pool, 2, 0.7)
        assert verify_solution(pool, 2, 0.7, sol) == []


class TestLPExport:
    def test_round_trip_counts(self):
        for t in range(5):
            pool = random_pool(seed=5000 + t)
            parsed = parse_lp(build_ip(pool, 2, 0.7))
            in_ball = int(pool.within.sum())
            assert parsed["n_variables"] == 2 * pool.n + in_ball
            assert parsed["n_constraints"] == 2 * in_ball + 2 * pool.n + 1

    def test_two_candidate_model_has_8_binaries(self):
        pool = pool_from_sets([{0, 1}, {0, 1}])
        parsed = parse_lp(build_ip(pool, 1, 0.5))
        assert parsed["n_variables"] == 8
        names = set(parsed["binary_variables"])
        assert {"w_0", "w_1", "y_0", "y_1", "z_0_0", "z_0_1", "z_1_0", "z_1_1"} == names

    def test_budget_row_verbatim(self):
        pool = pool_from_sets([{0, 1}, {0, 1}])
        assert "budget: w_0 + w_1 <= 5" in build_ip(pool, 5, 0.5)

    def test_presolved_pairs_listed_in_comments(self):
        pool = pool_from_sets([{0}, {1}])
        assert "z_0_1 z_1_0 = 0" in build_ip(pool, 1, 0.5)

    # sha256 of the LP text at budget 2 of two fixed pools: one with every pair
    # in-ball, one with presolved pairs
    PINNED = {
        ("full", 0.0): "58137e2352b7bbd17f45a4493ee467aba4aed2b131d989019951e2a88dde2426",
        ("full", 0.7): "cb026efacd4edadd6ad7f416931a55a7207406af6401c140b32ba1267159de7c",
        ("presolved", 0.0): "15a8c777306ab32af5141293473a78873f41533f51f8245832c7c91d2bc1b302",
        ("presolved", 0.7): "73b36aff37fdce5e462976316a1528c6d02fe2a04be43e67a67cfd9e9e5c1c93",
    }

    @pytest.mark.parametrize("name, floor", sorted(PINNED))
    def test_text_bytes_pinned(self, name, floor):
        pools = {
            "full": lambda: pool_from_sets([{0, 1, 2}] * 3, agree_sets=[{0, 1}, {1, 2}, {0, 1, 2}]),
            "presolved": lambda: random_pool(3),
        }
        text = build_ip(pools[name](), 2, floor)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[name, floor]


class TestInnerClaimLimit:
    def decoy_pool_with_disagreement(self):
        # greedy grabs the decoy ball 0 and stalls at 7; the optimum {5, 6}
        # needs a leaf evaluation, and candidate 6 carries one disagreeing
        # in-ball point (7), claimable at floor 0.5 through its slack
        balls = [{0, 1, 2, 3, 4}, {1}, {2}, {3}, {4}, {5, 0, 1, 2}, {6, 3, 4, 7}, {7}]
        agree_sets = [set(range(8)) for _ in balls]
        agree_sets[6] = {0, 1, 2, 3, 4, 5, 6}
        return pool_from_sets(balls, agree_sets)

    @staticmethod
    def augmenting_pool():
        # 23 disagreeing in-ball pairs, one unit of slack per candidate at
        # floor 0.5. Point 3 fits candidates 0 and 1, point 4 only 0: first
        # fit gives 3 to candidate 0 and strands 4, so reaching 6 needs an
        # augmenting path that moves 3 over to candidate 1.
        n = 25
        within = np.eye(n, dtype=bool)
        agree = np.ones((n, n), dtype=bool)
        for i, extra in ((0, [3, 4]), (1, [3]), (2, range(5, n))):
            for j in extra:
                within[i, j] = True
                agree[i, j] = False
        return CandidatePool(radii=np.ones(n), within=within, agree=agree)

    def test_more_than_twenty_pairs_stays_optimal(self):
        pool = self.augmenting_pool()
        assert pool.disagree_pair_count() == 23
        sol = solve_exact(pool, 3, 0.5)
        assert sol.ip_coverage == 6
        assert sol.status == "optimal"
        assert sol.selected == (0, 1, 2)
        assert verify_solution(pool, 3, 0.5, sol) == []
        assert solve_greedy(pool, 3, 0.5).ip_coverage == 6

    def test_augmenting_paths_leave_no_reference_cycle(self):
        # the pool above needs an augmenting path; a recursive closure would leave a cycle per solve
        pool = self.augmenting_pool()
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert solve_exact(pool, 3, 0.5).ip_coverage == 6
            gc.collect()
            leaked = [f for f in gc.garbage if callable(f) and getattr(f, "__module__", "") == "aggrex.aggregate"]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_within_pair_limit_keeps_certificate(self):
        pool = self.decoy_pool_with_disagreement()
        sol = solve_exact(pool, 2, 0.5)
        assert sol.status == "optimal"
        assert sol.ip_coverage == 8
        assert sol.selected == (5, 6)
        assert verify_solution(pool, 2, 0.5, sol) == []


class TestFloorZeroIsMaxCoverage:
    def test_exact_matches_plain_max_coverage_enumeration(self):
        # at floor 0 the program degenerates to budgeted max coverage over
        # balls; check against a direct union-count enumeration that knows
        # nothing about claims or fidelity rows
        for t in range(20):
            pool = random_pool(seed=7500 + t)
            budget = 1 + t % 3
            best = 0
            for k in range(budget + 1):
                for sel in combinations(range(pool.n), k):
                    mask = np.zeros(pool.n, dtype=bool)
                    for i in sel:
                        mask |= pool.within[i]
                    best = max(best, int(mask.sum()))
            sol = solve_exact(pool, budget, 0.0)
            assert sol.ip_coverage == best


class TestFloorHonoredOnBalls:
    def test_full_ball_floor_implies_evaluator_floor(self):
        # when every selected candidate's full ball passes the floor, the
        # claimed and full-ball fidelity notions coincide
        for t in range(20):
            pool = random_pool(seed=6000 + t)
            floor = 0.7
            sol = solve_exact(pool, 2, floor)
            if not sol.selected:
                continue
            balls_pass = all(
                (pool.agree[i] & pool.within[i]).sum() >= floor * pool.within[i].sum()
                for i in sol.selected
            )
            if balls_pass:
                assert fidelity(sol, pool) >= floor - 1e-9


class TestClaimMatchingOracle:
    def test_inner_objective_matches_bipartite_matching(self):
        # For a fixed selection, the claim objective is the sure-claimed
        # (agreeing in-ball) count plus a maximum matching of the remaining
        # disagreeing points onto unit slots of candidate capacity.
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(4242)
        over_twenty = 0
        for t in range(300):
            n = int(rng.integers(20, 61))
            within = rng.random((n, n)) < rng.uniform(0.2, 0.6)
            agree = rng.random((n, n)) < rng.uniform(0.3, 0.9)
            pool = CandidatePool(radii=np.ones(n), within=within, agree=agree)
            selected = tuple(sorted(rng.choice(n, size=int(rng.integers(2, 7)), replace=False).tolist()))
            phi_num = int(rng.choice([5, 6, 7, 8, 9])) * 10**5
            ball, agree_m = pool.ball_masks, pool.agree_masks
            z, obj = _claims_for_selection(selected, ball, agree_m, phi_num)
            over_twenty += sum((ball[i] & ~agree_m[i]).bit_count() for i in selected) > 20

            sure = [j for j in range(n) if any(within[i, j] and agree[i, j] for i in selected)]
            slots = [
                i
                for i in selected
                for _ in range(int(np.sum(within[i] & agree[i])) * (10**6 - phi_num) // phi_num)
            ]
            open_points = [
                j for j in range(n) if j not in sure and any(within[i, j] and not agree[i, j] for i in selected)
            ]
            graph = np.array(
                [[within[i, j] and not agree[i, j] for i in slots] for j in open_points], dtype=np.int8
            ).reshape(len(open_points), len(slots))
            matched = csgraph.maximum_bipartite_matching(csr_matrix(graph), perm_type="column")
            assert obj == len(sure) + int(np.sum(matched >= 0)), t

            claimed = 0
            for i, mask in z.items():
                assert mask & ~ball[i] == 0
                spent = (mask & ~agree_m[i]).bit_count() * phi_num
                assert spent <= (mask & agree_m[i]).bit_count() * (10**6 - phi_num)
                claimed |= mask
            assert claimed.bit_count() == obj
        assert over_twenty >= 100
        for phi_num in (0, 900_000):  # an empty selection claims nothing at any floor
            assert _claims_for_selection((), ball, agree_m, phi_num) == ({}, 0)


def highs_optimum(pool, budget, floor):
    """Optimum of the full integer program by scipy's HiGHS MILP solver.

    Every fidelity row is scaled to integers (agree * 10^6 - phi * 10^6,
    divided by their gcd), so feasibility is decided exactly.
    """
    from scipy import optimize, sparse

    n = pool.n
    support = [(i, j) for i in range(n) for j in range(n) if pool.within[i, j]]
    w, y, z = 0, n, 2 * n  # variable offsets
    phi_num = int(round(floor * PHI_DENOM))
    g = gcd(phi_num, PHI_DENOM)
    rows, cols, vals, lo, hi = [], [], [], [], []

    def row(coefs, low, high):
        for col, value in coefs.items():
            rows.append(len(lo))
            cols.append(col)
            vals.append(value)
        lo.append(low)
        hi.append(high)

    cover = {j: {y + j: 1} for j in range(n)}
    fid = {i: {} for i in range(n)}
    for k, (i, j) in enumerate(support):
        row({z + k: 1, w + i: -1}, -np.inf, 0)  # z_ij <= w_i
        row({y + j: 1, z + k: -1}, 0, np.inf)  # y_j >= z_ij
        cover[j][z + k] = -1
        fid[i][z + k] = (PHI_DENOM * int(pool.agree[i, j]) - phi_num) // g
    for j in range(n):
        row(cover[j], -np.inf, 0)  # y_j <= sum_i z_ij
    for i in range(n):
        row(fid[i], 0, np.inf)
    row({w + i: 1 for i in range(n)}, -np.inf, budget)

    width = 2 * n + len(support)
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(len(lo), width))
    c = np.zeros(width)
    c[y : y + n] = -1.0
    res = optimize.milp(
        c,
        constraints=optimize.LinearConstraint(A, lo, hi),
        integrality=np.ones_like(c),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return int(round(-res.fun))


def solution_bytes(sol):
    return sol.to_dict()


class TestExactAtSweepSize:
    def test_matches_highs_on_sweep_sized_pools(self):
        pytest.importorskip("scipy.optimize")
        for seed in range(20):
            pool = geometric_pool(seed)
            budget = (3, 5, 7)[seed % 3]
            floor = (0.5, 0.7, 0.9)[seed // 3 % 3]
            sol = solve_exact(pool, budget, floor)
            assert sol.ip_coverage == highs_optimum(pool, budget, floor), (seed, budget, floor)
            assert verify_solution(pool, budget, floor, sol) == []

    def test_node_counts_pinned(self):
        # recorded when branching became dynamic over undominated candidates;
        # the selections are those the static preorder search picked
        pool = geometric_pool(17)
        want = [
            (1, (19,)),
            (5, (1, 19)),
            (13, (1, 19, 34)),
            (27, (1, 19, 34, 48)),
            (103, (1, 19, 31, 34, 48)),
            (263, (1, 19, 31, 33, 34, 48)),
            (341, (1, 19, 31, 33, 34, 44, 48)),
        ]
        got = [(sol.nodes_explored, sol.selected) for sol in (solve_exact(pool, k, 0.9) for k in range(1, 8))]
        assert got == want

    def test_one_search_for_the_pinned_sweep_matches_lone_searches(self):
        # asked largest first with the sweep named, one search solves all
        # seven budgets; each equals the lone search test_node_counts_pinned pins
        ascending = geometric_pool(17)
        want = [solution_bytes(solve_exact(ascending, k, 0.9)) for k in range(1, 8)]
        pool = geometric_pool(17)
        got = [solution_bytes(solve_exact(pool, k, 0.9, also=range(1, 8))) for k in range(7, 0, -1)]
        assert got[::-1] == want


class TestGreedyPathCache:
    BUDGETS = range(0, 9)

    def fresh(self, make_pool, budget, floor, solve=solve_greedy):
        return solution_bytes(solve(make_pool(), budget, floor))

    @pytest.mark.parametrize("floor", [0.0, 0.7, 0.9])
    def test_any_budget_order_matches_fresh_pools(self, floor):
        make = lambda: geometric_pool(5)  # noqa: E731
        want = {k: self.fresh(make, k, floor) for k in self.BUDGETS}
        descending = make()
        for k in reversed(self.BUDGETS):
            assert solution_bytes(solve_greedy(descending, k, floor)) == want[k], k
        shuffled = make()
        order = list(self.BUDGETS) * 2
        random.Random(3).shuffle(order)
        for k in order:
            assert solution_bytes(solve_greedy(shuffled, k, floor)) == want[k], k

    def test_exact_first_then_greedy(self):
        make = lambda: geometric_pool(5)  # noqa: E731
        pool = make()
        for k in (4, 2, 6):
            assert solution_bytes(solve_exact(pool, k, 0.7)) == self.fresh(make, k, 0.7, solve_exact)
            assert solution_bytes(solve_greedy(pool, k, 0.7)) == self.fresh(make, k, 0.7)

    def test_floors_keep_separate_paths(self):
        pool = geometric_pool(5)
        for floor in (0.5, 0.9, 0.5, 0.0):
            assert solution_bytes(solve_greedy(pool, 3, floor)) == self.fresh(lambda: geometric_pool(5), 3, floor)

    def test_stall_counts_the_last_scan(self):
        # greedy takes ball 0 (3 points), then ball 3 (1 point), and then no
        # candidate adds anything. Each scan evaluates only the candidates
        # whose claimable sets could beat its best gain: ball 0 first (the
        # rest cannot beat 3), then ball 3 alone, then none. That is 1 + 1
        # + 0 claim evaluations, however large the budget and in whatever
        # order budgets are asked for
        make = lambda: pool_from_sets([{0, 1, 2}, {0, 1}, {1, 2}, {3}], n=4)  # noqa: E731
        pool = make()
        for k, nodes, selected in ((2, 2, (0, 3)), (5, 2, (0, 3)), (3, 2, (0, 3)), (1, 1, (0,)), (2, 2, (0, 3))):
            sol = solve_greedy(pool, k, 0.0)
            assert (sol.nodes_explored, sol.selected, sol.ip_coverage) == (nodes, selected, 4 if k > 1 else 3)
            assert solution_bytes(sol) == self.fresh(make, k, 0.0)

    @pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
    def test_any_floor_budget_and_solver_order_matches_fresh_pools(self, shuffle_seed):
        make = lambda: geometric_pool(11)  # noqa: E731
        cells = [(floor, k, solve) for floor in (0.0, 0.5, 0.9) for k in range(0, 7) for solve in (solve_exact, solve_greedy)]
        want = {cell: self.fresh(make, cell[1], cell[0], cell[2]) for cell in cells}
        random.Random(shuffle_seed).shuffle(cells)
        pool = make()
        for floor, k, solve in cells:
            assert solution_bytes(solve(pool, k, floor)) == want[floor, k, solve], (floor, k, solve.__name__)


def static_preorder_exact(pool, budget, floor):
    """ip_coverage by the earlier branch-and-bound: static preorder, no dominance.

    Kept in the tests as an independent reference: candidates are branched
    in descending claim-cap order, ties by index, and the bound is the same
    claimable-set bound without the leaf and greedy shortcuts.
    """
    phi_num = round(floor * PHI_DENOM)
    n, ball, agree = pool.n, pool.ball_masks, pool.agree_masks
    claimable, max_claim = [], []
    for i in range(n):
        sure = ball[i] & agree[i]
        cap = n if phi_num == 0 else sure.bit_count() * (PHI_DENOM - phi_num) // phi_num
        claimable.append(sure | (ball[i] & ~agree[i] if cap > 0 else 0))
        max_claim.append(min(claimable[i].bit_count(), sure.bit_count() + cap))
    order = sorted(range(n), key=lambda i: (-max_claim[i], i))
    best = 0
    stack = [(0, 0, ())]
    while stack:
        k, covered, selected = stack.pop()
        if len(selected) == budget or k == n:
            best = max(best, _claims_for_selection(tuple(sorted(selected)), ball, agree, phi_num)[1])
            continue
        rest = order[k:]
        reach = 0
        for i in rest:
            reach |= claimable[i]
        gains = sorted((min(max_claim[i], (claimable[i] & ~covered).bit_count()) for i in rest), reverse=True)
        if covered.bit_count() + min(sum(gains[: budget - len(selected)]), (reach & ~covered).bit_count()) <= best:
            continue
        stack.append((k + 1, covered, selected))
        stack.append((k + 1, covered | claimable[order[k]], selected + (order[k],)))
    return best


def unskipped_greedy_steps(pool, budget, floor):
    """Greedy's run when every scan evaluates every candidate.

    Returns the steps [(selection, z masks, objective, evaluations so far)]
    from the empty selection on, up to the budget, and the evaluation count
    of the scan that stalled (None if none did).
    """
    phi_num = round(floor * PHI_DENOM)
    ball, agree = pool.ball_masks, pool.agree_masks
    steps = [((), {}, 0, 0)]
    evals = 0
    while len(steps) <= budget:
        selected, _, current, _ = steps[-1]
        best = None
        for i in range(pool.n):
            if i in selected:
                continue
            trial = tuple(sorted(selected + (i,)))
            z, obj = _claims_for_selection(trial, ball, agree, phi_num)
            evals += 1
            if obj > (best[2] if best else current):
                best = (trial, z, obj)
        if best is None:
            return steps, evals
        steps.append((*best, evals))
    return steps, None


FLOORS = [0.0, 0.5, 0.7, 0.9, 1.0]
search_pools = st.one_of(
    st.integers(0, 10**6).map(lambda seed: random_pool(seed, n_max=12)),
    st.integers(0, 10**6).map(geometric_pool),
)


class TestBoundedSearch:
    @settings(max_examples=60, deadline=None)
    @given(search_pools, st.sampled_from(FLOORS), st.integers(1, 7))
    def test_exact_matches_the_static_preorder_search(self, pool, floor, budget):
        sol = solve_exact(pool, budget, floor)
        assert sol.status == "optimal"
        assert sol.ip_coverage == static_preorder_exact(pool, budget, floor)
        assert verify_solution(pool, budget, floor, sol) == []

    @settings(max_examples=100, deadline=None)
    @given(search_pools, st.sampled_from(FLOORS))
    def test_every_dropped_candidate_has_a_kept_dominator(self, pool, floor):
        phi_num = round(floor * PHI_DENOM)
        kept = set(pool._floor(phi_num).undominated)
        sure = pool.within & pool.agree
        room = sure.sum(axis=1) * (PHI_DENOM - phi_num) // phi_num if phi_num else np.full(pool.n, pool.n)
        claimable = sure | (pool.within & (room > 0)[:, None])

        def dominates(k, i):
            return k != i and not np.any(claimable[i] & ~sure[k])

        for i in range(pool.n):
            if i in kept:
                # only an identical all-agreeing set at a higher index may dominate it
                assert all(k > i and dominates(i, k) for k in range(pool.n) if dominates(k, i)), i
            else:
                assert any(dominates(k, i) for k in kept), i

    def test_identical_agreeing_sets_keep_the_lowest_index(self):
        # 1, 2 and 3 hold the same all-agreeing ball; 5 holds it too plus
        # its own point, where it disagrees. At floor 0.5 candidate 5 can
        # claim that point and beats 1-3; at floor 1 it cannot, its set is
        # theirs, and of the four only 1 stays
        balls = [{0}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {4}, {1, 2, 3, 5}]
        agree_sets = [set(range(6))] * 5 + [{1, 2, 3}]
        pool = pool_from_sets(balls, agree_sets)
        assert pool._floor(round(0.5 * PHI_DENOM)).undominated == (0, 4, 5)
        assert pool._floor(PHI_DENOM).undominated == (0, 1, 4)

    @settings(max_examples=60, deadline=None)
    @given(search_pools, st.sampled_from(FLOORS), st.integers(1, 8))
    def test_greedy_skips_only_evaluations_that_cannot_win(self, pool, floor, budget):
        want, want_stall = unskipped_greedy_steps(pool, budget, floor)
        sol = solve_greedy(pool, budget, floor)
        run = pool._floor(round(floor * PHI_DENOM))
        assert len(run.steps) == len(want) and (run.stall_evals is None) == (want_stall is None)
        for (sel, z, obj, evals), (want_sel, want_z, want_obj, want_evals) in zip(run.steps, want):
            assert (sel, z, obj) == (want_sel, want_z, want_obj)
            assert evals <= want_evals
        assert sol.selected == want[-1][0]
        assert sol.nodes_explored <= (want[budget][3] if budget < len(want) else want_stall)

    @settings(max_examples=40, deadline=None)
    @given(search_pools, st.integers(1, 7))
    def test_one_search_for_a_sweep_matches_lone_searches(self, pool, top):
        # the largest budget's call names the others, and its one search at
        # each floor solves them all; each result, node count included, is
        # that of a search for that budget alone on a fresh pool
        def lone(k, floor):
            with mock.patch.object(aggregate, "_extend_exact", wraps=aggregate._extend_exact) as search:
                sol = solve_exact(CandidatePool(radii=pool.radii, within=pool.within, agree=pool.agree), k, floor)
            assert [call.args[2] for call in search.call_args_list] == [(min(k, pool.n),)]
            return solution_bytes(sol)

        sweep = range(top, 0, -1)
        want = {floor: [lone(k, floor) for k in sweep] for floor in FLOORS}
        with mock.patch.object(aggregate, "_extend_exact", wraps=aggregate._extend_exact) as search:
            for calls, floor in enumerate(FLOORS, start=1):
                assert [solution_bytes(solve_exact(pool, k, floor, also=sweep)) for k in sweep] == want[floor]
                assert search.call_count == calls

    @pytest.mark.parametrize("floor", [0.0, 0.7, 0.9])
    def test_budget_past_n_is_solved_as_n(self, floor):
        # no budget of n or more can bind, so it costs one search at K = n
        make = lambda: random_pool(4, n_max=8)  # noqa: E731
        pool = make()
        want = solution_bytes(solve_exact(make(), pool.n, floor))
        with mock.patch.object(aggregate, "_extend_exact", wraps=aggregate._extend_exact) as search:
            assert solution_bytes(solve_exact(pool, 10**12, floor, also=(10**15, pool.n + 1))) == want
            assert solution_bytes(solve_exact(pool, pool.n + 1, floor)) == want
        assert [call.args[2] for call in search.call_args_list] == [(pool.n,)]

    @settings(max_examples=40, deadline=None)
    @given(search_pools, st.integers(1, 6))
    def test_dominance_waits_for_the_first_exact_solve(self, pool, budget):
        # greedy never reads the undominated candidates, so a greedy-only
        # pool never runs the n x n dominance product; the first exact solve
        # at a floor runs it once, and solves as on a fresh pool
        fresh = CandidatePool(radii=pool.radii, within=pool.within, agree=pool.agree)
        want = {f: [solution_bytes(solve_exact(fresh, k, f)) for k in (budget, budget + 1)] for f in FLOORS}
        with mock.patch.object(aggregate, "_undominated", wraps=aggregate._undominated) as dominance:
            for floor in FLOORS:
                solve_greedy(pool, budget, floor)
            assert dominance.call_count == 0
            for calls, floor in enumerate(FLOORS, start=1):
                assert [solution_bytes(solve_exact(pool, k, floor)) for k in (budget, budget + 1)] == want[floor]
                assert dominance.call_count == calls


MUTATIONS = ["claim-out-of-ball", "unselected-claim", "broken-fidelity-row", "over-budget", "duplicate-selection"]


def mutate(pool, budget, floor, sol, kind):
    """A copy of a verified solution with one fault, the budget to check it at, and the fault's word."""
    sol = dataclasses.replace(sol, z_assignment=dict(sol.z_assignment))
    selected = sorted(sol.selected)
    if kind == "claim-out-of-ball":
        outside = [(i, j) for i in selected for j in range(pool.n) if not pool.within[i, j]]
        if not outside:
            return None
        i, j = outside[0]
        sol.z_assignment[i] = tuple(sol.z_assignment.get(i, ())) + (j,)
        return sol, budget, "radius"
    if kind == "unselected-claim":
        unselected = [k for k in range(pool.n) if k not in sol.selected]
        if not unselected:
            return None
        sol.z_assignment[unselected[0]] = (unselected[0],)
        return sol, budget, "unselected"
    if kind == "broken-fidelity-row":
        rows = [(i, np.flatnonzero(pool.within[i] & ~pool.agree[i])) for i in selected]
        rows = [(i, js) for i, js in rows if js.size]
        if floor == 0.0 or not rows:
            return None
        i, js = rows[0]
        sol.z_assignment[i] = tuple(js.tolist())  # disagreeing claims only: the row goes negative
        return sol, budget, "fidelity"
    if not selected:
        return None
    if kind == "over-budget":
        return sol, len(selected) - 1, "budget"
    sol.selected = tuple(sol.selected) + (selected[0],)
    return sol, budget, "duplicates"


class TestVerifierSoundness:
    @settings(max_examples=50, deadline=None)
    @given(search_pools, st.sampled_from(FLOORS), st.integers(1, 5), st.sampled_from(MUTATIONS), st.booleans())
    def test_every_mutation_of_a_verified_solution_is_reported(self, pool, floor, budget, kind, exact):
        sol = (solve_exact if exact else solve_greedy)(pool, budget, floor)
        assert verify_solution(pool, budget, floor, sol) == []
        mutated = mutate(pool, budget, floor, sol, kind)
        assume(mutated is not None)
        bad, at_budget, word = mutated
        assert any(word in v for v in verify_solution(pool, at_budget, floor, bad))


class TestFrozenPool:
    def pools(self):
        yield random_pool(1)
        yield pool_from_sets([{0, 1}, {1}])
        d = TestBuildPool().line_dataset()
        f = TableOracle([(tuple(d.X[i]), int(d.y[i])) for i in range(d.n)], schema=d.schema)
        yield build_pool(d, [constant_explainer(i, d.X[i], 1.0, 0) for i in range(d.n)], f)

    def test_arrays_are_read_only(self):
        for pool in self.pools():
            for arr in (pool.within, pool.agree, pool.radii):
                with pytest.raises(ValueError):
                    arr[0, ...] = 0

    def test_attributes_cannot_be_set(self):
        for pool in self.pools():
            for name, value in (("within", np.eye(pool.n, dtype=bool)), ("agree", pool.agree), ("n", 3)):
                with pytest.raises((dataclasses.FrozenInstanceError, AttributeError)):
                    setattr(pool, name, value)

    def test_pool_does_not_share_the_callers_arrays(self):
        within = np.eye(3, dtype=bool)
        pool = CandidatePool(radii=np.ones(3), within=within, agree=np.ones((3, 3), dtype=bool))
        masks = pool.ball_masks
        within[0, 1] = True
        assert not pool.within[0, 1]
        assert pool.ball_masks == masks == (1, 2, 4)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            CandidatePool(radii=np.ones(3), within=np.eye(3, dtype=bool), agree=np.ones((3, 2), dtype=bool))


@st.composite
def ball_problems(draw):
    kinds = draw(st.lists(st.sampled_from(["continuous", "binary"]), min_size=1, max_size=5))
    n = draw(st.integers(1, 12))
    grid = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    X = np.array(
        [[draw(grid) if k == "continuous" else float(draw(st.integers(0, 1))) for k in kinds] for _ in range(n)]
    ).reshape(n, len(kinds))
    n_bin = kinds.count("binary")
    radius = st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, float(n_bin), n_bin + 0.5, n_bin + 3.0]),
        st.floats(0.0, 6.0, allow_nan=False),
    )
    radii = [draw(radius) for _ in range(n)]
    schema = FeatureSchema(tuple(f"f{t}" for t in range(len(kinds))), tuple(kinds))
    return Dataset(X, np.zeros(n, dtype=int), schema), radii


class TestBroadcastBallTest:
    @settings(max_examples=200, deadline=None)
    @given(ball_problems())
    def test_within_matches_within_ball(self, problem):
        d, radii = problem
        exps = [constant_explainer(i, d.X[i], radii[i], 0) for i in range(d.n)]
        f = SimpleNamespace(predict_batch=lambda X: np.zeros(len(X), dtype=int))
        pool = build_pool(d, exps, f)
        want = np.array([[mixed_distance(d.X[j], d.X[i], d.schema) <= radii[i] for j in range(d.n)] for i in range(d.n)])
        assert np.array_equal(pool.within, want)
        assert np.all(pool.agree)

    @pytest.mark.parametrize("n", [1, 7, 9, 63, 64, 65, 130])
    def test_masks_match_rows(self, n):
        rng = np.random.default_rng(n)
        pool = CandidatePool(radii=np.ones(n), within=rng.random((n, n)) < 0.4, agree=rng.random((n, n)) < 0.6)
        for masks, matrix in ((pool.ball_masks, pool.within), (pool.agree_masks, pool.agree)):
            assert len(masks) == n
            for i in range(n):
                assert masks[i] < 1 << n
                assert [masks[i] >> j & 1 for j in range(n)] == matrix[i].astype(int).tolist()
