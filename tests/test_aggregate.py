from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from aggrex.aggregate import (
    AggregateSolution,
    _claims_for_selection,
    BruteForceRefused,
    CandidatePool,
    brute_force,
    build_ip,
    build_pool,
    coverage,
    export_lp,
    fidelity,
    parse_lp,
    solve_exact,
    solve_greedy,
    verify_solution,
)
from aggrex.blackbox import table_oracle
from aggrex.data import Dataset, FeatureSchema
from aggrex.explainer import LocalExplainer
from aggrex.tree import DecisionTree, Node

from conftest import random_pool


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
        tree=DecisionTree(root=Node(label=label), features_used=frozenset()),
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
        f = table_oracle([(tuple(d.X[i]), int(d.y[i])) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 0.0, int(d.y[i])) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        assert np.array_equal(pool.within, np.eye(d.n, dtype=bool))

    def test_perfect_explainers_agree_everywhere(self):
        d = self.line_dataset()
        f = table_oracle([(tuple(d.X[i]), 1) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 1.0, 1) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        assert np.all(pool.agree)

    def test_line_instance_hand_distances(self):
        # points at 0,1,2,3,4 with r = 1.5: within iff |i - j| <= 1
        d = self.line_dataset()
        f = table_oracle([(tuple(d.X[i]), int(d.y[i])) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(i, d.X[i], 1.5, int(d.y[i])) for i in range(d.n)]
        pool = build_pool(d, exps, f)
        expected = np.array(
            [[abs(i - j) <= 1 for j in range(5)] for i in range(5)]
        )
        assert np.array_equal(pool.within, expected)

    def test_wrong_center_index_rejected(self):
        d = self.line_dataset()
        f = table_oracle([(tuple(d.X[i]), 0) for i in range(d.n)], schema=d.schema)
        exps = [constant_explainer(0, d.X[0], 1.0, 0) for _ in range(d.n)]
        with pytest.raises(ValueError):
            build_pool(d, exps, f)


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


class TestBuildIP:
    def test_two_candidate_counts(self):
        pool = pool_from_sets([{0, 1}, {0, 1}])
        m = build_ip(pool, 1, 0.5)
        assert m.variable_count() == 8  # 2 w + 2 y + 4 z
        assert m.constraint_count() == 13  # 4 + 4 + 2 + 2 + 1
        assert len(m.z_support) == 4

    def test_floor_zero_nonnegative_coefficients(self):
        pool = random_pool(3)
        m = build_ip(pool, 2, 0.0)
        for i, j in m.z_support:
            assert (1.0 if m.agree[i, j] else 0.0) - m.fidelity_floor >= 0.0

    def test_identity_within_diagonal_support(self):
        pool = pool_from_sets([{0}, {1}, {2}])
        m = build_ip(pool, 1, 0.5)
        assert set(m.z_support) == {(0, 0), (1, 1), (2, 2)}

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

    def test_clean_solution_passes(self):
        pool = random_pool(9)
        sol = solve_exact(pool, 2, 0.7)
        assert verify_solution(pool, 2, 0.7, sol) == []


class TestLPExport:
    def test_round_trip_counts(self, tmp_path):
        for t in range(5):
            pool = random_pool(seed=5000 + t)
            m = build_ip(pool, 2, 0.7)
            path = tmp_path / f"model_{t}.lp"
            export_lp(m, path)
            parsed = parse_lp(path)
            assert parsed["n_variables"] == m.variable_count()
            assert parsed["n_constraints"] == m.constraint_count()

    def test_two_candidate_model_has_8_binaries(self, tmp_path):
        pool = pool_from_sets([{0, 1}, {0, 1}])
        m = build_ip(pool, 1, 0.5)
        path = tmp_path / "two.lp"
        export_lp(m, path)
        parsed = parse_lp(path)
        assert parsed["n_variables"] == 8
        names = set(parsed["binary_variables"])
        assert {"w_0", "w_1", "y_0", "y_1", "z_0_0", "z_0_1", "z_1_0", "z_1_1"} == names

    def test_budget_row_verbatim(self, tmp_path):
        pool = pool_from_sets([{0, 1}, {0, 1}])
        m = build_ip(pool, 5, 0.5)
        path = tmp_path / "budget.lp"
        export_lp(m, path)
        assert "budget: w_0 + w_1 <= 5" in path.read_text()

    def test_presolved_pairs_listed_in_comments(self, tmp_path):
        pool = pool_from_sets([{0}, {1}])
        m = build_ip(pool, 1, 0.5)
        path = tmp_path / "fixed.lp"
        export_lp(m, path)
        text = path.read_text()
        assert "z_0_1 z_1_0 = 0" in text


class TestInnerClaimLimit:
    def decoy_pool_with_disagreement(self):
        # greedy grabs the decoy ball 0 and stalls at 7; the optimum {5, 6}
        # needs a leaf evaluation, and candidate 6 carries one disagreeing
        # in-ball point (7), claimable at floor 0.5 through its slack
        balls = [{0, 1, 2, 3, 4}, {1}, {2}, {3}, {4}, {5, 0, 1, 2}, {6, 3, 4, 7}, {7}]
        agree_sets = [set(range(8)) for _ in balls]
        agree_sets[6] = {0, 1, 2, 3, 4, 5, 6}
        return pool_from_sets(balls, agree_sets)

    def test_more_than_twenty_pairs_stays_optimal(self):
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
        pool = CandidatePool(radii=np.ones(n), within=within, agree=agree)
        assert pool.disagree_pair_count() == 23
        sol = solve_exact(pool, 3, 0.5)
        assert sol.ip_coverage == 6
        assert sol.status == "optimal"
        assert sol.selected == (0, 1, 2)
        assert verify_solution(pool, 3, 0.5, sol) == []
        assert solve_greedy(pool, 3, 0.5).ip_coverage == 6

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
            ball, agree_m = pool.ball_masks(), pool.agree_masks()
            z, obj = _claims_for_selection(selected, ball, agree_m, phi_num, 10**6)
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
