"""The golden exact optima of the protocol workload, re-derived with HiGHS.

The golden values were recorded from aggrex's own branch-and-bound. Here an
independent MILP solver gets the same integer program, with every fidelity
row scaled to integers (agree * 10^6 - phi * 10^6, divided by their gcd) so
that feasibility is decided exactly, and must reach the same optimum in
every (K, phi) cell.
"""

import json
from math import gcd

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")
scipy_sparse = pytest.importorskip("scipy.sparse")

import harness  # noqa: E402
from aggrex import aggregate as agg  # noqa: E402
from aggrex import blackbox as bb  # noqa: E402
from aggrex import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def highs_optimum(pool: agg.CandidatePool, budget: int, phi: float) -> int:
    n = pool.n
    support = [(i, j) for i in range(n) for j in range(n) if pool.within[i, j]]
    nz = len(support)
    w, y, z = 0, n, 2 * n  # variable offsets
    phi_num = int(round(phi * agg.PHI_DENOM))
    g = gcd(phi_num, agg.PHI_DENOM)
    rows, lo, hi = [], [], []

    def row(coefs, low, high):
        rows.append(coefs)
        lo.append(low)
        hi.append(high)

    for k, (i, j) in enumerate(support):
        row({z + k: 1, w + i: -1}, -np.inf, 0)  # z_ij <= w_i
        row({y + j: 1, z + k: -1}, 0, np.inf)  # y_j >= z_ij
    for j in range(n):
        row({y + j: 1, **{z + k: -1 for k, (_, jj) in enumerate(support) if jj == j}}, -np.inf, 0)
    for i in range(n):
        fid = {z + k: (agg.PHI_DENOM * int(pool.agree[i, j]) - phi_num) // g for k, (ii, j) in enumerate(support) if ii == i}
        row(fid, 0, np.inf)
    row({w + i: 1 for i in range(n)}, -np.inf, budget)

    A = scipy_sparse.lil_matrix((len(rows), 2 * n + nz))
    for r, coefs in enumerate(rows):
        for col, value in coefs.items():
            A[r, col] = value
    c = np.zeros(2 * n + nz)
    c[y : y + n] = -1.0
    res = scipy_optimize.milp(
        c,
        constraints=scipy_optimize.LinearConstraint(A.tocsr(), lo, hi),
        integrality=np.ones_like(c),
        bounds=scipy_optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return int(round(-res.fun))


def test_protocol_golden_optima_match_highs(tmp_path):
    workload = WORKLOADS["protocol"]
    golden = json.loads(harness.GOLDEN_PATH.read_text())["protocol"]
    cfg = harness.prepare(workload, golden["seed"], root=tmp_path)
    harness.run_stage(cfg, "train")
    harness.run_stage(cfg, "explain")
    rd = cli.run_dir_for(cfg)
    assert harness.sha256((rd / "explainers.json").read_bytes()) == golden["explainers_sha256"]
    data = cli.prepare_dataset(cfg)
    pool = agg.build_pool(data, cli._load_bundle_explainers(cfg, data), bb.load_model(rd / "model.txt"))

    mismatches = {}
    for key, recorded in golden["exact_ip_coverage"].items():
        k_part, phi_part = key.split(",")
        optimum = highs_optimum(pool, int(k_part.removeprefix("K=")), float(phi_part.removeprefix("phi=")))
        if optimum != recorded:
            mismatches[key] = (recorded, optimum)
    grid = workload.config["aggregate"]
    assert len(golden["exact_ip_coverage"]) == len(grid["budgets"]) * len(grid["floors"])
    assert mismatches == {}
