"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Tolerances and trial counts are pinned here, not configurable.
"""

import hashlib
import json
import math
import time
from statistics import median

import numpy as np
import pytest

from aggrex.aggregate import (
    brute_force,
    build_ip,
    export_lp,
    parse_lp,
    solve_exact,
    solve_greedy,
    verify_solution,
)
from aggrex.blackbox import train_bagged_forest
from aggrex.cli import cmd_report, cmd_sweep, load_config, main, run_dir_for
from aggrex.data import FeatureSchema, standardize, synth_multiclass
from aggrex.explainer import label_ball, train_local_explainer
from aggrex.infofilter import PartitionLeaves, cond_mutual_info, select_informative_features
from aggrex.sampler import derive_seed, sample_ball

from conftest import random_pool
from test_aggregate import pool_from_sets
from test_infofilter import mi_oracle, random_bins, random_leaves


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


FLOORS = [0.0, 0.5, 0.7, 0.9]


def test_criterion_01_exact_matches_brute_force():
    t0 = time.perf_counter()
    mismatches = 0
    for t in range(200):
        pool = random_pool(seed=7000 + t)
        budget = 1 + t % 3
        floor = FLOORS[t % 4]
        exact = solve_exact(pool, budget, floor)
        brute = brute_force(pool, budget, floor)
        if exact.ip_coverage != brute.ip_coverage:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"exact == brute force on {200 - mismatches}/200 instances "
        f"(n<=10, K<=3, phi in {{0,0.5,0.7,0.9}}) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_constraint_verifier_zero_violations():
    violations = 0
    solutions = 0
    for t in range(60):
        pool = random_pool(seed=8000 + t)
        budget = 1 + t % 3
        floor = FLOORS[t % 4]
        for sol in (
            solve_exact(pool, budget, floor),
            solve_greedy(pool, budget, floor),
            brute_force(pool, budget, floor),
        ):
            solutions += 1
            violations += len(verify_solution(pool, budget, floor, sol))
    report(
        2,
        violations == 0,
        f"{violations} constraint violations across {solutions} solutions "
        "from exact, greedy and brute-force solvers",
    )


def test_criterion_03_dominance_and_monotonicity():
    dominance_bad = monotone_k_bad = monotone_phi_bad = 0
    for t in range(50):
        pool = random_pool(seed=9000 + t)
        for floor in (0.0, 0.7):
            by_k = []
            for budget in range(4):
                exact = solve_exact(pool, budget, floor)
                greedy = solve_greedy(pool, budget, floor)
                if exact.ip_coverage < greedy.ip_coverage:
                    dominance_bad += 1
                by_k.append(exact.ip_coverage)
            if by_k != sorted(by_k):
                monotone_k_bad += 1
        by_phi = [
            solve_exact(pool, 2, floor).ip_coverage for floor in FLOORS
        ]
        if by_phi != sorted(by_phi, reverse=True):
            monotone_phi_bad += 1

    # decoy ball straddles both halves of the point set: greedy takes it and
    # tops out at 7 while the exact optimum covers all 8
    balls = [{0, 1, 2, 3, 4}, {1}, {2}, {3}, {4}, {5, 0, 1, 2}, {6, 3, 4, 7}, {7}]
    strict_pool = pool_from_sets(balls)
    strict_gap = (
        solve_exact(strict_pool, 2, 0.0).ip_coverage
        - solve_greedy(strict_pool, 2, 0.0).ip_coverage
    )
    report(
        3,
        dominance_bad == 0 and monotone_k_bad == 0 and monotone_phi_bad == 0 and strict_gap > 0,
        f"50 instances: exact >= greedy everywhere ({dominance_bad} bad), coverage monotone in K "
        f"({monotone_k_bad} bad), antitone in phi ({monotone_phi_bad} bad); "
        f"constructed instance shows strict exact-over-greedy gap of {strict_gap}",
    )


def test_criterion_04_mi_estimator_oracle():
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        m = int(rng.integers(1, 5))
        bins = random_bins(rng, n, m)
        labels = rng.integers(0, int(rng.integers(2, 5)), size=n)
        leaves = random_leaves(rng, n)
        f = int(rng.integers(0, m))
        worst = max(worst, abs(cond_mutual_info(f, labels, leaves, bins) - mi_oracle(f, labels, leaves, bins)))

    n = 100
    copy = np.array([i % 2 for i in range(n)], dtype=np.int32)
    from aggrex.infofilter import BinAssignment

    bins = BinAssignment(
        edges=(np.array([0.0, 0.5, 1.0]),), n_bins=(2,), assignment=copy[:, None]
    )
    ln2_err = abs(cond_mutual_info(0, copy, PartitionLeaves.whole(n), bins) - math.log(2.0))
    report(
        4,
        worst <= 1e-12 and ln2_err <= 1e-12,
        f"plug-in conditional MI matches contingency-table oracle on 200 instances "
        f"(worst gap {worst:.2e} <= 1e-12); balanced binary copy gives ln 2 within {ln2_err:.2e}",
    )


def test_criterion_05_filter_finds_planted_relevance():
    schema = FeatureSchema.mixed(10, 10)
    relevant = (10, 13, 17)
    center = np.zeros(20)
    contained = 0
    sizes = []
    slowest = 0.0
    for trial in range(50):
        s = sample_ball(center, 7.0, 2000, schema, seed=40_000 + trial)
        code = (
            4 * s.points[:, relevant[0]].astype(int)
            + 2 * s.points[:, relevant[1]].astype(int)
            + s.points[:, relevant[2]].astype(int)
        )
        labels = code % 5
        t0 = time.perf_counter()
        selected = select_informative_features(s, labels, schema, max_bins=3)
        slowest = max(slowest, time.perf_counter() - t0)
        if set(selected) <= set(relevant):
            contained += 1
        sizes.append(len(selected))
    med = median(sizes)
    report(
        5,
        contained >= 45 and med <= 5 and slowest < 1.0,
        f"selection inside the 3 relevant of 20 features in {contained}/50 trials (>= 45), "
        f"median |S| = {med} (<= 5), slowest call {slowest * 1000:.0f} ms (< 1 s)",
    )


def test_criterion_06_filter_runtime_scales_linearly():
    schema = FeatureSchema.mixed(10, 10)
    relevant = (10, 13, 17)
    center = np.zeros(20)

    def labels_for(s):
        code = (
            4 * s.points[:, relevant[0]].astype(int)
            + 2 * s.points[:, relevant[1]].astype(int)
            + s.points[:, relevant[2]].astype(int)
        )
        return code % 5

    # the three sizes take turns within each repetition, so a drift in the
    # host's speed hits them alike, and each size keeps its fastest run
    sizes = (5000, 10000, 20000)
    fastest = dict.fromkeys(sizes, float("inf"))
    for t in range(5):
        for n_samples in sizes:
            s = sample_ball(center, 7.0, n_samples, schema, seed=50_000 + t)
            y = labels_for(s)
            t0 = time.perf_counter()
            select_informative_features(s, y, schema, max_bins=3)
            fastest[n_samples] = min(fastest[n_samples], time.perf_counter() - t0)
    r1 = fastest[10000] / fastest[5000]
    r2 = fastest[20000] / fastest[10000]
    report(
        6,
        r1 <= 2.5 and r2 <= 2.5,
        f"fastest wall time x{r1:.2f} for 5k->10k and x{r2:.2f} for 10k->20k samples "
        "(each <= 2.5 per doubling; fixed bins and feature count)",
    )


def test_criterion_07_filtered_explainers_not_more_complex():
    data = standardize(
        synth_multiclass(seed=42, n=1500, m_cont=10, m_bin=10, classes=5, relevant=(10, 13, 17))
    )
    box = train_bagged_forest(data, n_trees=15, seed=7)
    successes = 0
    matched = 0
    for trial in range(50):
        center = data.X[(trial * 11) % data.n]
        seed = derive_seed(777, trial)
        ball = label_ball(box, center, 3.0, 1000, data.schema, seed)
        filt, raw = train_local_explainer([ball], data.schema, (True, False))
        if filt.train_fidelity >= 0.9 and raw.train_fidelity >= 0.9:
            matched += 1
            if filt.leaf_count <= raw.leaf_count:
                successes += 1
    report(
        7,
        successes >= 35,
        f"filtered leaf count <= unfiltered in {successes}/50 paired trials (>= 35) "
        f"at matched train fidelity >= 0.9 ({matched} pairs matched), radius 3.0, 5-class forest",
    )


SWEEP_CONFIG = {
    "seed": 2026,
    "dataset": {"synth": {"n": 60, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]}},
    "blackbox": {"n_trees": 25},
    "sampler": {"N": 2000, "radii": [1.2]},
    "filter": {"variant": "filtered"},
    "aggregate": {"budgets": list(range(1, 11)), "floors": [0.5, 0.7, 0.9], "solver": "both"},
}


def test_criterion_08_protocol_sweep(tmp_path):
    cfg = load_config(None, {**SWEEP_CONFIG, "output_dir": str(tmp_path / "runs")})
    t0 = time.perf_counter()
    sweep_path = cmd_sweep(cfg)
    cmd_report(cfg)
    elapsed = time.perf_counter() - t0
    rd = run_dir_for(cfg)

    lines = sweep_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    n_rows_ok = len(rows) == 10 * 3 * 2
    floor_ok = all(
        float(r["min_fidelity"]) >= 0.9
        for r in rows
        if r["solver"] == "exact" and r["phi"] == "0.9" and r["min_fidelity"]
    )
    series_files = [rd / "report_ip_coverage.csv", rd / "report_min_fidelity.csv"]
    series_ok = all(p.exists() for p in series_files)
    n_series = len(series_files[0].read_text().splitlines()[0].split(",")) - 1
    report(
        8,
        elapsed < 300.0 and n_rows_ok and floor_ok and series_ok and n_series == 6,
        f"K=1..10 x phi {{0.5,0.7,0.9}} x {{exact,greedy}} sweep on 60-point 5-class synth "
        f"in {elapsed:.0f}s (< 300s); {len(rows)} sweep rows; every phi=0.9 exact row has "
        f"min fidelity >= 0.9 over claimed sets; report emits {n_series} series per figure",
    )


def test_criterion_09_lp_round_trip(tmp_path):
    bad = 0
    for t in range(20):
        pool = random_pool(seed=60_000 + t)
        model = build_ip(pool, 1 + t % 4, FLOORS[t % 4])
        path = tmp_path / f"model_{t}.lp"
        export_lp(model, path)
        parsed = parse_lp(path)
        if parsed["n_variables"] != model.variable_count() or parsed["n_constraints"] != model.constraint_count():
            bad += 1
    two = build_ip(pool_from_sets([{0, 1}, {0, 1}]), 1, 0.5)
    export_lp(two, tmp_path / "two.lp")
    n_two = parse_lp(tmp_path / "two.lp")["n_variables"]
    report(
        9,
        bad == 0 and n_two == 8,
        f"re-parsed variable/constraint counts match the model on {20 - bad}/20 random exports; "
        f"the 2-candidate model has exactly {n_two} binary variables",
    )


DETERMINISM_CONFIG = {
    "seed": 99,
    "output_dir": "runs",
    "dataset": {"synth": {"n": 20, "m_cont": 3, "m_bin": 2, "classes": 3, "relevant": [0, 3]}},
    "blackbox": {"n_trees": 8},
    "sampler": {"N": 300, "radii": [1.5]},
    "filter": {"variant": "both"},
    "aggregate": {"budgets": [1, 2, 3], "floors": [0.5, 0.9], "solver": "both"},
}


def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    outputs = {}
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = load_config(None, json.loads(json.dumps(DETERMINISM_CONFIG)))
        cmd_sweep(cfg)
        cmd_report(cfg)
        rd = run_dir_for(cfg)
        outputs[run] = {
            name: (workdir / rd / name).read_bytes()
            for name in (
                "manifest.json",
                "model.txt",
                "sweep.csv",
                "dataset_used.csv",
                "explainers.json",
                "report_ip_coverage.csv",
            )
        }
    differing = [name for name in outputs["a"] if outputs["a"][name] != outputs["b"][name]]
    report(
        10,
        not differing,
        "two pipeline runs from one root seed are byte-identical across manifest, model, "
        f"sweep CSV, dataset, bundle and report files (differs: {differing or 'none'})",
    )


# sha256 of the criterion-10 run's outputs. They pin the bytes every
# same-output refactor must keep; change them only with a change that is
# meant to alter the output, and say why.
PINNED_SHA256 = {
    "model.txt": "802b10b50381ac14571101390f4f44fd945855e56f712d4bf07fc5821d34c365",
    "explainers.json": "2c722af76007efed93f3476a4ac19b5b549ee6d485aad3dd11f968ff5d79d43a",
    "sweep.csv": "e34ee2236f6874d51cf1b39032310794613a5a26fec436547467988a1f9ad1bb",
}


def test_criterion_10_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = load_config(None, json.loads(json.dumps(DETERMINISM_CONFIG)))
    cmd_sweep(cfg)
    rd = tmp_path / run_dir_for(cfg)
    assert {name: hashlib.sha256((rd / name).read_bytes()).hexdigest() for name in PINNED_SHA256} == PINNED_SHA256
