"""Run one workload through the aggrex CLI stages, check the outputs, measure.

A pass runs the four user-facing stages (train, explain, aggregate,
report) in this process, the way `aggrex <stage> --config ...` would, and
times each one. An untraced run repeats passes until its time is spent and
reports medians; a traced run alternates untraced passes and passes
under `tracing.Tracer`, and reports per-layer numbers, the tracing
overhead and the checks that tracing changed nothing.

End-to-end times are normalised to the host's speed while each stage
runs, as `meter.Meter` describes; the raw wall-time medians are in the
detail line beside them.

An untraced run also cycles its passes through PORTFOLIO pipeline seeds
derived from the benchmark seed (the first is the seed itself), so that
one seed's unusually large forest or search tree does not set the run's
median. Each pipeline seed's passes must repeat its first pass byte for
byte. A traced run uses the benchmark seed alone.

Every pass counts its operations (one per stage run, one per
(K, phi, solver) cell) and the checks that failed on them.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from aggrex import aggregate as agg
from aggrex import blackbox as bb
from aggrex import cli
from aggrex.data import synth_multiclass, write_dataset

from meter import PROBE_S, Meter
from tracing import Tracer
from workloads import Workload

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RUN_ROOT = Path(".perfbench_runs")

# An untraced pass repeats a stage until this much wall time is spent (at least once).
STAGE_MIN_S = {"train": 0.5, "explain": 0.0, "aggregate": 1.0, "report": 0.25}
PORTFOLIO = 8  # pipeline seeds an untraced run cycles through
MIN_PASSES = 3  # untraced passes in an untraced run
TRACED_PASSES = 2  # traced passes in a traced run, so counts can be compared
LAST_START_S = 150.0  # start no pass that could end after this; runs must end within 180 s
STAGE_TOLERANCE = 0.01  # layer self times must sum to the stage wall time within 1% (or 2 ms)

STAGES = (
    ("train", cli.cmd_train),
    ("explain", cli.cmd_explain),
    ("aggregate", cli.cmd_aggregate),
    ("report", cli.cmd_report),
)

END_TO_END = (
    ("setup_s", "s"),
    ("explain_s", "s"),
    ("aggregate_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("data.prepare_s", "s"),
    ("blackbox.train_s", "s"),
    ("blackbox.forest_nodes", "count"),
    ("blackbox.label_s", "s"),
    ("blackbox.label_rows", "count"),
    ("blackbox.label_us_per_row", "us"),
    ("sampler.sample_s", "s"),
    ("sampler.points", "count"),
    ("infofilter.select_s", "s"),
    ("infofilter.features_selected", "count"),
    ("tree.fit_s", "s"),
    ("tree.leaves", "count"),
    ("tree.predict_s", "s"),
    ("explainer.count", "count"),
    ("explainer.ms_p50", "ms"),
    ("explainer.ms_p75", "ms"),
    ("explainer.self_s", "s"),
    ("aggregate.pool_s", "s"),
    ("aggregate.pool_disagree_pairs", "count"),
    ("aggregate.ball_size_mean", "points"),
    ("aggregate.build_ip_s", "s"),
    ("aggregate.exact_s", "s"),
    ("aggregate.exact_nodes", "count"),
    ("aggregate.exact_us_per_node", "us"),
    ("aggregate.exact_max_cell_s", "s"),
    ("aggregate.exact_max_cell_nodes", "count"),
    ("aggregate.greedy_s", "s"),
    ("aggregate.greedy_evals", "count"),
    ("aggregate.verify_s", "s"),
    ("cli.load_s", "s"),
    ("cli.train_self_s", "s"),
    ("cli.explain_self_s", "s"),
    ("cli.aggregate_self_s", "s"),
    ("cli.report_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)

# Per-layer counts that must repeat exactly between traced passes.
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


@dataclass
class Checks:
    """Operations attempted and the ones whose checks failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(workload: Workload) -> dict | None:
    if not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload.name)


def prepare(workload: Workload, seed: int, root: Path = RUN_ROOT) -> dict:
    """Fresh working directory holding the workload's dataset; returns the pipeline config."""
    workdir = root / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    sy = workload.synth
    write_dataset(synth_multiclass(seed=workload.dataset_seed, **sy), workdir / "dataset.csv")
    overrides = copy.deepcopy(workload.config)
    overrides.update(
        seed=int(seed),
        output_dir=str(workdir),
        dataset={
            "path": str(workdir / "dataset.csv"),
            "schema": {"m_cont": sy["m_cont"], "m_bin": sy["m_bin"]},
        },
    )
    return cli.load_config(None, overrides)


def pipeline_seeds(seed: int) -> list[int]:
    """The benchmark seed, then PORTFOLIO - 1 pipeline seeds drawn from it."""
    drawn = np.random.SeedSequence(int(seed)).generate_state(PORTFOLIO - 1)
    return [int(seed)] + [int(x) % 2**31 for x in drawn]


def with_seed(cfg: dict, seed: int) -> dict:
    out = copy.deepcopy(cfg)
    out["seed"] = int(seed)
    return out


def run_stage(cfg: dict, stage: str, tracer: Tracer | None = None) -> float:
    fn = dict(STAGES)[stage]
    t0 = perf_counter()
    if tracer is None:
        fn(cfg)
    else:
        with tracer.span(f"cli.{stage}"):
            fn(cfg)
    return perf_counter() - t0


def run_pass(cfg: dict, tracer: Tracer | None = None) -> dict[str, float]:
    """Each stage once; with a tracer, inside a root span named after the stage."""
    times = {stage: run_stage(cfg, stage, tracer) for stage, _ in STAGES}
    times["sweep"] = sum(times.values())
    return times


def timed_pass(cfg: dict, meter: Meter) -> tuple[dict, dict, int]:
    """Untraced pass; returns wall and normalised time per stage run, and the number of stage runs.

    Each stage repeats until STAGE_MIN_S[stage] is spent, so that a short
    stage's sample, like a long one's, spans many probes; its time is the
    mean over its runs.
    """
    wall, norm = {}, {}
    runs = 0
    for stage, _ in STAGES:
        k = 0

        def repeat() -> None:
            nonlocal k
            spent = 0.0
            while not k or spent < STAGE_MIN_S[stage]:
                spent += run_stage(cfg, stage)
                k += 1

        w, n = meter.measure(repeat)
        wall[stage], norm[stage] = w / k, n / k
        runs += k
    wall["sweep"] = sum(wall.values())
    norm["sweep"] = sum(norm.values())
    return wall, norm, runs


# -- outputs and their checks -------------------------------------------------

@dataclass
class Outputs:
    model: bytes
    explainers: bytes
    sweep: bytes
    rows: list[dict]
    reports: int

    @property
    def sweep_without_nodes(self) -> bytes:
        out = io.StringIO()
        for row in csv.reader(io.StringIO(self.sweep.decode())):
            out.write(",".join(row[:-1]) + "\n")
        return out.getvalue().encode()


def read_outputs(cfg: dict) -> Outputs:
    rd = cli.run_dir_for(cfg)
    sweep = (rd / "sweep.csv").read_bytes()
    return Outputs(
        model=(rd / "model.txt").read_bytes(),
        explainers=(rd / "explainers.json").read_bytes(),
        sweep=sweep,
        rows=list(csv.DictReader(io.StringIO(sweep.decode()))),
        reports=len(list(rd.glob("report_*.csv"))),
    )


def cell_key(row: dict) -> str:
    return f"K={row['K']},phi={row['phi']}"


def verify_written_solutions(cfg: dict) -> dict[tuple[str, str, str], tuple[list[str], int]]:
    """Re-check every solution file on disk against a freshly built pool.

    Keyed like sweep.csv rows, (K, phi, solver); values are the verifier's
    violations and the file's ip_coverage.
    """
    rd = cli.run_dir_for(cfg)
    data = cli.prepare_dataset(cfg)
    pool = agg.build_pool(data, cli._load_bundle_explainers(cfg, data), bb.load_model(rd / "model.txt"))
    found = {}
    for path in sorted((rd / "solutions").glob("sol_*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        sol = agg.AggregateSolution(
            selected=tuple(raw["selected"]),
            z_assignment={int(i): tuple(js) for i, js in raw["z_assignment"].items()},
            ip_coverage=int(raw["ip_coverage"]),
            ball_coverage=int(raw["ball_coverage"]),
            ball_min_fidelity=raw["ball_min_fidelity"],
            claimed_min_fidelity=raw["claimed_min_fidelity"],
            status=raw["status"],
        )
        _, budget, phi, solver = path.stem.split("_")
        budget, phi = budget.removeprefix("K"), phi.removeprefix("phi")
        found[(budget, phi, solver)] = (agg.verify_solution(pool, int(budget), float(phi), sol), sol.ip_coverage)
    return found


def check_pass(
    checks: Checks,
    out: Outputs,
    first: Outputs,
    golden: dict | None,
    verified: dict | None = None,
) -> None:
    """One operation per stage and per cell; each fails if any of its checks does.

    `first` is the run's first pass, which every later pass must repeat byte
    for byte; `golden` is None away from the golden seed; `verified` holds
    the verifier's findings on the solution files this pass wrote. An exact
    cell must be certified optimal only at the golden seed: elsewhere the
    solver may report "feasible" when a selection has more disagreeing
    pairs than its exhaustive inner search takes, and optimality checks
    apply only to the cells it certifies.
    """
    checks.op(out.model == first.model, "train: model.txt differs between passes")
    if golden is not None and sha256(out.explainers) != golden["explainers_sha256"]:
        checks.op(False, "explain: explainers.json differs from the golden digest")
    else:
        checks.op(out.explainers == first.explainers, "explain: explainers.json differs between passes")
    checks.op(out.sweep == first.sweep, "aggregate: sweep.csv differs between passes")
    checks.op(out.reports == 4, f"report: {out.reports} of 4 report files")

    greedy = {cell_key(r): int(r["ip_coverage"]) for r in out.rows if r["solver"] == "greedy"}
    best_by_phi: dict[str, int] = {}
    for row in sorted(out.rows, key=lambda r: (r["solver"], r["phi"], int(r["K"]))):
        key = cell_key(row)
        cov = int(row["ip_coverage"])
        problems = []
        if cov > int(row["ball_coverage"]):
            problems.append("ip_coverage above ball_coverage")
        if row["solver"] == "exact" and row["status"] == "optimal":
            if key in greedy and cov < greedy[key]:
                problems.append("optimum below greedy")
            if cov < best_by_phi.get(row["phi"], 0):
                problems.append("optimum falls as K grows")
            best_by_phi[row["phi"]] = cov
        if row["solver"] == "exact" and golden is not None:
            if row["status"] != "optimal":
                problems.append(f"status {row['status']}")
            if golden["exact_ip_coverage"].get(key) != cov:
                problems.append(f"ip_coverage {cov} != golden {golden['exact_ip_coverage'].get(key)}")
        if verified is not None:
            violations, file_cov = verified.get((row["K"], row["phi"], row["solver"]), (["no solution file"], cov))
            problems += [f"verifier: {v}" for v in violations]
            if file_cov != cov:
                problems.append(f"solution file ip_coverage {file_cov} != sweep.csv {cov}")
        checks.op(not problems, f"{row['solver']} {key}: {'; '.join(problems)}")


# -- per-layer metrics from one traced pass ---------------------------------------

def layer_metrics(tracer: Tracer, cfg: dict, out: Outputs) -> dict[str, float]:
    own = tracer.layer_self()
    rd = cli.run_dir_for(cfg)
    records = json.loads(out.explainers)["explainers"]
    exact = [int(r["nodes_explored"]) for r in out.rows if r["solver"] == "exact"]
    exact_s = own.get("aggregate.exact", 0.0)
    label_s = own.get("blackbox.label", 0.0)
    rows_labelled = tracer.counters.get("blackbox.label_rows", 0)
    explainer_ms = [d * 1e3 for d in tracer.durations("explainer")]
    pool = tracer.pools[-1]
    return {
        "data.prepare_s": own.get("data.prepare", 0.0),
        "blackbox.train_s": own.get("blackbox.train", 0.0),
        "blackbox.forest_nodes": len(out.model.splitlines()) - 1,
        "blackbox.label_s": label_s,
        "blackbox.label_rows": rows_labelled,
        "blackbox.label_us_per_row": label_s / rows_labelled * 1e6,
        "sampler.sample_s": own.get("sampler.sample", 0.0),
        "sampler.points": tracer.counters.get("sampler.points", 0),
        "infofilter.select_s": own.get("infofilter.select", 0.0),
        "infofilter.features_selected": sum(len(r["selected_features"]) for r in records if r["filtered"]),
        "tree.fit_s": own.get("tree.fit", 0.0),
        "tree.leaves": sum(int(r["leaf_count"]) for r in records),
        "tree.predict_s": own.get("tree.predict", 0.0),
        "explainer.count": len(explainer_ms),
        "explainer.ms_p50": float(np.percentile(explainer_ms, 50)),
        "explainer.ms_p75": float(np.percentile(explainer_ms, 75)),
        "explainer.self_s": own.get("explainer", 0.0),
        "aggregate.pool_s": own.get("aggregate.pool", 0.0),
        "aggregate.pool_disagree_pairs": pool.disagree_pair_count(),
        "aggregate.ball_size_mean": float(pool.within.sum(axis=1).mean()),
        "aggregate.build_ip_s": own.get("aggregate.build_ip", 0.0),
        "aggregate.exact_s": exact_s,
        "aggregate.exact_nodes": sum(exact),
        "aggregate.exact_us_per_node": exact_s / sum(exact) * 1e6 if exact else 0.0,
        "aggregate.exact_max_cell_s": max(tracer.self_by_call("aggregate.exact"), default=0.0),
        "aggregate.exact_max_cell_nodes": max(exact, default=0),
        "aggregate.greedy_s": own.get("aggregate.greedy", 0.0),
        "aggregate.greedy_evals": tracer.counters.get("aggregate.greedy_evals", 0),
        "aggregate.verify_s": own.get("aggregate.verify", 0.0),
        "cli.load_s": own.get("cli.load", 0.0),
        "cli.train_self_s": own.get("cli.train", 0.0),
        "cli.explain_self_s": own.get("cli.explain", 0.0),
        "cli.aggregate_self_s": own.get("cli.aggregate", 0.0),
        "cli.report_s": own.get("cli.report", 0.0),
        "cli.bytes_written": sum(p.stat().st_size for p in rd.rglob("*") if p.is_file()),
    }


def stage_partition_errors(tracer: Tracer, times: dict[str, float]) -> list[str]:
    """Each root span is a stage, and its subtree's self times add up to the stage wall time."""
    errors = []
    for name, duration, subtree_self in tracer.roots():
        stage = name.removeprefix("cli.")
        if stage not in times:
            errors.append(f"span {name} ran outside every stage")
            continue
        wall = times[stage]
        if abs(subtree_self - wall) > max(STAGE_TOLERANCE * wall, 0.002):
            errors.append(f"{name}: self times sum to {subtree_self:.4f}s, stage wall {wall:.4f}s")
    return errors


# -- the run ------------------------------------------------------------------------

def environment(workload: Workload, cfg: dict) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    a = cfg["aggregate"]
    solvers = 2 if a["solver"] == "both" else 1
    variants = 2 if cfg["filter"]["variant"] == "both" else 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "explainers": workload.synth["n"] * len(cfg["sampler"]["radii"]) * variants,
        "cells": len(a["budgets"]) * len(a["floors"]) * solvers,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result, detail): the contract's result object and a full report."""
    t_start = perf_counter()
    golden_all = load_golden(workload)
    golden = golden_all if golden_all is not None and seed == golden_all["seed"] else None
    cfgs: list[dict] = []
    checks = Checks()
    meter = Meter()
    passes, walls, traced, layers = [], [], [], []  # stage times per pass: normalised, wall, traced wall
    outputs: list[tuple[int, Outputs]] = []  # (index into cfgs, outputs) per pass
    integrity: list[str] = []

    last_wall = 0.0

    def room(until: float, passes_ahead: int = 1) -> bool:
        """Whether that many passes as long as the last one would end before `until`."""
        return perf_counter() + passes_ahead * last_wall <= min(until, t_start + LAST_START_S)

    def one_pass(slot: int, tracer: Tracer | None = None) -> None:
        nonlocal last_wall
        cfg = cfgs[slot]
        t0 = perf_counter()
        if tracer is None:
            wall, norm, runs = timed_pass(cfg, meter)
            walls.append(wall)
            passes.append(norm)
            # check_pass counts one operation per stage; the repeats wrote the same files
            checks.attempted += runs - len(STAGES)
        else:
            with tracer.installed():
                traced.append(run_pass(cfg, tracer))
        outputs.append((slot, read_outputs(cfg)))
        last_wall = perf_counter() - t0

    try:
        base = prepare(workload, seed)
        if trace:
            cfgs = [base]
            # untraced and traced passes alternate, so the overhead compares like with like
            while len(traced) < TRACED_PASSES and room(float("inf"), 2) or room(t_start + seconds, 2):
                one_pass(0)
                tracer = Tracer()
                one_pass(0, tracer)
                integrity += [f"traced pass {len(traced)}: {e}" for e in stage_partition_errors(tracer, traced[-1])]
                layers.append(layer_metrics(tracer, base, outputs[-1][1]))
            (Path(base["output_dir"]) / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
        else:
            cfgs = [with_seed(base, s) for s in pipeline_seeds(seed)]
            while not passes or len(passes) < MIN_PASSES and room(float("inf")) or room(t_start + seconds):
                one_pass(len(passes) % len(cfgs))
        first: dict[int, Outputs] = {}
        last = {slot: i for i, (slot, _) in enumerate(outputs)}
        for i, (slot, out) in enumerate(outputs):
            first.setdefault(slot, out)
            verified = verify_written_solutions(cfgs[slot]) if last[slot] == i else None
            check_pass(checks, out, first[slot], golden if slot == 0 else None, verified)
        if trace:
            plain = outputs[0][1]
            if any((o.explainers, o.sweep) != (plain.explainers, plain.sweep) for _, o in outputs[1:]):
                integrity.append("traced outputs differ from the untraced pass")
            if any({k: layer[k] for k in COUNTS} != {k: layers[0][k] for k in COUNTS} for layer in layers[1:]):
                integrity.append("per-layer counts differ between traced passes")
            checks.op(not integrity, "trace integrity: " + "; ".join(integrity))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.op(False, "stage raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1])

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def med(key: str, rows: list[dict]) -> float:
        return statistics.median(r[key] for r in rows) if rows else 0.0

    e2e = {
        "setup_s": med("train", passes),
        "explain_s": med("explain", passes),
        "aggregate_s": med("aggregate", passes),
        "sweep_s": med("sweep", passes),
        "peak_rss_mb": rss_mb,
    }
    per_layer = {name: 0.0 for name, _ in PER_LAYER}  # stays so only when the run failed
    if layers:
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                per_layer[name] = med("sweep", traced) - med("sweep", walls)
            elif unit == "count":
                per_layer[name] = layers[-1][name]
            else:
                per_layer[name] = statistics.median(layer[name] for layer in layers)
    units = dict(END_TO_END + PER_LAYER)
    shown = per_layer if trace else e2e
    correct = checks.failed == 0 and bool(passes) and (bool(layers) or not trace)
    first = outputs[0][1] if outputs else None
    result = {
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "golden": "compared" if golden is not None else "skipped: seed is not the golden seed",
        "pipeline_seeds": [c["seed"] for c in cfgs],
        "environment": environment(workload, cfgs[0]) if cfgs else None,
        "samples": {
            "setup_s": len(passes),
            "explain_s": len(passes),
            "aggregate_s": len(passes),
            "sweep_s": len(passes),
            "peak_rss_mb": 1,
            "per_layer": len(traced),
        },
        "fail_rate": checks.failed / max(checks.attempted, 1),
        "failures": checks.notes,
        "end_to_end": {name: {"value": v, "unit": units[name]} for name, v in e2e.items()},
        "wall_medians_s": {
            f"{'setup' if stage == 'train' else stage}_s": med(stage, walls)
            for stage in ("train", "explain", "aggregate", "sweep")
        },
        "probe_s": PROBE_S,
        "per_layer": {name: {"value": v, "unit": units[name]} for name, v in per_layer.items()},
        "passes": passes,
        "pass_walls": walls,
        "traced": traced,
        "trace_integrity": integrity if trace else None,
    }
    if first is not None:
        detail["exact_cells_not_certified"] = sum(
            1 for r in first.rows if r["solver"] == "exact" and r["status"] != "optimal"
        )
        detail["digests"] = {
            "explainers_sha256": sha256(first.explainers),
            "sweep_sha256": sha256(first.sweep),
            "sweep_sha256_without_nodes": sha256(first.sweep_without_nodes),
        }
        if golden is not None:
            detail["digests"]["sweep_matches_golden"] = detail["digests"]["sweep_sha256"] == golden["sweep_sha256"]
            detail["digests"]["sweep_without_nodes_matches_golden"] = (
                detail["digests"]["sweep_sha256_without_nodes"] == golden["sweep_sha256_without_nodes"]
            )
            if per_layer:
                detail["counts_match_golden"] = {
                    name: per_layer[name] == golden["counts"].get(name) for name in COUNTS
                }
    return result, detail
