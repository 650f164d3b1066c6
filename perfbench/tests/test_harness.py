"""Self-tests of the benchmark harness on the tiny criterion-10 config (seconds)."""

import json
import shutil
import subprocess
import sys

from pathlib import Path

import pytest

from harness import END_TO_END, PER_LAYER
from tracing import WRAPPED, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def checkout(tmp_path, with_sources=True):
    """A copy of what the benchmark sees: BENCHMARK.json, its own directory, and src/."""
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(REPO / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def bench(root, *args):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "tiny", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_reports_every_metric_and_passes_its_checks(tmp_path, trace, section):
    proc = bench(checkout(tmp_path), "--seed", "99", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, detail["failures"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert detail["golden"] == "compared"
    if trace == "1":
        assert detail["trace_integrity"] == []
        assert all(detail["counts_match_golden"].values())


def test_other_seed_runs_the_checks_but_skips_golden(tmp_path):
    proc = bench(checkout(tmp_path), "--seed", "5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    assert json.loads(result_line)["correct"]
    assert json.loads(detail_line)["golden"].startswith("skipped")


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.listed]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench(checkout(tmp_path, with_sources=False), "--seed", "99", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_wrapped_function():
    before = [getattr(owner, attr) for owner, attr, _ in WRAPPED]
    with Tracer().installed():
        assert all(getattr(owner, attr) is not fn for (owner, attr, _), fn in zip(WRAPPED, before))
    assert all(getattr(owner, attr) is fn for (owner, attr, _), fn in zip(WRAPPED, before))


def test_self_times_partition_each_root_span():
    tracer = Tracer()
    with tracer.span("cli.outer"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    (name, duration, subtree_self), = tracer.roots()
    assert name == "cli.outer"
    assert subtree_self == pytest.approx(duration, abs=1e-9)
    assert all(t >= 0 for t in tracer.self_times())


def test_meter_leaves_probes_out_and_restores_the_timer():
    import signal
    import time

    from meter import Meter

    before = signal.getsignal(signal.SIGALRM)
    wall, norm = Meter().measure(lambda: time.sleep(0.2))
    # sleep resumes after each timer probe and keeps its deadline, so the probes come out of it
    assert 0.15 < wall <= 0.2 + 0.01
    assert norm > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
