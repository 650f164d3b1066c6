"""Checked-in mutants of the package, each with the tests that must kill it.

    python tests/mutants.py

Each row of MUTANTS is (file, old, new, why, tests). `old` occurs exactly
once in `file`; the mutant is that file with `old` replaced by `new`.
`why` names the fault the mutant stands for, and `tests` are the pytest
node ids that must fail on it.

For the unmutated tree and then for each row, src/, tests/ and
pyproject.toml are copied to a fresh temporary directory, the row is
applied to the copy, and `pytest -x` runs the row's tests there, after a
check that `aggrex` imports from the copy. The unmutated copy must pass
every row's tests; a row whose tests then pass on its mutant survived.
The script exits 1 if the unmutated copy fails, if any row survives, or
if any row's tests end in anything but failures (a collection error,
say). Each run takes a few seconds, so this is a CI step of its own, not
part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "src/aggrex/cli.py"
AGGREGATE = "src/aggrex/aggregate.py"

MUTANTS = (
    (
        CLI,
        "hexdigest() != hashes[name]",
        "hexdigest() == hashes[name]",
        "an input whose bytes do not give the manifest's digest is parsed as if they did",
        ("tests/test_cli.py::TestManifest::test_an_input_edited_behind_the_manifest_exits_2_before_any_output",),
    ),
    (
        CLI,
        "if radius in radii[:slot]:",
        "if False:",
        "a repeated radius trains its balls twice, and the aggregate stage pools its last slot",
        ("tests/test_cli.py::TestConfig::test_bad_config_exits_2_before_any_run_dir[repeated-radius]",),
    ),
    (
        AGGREGATE,
        "if bound > best_obj[k] < reach:",
        "if bound > best_obj[k]:",
        "the exact search goes on past a node whose incumbent already claims every claimable point",
        ("tests/test_aggregate.py::TestExactAtSweepSize::test_budgets_at_the_reach_close_at_the_root",),
    ),
    (
        AGGREGATE,
        "if obj > best_obj[k]:",
        "if obj >= best_obj[k]:",
        "the exact search keeps the last of equal-coverage selections, not the first it found",
        ("tests/test_aggregate.py::TestSolveExact::test_an_equal_coverage_leaf_keeps_the_incumbent",),
    ),
    (
        AGGREGATE,
        "if obj - current_obj > best_gain:",
        "if obj - current_obj >= best_gain:",
        "greedy breaks gain ties toward the highest index, not the lowest",
        ("tests/test_aggregate.py::TestBoundedSearch::test_greedy_skips_only_evaluations_that_cannot_win",),
    ),
    (
        AGGREGATE,
        "if row < 0:",
        "if row < -1:",
        "the verifier passes a selection whose fidelity row falls short",
        ("tests/test_aggregate.py::TestVerifier::test_detects_a_fidelity_row_one_millionth_short",),
    ),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutant(path: Path, old: str, new: str) -> str:
    """The text of path with `old`, which must occur there exactly once, replaced by `new`."""
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
    return text.replace(old, new)


def run(tests, row=None) -> int:
    """pytest's exit code for `tests` on a fresh copy of the tree, with the mutant of `row` applied if given."""
    with tempfile.TemporaryDirectory(prefix="aggrex-mutant-") as tmp:
        copy = Path(tmp).resolve()
        _copy_tree(copy)
        if row is not None:
            file, old, new = row[:3]
            (copy / file).write_text(_mutant(copy / file, old, new), encoding="utf-8")
        paths = [str(copy / "src"), str(copy / "tests"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        probe = [sys.executable, "-c", "import aggrex; print(aggrex.__file__)"]
        where = subprocess.run(probe, cwd=copy, env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy):
            raise SystemExit(f"aggrex imports from {where}, not from the copy in {copy}")
        pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        return subprocess.run(pytest, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    for file, old, new, *_ in MUTANTS:  # a row gone stale fails before anything runs
        _mutant(ROOT / file, old, new)
    code = run(sorted({test for *_, tests in MUTANTS for test in tests}))
    if code != 0:
        print(f"the unmutated tree fails the rows' tests (pytest exit {code})")
        return 1
    bad = 0
    for row in MUTANTS:
        code = run(row[4], row)
        verdict = {1: "killed", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict}: {row[0]}: {row[3]}", flush=True)
        bad += code != 1
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
