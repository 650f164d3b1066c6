"""aggrex benchmark: one workload through train, explain, aggregate and report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload protocol --seed 2026 --seconds 30 --trace 0

The program is imported from ./src, never from an installed copy. BLAS and
OpenMP threads are pinned to 1 before numpy loads. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it makes one untraced pass
and traced passes and reports the per-layer metrics. The line before the
last is a full JSON report (environment, samples, digests, every metric);
the last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits with code 2, printing no result, when ./src holds no aggrex package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def bootstrap() -> bool:
    """Pin threads, put ./src first on the path and import aggrex from it; False if absent."""
    src = Path.cwd() / "src"
    if not (src / "aggrex" / "__init__.py").is_file():
        print(f"no aggrex sources under {src}; run from the root of a checkout", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("AGGREX_SEED", None)  # the benchmark's --seed is the only seed
    sys.path.insert(0, str(src))

    import aggrex  # noqa: E402  (after the thread pinning and the path)

    if Path(aggrex.__file__).resolve().parent != (src / "aggrex").resolve():
        print(f"aggrex imported from {aggrex.__file__}, not from {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, help="pipeline root seed; default: the workload's golden seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time (at least the minimum passes run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not bootstrap():
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    result, detail = harness.run(workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
