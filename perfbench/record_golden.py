"""Record golden.json: the default-seed outputs every later run is checked against.

    python3 perfbench/record_golden.py [workload ...]

Run from the root of a checkout. Each workload makes one untraced and one
traced pass at its default seed; recording stops with an error unless the
two passes agree byte for byte, every exact cell is optimal and every
solution passes the verifier. Re-record only for a change that is meant to
change outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import bootstrap


def record(name: str) -> dict:
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cfg = harness.prepare(workload, workload.default_seed)
    harness.run_pass(cfg)
    plain = harness.read_outputs(cfg)
    tracer = Tracer()
    with tracer.installed():
        harness.run_pass(cfg, tracer)
    out = harness.read_outputs(cfg)
    if (out.explainers, out.sweep) != (plain.explainers, plain.sweep):
        raise SystemExit(f"{name}: traced outputs differ from untraced ones")
    checks = harness.Checks()
    harness.check_pass(checks, out, plain, None, harness.verify_written_solutions(cfg))
    uncertified = [harness.cell_key(r) for r in out.rows if r["solver"] == "exact" and r["status"] != "optimal"]
    if checks.failed or uncertified:
        raise SystemExit(f"{name}: {checks.notes}; exact cells not certified optimal: {uncertified}")
    layers = harness.layer_metrics(tracer, cfg, out)
    return {
        "seed": workload.default_seed,
        "explainers_sha256": harness.sha256(out.explainers),
        "sweep_sha256": harness.sha256(out.sweep),
        "sweep_sha256_without_nodes": harness.sha256(out.sweep_without_nodes),
        "exact_ip_coverage": {
            harness.cell_key(r): int(r["ip_coverage"]) for r in out.rows if r["solver"] == "exact"
        },
        "counts": {k: layers[k] for k in harness.COUNTS},
    }


def main(argv: list[str]) -> int:
    if not bootstrap():
        return 2
    import harness
    from workloads import WORKLOADS

    golden = json.loads(harness.GOLDEN_PATH.read_text()) if harness.GOLDEN_PATH.exists() else {}
    for name in argv or list(WORKLOADS):
        golden[name] = record(name)
        print(f"{name}: recorded", file=sys.stderr)
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
