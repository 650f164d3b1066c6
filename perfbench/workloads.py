"""The benchmark's workloads: each one is a full aggrex pipeline config.

Every workload fixes its dataset (drawn once from `dataset_seed`) and takes
the benchmark seed as the pipeline's root seed, which drives the forest's
bootstrap and every ball sample. The dataset stays fixed on purpose: the
exact solver's node count swings about 6x between synthetic datasets of one
shape (n=60, K=10: 2.2 s to 14.7 s of aggregation over five dataset seeds),
which no run length can average away, while with the dataset fixed the
spread across pipeline seeds is about 10%.

At `default_seed` the golden values in golden.json apply. Sizes are chosen
so one pass through train, explain, aggregate and report takes about 5 s
on one core. The host this was tuned on alternates between a fast state
and one about 1.6x slower, for seconds to minutes at a time, so the
harness normalises stage times to the host's speed (see meter.py) and
takes the median over many short passes (about nine in a 55 s run). `protocol`
stops at K=7 because from K=8 on the exact solver's node count doubles
between pipeline seeds (35k to 62k nodes at K=8 over three seeds).

Only the `listed` workloads are in BENCHMARK.json. `scale` is kept for
runs by hand: its 240 explainers alone take about 6 s per pass, too few
passes for a steady median within the run length the benchmark can
afford, and its exact K=8 cell (617k nodes, about 40 s) was already left
out.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # synth_multiclass arguments: n, m_cont, m_bin, classes, relevant
    synth: dict
    # every config section except seed, dataset and output_dir
    config: dict
    dataset_seed: int = 2026
    default_seed: int = 2026
    listed: bool = True  # False: run by hand or by the self-test, not in BENCHMARK.json


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="protocol",
            why="criterion-8 protocol sweep (60 points, K=1..7, three floors, both solvers): explain and exact B&B both weigh",
            synth={"n": 60, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]},
            config={
                "blackbox": {"n_trees": 25},
                "sampler": {"N": 600, "radii": [1.2]},
                "filter": {"variant": "filtered"},
                "aggregate": {"budgets": list(range(1, 8)), "floors": [0.5, 0.7, 0.9], "solver": "both"},
            },
        ),
        Workload(
            name="scale",
            why="240 points: O(n^2) pool build, exact B&B at n=240, and 240 small explain calls where per-call overhead shows",
            synth={"n": 240, "m_cont": 4, "m_bin": 2, "classes": 5, "relevant": [0, 1, 4]},
            config={
                "blackbox": {"n_trees": 25},
                "sampler": {"N": 300, "radii": [1.2]},
                "filter": {"variant": "filtered"},
                "aggregate": {"budgets": [4, 6], "floors": [0.9], "solver": "both"},
            },
            listed=False,
        ),
        Workload(
            name="wide",
            why="12 features, 50 trees, filtered and unfiltered fits, greedy only: explain modules do all the work, exact B&B never runs",
            synth={"n": 20, "m_cont": 6, "m_bin": 6, "classes": 5, "relevant": [0, 3, 6, 9]},
            config={
                "blackbox": {"n_trees": 50},
                "sampler": {"N": 400, "radii": [3.0]},
                "filter": {"variant": "both"},
                "aggregate": {"budgets": [1, 2, 3], "floors": [0.9], "solver": "greedy"},
            },
        ),
        Workload(
            name="tiny",
            why="criterion-10 determinism config; finishes in seconds, for the harness self-test",
            synth={"n": 20, "m_cont": 3, "m_bin": 2, "classes": 3, "relevant": [0, 3]},
            config={
                "blackbox": {"n_trees": 8},
                "sampler": {"N": 300, "radii": [1.5]},
                "filter": {"variant": "both"},
                "aggregate": {"budgets": [1, 2, 3], "floors": [0.5, 0.9], "solver": "both"},
            },
            dataset_seed=99,
            default_seed=99,
            listed=False,
        ),
    ]
}
