"""Span recorder that times aggrex's modules from outside the program.

`Tracer.installed()` swaps the public functions each module exposes for
wrappers that record a span (name, start, end, parent) around the call,
then restores the originals. The pipeline code itself is unchanged: the
benchmark runs the real CLI stage functions while the wrappers are in
place, so there is no second copy of the pipeline to keep in step.

A layer's self time is its span's duration minus the time its child spans
cover. Counters (rows labelled, points sampled, greedy evaluations) are
read from arguments and return values at the same boundaries; counts that
the output files already hold are read from them afterwards.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

from aggrex import aggregate, blackbox, cli, explainer, tree

# (owner, attribute, span name). Names are the per-layer metric prefixes.
WRAPPED = (
    (cli, "prepare_dataset", "data.prepare"),
    (cli, "train_local_explainer", "explainer"),
    (blackbox, "train_bagged_forest", "blackbox.train"),
    (blackbox, "load_model", "cli.load"),
    (blackbox.BlackBoxModel, "predict_batch", "blackbox.label"),
    (explainer, "sample_ball", "sampler.sample"),
    (explainer, "select_informative_features", "infofilter.select"),
    (explainer, "tree_fit", "tree.fit"),
    (tree.DecisionTree, "predict_batch", "tree.predict"),
    (aggregate, "build_pool", "aggregate.pool"),
    (aggregate, "build_ip", "aggregate.build_ip"),
    (aggregate, "solve_exact", "aggregate.exact"),
    (aggregate, "solve_greedy", "aggregate.greedy"),
    (aggregate, "verify_solution", "aggregate.verify"),
)

# The forest's vote loop calls DecisionTree.predict_batch once per tree;
# those calls are the labelling layer's own work, not a surrogate predict.
PASS_THROUGH_UNDER = {"tree.predict": "blackbox.label"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.pools: list = []

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        skip_under = PASS_THROUGH_UNDER.get(name)
        on_return = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if skip_under is not None and self._stack and self.spans[self._stack[-1]][0] == skip_under:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_return is not None:
                on_return(self, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
        try:
            for (owner, attr, name), (_, _, fn) in zip(WRAPPED, originals):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_self(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = {}
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_by_call(self, name: str) -> list[float]:
        return [own for (n, *_), own in zip(self.spans, self.self_times()) if n == name]

    def roots(self) -> list[tuple[str, float, float]]:
        """(name, duration, summed self time of the whole subtree) per root span."""
        own = self.self_times()
        root_of = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
        subtree = {i: 0.0 for i, r in enumerate(root_of) if r == i}
        for i, r in enumerate(root_of):
            subtree[r] += own[i]
        return [(self.spans[i][0], self.spans[i][2] - self.spans[i][1], total) for i, total in subtree.items()]


def _count_rows(tracer: Tracer, args, out) -> None:
    tracer._count("blackbox.label_rows", len(args[1]))


def _count_points(tracer: Tracer, args, out) -> None:
    tracer._count("sampler.points", out.points.shape[0])


def _count_greedy(tracer: Tracer, args, out) -> None:
    tracer._count("aggregate.greedy_evals", out.nodes_explored)


def _keep_pool(tracer: Tracer, args, out) -> None:
    tracer.pools.append(out)


_COUNTERS = {
    "blackbox.label": _count_rows,
    "sampler.sample": _count_points,
    "aggregate.greedy": _count_greedy,
    "aggregate.pool": _keep_pool,
}
