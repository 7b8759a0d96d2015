"""Outside-in spans around the library's pipeline stages.

The screened pipeline looks its stages up by name at call time: the
screenkhorn() body in screenkhorn.algorithm, and active_sets() in
screenkhorn.screening, which calls ratio_vectors() a second time. Replacing
those module attributes with timing wrappers records one span per stage call
without editing a library file. Call sites the benchmark owns (the baseline
solve, instance generation, certificates) are wrapped with Tracer.span.

A span is [name, start, end, parent index, solve id]. Spans stay in memory
until the run ends; then they are summarized and written to the run record.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import screenkhorn.algorithm
import screenkhorn.screening

# (module, attribute): the call-time lookups on the screened solve path
TARGETS = (
    (screenkhorn.algorithm, "gibbs_kernel"),
    (screenkhorn.algorithm, "ratio_vectors"),
    (screenkhorn.algorithm, "active_sets"),
    (screenkhorn.algorithm, "build_problem"),
    (screenkhorn.algorithm, "restricted_sinkhorn"),
    (screenkhorn.algorithm, "minimize"),
    (screenkhorn.algorithm, "objective"),
    (screenkhorn.algorithm, "gradient"),
    (screenkhorn.screening, "ratio_vectors"),
)


def layer_name(fn) -> str:
    """'core.gibbs_kernel' for screenkhorn.core.gibbs_kernel."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.solve = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.solve]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Route the pipeline's stage lookups through timing wrappers."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in TARGETS]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def per_solve(self, solves: set[int]) -> dict[int, dict[str, list[float]]]:
        """For each solve id in solves: span name -> durations in ms, plus
        '<name>.self' for spans with children (duration minus child spans)."""
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[int, dict[str, list[float]]] = {s: defaultdict(list) for s in solves}
        for idx, (name, start, end, _, solve) in enumerate(self.spans):
            if solve in out:
                ms = (end - start) * 1e3
                out[solve][name].append(ms)
                out[solve][name + ".self"].append(ms - child_ms[idx])
        return out

    def durations(self, name: str) -> list[float]:
        return [(e - s) * 1e3 for n, s, e, _, _ in self.spans if n == name]


def median_of(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None
