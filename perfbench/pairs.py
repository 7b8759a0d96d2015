"""Instances, timed solve pairs, output checks and their summaries.

Imported by run.py after it has fixed the BLAS thread count and put the
checkout's src/ first on sys.path.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from screenkhorn import (
    ComparisonOutcome,
    DiscreteMeasure,
    ScreenkhornError,
    SolverConfig,
    certify_outcome,
    decimation_to_budget,
    generate_gaussian_pair,
    gibbs_kernel,
    pairwise_euclidean,
    screenkhorn,
    sinkhorn,
)
from tracing import Tracer, median_of

PG_TOLERANCE = 1e-6
# relative agreement required between a returned screened marginal and its
# recomputation from the returned potentials: the same products summed in
# another order, so only rounding separates them
MARGINAL_RTOL = 1e-9
# the baseline stops below a combined l1 violation of 1e-9; recomputed in
# another summation order it may read a little higher, never 10x
BASELINE_VIOLATION_LIMIT = 1e-8
# building an instance takes as long as a pair or longer (65 ms at n = 1000,
# 1.3 s at n = 4000), so each instance is solved twice, once in each order
PAIRS_PER_INSTANCE = 2
# rows per chunk of the recomputation pass: about 16 MB of float64 per chunk
CHUNK_ENTRIES = 1 << 21

ANSWERS = ("row_violation", "col_violation", "rel_divergence")
# work counters read from the returned objects; means over the answer set
COUNTERS = (
    "core.sinkhorn.iterations",
    "solver.lbfgsb_iterations",
    "solver.evaluations",
    "solver.zero_iter_frac",
    "screening.active_frac",
    "screened.at_bound_frac",
)


@dataclass
class Pair:
    instance: int
    screen_first: bool
    screen_ms: float | None = None
    sinkhorn_ms: float | None = None
    failures: list[str] = field(default_factory=list)
    answer: dict = field(default_factory=dict)


def instance_seed(seed: int, k: int) -> int:
    """Seed of instance k of a run; instance 0 is the warm-up instance."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0])


def plan_stats(C: np.ndarray, eta: float, potentials):
    """(<C, P>, row sums, column sums) of P = diag(e^u) exp(-C/eta) diag(e^v)
    for each (u, v), in one chunked pass over C."""
    n, m = C.shape
    scalings = [(np.exp(u), np.exp(v)) for u, v in potentials]
    costs = [0.0] * len(scalings)
    rows = [np.empty(n) for _ in scalings]
    cols = [np.zeros(m) for _ in scalings]
    step = max(1, CHUNK_ENTRIES // m)
    for lo in range(0, n, step):
        c = C[lo : lo + step]
        k = np.exp(-c / eta)
        ck = c * k
        for j, (a, b) in enumerate(scalings):
            a_c = a[lo : lo + step]
            rows[j][lo : lo + step] = a_c * (k @ b)
            cols[j] += a_c @ k
            costs[j] += float(a_c @ (ck @ b))
    return [(costs[j], rows[j], cols[j] * b) for j, (_, b) in enumerate(scalings)]


def percentile(values, q: float) -> float | None:
    return float(np.percentile(values, q)) if values else None


def _reason(label: str, exc: ScreenkhornError) -> str:
    # the screened pipeline prefixes its errors with the stage they came from
    stage = str(exc).split(":", 1)[0] if label == "screenkhorn" else ""
    return f"{label} raised {type(exc).__name__}" + (f" in {stage}" if stage else "")


class Bench:
    def __init__(self, workload, seed: int, trace: bool):
        self.wl = workload
        self.seed = seed
        n = workload.n
        self.mu = DiscreteMeasure(np.full(n, 1.0 / n))
        self.nu = DiscreteMeasure(np.full(n, 1.0 / n))
        self.n_b, self.m_b = decimation_to_budget(n, n, workload.budget)
        self.config = SolverConfig(pg_tolerance=PG_TOLERANCE)
        self.tracer = Tracer() if trace else None
        self.pairs: list[Pair] = []
        self.problems: list[str] = []  # outputs that fail the checks
        self.instances = 0
        self.untraced_screen_ms: list[float] = []
        self.kernel_mb: float | None = None

    # -- building blocks --------------------------------------------------

    def _span(self, name: str, traced: bool):
        return self.tracer.span(name) if traced else nullcontext()

    def _instance(self, k: int, traced: bool):
        with self._span("bench.generate_gaussian_pair", traced):
            x, y = generate_gaussian_pair(self.wl.n, self.wl.n, instance_seed(self.seed, k))
        with self._span("bench.pairwise_euclidean", traced):
            return pairwise_euclidean(x, y, normalize=True)

    def _screen(self, C, traced: bool):
        """(result or the error raised, ms or None)."""
        with self.tracer.installed() if traced else nullcontext():
            t0 = perf_counter()
            try:
                with self._span("algorithm.screenkhorn", traced):
                    res = screenkhorn(
                        C, self.wl.eta, self.mu, self.nu, self.n_b, self.m_b,
                        self.config, materialize_plan=False,
                    )
            except ScreenkhornError as exc:
                return exc, None
            return res, (perf_counter() - t0) * 1e3

    def _baseline(self, C, traced: bool):
        t0 = perf_counter()
        try:
            with self._span("core.gibbs_kernel", traced):
                K = gibbs_kernel(C, self.wl.eta)
            with self._span("core.sinkhorn", traced):
                sol = sinkhorn(self.mu, self.nu, K)
        except ScreenkhornError as exc:
            return exc, None
        return sol, (perf_counter() - t0) * 1e3

    # -- set-up and the timed loop ----------------------------------------

    def setup(self, repeats: int) -> float:
        """Median seconds to build the warm-up instance and run one discarded
        pair on it. In a traced run, also measures the kernel's allocations."""
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            C = self._instance(0, traced=False)
            self._screen(C, traced=False)
            self._baseline(C, traced=False)
            times.append(perf_counter() - t0)
        if self.tracer is not None:
            tracemalloc.start()
            try:
                gibbs_kernel(C, self.wl.eta)
                self.kernel_mb = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
        return statistics.median(times)

    def run(self, seconds: float) -> None:
        """Solve instances 1, 2, ... until `seconds` have passed and the
        answer set is complete."""
        traced = self.tracer is not None
        t_end = perf_counter() + seconds
        k = 0
        while k < self.wl.answer_instances or perf_counter() < t_end:
            k += 1
            C = self._instance(k, traced)
            for _ in range(PAIRS_PER_INSTANCE):
                self._pair(C, k, traced)
            del C  # free it before the next instance is built
        self.instances = k

    def _pair(self, C, k: int, traced: bool) -> None:
        index = len(self.pairs)
        pair = Pair(instance=k, screen_first=index % 2 == 0)
        steps = ["screen", "baseline"] if pair.screen_first else ["baseline", "screen"]
        if traced:
            # the screened solve once more, untraced, for the overhead
            # estimate; before the traced one on every other pair
            steps.insert(steps.index("screen") + index // 2 % 2, "untraced")
        for step in steps:
            if step == "screen":
                if traced:
                    self.tracer.solve = 2 * index
                res, pair.screen_ms = self._screen(C, traced)
            elif step == "baseline":
                if traced:
                    self.tracer.solve = 2 * index + 1
                sol, pair.sinkhorn_ms = self._baseline(C, traced)
            else:
                ms = self._screen(C, traced=False)[1]
                if ms is not None:
                    self.untraced_screen_ms.append(ms)
        if traced:
            self.tracer.solve = -1

        for label, got in (("screenkhorn", res), ("sinkhorn", sol)):
            if isinstance(got, ScreenkhornError):
                pair.failures.append(_reason(label, got))
        if not pair.failures:
            pair.answer = self._check(C, res, sol, pair, traced)
            earlier = next((p for p in self.pairs if p.instance == k and p.answer), None)
            if earlier is not None and earlier.answer != pair.answer:
                self.problems.append(
                    f"instance {k}: a repeated pair changed the answer "
                    f"{earlier.answer} -> {pair.answer}"
                )
        self.pairs.append(pair)

    def _check(self, C, res, sol, pair: Pair, traced: bool) -> dict:
        """Recompute both answers from the returned potentials, run the
        certificates, and return the pair's answer and counters."""
        mu, nu = self.mu.weights, self.nu.weights
        (cost_b, row_b, col_b), (cost_s, row_s, col_s) = plan_stats(
            C.entries, self.wl.eta,
            [(sol.potentials.u, sol.potentials.v), (res.potentials.u, res.potentials.v)],
        )
        where = f"instance {pair.instance}"
        if sol.converged:
            viol = float(np.abs(row_b - mu).sum() + np.abs(col_b - nu).sum())
            if not viol < BASELINE_VIOLATION_LIMIT:
                self.problems.append(
                    f"{where}: baseline reports convergence, recomputed violation {viol}"
                )
        for side, got, want in (("row", res.row_marginal, row_s), ("col", res.col_marginal, col_s)):
            if not np.allclose(got, want, rtol=MARGINAL_RTOL, atol=0.0):
                gap = float(np.max(np.abs(got - want) / np.abs(want)))
                self.problems.append(
                    f"{where}: screened {side} marginal is {gap:.3g} off its recomputation"
                )

        report = res.solver_report
        if not report.converged:
            pair.failures.append("screenkhorn not converged")
        if not sol.converged:
            pair.failures.append("sinkhorn not converged")
        row_violation = float(np.abs(res.row_marginal - mu).sum())
        col_violation = float(np.abs(res.col_marginal - nu).sum())
        rel_divergence = abs(cost_b - cost_s) / cost_b
        if report.converged and sol.converged:
            outcome = ComparisonOutcome(
                time_sinkhorn=pair.sinkhorn_ms / 1e3,
                time_screenkhorn=pair.screen_ms / 1e3,
                row_violation=row_violation,
                col_violation=col_violation,
                rel_divergence=rel_divergence,
                baseline=sol,
                screened=res,
            )
            with self._span("diagnostics.certify_outcome", traced):
                certificates = certify_outcome(outcome, self.mu, self.nu)
            pair.failures += [f"certificate {c.name}" for c in certificates if not c.satisfied]

        sr = res.screening
        lower, upper = res.bounds.stacked(sr.n_active, sr.m_active)
        at_bound = np.count_nonzero((report.solution <= lower) | (report.solution >= upper))
        return {
            "row_violation": row_violation,
            "col_violation": col_violation,
            "rel_divergence": rel_divergence,
            "core.sinkhorn.iterations": sol.iterations,
            "solver.lbfgsb_iterations": report.iterations,
            "solver.evaluations": report.evaluations,
            "solver.zero_iter_frac": float(report.iterations == 0),
            "screening.active_frac": (sr.n_active + sr.m_active) / (2 * self.wl.n),
            "screened.at_bound_frac": at_bound / report.solution.size,
        }

    # -- summaries ----------------------------------------------------------

    def answer_pairs(self) -> list[tuple[int, Pair]]:
        """(index, pair) of the first pair on each answer-set instance."""
        seen: set[int] = set()
        out = []
        for index, pair in enumerate(self.pairs):
            if pair.instance <= self.wl.answer_instances and pair.instance not in seen:
                seen.add(pair.instance)
                out.append((index, pair))
        return out

    def summary(self) -> dict:
        answered = [p.answer for _, p in self.answer_pairs() if p.answer]
        answer = {}
        if answered:
            answer.update({k: statistics.median(a[k] for a in answered) for k in ANSWERS})
            answer.update({k: statistics.fmean(a[k] for a in answered) for k in COUNTERS})
        return {
            "answer": answer,
            "failure_counts": dict(Counter(r for p in self.pairs for r in p.failures)),
            "screen_ms": [p.screen_ms for p in self.pairs if p.screen_ms is not None],
            "sinkhorn_ms": [p.sinkhorn_ms for p in self.pairs if p.sinkhorn_ms is not None],
        }

    def end_to_end_metrics(self, s: dict) -> dict:
        metrics = {
            "screen_ms_p50": percentile(s["screen_ms"], 50),
            "screen_ms_p90": percentile(s["screen_ms"], 90),
            "sinkhorn_ms_p50": percentile(s["sinkhorn_ms"], 50),
            "sinkhorn_ms_p90": percentile(s["sinkhorn_ms"], 90),
        }
        metrics.update({k: s["answer"].get(k) for k in ANSWERS})
        return metrics

    def layer_metrics(self, s: dict) -> dict:
        t = self.tracer
        timed = {2 * i for i, p in enumerate(self.pairs) if p.screen_ms is not None}
        counted = {2 * i for i, p in self.answer_pairs() if p.screen_ms is not None}
        per = t.per_solve(timed)

        def ms(name: str) -> float | None:
            return median_of(sum(per[sid][name]) for sid in timed)

        def calls(name: str) -> float | None:
            counts = [len(per[sid][name]) for sid in counted]
            return statistics.fmean(counts) if counts else None

        traced_p50 = percentile(s["screen_ms"], 50)
        untraced_p50 = percentile(self.untraced_screen_ms, 50)
        metrics = {
            "core.gibbs_kernel.ms": median_of(t.durations("core.gibbs_kernel")),
            "core.gibbs_kernel.mb_computed": self.kernel_mb,
            "core.sinkhorn.ms": median_of(t.durations("core.sinkhorn")),
            "screening.ratio_vectors.calls": calls("screening.ratio_vectors"),
            "screening.ratio_vectors.ms": ms("screening.ratio_vectors"),
            "screening.active_sets.ms": ms("screening.active_sets"),
            "screened.build_problem.ms": ms("screened.build_problem"),
            "screened.objective.calls": calls("screened.objective"),
            "screened.objective.ms": ms("screened.objective"),
            "screened.gradient.calls": calls("screened.gradient"),
            "screened.gradient.ms": ms("screened.gradient"),
            "solver.minimize.ms": ms("solver.minimize"),
            "solver.minimize.self_ms": ms("solver.minimize.self"),
            "solver.restricted_sinkhorn.ms": ms("solver.restricted_sinkhorn"),
            "algorithm.screenkhorn.self_ms": ms("algorithm.screenkhorn.self"),
            "bench.pairwise_euclidean.ms": median_of(t.durations("bench.pairwise_euclidean")),
            "bench.generate_gaussian_pair.ms": median_of(
                t.durations("bench.generate_gaussian_pair")
            ),
            "diagnostics.certify_outcome.ms": median_of(
                t.durations("diagnostics.certify_outcome")
            ),
            "trace.overhead_pct": (
                (traced_p50 / untraced_p50 - 1.0) * 100.0
                if traced_p50 and untraced_p50
                else None
            ),
        }
        metrics.update({k: s["answer"].get(k) for k in COUNTERS})
        return metrics
