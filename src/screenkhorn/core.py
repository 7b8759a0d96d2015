"""Measures, cost matrices, the Gibbs kernel, transport plans, and the plain
Sinkhorn solver used as the comparison baseline.

Everything here works in the scaling (exponential) domain without
log-stabilization. Regimes that overflow raise NumericRangeError instead of
propagating infinities; that is deliberate, the baseline should fail loudly
rather than return garbage timings.

The library's elementwise passes over n x m arrays (the kernel, the checks
of C and K, the compact layout's marginals and gather, the full layout's
argmin, the instance build) walk them by row chunks of about 512 KB, which
stay in one core's L2 while a chunk is written, checked and reduced.
_chunk_pass spreads the chunks over one thread per usable CPU, as far as
each thread gets at least _CHUNKS_PER_THREAD of them; a smaller pass runs on
the calling thread alone. The calling thread takes chunks from the front and
folds their partial results (column sums, minima) as it goes; worker threads
take chunks from the back and keep one partial per chunk, which the caller
folds afterwards in chunk order. So every output is bitwise the one a single
thread gives, whatever the number of threads or the point where the two ends
meet, and a process pinned to one CPU runs the same steps with no worker.
The BLAS products of sinkhorn and the screened solve, and divergence, stay
on the calling thread.
"""

from __future__ import annotations

import atexit
import os
import queue
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import InputError, NumericRangeError, ParameterError, ShapeError


# entries per chunk of an n x m pass: 2**16 float64 entries (512 KB) stay in
# each core's L2 while every reduction over the chunk runs, also with every
# core running a chunk of its own
_CHUNK_ENTRIES = 1 << 16


# chunks a pass must have per thread it runs on. A worker that the OS runs
# late, because another process holds its CPU, costs the caller up to a
# scheduler slice of a few ms; 32 chunks (16 MB, about 8 ms of the kernel's
# exp on one core) make that a small share of the worker's part. A
# 1000 x 1000 pass (16 chunks) runs inline: on two CPUs shared with a
# competing process, its threaded run took 2 to 4 ms (p50 to p90) where the
# inline one took 3.5 to 4, and the screened solve's p90 rose by half while
# the inline solve's held
_CHUNKS_PER_THREAD = 32


def _row_chunks(n: int, m: int):
    """Slices of consecutive rows that cover range(n), with about
    _CHUNK_ENTRIES entries each and never less than one row."""
    step = max(1, _CHUNK_ENTRIES // max(m, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _serve(inbox: queue.SimpleQueue) -> None:
    while (job := inbox.get()) is not None:
        job()
        # a finished pass holds its arrays; the idle worker must not keep
        # them alive until its next job
        del job


class _ChunkWorkers:
    """Daemon threads that help with row-chunk passes, each fed by its own
    queue; the thread that calls _chunk_pass is one more worker."""

    def __init__(self, threads: int):
        self.inboxes = [queue.SimpleQueue() for _ in range(threads)]
        self.threads = [
            threading.Thread(
                target=_serve, args=(box,), name=f"screenkhorn-chunks-{i}", daemon=True
            )
            for i, box in enumerate(self.inboxes)
        ]
        for thread in self.threads:
            thread.start()

    @property
    def count(self) -> int:
        """Threads a pass runs on, the calling one included."""
        return len(self.threads) + 1

    def stop(self) -> None:
        for box in self.inboxes:
            box.put(None)
        for thread in self.threads:
            thread.join()


# started on first use, one thread per usable CPU after the first. A child
# made by fork inherits this object but none of its threads, so the child
# drops it and starts its own; the interpreter stops the threads at exit
_workers: _ChunkWorkers | None = None
_workers_lock = threading.Lock()


def _chunk_workers() -> _ChunkWorkers:
    global _workers
    with _workers_lock:
        if _workers is None:
            _workers = _ChunkWorkers(_usable_cpus() - 1)
        return _workers


def _forget_workers() -> None:
    global _workers, _workers_lock
    _workers = None
    _workers_lock = threading.Lock()


def _stop_workers() -> None:
    global _workers
    with _workers_lock:
        if _workers is not None:
            _workers.stop()
            _workers = None


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class _Pass:
    """One _chunk_pass. The calling thread claims chunks from the front and
    the workers claim them from the back, so the chunks split into a prefix,
    whose results the caller folds as it goes, and a suffix, whose results
    wait in `results` until the caller folds them in chunk order. Where the
    split falls only moves work between threads: a worker that wakes late
    leaves the caller more chunks, and one that wakes after every chunk is
    claimed does nothing and is not waited for."""

    def __init__(self, chunks: list[slice], step: Callable[[slice], object]):
        self.chunks = chunks
        self.step = step
        self.errstate = np.geterr()
        self.lock = threading.Lock()
        self.front = 0
        self.back = len(chunks)
        self.helpers = 0  # workers that claimed a chunk, each of which puts on done
        self.results = [None] * len(chunks)
        self.errors = {}  # chunk index -> the exception that stopped a worker there
        self.done = queue.SimpleQueue()

    def _claim_back(self, joining: bool) -> int | None:
        with self.lock:
            if self.front == self.back:
                return None
            self.back -= 1
            self.helpers += joining
            return self.back

    def help(self) -> None:
        """A worker's job: run chunks from the back, under the caller's numpy
        error state, until none is left or one raises."""
        i = self._claim_back(joining=True)
        if i is None:
            return
        try:
            with np.errstate(**self.errstate):
                while i is not None:
                    self.results[i] = self.step(self.chunks[i])
                    i = self._claim_back(joining=False)
        except BaseException as exc:  # re-raised by run() on the caller
            self.errors[i] = exc
        self.done.put(None)

    def run(self, fold: Callable | None) -> None:
        """The caller's part: run chunks from the front, then fold the
        workers' results. The pass then drops its step and results, which
        hold its arrays: a worker whose job is still queued claims nothing,
        but keeps this object until it wakes."""
        try:
            self._run_front(fold)
            for i in range(self.front, len(self.chunks)):
                if i in self.errors:
                    raise self.errors[i]
                if fold is not None:
                    fold(self.results[i])
        finally:
            self.step = self.results = self.errors = None

    def _run_front(self, fold: Callable | None) -> None:
        try:
            while True:
                with self.lock:
                    if self.front == self.back:
                        break
                    i = self.front
                    self.front += 1
                result = self.step(self.chunks[i])
                if fold is not None:
                    fold(result)
        except BaseException:
            # no chunk after this one counts: stop the claims, let the
            # workers that joined finish, then raise
            with self.lock:
                self.back = self.front
            self._join()
            raise
        self._join()

    def _join(self) -> None:
        # no chunk is left to claim, so no worker joins after this read
        with self.lock:
            helpers = self.helpers
        for _ in range(helpers):
            self.done.get()


def _chunk_pass(
    n: int, m: int, step: Callable[[slice], object], fold: Callable | None = None
) -> None:
    """Call step(rows) on every chunk of _row_chunks(n, m), spread over the
    workers that get _CHUNKS_PER_THREAD chunks each, and fold(result) on
    each chunk's result in chunk order on the calling thread.

    An exception in a step stops the thread that ran it. Once every thread
    has stopped, the exception of the earliest chunk is raised: every chunk
    before it has run, so it is the one a single thread would have met.
    """
    chunks = list(_row_chunks(n, m))
    one_pass = _Pass(chunks, step)
    helpers = len(chunks) // _CHUNKS_PER_THREAD - 1
    for inbox in _chunk_workers().inboxes[: max(helpers, 0)]:
        inbox.put(one_pass.help)
    one_pass.run(fold)


def _as_array(x, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} must be nonempty")
    return arr


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Strictly positive weights on a finite support, normalized to mass 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_array(self.weights, "weights", 1)
        with np.errstate(over="ignore", invalid="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(w))
            raise InputError(
                f"weight[{bad[0]}] is not finite" if bad.size else f"weights sum to {total}"
            )
        if np.any(w <= 0.0):
            bad = int(np.flatnonzero(w <= 0.0)[0])
            raise InputError(
                f"weights must be strictly positive, weight[{bad}] = {w[bad]}"
            )
        w = w / total
        if np.any(w == 0.0):
            bad = int(np.flatnonzero(w == 0.0)[0])
            raise InputError(f"weight[{bad}] underflows to zero once normalized")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Nonnegative finite cost per source/target pair.

    The entries are checked, and their maximum `max_norm` taken, once at
    construction. Like the sign and finiteness checks, the stored maximum
    trusts the entries after that: writing into `entries` later is not
    supported.
    """

    entries: np.ndarray
    max_norm: float = field(init=False)

    def __post_init__(self):
        c = _as_array(self.entries, "cost entries", 2)
        # one sweep of range tests, which also reject nan (it fails both
        # comparisons); the bad entry is located only once one fails, over the
        # whole array, so a non-finite entry is named before a negative one
        in_range = True
        max_norm = -np.inf

        def step(rows):
            chunk = c[rows]
            return chunk.min(), chunk.max()

        def fold(extremes):
            nonlocal in_range, max_norm
            lo, hi = extremes
            in_range = in_range and lo >= 0.0 and hi < np.inf
            max_norm = max(max_norm, float(hi))

        _chunk_pass(*c.shape, step, fold)
        if not in_range:
            if not np.all(np.isfinite(c)):
                i, j = map(int, np.argwhere(~np.isfinite(c))[0])
                raise InputError(f"cost entry ({i}, {j}) is not finite")
            i, j = map(int, np.argwhere(c < 0.0)[0])
            raise InputError(f"cost entry ({i}, {j}) = {c[i, j]} is negative")
        object.__setattr__(self, "entries", c)
        object.__setattr__(self, "max_norm", max_norm)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _kernel_pass(n: int, m: int, step: Callable[[slice], np.ndarray]) -> tuple:
    """(row_sums, col_sums) of the kernel whose chunk step(rows) writes or
    checks and returns, in one _chunk_pass."""
    row_sums = np.empty(n)
    col_sums = np.zeros(m)

    def sums(rows):
        chunk = step(rows)
        chunk.sum(axis=1, out=row_sums[rows])
        return chunk.sum(axis=0)

    _chunk_pass(n, m, sums, partial(np.add, col_sums, out=col_sums))
    return row_sums, col_sums


@dataclass(frozen=True, eq=False)
class GibbsKernel:
    """exp(-C/eta) with cached row and column sums."""

    entries: np.ndarray
    eta: float
    row_sums: np.ndarray = field(init=False)
    col_sums: np.ndarray = field(init=False)

    def __post_init__(self):
        k = _as_array(self.entries, "kernel entries", 2)
        eta = float(self.eta)
        if not np.isfinite(eta) or eta <= 0.0:
            raise ParameterError(f"eta must be positive and finite, got {eta}")

        # one sweep: each chunk is range checked and summed while it sits in
        # cache, so K is read from memory once
        def checked(rows):
            chunk = k[rows]
            # the fused range test also rejects nan, which fails both comparisons
            if not (chunk.min() > 0.0 and chunk.max() <= 1.0):
                bad = ~((chunk > 0.0) & (chunk <= 1.0))
                i, j = map(int, np.argwhere(bad)[0])
                i += rows.start
                raise InputError(
                    f"kernel entry ({i}, {j}) = {k[i, j]} is outside (0, 1]"
                )
            return chunk

        self._store(k, eta, *_kernel_pass(*k.shape, checked))

    def _store(self, entries, eta, row_sums, col_sums) -> None:
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "row_sums", row_sums)
        object.__setattr__(self, "col_sums", col_sums)

    @classmethod
    def _checked(
        cls, entries: np.ndarray, eta: float, row_sums: np.ndarray, col_sums: np.ndarray
    ) -> GibbsKernel:
        """A kernel whose entries and eta the caller has already checked and
        whose sums it has taken, built without sweeping the entries again."""
        kernel = object.__new__(cls)
        kernel._store(entries, eta, row_sums, col_sums)
        return kernel

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True, eq=False)
class DualPotentials:
    """Log-domain dual variables (u, v)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _as_array(self.u, "u", 1)
        v = _as_array(self.v, "v", 1)
        for name, vec in (("u", u), ("v", v)):
            if not np.all(np.isfinite(vec)):
                bad = int(np.flatnonzero(~np.isfinite(vec))[0])
                raise InputError(f"potential {name}[{bad}] is not finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A coupling matrix together with its marginals."""

    entries: np.ndarray
    row_marginal: np.ndarray = field(init=False)
    col_marginal: np.ndarray = field(init=False)

    def __post_init__(self):
        p = _as_array(self.entries, "plan entries", 2)
        if not np.all(np.isfinite(p)):
            i, j = map(int, np.argwhere(~np.isfinite(p))[0])
            raise InputError(f"plan entry ({i}, {j}) is not finite")
        if np.any(p <= 0.0):
            i, j = map(int, np.argwhere(p <= 0.0)[0])
            raise InputError(f"plan entry ({i}, {j}) = {p[i, j]} is not positive")
        object.__setattr__(self, "entries", p)
        object.__setattr__(self, "row_marginal", p.sum(axis=1))
        object.__setattr__(self, "col_marginal", p.sum(axis=0))


@dataclass(frozen=True, eq=False)
class DualSolution:
    """Output of the baseline solver: potentials plus run metadata."""

    potentials: DualPotentials
    iterations: int
    marginal_violation: float
    converged: bool


# -log of the smallest normal double: exp(x) is positive for every x above
# minus this, so no kernel entry can underflow to zero while
# C.max_norm / eta stays below it
_EXP_UNDERFLOW = float(-np.log(np.finfo(np.float64).tiny))


def gibbs_kernel(C: CostMatrix, eta: float) -> GibbsKernel:
    """K = exp(-C/eta), entrywise."""
    eta = float(eta)
    if not np.isfinite(eta) or eta <= 0.0:
        raise ParameterError(f"eta must be positive and finite, got {eta}")
    c = C.entries
    k = np.empty(c.shape)
    # exp of a finite nonpositive number lies in [0, 1], so of the kernel's
    # range checks only the zero test can fail, and only past the guard
    may_underflow = C.max_norm / eta >= _EXP_UNDERFLOW

    # one sweep: c / -eta is -c / eta bit for bit, each chunk is written in
    # place (no n x m temporary) and checked and summed while it sits in cache
    def written(rows):
        chunk = k[rows]
        np.divide(c[rows], -eta, out=chunk)
        np.exp(chunk, out=chunk)
        if may_underflow and not chunk.min() > 0.0:
            i, j = map(int, np.argwhere(chunk == 0.0)[0])
            i += rows.start
            raise NumericRangeError(
                f"kernel entry ({i}, {j}) underflowed to zero: cost {c[i, j]} "
                f"is too large for eta = {eta}"
            )
        return chunk

    return GibbsKernel._checked(k, eta, *_kernel_pass(*c.shape, written))


def _check_sizes(
    mu: DiscreteMeasure, nu: DiscreteMeasure, K: GibbsKernel
) -> tuple[int, int]:
    """The kernel shape (n, m), after checking that mu has n and nu has m points."""
    n, m = K.shape
    if mu.size != n or nu.size != m:
        raise ShapeError(
            f"measure sizes ({mu.size}, {nu.size}) do not match kernel ({n}, {m})"
        )
    return n, m


def _marginals(
    K: GibbsKernel, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of diag(a) K diag(b), that is a * (K b) and
    b * (K^T a), from one pass over K."""
    km = K.entries
    n, m = km.shape
    kb = np.empty(n)
    kta = np.zeros(m)

    # np.dot calls the same BLAS gemv as @, bit for bit, and lets another
    # thread run during it; chunk @ b did not (numpy 2.4: a 1000 x 1000 pass
    # of it took 0.59 ms on two threads against 0.45 ms on one)
    def products(rows):
        chunk = km[rows]
        np.dot(chunk, b, out=kb[rows])
        return np.dot(a[rows], chunk)

    _chunk_pass(n, m, products, partial(np.add, kta, out=kta))
    return a * kb, b * kta


def _scalings(pot: DualPotentials, K: GibbsKernel) -> tuple[np.ndarray, np.ndarray]:
    """e^u and e^v, after checking their lengths against K. An entry that
    overflows comes back inf; each caller checks its own result."""
    n, m = K.shape
    if pot.u.shape[0] != n or pot.v.shape[0] != m:
        raise ShapeError(
            f"potentials of lengths ({pot.u.shape[0]}, {pot.v.shape[0]}) do not "
            f"match kernel shape ({n}, {m})"
        )
    with np.errstate(over="ignore"):
        return np.exp(pot.u), np.exp(pot.v)


def plan_from_potentials(pot: DualPotentials, K: GibbsKernel) -> TransportPlan:
    """P_ij = e^{u_i} K_ij e^{v_j}, formed in place in one n x m array."""
    a, b = _scalings(pot, K)
    # an overflowing scaling leaves inf, or nan against an underflowed one
    with np.errstate(over="ignore", invalid="ignore"):
        p = a[:, None] * K.entries
        p *= b
    # TransportPlan's entry checks are the only scans of p; an entry they
    # refuse is a numeric range failure of these potentials, not bad input
    try:
        return TransportPlan(p)
    except InputError as exc:
        raise NumericRangeError(str(exc)) from exc


def divergence(pot: DualPotentials, K: GibbsKernel, C: CostMatrix) -> float:
    """<C, P> for P = diag(e^u) K diag(e^v), by row chunks, without forming P."""
    if C.shape != K.shape:
        raise ShapeError(f"cost shape {C.shape} does not match kernel shape {K.shape}")
    a, b = _scalings(pot, K)
    cost = 0.0
    # on the calling thread alone: each chunk takes a chunk-sized product,
    # and one per worker at once would double the pass's working memory; no
    # timed path computes a cost
    # an overflowing e^u or e^v makes the sum inf or nan, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_chunks(*K.shape):
            cost += a[rows] @ ((C.entries[rows] * K.entries[rows]) @ b)
    if not np.isfinite(cost):
        raise NumericRangeError("plan cost overflows")
    return float(cost)


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    stop_threshold: float = 1e-9,
    max_iter: int = 1000,
) -> DualSolution:
    """Alternating scaling iterations a = mu/(K b), b = nu/(K^T a).

    Stops once the combined l1 violation of both marginals drops below
    stop_threshold. Hitting max_iter is not an error: the solution comes back
    with converged=False and whatever violation was last measured.
    """
    if not (stop_threshold > 0.0):
        raise ParameterError(f"stop_threshold must be positive, got {stop_threshold}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    _, m = _check_sizes(mu, nu, K)

    km = K.entries
    w_mu = mu.weights
    w_nu = nu.weights
    b = np.ones(m)
    kb = km @ b
    converged = False
    violation = np.inf
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            a = w_mu / kb
            kta = km.T @ a
            b = w_nu / kta
            kb = km @ b
            # after the b update the column marginal is exact up to roundoff,
            # so only the row marginal needs a fresh kernel product
            violation = float(
                np.abs(a * kb - w_mu).sum() + np.abs(b * kta - w_nu).sum()
            )
            if not np.isfinite(violation):
                raise NumericRangeError(
                    f"scaling iteration {it} overflowed; eta = {K.eta} is too small "
                    "for this cost matrix"
                )
            if violation < stop_threshold:
                converged = True
                break

    with np.errstate(divide="ignore"):
        u = np.log(a)
        v = np.log(b)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NumericRangeError("scaling vector collapsed to zero, potentials diverge")
    return DualSolution(DualPotentials(u, v), it, violation, converged)
