"""Measures, cost matrices, the Gibbs kernel, transport plans, and the plain
Sinkhorn solver used as the comparison baseline.

Everything here works in the scaling (exponential) domain without
log-stabilization. Regimes that overflow raise NumericRangeError instead of
propagating infinities; that is deliberate, the baseline should fail loudly
rather than return garbage timings.

The library's elementwise passes over n x m arrays (the kernel, the checks
of C and K, the compact layout's marginals and gather, the full layout's
argmin, divergence, the instance build) walk them by row chunks of about
512 KB, which stay in one core's L2 while a chunk is written, checked and
reduced. _chunk_pass spreads the chunks over one thread per usable CPU, as
far as each thread gets at least _CHUNKS_PER_THREAD of them; a smaller pass
runs on the calling thread alone. Worker threads start only when a pass
hands them chunks, and only as many as it hands them to; they then wait for
the next pass. The calling thread takes chunks from the front and folds
their partial results (column sums, minima) as it goes; worker threads take
chunks from the back and keep one partial per chunk, which the caller folds
afterwards in chunk order. So every output is bitwise the one a single
thread gives, whatever the number of threads or the point where the two ends
meet, and a process pinned to one CPU runs the same steps with no worker.
sinkhorn and the screened solve form every product with K or M, M b and
a M, in such passes too (_matvec, _vecmat): each chunk forms its rows of
M b, or its part of a M, with one BLAS gemv. Their chunks are 32 MB, large
enough for a multithreaded BLAS to spread each product over its own threads.
"""

from __future__ import annotations

import atexit
import operator
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


# entries per chunk of a product pass (_matvec, _vecmat): 2**22 (32 MB), so
# a 1000 x 1000 kernel is one chunk and a 4000 x 4000 one four. Each chunk's
# product is then a gemv call large enough for a multithreaded OpenBLAS to
# spread over its own threads, as it does the whole product (a gemv of
# 260,000 entries ran on one thread, one of 500,000 on two), while the pass
# over a large matrix still splits between the chunk workers when BLAS runs
# one thread. With 512 KB chunks every gemv ran on one thread, and under
# OpenBLAS's default threads sinkhorn took 1.5 to 1.8 times as long as with
# two whole products per iteration, at n = m = 1000 and 4000
_PRODUCT_CHUNK_ENTRIES = 1 << 22


def _row_chunks(n: int, m: int, entries: int | None = None):
    """Slices of consecutive rows that cover range(n), with about `entries`
    (by default _CHUNK_ENTRIES) entries each and never less than one row."""
    step = max(1, (_CHUNK_ENTRIES if entries is None else entries) // max(m, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _serve(jobs: queue.SimpleQueue) -> None:
    while (job := jobs.get()) is not None:
        job()
        # a finished pass holds its arrays; the idle worker must not keep
        # them alive until its next job
        del job


# the worker threads, daemons all fed by one queue of jobs. A child made by
# fork inherits these but none of the threads, so the child drops them and
# starts its own; the interpreter stops the threads at exit
_jobs = queue.SimpleQueue()
_threads: list[threading.Thread] = []
_threads_lock = threading.Lock()


def _start_workers(count: int) -> None:
    with _threads_lock:
        while len(_threads) < count:
            name = f"screenkhorn-chunks-{len(_threads)}"
            thread = threading.Thread(target=_serve, args=(_jobs,), name=name, daemon=True)
            thread.start()
            _threads.append(thread)


def _forget_workers() -> None:
    global _jobs, _threads, _threads_lock
    _jobs = queue.SimpleQueue()
    _threads = []
    _threads_lock = threading.Lock()


def _stop_workers() -> None:
    with _threads_lock:
        for _ in _threads:
            _jobs.put(None)
        for thread in _threads:
            thread.join()
        _threads.clear()


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


class _Pass:
    """One _chunk_pass. The calling thread claims chunks from the front and
    the workers claim them from the back, so the chunks split into a prefix,
    whose results the caller folds as it goes, and a suffix, whose results
    wait in `results` until the caller folds them in chunk order. Where the
    split falls only moves work between threads: a worker that wakes late,
    because it was just started or is still busy with an earlier pass,
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
    n: int,
    m: int,
    step: Callable[[slice], object],
    fold: Callable | None = None,
    entries: int | None = None,
) -> None:
    """Call step(rows) on every chunk of _row_chunks(n, m, entries), spread
    over as many threads, the calling one included and at most one per
    usable CPU and one per chunk, as get the entries of _CHUNKS_PER_THREAD
    chunks of _CHUNK_ENTRIES each, and fold(result) on each chunk's result
    in chunk order on the calling thread.

    An exception in a step stops the thread that ran it. Once every thread
    has stopped, the exception of the earliest chunk is raised: every chunk
    before it has run, so it is the one a single thread would have met.
    """
    entries = _CHUNK_ENTRIES if entries is None else entries
    chunks = list(_row_chunks(n, m, entries))
    shares = len(chunks) * entries // (_CHUNKS_PER_THREAD * _CHUNK_ENTRIES)
    helpers = min(shares, len(chunks), _usable_cpus()) - 1 if shares > 1 else 0
    if helpers <= 0:
        # the same steps in the same order as a _Pass with no worker,
        # without its locks and queue
        for rows in chunks:
            result = step(rows)
            if fold is not None:
                fold(result)
        return
    one_pass = _Pass(chunks, step)
    # started before any job is queued: a thread that fails to start leaves
    # no job behind to run chunks of a pass that has raised
    _start_workers(helpers)
    for _ in range(helpers):
        _jobs.put(one_pass.help)
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


def _matvec(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """matrix @ b, by one product pass whose chunks write their rows."""
    out = np.empty(matrix.shape[0])
    _chunk_pass(
        *matrix.shape, lambda rows: np.dot(matrix[rows], b, out=out[rows]),
        entries=_PRODUCT_CHUNK_ENTRIES,
    )
    return out


def _vecmat(a: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """a @ matrix, by one product pass whose chunk partials fold in order."""
    out = np.zeros(matrix.shape[1])
    _chunk_pass(
        *matrix.shape, lambda rows: np.dot(a[rows], matrix[rows]),
        partial(np.add, out, out=out), _PRODUCT_CHUNK_ENTRIES,
    )
    return out


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
    # of it took 0.59 ms on two threads against 0.45 ms on one). Taken at one
    # point, the two products share each chunk while it sits in L2: with one
    # BLAS thread that beat _matvec and _vecmat, 0.50 against 0.63 ms at
    # n = m = 1000, but not on OpenBLAS's default two (0.45 against 0.29 ms)
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

    def chunk_cost(rows):
        return a[rows] @ ((C.entries[rows] * K.entries[rows]) @ b)

    def add(chunk):
        nonlocal cost
        cost += chunk

    # an overflowing e^u or e^v makes the sum inf or nan, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        _chunk_pass(*K.shape, chunk_cost, add)
    if not np.isfinite(cost):
        raise NumericRangeError("plan cost overflows")
    return float(cost)


def _check_iteration_cap(name: str, value) -> None:
    """Refuse an iteration cap that is not an integer of at least 1; numpy
    integers pass, as any type with __index__ does."""
    try:
        cap = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if cap < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")


def sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    stop_threshold: float = 1e-9,
    max_iter: int = 1000,
) -> DualSolution:
    """Alternating scaling iterations a = mu/(K b), b = nu/(K^T a) from b = 1.

    Stops once the combined l1 violation of both marginals drops below
    stop_threshold. Hitting max_iter is not an error: the solution comes back
    with converged=False and whatever violation was last measured.

    Each iteration forms K^T a and K b by one product pass over K each (see
    _vecmat, _matvec and _PRODUCT_CHUNK_ENTRIES), so T iterations read K
    2T times: the first K b, for b = 1, is K's cached row sums.
    """
    if not (stop_threshold > 0.0):
        raise ParameterError(f"stop_threshold must be positive, got {stop_threshold}")
    _check_iteration_cap("max_iter", max_iter)
    _check_sizes(mu, nu, K)

    km = K.entries
    w_mu = mu.weights
    w_nu = nu.weights
    kb = K.row_sums
    converged = False
    violation = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            # a zero in K b gives an infinite a without a warning; the next
            # iteration's violation test meets it
            with np.errstate(divide="ignore"):
                a = w_mu / kb
            kta = _vecmat(a, km)
            b = w_nu / kta
            kb = _matvec(km, b)
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
