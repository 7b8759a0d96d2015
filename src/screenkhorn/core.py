"""Measures, cost matrices, the Gibbs kernel, transport plans, and the plain
Sinkhorn solver used as the comparison baseline.

Everything here works in the scaling (exponential) domain without
log-stabilization. Regimes that overflow raise NumericRangeError instead of
propagating infinities; that is deliberate, the baseline should fail loudly
rather than return garbage timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericRangeError, ParameterError, ShapeError


# entries per chunk of an n x m pass: 2**16 float64 entries (512 KB) stay in
# L2 while every reduction over the chunk runs
_CHUNK_ENTRIES = 1 << 16


def _row_chunks(n: int, m: int):
    """Slices of consecutive rows that cover range(n), with about
    _CHUNK_ENTRIES entries each and never less than one row."""
    step = max(1, _CHUNK_ENTRIES // max(m, 1))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


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
        max_norm = -np.inf
        for rows in _row_chunks(*c.shape):
            chunk = c[rows]
            lo, hi = chunk.min(), chunk.max()
            if not (lo >= 0.0 and hi < np.inf):
                if not np.all(np.isfinite(c)):
                    i, j = map(int, np.argwhere(~np.isfinite(c))[0])
                    raise InputError(f"cost entry ({i}, {j}) is not finite")
                i, j = map(int, np.argwhere(c < 0.0)[0])
                raise InputError(f"cost entry ({i}, {j}) = {c[i, j]} is negative")
            max_norm = max(max_norm, float(hi))
        object.__setattr__(self, "entries", c)
        object.__setattr__(self, "max_norm", max_norm)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _add_chunk_sums(
    chunk: np.ndarray, rows: slice, row_sums: np.ndarray, col_sums: np.ndarray
) -> None:
    """Write the chunk's row sums into row_sums[rows] and add its column sums
    into col_sums."""
    chunk.sum(axis=1, out=row_sums[rows])
    col_sums += chunk.sum(axis=0)


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
        n, m = k.shape
        row_sums = np.empty(n)
        col_sums = np.zeros(m)
        # one sweep: each chunk is range checked and summed while it sits in
        # cache, so K is read from memory once
        for rows in _row_chunks(n, m):
            chunk = k[rows]
            # the fused range test also rejects nan, which fails both comparisons
            if not (chunk.min() > 0.0 and chunk.max() <= 1.0):
                bad = ~((chunk > 0.0) & (chunk <= 1.0))
                i, j = map(int, np.argwhere(bad)[0])
                i += rows.start
                raise InputError(
                    f"kernel entry ({i}, {j}) = {k[i, j]} is outside (0, 1]"
                )
            _add_chunk_sums(chunk, rows, row_sums, col_sums)
        self._store(k, eta, row_sums, col_sums)

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
    n, m = c.shape
    k = np.empty((n, m))
    row_sums = np.empty(n)
    col_sums = np.zeros(m)
    # exp of a finite nonpositive number lies in [0, 1], so of the kernel's
    # range checks only the zero test can fail, and only past the guard
    may_underflow = C.max_norm / eta >= _EXP_UNDERFLOW
    # one sweep: c / -eta is -c / eta bit for bit, each chunk is written in
    # place (no n x m temporary) and checked and summed while it sits in cache
    for rows in _row_chunks(n, m):
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
        _add_chunk_sums(chunk, rows, row_sums, col_sums)
    return GibbsKernel._checked(k, eta, row_sums, col_sums)


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
    for rows in _row_chunks(n, m):
        chunk = km[rows]
        kb[rows] = chunk @ b
        kta += a[rows] @ chunk
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
