"""The screened dual problem: the kernel with the screened coordinates held
at their thresholds, analytic objective and gradient, and the box bounds for
the reduced solve.

Screening holds u_i = log(alpha) off the active rows I and v_j = log(beta)
off the active columns J, with alpha = eps/kappa and beta = eps*kappa. With
a_hat = e^u and b_hat = e^v so filled, the kappa-scaled dual

    a_hat^T K b_hat - kappa * <mu_I, u_I> - (1/kappa) * <nu_J, v_J> + c

depends on the active coordinates alone; c = -kappa log(alpha) mu(I^c)
- log(beta) nu(J^c) / kappa collects the screened coordinates' linear terms.
Its gradient is a_I * (K b_hat)_I - kappa mu_I on the rows and
b_J * (K^T a_hat)_J - nu_J / kappa on the columns. Evaluating the problem on
(u, v) embedded back into full vectors (thresholds on the complements)
reproduces the full constrained dual exactly; tests rely on that identity.

kappa is the paper's: it balances the row and column thresholds so that
one epsilon serves both sides, and it scales the dual's linear terms. It is
not what limits the screened answer's accuracy. A prototype kept the
active sets that screening picks, held the screened u and v at
log sqrt(xi_{n_b}) and log sqrt(zeta_{m_b}), and solved the plain dual
(kappa = 1) to a projected gradient of 1e-9, with and without lower bounds.
On one Gaussian instance (n = m = 1000, budgets 0.1 / 0.5 / 0.9), its cost
error after rounding onto the marginal polytope (Altschuler, Weed &
Rigollet 2017) was 4.7e-3 / 3.7e-3 / 1.6e-3 at eta = 0.1 and 3.6e-2 /
3.6e-2 / 2.0e-2 at eta = 0.02, against this problem's 4.5e-3 / 3.5e-3 /
3.2e-3 and 3.6e-2 / 3.7e-2 / 2.9e-2. Holding the screened potentials
constant is what limits accuracy, with kappa = 1 as with the paper's kappa.

A ScreenedDualProblem holds one matrix M that gives the same two products,
the positions of the active rows and columns in M, and the fills alpha and
beta, which a_hat and b_hat take at every other position. There are two
layouts of M:

- full: M is K itself and the positions are I and J. Nothing is gathered;
  only k_min, the minimum of the active block K_IJ, is computed.
- compact: M is the (|I| + 1) x (|J| + 1) matrix

      [ K_IJ  s      ]
      [ t^T   corner ]

  where s_i sums K over the screened columns of active row i, t_j sums K
  over the screened rows of active column j, and corner is the screened
  rows' mass on the screened columns. The positions are the first |I| rows
  and |J| columns, held as slices, so a and b are written into a_hat and
  b_hat, and the products' active parts read back, by basic slicing rather
  than by index scatter and gather.
  a_hat^T M b_hat = a^T K_IJ b + beta <a, s> + alpha <t, b>
  + alpha beta corner is the full layout's mass term summed in another
  order.

evaluate() and the solve, solver.restricted_sinkhorn(), are written once
over (M, positions, fills). evaluate() returns the objective and its
gradient together from one exponentiation per side and two products,
M b_hat and M^T a_hat, the first shared by the mass term and the u gradient.
objective() and gradient() are views of it. The solve's clipped sweeps form
the same two products per sweep: each block's exact minimizer over the box
is the clipped scaling update, v from M^T a_hat and u from M b_hat.

build_problem() picks the layout from the active block's share of K,
|I| |J| / (n m). The compact layout pays a gather of the block, and then
products smaller by the share; the full layout gathers nothing, and its
products cover all of K. In `bench run --n 1000 --m 1000 --eta 1.0
--budget 0.5:0.99:0.05 --trials 20`, run with each layout forced in turn,
the compact layout was the faster one up to budget 0.80 (share 0.64), the
two were level at 0.85 (share 0.72), and the full layout was the faster one
from 0.90 (share 0.81) on. Hence _FULL_LAYOUT_SHARE = 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DiscreteMeasure, GibbsKernel, _check_sizes, _row_chunks
from .errors import (
    DegenerateScreeningError,
    InfeasibleBoundsError,
    InputError,
    NumericRangeError,
    ShapeError,
)
from .screening import Budget, ScreeningResult

# the active block's share of K from which build_problem solves on K itself
# rather than on a gathered compact block; the module docstring gives the
# budget sweep that placed it
_FULL_LAYOUT_SHARE = 0.7


@dataclass(frozen=True, eq=False)
class ScreenedDualProblem:
    """The matrix M, the positions of the active rows and columns in it
    (index arrays on the full layout, leading slices on the compact one),
    and the fills alpha = eps/kappa and beta = eps*kappa for every other
    position; see the module docstring for the two layouts of M."""

    matrix: np.ndarray
    rows: np.ndarray | slice
    cols: np.ndarray | slice
    row_fill: float
    col_fill: float
    # the screened coordinates' linear terms, c in the module docstring
    const: float
    epsilon: float
    kappa: float
    mu_active: np.ndarray
    nu_active: np.ndarray
    # r_I, the kernel's row sums at the active rows: (M b_hat)_I is
    # col_fill * r_I when every b_hat entry is col_fill, on either layout
    row_sums_active: np.ndarray
    k_min: float
    n: int
    m: int

    @property
    def n_active(self) -> int:
        return self.mu_active.shape[0]

    @property
    def m_active(self) -> int:
        return self.nu_active.shape[0]

    def row_vector(self, a: np.ndarray) -> np.ndarray:
        """a_hat: a at the active rows' positions in M, row_fill elsewhere."""
        out = np.full(self.matrix.shape[0], self.row_fill)
        out[self.rows] = a
        return out

    def col_vector(self, b: np.ndarray) -> np.ndarray:
        """b_hat: b at the active columns' positions in M, col_fill elsewhere."""
        out = np.full(self.matrix.shape[1], self.col_fill)
        out[self.cols] = b
        return out


@dataclass(frozen=True)
class BoxBounds:
    """One (lower, upper) pair per side; the bounds are uniform within a side."""

    u_lower: float
    u_upper: float
    v_lower: float
    v_upper: float

    def __post_init__(self):
        if self.u_lower > self.u_upper or self.v_lower > self.v_upper:
            raise InfeasibleBoundsError(
                f"infeasible box: u in [{self.u_lower}, {self.u_upper}], "
                f"v in [{self.v_lower}, {self.v_upper}]"
            )

    def stacked(self, n_active: int, m_active: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate bound vectors for theta = (u_active, v_active)."""
        lower = np.concatenate(
            [np.full(n_active, self.u_lower), np.full(m_active, self.v_lower)]
        )
        upper = np.concatenate(
            [np.full(n_active, self.u_upper), np.full(m_active, self.v_upper)]
        )
        return lower, upper


def build_problem(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    sr: ScreeningResult,
) -> ScreenedDualProblem:
    """Hold the screened coordinates at their thresholds, on K itself when
    the active block covers at least _FULL_LAYOUT_SHARE of it and on the
    compact block otherwise."""
    n, m = _check_sizes(mu, nu, K)
    rows = sr.active_rows
    cols = sr.active_cols
    if rows.size == 0 or cols.size == 0:
        raise DegenerateScreeningError("active sets must be nonempty")
    if (rows[1:] <= rows[:-1]).any() or (cols[1:] <= cols[:-1]).any():
        raise InputError("active indices are not strictly increasing")
    # in increasing order, the first and last index bound the rest
    if rows[0] < 0 or rows[-1] >= n or cols[0] < 0 or cols[-1] >= m:
        raise InputError(f"active indices fall outside the kernel's shape ({n}, {m})")
    if rows.size * cols.size >= _FULL_LAYOUT_SHARE * n * m:
        return _full_layout(mu, nu, K, sr)
    return _compact_layout(mu, nu, K, sr)


def _full_layout(
    mu: DiscreteMeasure, nu: DiscreteMeasure, K: GibbsKernel, sr: ScreeningResult
) -> ScreenedDualProblem:
    """M = K; only k_min is computed, from the column minima over each run
    of consecutive active rows, read in place (min is exact, so any order
    gives the block minimum bit for bit)."""
    rows, cols = sr.active_rows, sr.active_cols
    km = K.entries
    # positions in rows where a run starts, and each run's first and last row
    starts = np.flatnonzero(np.diff(rows) != 1) + 1
    firsts = rows[np.r_[0, starts]]
    lasts = rows[np.r_[starts - 1, rows.size - 1]]
    col_min = np.full(km.shape[1], np.inf)
    for lo, hi in zip(firsts.tolist(), (lasts + 1).tolist()):
        np.minimum(col_min, km[lo:hi].min(axis=0), out=col_min)
    return _problem(mu, nu, K, sr, km, rows, cols, col_min[cols].min())


def _compact_layout(
    mu: DiscreteMeasure, nu: DiscreteMeasure, K: GibbsKernel, sr: ScreeningResult
) -> ScreenedDualProblem:
    """M = [[K_IJ, s], [t^T, corner]], with the cross sums and the corner
    taken from the cached kernel sums, so the complement blocks are never
    read."""
    n, m = K.shape
    rows, cols = sr.active_rows, sr.active_cols
    n_b, m_b = rows.size, cols.size
    matrix = np.empty((n_b + 1, m_b + 1))
    s = matrix[:n_b, m_b]
    t = matrix[n_b, :m_b]

    # one sweep: each chunk of M's rows is gathered with one flat take from
    # the row-major kernel (mode="clip" writes unbuffered; the indices were
    # checked by build_problem) and summed and scanned while it sits in
    # cache, so the block is never read again here. The take fills whole
    # rows of M, which are contiguous, by writing each row's entry in column
    # cols[0] where s goes: the chunk's minimum is then read from the whole
    # rows, and the block's row sums overwrite the stand-in
    flat = K.entries.reshape(-1)
    cols_ext = np.append(cols, cols[0])
    block_col_sums = np.zeros(m_b)
    k_min = np.inf
    for sl in _row_chunks(n_b, m_b + 1):
        wide = matrix[sl]
        flat.take(rows[sl, None] * m + cols_ext, out=wide, mode="clip")
        k_min = min(k_min, float(wide.min()))
        chunk = wide[:, :m_b]
        chunk.sum(axis=1, out=s[sl])
        block_col_sums += chunk.sum(axis=0)

    # cross sums against the cached kernel sums; an empty complement gives
    # exact zeros
    if m_b == m:
        s[:] = 0.0
    else:
        np.maximum(np.subtract(K.row_sums[rows], s, out=s), 0.0, out=s)
    if n_b == n:
        t[:] = 0.0
    else:
        np.maximum(np.subtract(K.col_sums[cols], block_col_sums, out=t), 0.0, out=t)
    # the corner by a one-sided difference, the screened columns' sums less
    # the active rows' s, or its row twin: whichever subtracts from the
    # smaller screened mass, whose rounding then bounds the corner's error
    col_mass = _complement_sum(K.col_sums, cols)
    row_mass = _complement_sum(K.row_sums, rows)
    if col_mass <= row_mass:
        corner = col_mass - float(s.sum())
    else:
        corner = row_mass - float(t.sum())
    matrix[n_b, m_b] = max(corner, 0.0)

    return _problem(mu, nu, K, sr, matrix, slice(0, n_b), slice(0, m_b), k_min)


def _complement_sum(x: np.ndarray, idx: np.ndarray) -> float:
    """The sum of x off the indices idx."""
    return float(np.delete(x, idx).sum())


def _problem(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    K: GibbsKernel,
    sr: ScreeningResult,
    matrix: np.ndarray,
    rows: np.ndarray | slice,
    cols: np.ndarray | slice,
    k_min: float,
) -> ScreenedDualProblem:
    eps = sr.epsilon
    kap = sr.kappa
    const = (
        -kap * np.log(eps / kap) * _complement_sum(mu.weights, sr.active_rows)
        - np.log(eps * kap) * _complement_sum(nu.weights, sr.active_cols) / kap
    )
    n, m = K.shape
    return ScreenedDualProblem(
        matrix=matrix,
        rows=rows,
        cols=cols,
        row_fill=eps / kap,
        col_fill=eps * kap,
        const=float(const),
        epsilon=eps,
        kappa=kap,
        mu_active=mu.weights[sr.active_rows],
        nu_active=nu.weights[sr.active_cols],
        row_sums_active=K.row_sums[sr.active_rows],
        k_min=float(k_min),
        n=n,
        m=m,
    )


def _check_lengths(p: ScreenedDualProblem, u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != (p.n_active,) or v.shape != (p.m_active,):
        raise ShapeError(
            f"active vectors of shapes {u.shape}, {v.shape} do not match "
            f"active sizes ({p.n_active}, {p.m_active})"
        )


def evaluate(
    p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray
) -> tuple[float, np.ndarray]:
    """The objective and its stacked gradient (d/du, d/dv) at one point.

    Each side is exponentiated once, and M is read by two products: M b_hat
    serves both the objective's mass term a_hat^T M b_hat and the u
    gradient, and M^T a_hat serves the v gradient.
    """
    u = np.asarray(u_active, dtype=np.float64)
    v = np.asarray(v_active, dtype=np.float64)
    _check_lengths(p, u, v)
    with np.errstate(over="ignore"):
        a = np.exp(u)
        b = np.exp(v)
        a_hat = p.row_vector(a)
        mb = p.matrix @ p.col_vector(b)
        value = (
            a_hat @ mb
            - p.kappa * (p.mu_active @ u)
            - (p.nu_active @ v) / p.kappa
            + p.const
        )
        if not np.isfinite(value):
            raise NumericRangeError("screened objective overflows at this point")
        grad = np.concatenate([
            a * mb[p.rows] - p.kappa * p.mu_active,
            b * (a_hat @ p.matrix)[p.cols] - p.nu_active / p.kappa,
        ])
    if not np.all(np.isfinite(grad)):
        raise NumericRangeError("screened gradient overflows at this point")
    return float(value), grad


def objective(p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray) -> float:
    return evaluate(p, u_active, v_active)[0]


def gradient(
    p: ScreenedDualProblem, u_active: np.ndarray, v_active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(d/du, d/dv), the two halves of evaluate's stacked gradient."""
    grad = evaluate(p, u_active, v_active)[1]
    return grad[: p.n_active], grad[p.n_active :]


def _box_side(
    eps: float, k_min: float, n: int, m: int, m_b: int, kap: float,
    own: np.ndarray, other: np.ndarray,
) -> tuple[float, float]:
    """(lower, upper) log bounds of the u side, where own = mu_I and
    other = nu_J; the v side is this formula on the transposed problem."""
    inner = max(eps, float(other.max()) / (n * eps * kap * k_min))
    lower = max(eps / kap, float(own.min()) / (eps * (m - m_b) + inner * m_b))
    upper = float(own.max()) / (m * eps * k_min)
    return float(np.log(lower)), float(np.log(upper))


def box_bounds(p: ScreenedDualProblem, budget: Budget) -> BoxBounds:
    """Log-domain box containing the optimum of the screened problem.

    The inner denominator terms are guarded with a max against epsilon,
    which only loosens the lower bounds. The v box is the u box of the
    transposed problem (sides swapped, kappa -> 1/kappa).
    """
    eps, kap, k_min = p.epsilon, p.kappa, p.k_min
    u_lower, u_upper = _box_side(
        eps, k_min, p.n, p.m, budget.m_b, kap, p.mu_active, p.nu_active
    )
    v_lower, v_upper = _box_side(
        eps, k_min, p.m, p.n, budget.n_b, 1.0 / kap, p.nu_active, p.mu_active
    )
    return BoxBounds(u_lower, u_upper, v_lower, v_upper)
