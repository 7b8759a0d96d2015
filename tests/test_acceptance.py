"""End-to-end acceptance checks, one test per numbered claim.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
numbers before asserting, so a full `pytest -v` run yields one verdict line
per criterion whether or not it survives. The shared 100-instance random
family is built once and reused by the containment, KKT, and certificate
checks, which are statements about the same set of runs.
"""

import math
import time

import numpy as np
import pytest

from screenkhorn import (
    Budget,
    InfeasibleBoundsError,
    ScreeningResult,
    SolverConfig,
    active_sets,
    box_bounds,
    build_problem,
    divergence,
    epsilon_kappa,
    minimize,
    omega_kappa,
    pinsker_check,
    plan_from_potentials,
    ratio_vectors,
    run_experiment,
    screenkhorn,
    sinkhorn,
    ExperimentConfig,
    marginal_norm_certificates,
    violation_certificate_cols,
    violation_certificate_rows,
)
from screenkhorn._rng import derive_seed, uniforms
from screenkhorn.screened import gradient, objective
from conftest import fg, random_instance, ring_instance, symmetric_instance
from oracle import oracle_solve

MASTER_SEED = 20260819
PG_TOL = 1e-8
INTERIOR_MARGIN = 1e-8


def _report(number: int, ok: bool, label: str, detail: str) -> bool:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {label}; {detail}")
    return ok


def _screened(seed, n, m, n_b, m_b, eta=1.0):
    mu, nu, _, K = random_instance(seed, n, m, eta)
    xi, zeta = ratio_vectors(mu, nu, K)
    eps, kap = epsilon_kappa(xi, zeta, Budget(n_b, m_b))
    sr = active_sets(mu, nu, K, eps, kap)
    return mu, nu, K, sr, build_problem(mu, nu, K, sr)


def _fd_gradient(p, theta, h=1e-6):
    k = p.n_active
    out = np.empty(theta.size)
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = h
        hi = objective(p, (theta + step)[:k], (theta + step)[k:])
        lo = objective(p, (theta - step)[:k], (theta - step)[k:])
        out[i] = (hi - lo) / (2.0 * h)
    return out


@pytest.fixture(scope="module")
def random_runs():
    """100 random instances up to 100x100 at sub-full budgets, solved once.

    Budget factors stay in [0.2, 0.9]: screening with nothing screened out is
    vacuous, and at the full budget the threshold constraints genuinely bind
    on generic instances, outside what the violation bounds assume.
    """
    runs = []
    for i in range(100):
        u = uniforms(derive_seed(MASTER_SEED, i), 0, 4)
        n = 5 + int(u[0] * 96)
        m = 5 + int(u[1] * 96)
        n_b = max(1, min(n - 1, int(math.floor((0.2 + 0.7 * u[2]) * n + 0.5))))
        m_b = max(1, min(m - 1, int(math.floor((0.2 + 0.7 * u[3]) * m + 0.5))))
        mu, nu, C, _ = random_instance(1000 + i, n, m)
        result = screenkhorn(
            C, 1.0, mu, nu, n_b, m_b, solver_config=SolverConfig(pg_tolerance=PG_TOL)
        )
        runs.append((mu, nu, result))
    return runs


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        u = uniforms(derive_seed(MASTER_SEED, 100 + i), 0, 5)
        n = 2 + int(u[0] * 7)
        m = 2 + int(u[1] * 7)
        n_b = 1 + int(u[2] * n)
        m_b = 1 + int(u[3] * m)
        eta = (0.5, 1.0, 2.0)[int(u[4] * 3) % 3]
        _, _, _, _, p = _screened(2000 + i, n, m, min(n_b, n), min(m_b, m), eta)
        dim = p.n_active + p.m_active
        theta = uniforms(derive_seed(MASTER_SEED, 200 + i), 0, dim) * 2.0 - 1.0
        gu, gv = gradient(p, theta[: p.n_active], theta[p.n_active :])
        analytic = np.concatenate([gu, gv])
        numeric = _fd_gradient(p, theta)
        rel = float(
            np.abs(numeric - analytic).max() / max(np.abs(analytic).max(), 1e-12)
        )
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 10.0
    assert _report(
        1,
        ok,
        "analytic gradient matches central differences on 50 random problems",
        f"worst rel err {worst:.3e} (limit 1e-5), {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_2_screening_safety():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        u = uniforms(derive_seed(MASTER_SEED, 300 + i), 0, 4)
        n = 2 + int(u[0] * 7)
        m = 2 + int(u[1] * 7)
        n_b = 1 + int(u[2] * n)
        m_b = 1 + int(u[3] * m)
        mu, nu, _, K = random_instance(3000 + i, n, m)
        xi, zeta = ratio_vectors(mu, nu, K)
        eps, kap = epsilon_kappa(xi, zeta, Budget(min(n_b, n), min(m_b, m)))
        sr = active_sets(mu, nu, K, eps, kap)

        everything = ScreeningResult(eps, kap, np.arange(n), np.arange(m))
        p = build_problem(mu, nu, K, everything)
        lower = np.concatenate(
            [np.full(n, math.log(eps / kap)), np.full(m, math.log(eps * kap))]
        )
        x = oracle_solve(p, lower, np.full(n + m, np.inf), tol=1e-9)
        a = np.exp(x[:n])
        b = np.exp(x[n:])
        for idx in np.setdiff1d(np.arange(n), sr.active_rows):
            worst = max(worst, abs(a[idx] - eps / kap))
        for idx in np.setdiff1d(np.arange(m), sr.active_cols):
            worst = max(worst, abs(b[idx] - eps * kap))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    assert _report(
        2,
        ok,
        "screened-out coordinates sit at their thresholds in the oracle optimum",
        f"worst |e^pot - threshold| {worst:.3e} (limit 1e-6), {elapsed:.2f}s (limit 120s)",
    )


def test_criterion_3_solver_equivalence():
    t0 = time.perf_counter()
    built = 0
    attempts = 0
    worst = 0.0
    while built < 20 and attempts < 200:
        u = uniforms(derive_seed(MASTER_SEED, 400 + attempts), 0, 4)
        attempts += 1
        n = 2 + int(u[0] * 7)
        m = 2 + int(u[1] * 7)
        n_b = 1 + int(u[2] * n)
        m_b = 1 + int(u[3] * m)
        try:
            mu, nu, K, sr, p = _screened(
                4000 + attempts, n, m, min(n_b, n), min(m_b, m)
            )
            bounds = box_bounds(p, Budget(min(n_b, n), min(m_b, m)))
        except InfeasibleBoundsError:
            # tiny budgets can produce an empty box; that is a typed error by
            # design and not a solvable problem for either method
            continue
        built += 1
        lower, upper = bounds.stacked(p.n_active, p.m_active)
        k = p.n_active

        def f(x):
            return objective(p, x[:k], x[k:])

        def g(x):
            return np.concatenate(gradient(p, x[:k], x[k:]))

        start = np.clip(np.zeros(lower.size), lower, upper)
        report = minimize(fg(f, g), lower, upper, start, SolverConfig(pg_tolerance=1e-9))
        # Oracle tolerance 1e-8 keeps its objective error around 1e-15, far
        # below the 1e-6 agreement target; tighter settings can stall the
        # projected gradient near its floating point floor on small boxes.
        x_oracle = oracle_solve(p, lower, upper, tol=1e-8)
        worst = max(worst, abs(report.objective_value - f(x_oracle)))
    elapsed = time.perf_counter() - t0
    ok = built == 20 and worst < 1e-6 and elapsed < 60.0
    assert _report(
        3,
        ok,
        "quasi-Newton objective matches the projected-gradient oracle on 20 problems",
        f"worst |gap| {worst:.3e} (limit 1e-6), {built} problems from {attempts} draws, "
        f"{elapsed:.2f}s (limit 60s)",
    )


def test_criterion_4_box_containment(random_runs):
    converged = [r for _, _, r in random_runs if r.solver_report.converged]
    violations = 0
    for result in converged:
        lower, upper = result.bounds.stacked(
            result.screening.n_active, result.screening.m_active
        )
        x = result.solver_report.solution
        # exact closed-box check, no tolerance: the bounds are inclusive and
        # the optimum legitimately sits on the lower face on most instances
        if not (np.all(x >= lower) and np.all(x <= upper)):
            violations += 1
    ok = violations == 0 and len(converged) == len(random_runs)
    assert _report(
        4,
        ok,
        "every converged solution lies inside its computed box",
        f"{len(converged)}/{len(random_runs)} converged, {violations} containment violations",
    )


def test_criterion_5_kkt_marginals(random_runs):
    checked = 0
    violations = 0
    worst = 0.0
    for mu, nu, result in random_runs:
        if not result.solver_report.converged:
            continue
        sr = result.screening
        kap = sr.kappa
        lower, upper = result.bounds.stacked(sr.n_active, sr.m_active)
        x = result.solver_report.solution
        interior = (x - lower > INTERIOR_MARGIN) & (upper - x > INTERIOR_MARGIN)
        rows = sr.active_rows
        cols = sr.active_cols
        for pos, i in enumerate(rows):
            if not interior[pos]:
                continue
            target = kap * mu.weights[i]
            gap = abs(result.row_marginal[i] - target)
            tol = 10.0 * PG_TOL * (1.0 + target)
            checked += 1
            worst = max(worst, gap / tol)
            if gap > tol:
                violations += 1
        for pos, j in enumerate(cols):
            if not interior[sr.n_active + pos]:
                continue
            target = nu.weights[j] / kap
            gap = abs(result.col_marginal[j] - target)
            tol = 10.0 * PG_TOL * (1.0 + target)
            checked += 1
            worst = max(worst, gap / tol)
            if gap > tol:
                violations += 1
    ok = violations == 0 and checked > 0
    assert _report(
        5,
        ok,
        "interior active coordinates satisfy the scaled-marginal conditions",
        f"{checked} coordinates checked, {violations} violations, "
        f"worst gap/tolerance {worst:.3f}",
    )


def test_criterion_6_certificates(random_runs):
    pinsker_failures = 0
    for i in range(1000):
        u = uniforms(derive_seed(MASTER_SEED, 500 + i), 0, 2)
        size = 1 + int(u[0] * 16)
        vals = uniforms(derive_seed(MASTER_SEED, 1500 + i), 0, 2 * size)
        gamma = 0.5 + 1.5 * vals[:size]
        beta = 0.5 + 1.5 * vals[size:]
        if not pinsker_check(gamma, beta).satisfied:
            pinsker_failures += 1

    cert_failures = 0
    cert_count = 0
    for mu, nu, result in random_runs:
        if not result.solver_report.converged:
            continue
        certs = [
            violation_certificate_rows(result, mu, nu),
            violation_certificate_cols(result, mu, nu),
            *marginal_norm_certificates(result, mu, nu),
        ]
        cert_count += len(certs)
        cert_failures += sum(not c.satisfied for c in certs)
    ok = pinsker_failures == 0 and cert_failures == 0 and cert_count > 0
    assert _report(
        6,
        ok,
        "Pinsker holds on 1000 pairs; violation and mass certificates hold on all runs",
        f"{pinsker_failures}/1000 Pinsker failures, "
        f"{cert_failures}/{cert_count} certificate failures",
    )


def test_criterion_7_full_budget_reduction():
    worst_linf = 0.0
    worst_rel = 0.0
    for n in (16, 50, 128):
        for eta in (0.5, 1.0, 2.0):
            mu, C, K = ring_instance(n, eta)
            base = sinkhorn(mu, mu, K, stop_threshold=1e-12, max_iter=10_000)
            assert base.converged
            base_plan = plan_from_potentials(base.potentials, K)
            res = screenkhorn(
                C, eta, mu, mu, n, n, solver_config=SolverConfig(pg_tolerance=PG_TOL)
            )
            linf = float(np.abs(res.plan.entries - base_plan.entries).max())
            d_base = divergence(base_plan, C)
            d_screen = divergence(res.plan, C)
            rel = abs(d_screen - d_base) / abs(d_base)
            worst_linf = max(worst_linf, linf)
            worst_rel = max(worst_rel, rel)
    ok = worst_linf < 1e-6 and worst_rel < 1e-6
    assert _report(
        7,
        ok,
        "full-budget screened plan matches plain scaling on symmetric instances",
        f"worst plan gap {worst_linf:.3e}, worst rel divergence {worst_rel:.3e} "
        f"(limits 1e-6)",
    )


def test_criterion_8_benchmark_scale(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        n=1000,
        m=1000,
        eta_list=(1.0,),
        budget_list=(0.1, 0.5, 0.99),
        trials=30,
        seed=0,
        normalize_cost=True,
        output_path=str(tmp_path / "bench.csv"),
    )
    rows, _ = run_experiment(cfg, solver_config=SolverConfig(pg_tolerance=1e-6))
    elapsed = time.perf_counter() - t0

    def mean(budget, field):
        vals = [getattr(r, field) for r in rows if r.budget == budget and r.converged]
        assert vals, f"no converged rows at budget {budget}"
        return float(np.mean(vals))

    speed_01 = mean(0.1, "speedup")
    viol_01 = mean(0.1, "row_violation")
    viol_99 = mean(0.99, "row_violation")
    rel_01 = mean(0.1, "rel_divergence")
    rel_50 = mean(0.5, "rel_divergence")
    rel_99 = mean(0.99, "rel_divergence")

    ok = (
        speed_01 >= 1.0
        and viol_99 <= viol_01
        and rel_50 < rel_01
        and rel_99 < rel_01
        and elapsed < 1800.0
    )
    assert _report(
        8,
        ok,
        "desk-scale sweep reproduces the speed and accuracy trends",
        f"speedup@0.1 {speed_01:.3f} (need >= 1.0); row violation "
        f"{viol_01:.4f}@0.1 -> {viol_99:.4f}@0.99 (must not grow); rel divergence "
        f"{rel_01:.4f}@0.1 vs {rel_50:.4f}@0.5, {rel_99:.4f}@0.99 (must drop); "
        f"{elapsed:.0f}s (limit 1800s)",
    )


def test_criterion_9_omega_identity():
    # The identity is conditional on kappa == 1 holding bitwise.  Symmetric
    # instances deliver that at most sizes, but numpy associates row sums and
    # column sums differently, so at some sizes kappa lands one ulp below one
    # and the premise is vacuous.  These sizes were checked to give kappa == 1.
    worst = None
    for seed, n in ((0, 8), (1, 13), (2, 22)):
        mu, C, _ = symmetric_instance(seed, n)
        res = screenkhorn(
            C, 1.0, mu, mu, n, n, solver_config=SolverConfig(pg_tolerance=PG_TOL)
        )
        assert res.screening.kappa == 1.0
        value = omega_kappa(res)
        worst = value if worst is None else max(worst, value)
    ok = worst == 0.0
    assert _report(
        9,
        ok,
        "omega vanishes exactly whenever kappa is exactly one",
        f"max omega over symmetric instances {worst!r} (must be exactly 0.0)",
    )
