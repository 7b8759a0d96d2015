import csv

import numpy as np
from hypothesis import HealthCheck, settings

from screenkhorn import CostMatrix, DiscreteMeasure, GibbsKernel, gibbs_kernel
from screenkhorn._rng import uniforms

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=50,
)
settings.load_profile("default")


def random_instance(seed, n, m, eta=1.0):
    """Deterministic small problem: weights in [0.5, 1.5], costs in (0, 1]."""
    u = uniforms(seed, 0, n + m + n * m)
    mu = DiscreteMeasure(0.5 + u[:n])
    nu = DiscreteMeasure(0.5 + u[n : n + m])
    C = CostMatrix(u[n + m :].reshape(n, m))
    return mu, nu, C, gibbs_kernel(C, eta)


def symmetric_instance(seed, n, eta=1.0):
    """mu = nu and C bitwise symmetric, so the sorted ratio vectors match
    exactly and the threshold scale factor is exactly one."""
    u = uniforms(seed, 0, n + n * n)
    mu = DiscreteMeasure(0.5 + u[:n])
    half = u[n:].reshape(n, n)
    C = CostMatrix((half + half.T) / 2.0)
    return mu, C, gibbs_kernel(C, eta)


def ring_instance(n, eta=1.0):
    """Uniform weights on a ring with wrap-around distance cost.

    Translation invariance makes every kernel row a rotation of the same
    vector, so the kernel row sums are constant and the screened thresholds
    sit exactly at the symmetric optimum instead of displacing it. On this
    family the full-budget screened solve agrees with plain scaling to
    machine precision, which is what the reduction tests rely on.
    """
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :])
    d = np.minimum(d, n - d).astype(np.float64)
    C = CostMatrix(d / d.max())
    mu = DiscreteMeasure(np.full(n, 1.0 / n))
    return mu, C, gibbs_kernel(C, eta)


def fg(f, g):
    """The (f, g) callable minimize() takes, from separate f and g."""
    return lambda x: (f(x), g(x))


def dense_plan(potentials, K: GibbsKernel) -> np.ndarray:
    return (
        np.exp(potentials.u)[:, None] * K.entries * np.exp(potentials.v)[None, :]
    )


def write_measures(path, mu, nu):
    """A combined measures file, header index,mu,nu; the shorter side is
    padded with blank cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mu", "nu"])
        for i in range(max(mu.size, nu.size)):
            writer.writerow(
                [
                    i,
                    format(mu.weights[i], ".17g") if i < mu.size else "",
                    format(nu.weights[i], ".17g") if i < nu.size else "",
                ]
            )


def write_single_measure(path, name, measure):
    """A one-measure file, header index,<name>."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", name])
        for i, w in enumerate(measure.weights):
            writer.writerow([i, format(w, ".17g")])
