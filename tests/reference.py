"""Reference code that only the tests use: the enclosing-ellipsoid dual
objective, its gradient and the KKT residual of a solve, each evaluated
from scratch; the covering sum as a checked Ellipsoid; sampling on the
boundary of an ellipsoid; the measurement product grid built with
np.meshgrid; a random SPD matrix and a bit-for-bit comparison of arrays;
a finite-difference Jacobian, against which the declared Jacobians are
checked; the per-step loops of the truth simulation and of the metrics
table; and a reader of the emitted set files with the position outline a
plot draws from them.

The dual objective and its gradient are evaluated on the cloud translated
by its plain mean.  A translation maps the lifted points by a matrix of
determinant one, so neither logdet M(mu) nor kappa changes, and the lifted
moment matrix of a thin cloud far from the origin keeps its rank margin.
"""

from __future__ import annotations

import numpy as np

from smfilter import scenarios as sc
from smfilter.dsmf import _design
from smfilter.ellipsoid import Ellipsoid, _sphere, sample_interior, spd_cholesky, symmetrize
from smfilter.harness import MetricsRow
from smfilter.mvee import (
    MveeSolution,
    _as_points,
    _factor_or_raise,
    _gradient,
    _moment_matrix,
    lift,
)


def _lift_centered(points) -> np.ndarray:
    pts = _as_points(points)
    return lift(pts - pts.mean(axis=0))


def dual_objective(points, mu) -> float:
    """logdet of the weighted lifted moment matrix M(mu).

    Raises RankDeficiencyError when M is singular, by the same eigenvalue
    margin as fw_gradient and fw_solve."""
    yt = _lift_centered(points)
    return _factor_or_raise(_moment_matrix(yt, np.asarray(mu, dtype=float)), yt.shape[1])[1]


def fw_gradient(points, mu) -> np.ndarray:
    """Gradient of the dual objective: kappa_i = yt_i^T M(mu)^{-1} yt_i.

    Satisfies sum_i mu_i kappa_i = n + 1 identically.
    """
    yt = _lift_centered(points)
    minv = _factor_or_raise(_moment_matrix(yt, np.asarray(mu, dtype=float)), yt.shape[1])[0]
    return _gradient(yt, minv)


def kkt_residual(solution: MveeSolution, points) -> float:
    """First-order optimality residual of a solve.

    max of the primal infeasibility max_i (kappa_i - d)_+ and the pointwise
    complementary slackness max_i mu_i |kappa_i - d|; both vanish at the
    exact optimum.
    """
    pts = _as_points(points)
    d = pts.shape[1] + 1
    mu = solution.weights
    kappa = fw_gradient(pts, mu)
    primal = float(np.max(np.maximum(kappa - d, 0.0)))
    comp = float(np.max(mu * np.abs(kappa - d)))
    return max(primal, comp)


def minkowski_outer(ef: Ellipsoid, q: np.ndarray, p: float) -> Ellipsoid:
    """Ellipsoid covering the sum of ef and the centered ellipsoid with shape q.

    The returned set has the same center as ef and shape
    (1 + 1/p) * ef.shape + (1 + p) * q, valid for any p > 0.
    """
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    q = symmetrize(np.asarray(q, dtype=float))
    if q.shape != ef.shape.shape:
        raise ValueError(f"q is {q.shape}, expected {ef.shape.shape}")
    spd_cholesky(q, what="noise shape matrix")
    shape = (1.0 + 1.0 / p) * ef.shape + (1.0 + p) * q
    return Ellipsoid(ef.center, symmetrize(shape))


def sample_boundary(e: Ellipsoid, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, n) points on the boundary of e: c + E u with u uniform on the sphere."""
    if m < 1:
        raise ValueError("m must be >= 1")
    u = _sphere(m, e.dim, rng)
    return e.center + u @ e.factor().T


def product_grid(model, y, aux, count: int) -> np.ndarray:
    """The inverse-measurement cloud over count noise directions on the
    boundary of R times one grid of count points per [lo, hi] row of aux,
    built with np.meshgrid: noise direction slowest, then each parameter
    grid in turn."""
    noise = _design(count, model.meas_dim) @ model._r_factor.T
    grids = [np.linspace(lo, hi, count) for lo, hi in aux]
    mesh = np.meshgrid(np.arange(count), *grids, indexing="ij")
    return model.h_inv(y, noise[mesh[0].ravel()], tuple(g.ravel() for g in mesh[1:]))


def random_spd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """A random n x n SPD matrix, A A^T + n scale I with A standard normal."""
    a = rng.standard_normal((n, n))
    return symmetrize(a @ a.T + n * scale * np.eye(n))


def same_bits(a, b) -> bool:
    """Of the same shape and equal bit for bit, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Relative central-difference step of numerical_jacobian, times
# max(1, |x_i|) along axis i.
JACOBIAN_STEP = 1e-6


def numerical_jacobian(fn, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian with per-component step
    JACOBIAN_STEP * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    steps = JACOBIAN_STEP * np.maximum(1.0, np.abs(x))
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = steps[i]
        cols.append((fn(x + e) - fn(x - e)) / (2.0 * steps[i]))
    return np.column_stack(cols)


def simulate_truth_by_step(scenario, rng: np.random.Generator, steps: int | None = None):
    """scenarios.simulate_truth with one measurement call per step: the same
    draws in the same order, each measurement from its own call of h."""
    model = sc.build_model(scenario)
    n_steps = scenario.steps if steps is None else steps
    ws = sample_interior(Ellipsoid(np.zeros(model.state_dim), model.Q), n_steps, rng)
    vs = sample_interior(Ellipsoid(np.zeros(model.meas_dim), model.R), n_steps, rng)
    traj = np.empty((n_steps + 1, model.state_dim))
    traj[0] = np.asarray(scenario.x0, dtype=float)
    meas = np.empty((n_steps, model.meas_dim))
    for k in range(n_steps):
        traj[k + 1] = model.f(traj[k], k) + ws[k]
        meas[k] = model.h(traj[k + 1]) + vs[k]
    return traj, meas


def metrics_by_step(config, scenario, runs, steps: int) -> list:
    """harness.compute_metrics with one mean over the runs per (filter,
    step) and figure, each taken over that step's (runs,) column."""
    th = 2 if isinstance(scenario, sc.RobotScenario) else None
    rows = []
    for name in config.filters:
        err = np.stack([log.filters[name].estimates - log.truth[1:] for log in runs])
        rmse = np.sqrt((err**2).mean(axis=0))
        traces, logdets, times, cont = (
            np.stack([getattr(log.filters[name], key) for log in runs])
            for key in ("traces", "logdets", "times", "contained"))
        for k in range(steps):
            rows.append(MetricsRow(
                k=k + 1,
                filter=name,
                trace=float(traces[:, k].mean()),
                logdet=float(logdets[:, k].mean()),
                rmse_x=float(rmse[k, 0]),
                rmse_theta=float(rmse[k, th]) if th is not None else float("nan"),
                contained=float(cont[:, k].mean()),
                time_s=float(times[:, k].mean()),
            ))
    return rows


def read_sets(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (k, centers, shapes) of an emitted sets/run<r>_<filter>.csv:
    (steps,) ints, (steps, n) centers and (steps, n, n) shapes, each shape
    mirrored from its upper triangle."""
    with open(path) as fh:
        n = sum(name.startswith("c") for name in fh.readline().split(","))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows, cols = np.triu_indices(n)
    shapes = np.empty((len(table), n, n))
    shapes[:, rows, cols] = shapes[:, cols, rows] = table[:, 1 + n:]
    return table[:, 0].astype(int), table[:, 1:1 + n], shapes


def position_outline(center, shape, e_p, m: int = 128) -> np.ndarray:
    """(2, m) points on the boundary of the position projection
    {E_p c, E_p P E_p^T} of a set, at m equispaced angles."""
    ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    proj = Ellipsoid(e_p @ center, e_p @ shape @ e_p.T)
    return proj.center[:, None] + proj.factor() @ np.stack([np.cos(ang), np.sin(ang)])
