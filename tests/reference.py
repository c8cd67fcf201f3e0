"""Reference code that only the tests use: the enclosing-ellipsoid dual
objective, its gradient and the KKT residual of a solve, each evaluated
from scratch; the covering sum as a checked Ellipsoid; and sampling on
the boundary of an ellipsoid.

The dual objective and its gradient are evaluated on the cloud translated
by its plain mean.  A translation maps the lifted points by a matrix of
determinant one, so neither logdet M(mu) nor kappa changes, and the lifted
moment matrix of a thin cloud far from the origin keeps its rank margin.
"""

from __future__ import annotations

import numpy as np

from smfilter.ellipsoid import Ellipsoid, _sphere, spd_cholesky, symmetrize
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
