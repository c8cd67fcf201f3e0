"""Comparison filters: an unscented Kalman filter and the extended
set-membership filter that linearizes the model and inflates the noise
bounds by a sampled bound on the linearization remainder.  The remainder is
sampled on a fixed design, so neither filter draws random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsmf import FusionParams, SystemModel, _design, fuse, optimize_rho
from .ellipsoid import Ellipsoid, covering_sum, optimal_p, spd_cholesky, symmetrize

# Sampled remainder bounds: number of design points, boundary fraction, and
# the multiplicative safety margin on the per-axis maxima.
N_REMAINDER = 500
BOUNDARY_FRACTION = 0.8
REMAINDER_SAFETY = 1.1
# Points at which the curvature (Hessian) of the model maps is sampled for
# the worst-case quadratic completion of the remainder bound.
N_HESSIAN = 40
# Relative central-difference steps, times max(1, |x_a|) along axis a, of
# numerical_jacobian and hessian_abs_max.
JACOBIAN_STEP = 1e-6
HESSIAN_STEP = 1e-4


@dataclass(frozen=True)
class GaussianBelief:
    """Mean and covariance of the UKF state estimate."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float)).copy()
        _, cov = spd_cholesky(np.asarray(self.cov, dtype=float), what="covariance")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def uniform_covariance(shape: np.ndarray) -> np.ndarray:
    """Covariance of a uniform draw over the centered ellipsoid with this
    shape: shape / (dim + 2)."""
    return shape * (1.0 / (shape.shape[0] + 2.0))


def add_remainder(noise_shape: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Inflate a noise bound by the trace-optimal covering sum with a
    linearization remainder: the box of the per-axis half-widths, scaled by
    REMAINDER_SAFETY, inside diag(dim * half^2) with its corners.  Axes with
    no remainder get a floor of 1e-12 of the largest half-width, so that
    shape stays SPD; all-zero half-widths are a no-op."""
    half = REMAINDER_SAFETY * np.atleast_1d(np.asarray(half, dtype=float))
    top = half.max()
    if top == 0.0:
        return noise_shape
    half = np.maximum(half, 1e-12 * top)
    box = np.diag(half.size * half**2)
    return covering_sum(noise_shape, box, optimal_p(noise_shape, box))


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


def _f_jacobian(model: SystemModel, x: np.ndarray, k: int) -> np.ndarray:
    if model.F is not None:
        return model.F
    if model.f_jac is not None:
        return np.asarray(model.f_jac(x, k), dtype=float)
    return numerical_jacobian(lambda z: model.f(z, k), x)


def _h_jacobian(model: SystemModel, x: np.ndarray) -> np.ndarray:
    if model.h_jac is not None:
        return np.atleast_2d(np.asarray(model.h_jac(x), dtype=float))
    return np.atleast_2d(numerical_jacobian(model.h, x))


@lru_cache(maxsize=8)
def _remainder_design(m: int, n: int) -> np.ndarray:
    """The fixed, boundary-biased design of the remainder bounds (boundary
    points maximize quadratic remainders): m points of the unit ball in
    R^n, read-only.  The first n_bound = round(BOUNDARY_FRACTION m) are the
    _design directions on the sphere; the remaining rest = m - n_bound are
    _design(rest, n) directions at radii ((j + 1/2) / rest)^(1/n), the
    quantiles of the radius of a uniform draw over the ball."""
    n_bound = max(1, int(round(BOUNDARY_FRACTION * m)))
    rest = m - n_bound
    radii = ((np.arange(rest) + 0.5) / rest) ** (1.0 / n)
    u = np.vstack([_design(n_bound, n), _design(rest, n) * radii[:, None]])
    u.setflags(write=False)
    return u


@lru_cache(maxsize=8)
def _hessian_stencil(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signed unit offsets of the central-difference Hessian stencil in R^n,
    read-only: 0, then +e_a and -e_a for every a, then e_a + e_b, e_a - e_b,
    -e_a + e_b and -e_a - e_b for every pair a < b; and the pair indices
    (a, b)."""
    eye = np.eye(n)
    a, b = np.triu_indices(n, 1)
    ea, eb = eye[a], eye[b]
    offsets = np.vstack([np.zeros((1, n)), eye, -eye, ea + eb, ea - eb, -ea + eb, -ea - eb])
    for arr in (offsets, a, b):
        arr.setflags(write=False)
    return offsets, a, b


def hessian_abs_max(fn, pts: np.ndarray, out_dim: int) -> np.ndarray:
    """Entrywise maximum |Hessian| of each output of fn over sample points.

    fn maps (..., n) -> (..., out_dim) batches; it is called once, on the
    whole central-difference stencil around every point (step HESSIAN_STEP
    * max(1, |x_a|) along axis a).  Second differences below the
    finite-difference noise floor are zeroed, so exactly linear maps report
    zero curvature.  Returns an (out_dim, n, n) array.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, n = pts.shape
    steps = HESSIAN_STEP * np.maximum(1.0, np.abs(pts))  # (m, n)
    offsets, a, b = _hessian_stencil(n)
    vals = np.reshape(fn((pts + offsets[:, None, :] * steps).reshape(-1, n)),
                      (len(offsets), m, out_dim))
    f0, fp, fm = vals[0], vals[1:n + 1], vals[n + 1:2 * n + 1]
    fpp, fpm, fmp, fmm = np.split(vals[2 * n + 1:], 4)
    h = steps.T[:, :, None]  # (n, m, 1)
    diag = (fp - 2.0 * f0 + fm) / h**2
    mixed = (fpp - fpm - fmp + fmm) / (4.0 * h[a] * h[b])
    out = np.empty((out_dim, n, n))
    out[:, range(n), range(n)] = np.abs(diag).max(axis=1).T
    out[:, a, b] = out[:, b, a] = np.abs(mixed).max(axis=1).T
    # Noise floor: second differences of a flat function leave cancellation
    # residue of order eps * |f| / h^2.
    scale = np.abs(f0).max(axis=0) + 1e-30
    h_min = steps.min()
    floor = 64.0 * np.finfo(float).eps * scale / h_min**2
    out[out <= floor[:, None, None]] = 0.0
    return out


def _remainder_halfwidths(e: Ellipsoid, fn, jac: np.ndarray) -> np.ndarray:
    """Per-axis remainder bound over the ellipsoid: the larger of the
    remainder maxima over the N_REMAINDER points c + U L^T of
    _remainder_design (L the factor of e) and the worst-case quadratic
    completion 0.5 * sum_ab max|H_j[a,b]| r_a r_b over the enclosing box
    (the classical curvature bound, with the Hessians taken numerically at
    the N_HESSIAN points of the same kind of design).  fn is called twice:
    once on the center and the samples together, once on the Hessian
    stencil."""
    c, lt = e.center, e.factor().T
    x = c + _remainder_design(N_REMAINDER, e.dim) @ lt
    vals = np.atleast_2d(fn(np.vstack([c, x])))
    rem = vals[1:] - vals[:1] - (x - c) @ jac.T
    direct = np.abs(rem).max(axis=0)
    h_pts = c + _remainder_design(N_HESSIAN, e.dim) @ lt
    h_max = hessian_abs_max(fn, h_pts, out_dim=jac.shape[0])
    radii = np.sqrt(np.diag(e.shape))
    quad = 0.5 * np.einsum("jab,a,b->j", h_max, radii, radii)
    return np.maximum(direct, quad)


def remainder_bound_f(e: Ellipsoid, model: SystemModel, k: int) -> np.ndarray:
    """Per-axis half-widths bounding f(x) - f(c) - J (x - c) over e."""
    jac = _f_jacobian(model, e.center, k)
    return _remainder_halfwidths(e, lambda x: model.f(x, k), jac)


def remainder_bound_h(e: Ellipsoid, model: SystemModel) -> np.ndarray:
    """Per-axis half-widths bounding h(x) - h(c) - J (x - c) over e."""
    jac = _h_jacobian(model, e.center)
    return _remainder_halfwidths(e, model.h, jac)


def esmf_predict(e_k: Ellipsoid, model: SystemModel, k: int) -> Ellipsoid:
    """Linearized prediction: propagate the shape through the Jacobian and
    cover the sum with the remainder-inflated process noise.

    On a model that declares linear dynamics F the prediction is exact:
    center F c, shape F P F^T, and the trace-optimal covering sum with Q.
    That path bounds no remainder.
    """
    c = e_k.center
    if model.F is None:
        jac, center = _f_jacobian(model, c, k), model.f(c, k)
        noise = add_remainder(model.Q, remainder_bound_f(e_k, model, k))
    else:
        jac, center, noise = model.F, model.F @ c, model.Q
    lin_shape = symmetrize(jac @ e_k.shape @ jac.T)
    return Ellipsoid(center, covering_sum(lin_shape, noise, optimal_p(lin_shape, noise)))


def esmf_update(e_pred: Ellipsoid, model: SystemModel,
                y: np.ndarray) -> tuple[Ellipsoid, FusionParams]:
    """Linearized measurement update via the shared fusion formulas.

    With y = h(x) + v linearized at the predicted center c, the
    measurement-consistent set is {x : (C x - z)^T R_eff^{-1} (C x - z) <= 1}
    with C the Jacobian, z = y - h(c) + C c, and R_eff the noise bound
    inflated by the sampled remainder bound.  It is fused with the
    prediction at the trace-minimising rho, as in the dsmf update.
    """
    y = np.asarray(y, dtype=float)
    c = e_pred.center
    jac = _h_jacobian(model, c)
    r_eff = add_remainder(model.R, remainder_bound_h(e_pred, model))
    z = y - np.atleast_1d(model.h(c)) + jac @ c
    meas = Ellipsoid(z, r_eff)
    params = optimize_rho(e_pred, meas, jac)
    center, shape, _ = fuse(e_pred, meas, jac, params.rho)
    return Ellipsoid(center, shape), params


def esmf_step(e_k: Ellipsoid, model: SystemModel, y: np.ndarray, k: int) -> Ellipsoid:
    """One extended set-membership filter step."""
    e_pred = esmf_predict(e_k, model, k)
    updated, _ = esmf_update(e_pred, model, y)
    return updated


def _sigma_points(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric sigma-point set: mean +- sqrt(n) * L columns, equal weights.

    Reproduces the mean and covariance exactly and is exact for linear maps.
    """
    n = mean.size
    chol, _ = spd_cholesky(cov, what="sigma-point covariance")
    spread = np.sqrt(n) * chol.T  # rows are sqrt(n) L^T rows = columns of L
    pts = np.vstack([mean + spread, mean - spread])
    weights = np.full(2 * n, 1.0 / (2 * n))
    return pts, weights


def ukf_step(belief: GaussianBelief, model: SystemModel, y: np.ndarray,
             k: int) -> GaussianBelief:
    """One unscented predict/update cycle.

    The noise covariances are those of uniform draws over the bounds
    (uniform_covariance); the measurement update uses the standard
    cross-covariance gain.
    """
    y = np.asarray(y, dtype=float)
    q_cov = uniform_covariance(model.Q)
    r_cov = uniform_covariance(model.R)

    pts, w = _sigma_points(belief.mean, belief.cov)
    xp = model.f(pts, k)
    mean_p = w @ xp
    dx = xp - mean_p
    cov_p = symmetrize(dx.T @ (w[:, None] * dx) + q_cov)

    pts2, w2 = _sigma_points(mean_p, cov_p)
    yp = np.atleast_2d(model.h(pts2))
    y_mean = w2 @ yp
    dy = yp - y_mean
    dx2 = pts2 - mean_p
    s = symmetrize(dy.T @ (w2[:, None] * dy) + r_cov)
    c_xy = dx2.T @ (w2[:, None] * dy)
    chol_s, s = spd_cholesky(s, what="innovation covariance")
    gain = np.linalg.solve(chol_s.T, np.linalg.solve(chol_s, c_xy.T)).T
    mean = mean_p + gain @ (y - y_mean)
    cov = symmetrize(cov_p - gain @ s @ gain.T)
    return GaussianBelief(mean, cov)
