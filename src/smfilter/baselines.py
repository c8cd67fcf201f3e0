"""Comparison filters: an unscented Kalman filter and the extended
set-membership filter that linearizes the model and inflates the noise
bounds by the model's declared bound on the linearization remainder.
Neither filter draws random numbers.

Both carry an Ellipsoid, as the dual filter does: the extended filter its
set, fused by the dual filter's update (dsmf._update), and the unscented
filter its three-sigma set {mean, 9 cov}.  Each steps all the runs of an
experiment together: a sequence of R sets, one per run, on an (R, l) array
of their measurements, returned as a Stack.  The maps f and h, the
covering sums, the remainder inflation, the measurement-set checks, the
esmf fusion (dsmf._update on the R pairs) and the Cholesky factors are each
one stacked call of per-row or per-matrix kernels, so a set's step has the
same bits in any batch, a single set being a batch of one.  The Jacobians
and the remainder bounds, per-set model callbacks, are called set by set.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from .dsmf import FusionParams, SystemModel, _update
from .ellipsoid import (Ellipsoid, Stack, _formed, _stacked, covering_sum, ellipsoids,
                        optimal_p, spd_cholesky, symmetrize)


def uniform_covariance(shape: np.ndarray) -> np.ndarray:
    """Covariance of a uniform draw over the centered ellipsoid with this
    shape: shape / (dim + 2)."""
    return shape * (1.0 / (shape.shape[0] + 2.0))


def add_remainder(noise_shape: np.ndarray, half) -> np.ndarray:
    """Inflate a noise bound by the trace-optimal covering sum with a
    linearization remainder: the box of the per-axis half-widths, inside
    diag(dim * half^2) with its corners; or by each of R rows of
    half-widths, giving R shapes.  Axes with no remainder get a floor of
    1e-12 of the largest half-width, so that shape stays SPD; all-zero
    half-widths leave the noise bound as it is."""
    half = np.asarray(half, dtype=float)
    top, dim = half.max(axis=-1), half.shape[-1]
    none = top == 0.0 if 0.0 in top.reshape(-1).tolist() else None
    if none is not None:  # such a row is summed with a unit box, then keeps its bound
        half, top = np.where(none[..., None], 1.0, half), np.where(none, 1.0, top)
    half = np.maximum(half, 1e-12 * top[..., None])
    box = np.zeros((*half.shape, dim))
    box.reshape(*half.shape[:-1], dim * dim)[..., ::dim + 1] = dim * half**2
    out = covering_sum(noise_shape, box, optimal_p(noise_shape, box))
    return out if none is None else np.where(none[..., None, None], noise_shape, out)


def _f_jacobian(model: SystemModel, x: np.ndarray, k: int) -> np.ndarray:
    if model.F is not None:
        return model.F
    if model.f_jac is None:
        raise ValueError("the model declares neither F nor f_jac")
    return np.asarray(model.f_jac(x, k), dtype=float)


def _h_jacobian(model: SystemModel, x: np.ndarray) -> np.ndarray:
    if model.h_jac is None:
        raise ValueError("the model declares no h_jac")
    return np.atleast_2d(np.asarray(model.h_jac(x), dtype=float))


def remainder_bound_f(e: Ellipsoid, model: SystemModel, k: int) -> np.ndarray:
    """Per-axis half-widths bounding f(x) - f(c) - J (x - c) over e: the
    model's declared f_remainder."""
    if model.f_remainder is None:
        raise ValueError("the model declares no f_remainder")
    return np.asarray(model.f_remainder(e, k), dtype=float)


def remainder_bound_h(e: Ellipsoid, model: SystemModel) -> np.ndarray:
    """Per-axis half-widths bounding h(x) - h(c) - J (x - c) over e: the
    model's declared h_remainder."""
    if model.h_remainder is None:
        raise ValueError("the model declares no h_remainder")
    return np.asarray(model.h_remainder(e), dtype=float)


def esmf_predict(beliefs: list[Ellipsoid], model: SystemModel, k: int) -> Stack:
    """Linearized prediction of each set of a batch: propagate the shape
    through the Jacobian and cover the sum with the remainder-inflated
    process noise.

    On a model that declares linear dynamics F the prediction is exact:
    center F c, shape F P F^T, and the trace-optimal covering sum with Q.
    That path bounds no remainder.  A non-finite center raises ValueError.
    """
    centers, shapes, _ = _stacked(beliefs)
    if model.F is None:
        jac = np.array([_f_jacobian(model, c, k) for c in centers])
        center = np.array(model.f(centers, k), dtype=float)
        noise = add_remainder(model.Q, [remainder_bound_f(e, model, k) for e in beliefs])
    else:
        jac, center, noise = model.F, (model.F @ centers[..., None])[..., 0], model.Q
    if not np.isfinite(center).all():
        raise ValueError("center has a non-finite entry")
    lin_shape = symmetrize(jac @ shapes @ jac.swapaxes(-1, -2))
    chol, shape = spd_cholesky(covering_sum(lin_shape, noise, optimal_p(lin_shape, noise)),
                               what="covering sum")
    return _formed(center, shape, chol)


def esmf_update(preds: list[Ellipsoid], model: SystemModel,
                ys: np.ndarray) -> tuple[Stack, FusionParams]:
    """Linearized measurement update of each set of a batch, set r on row
    r of ys, an (R, l) array of measurements, via the shared fusion
    formulas.

    With y = h(x) + v linearized at the predicted center c, the
    measurement-consistent set is {x : (C x - z)^T R_eff^{-1} (C x - z) <= 1}
    with C the Jacobian, z = y - h(c) + C c, and R_eff the noise bound
    inflated by the model's declared remainder bound.  It is fused with the
    prediction at the trace-minimising rho, as in the dsmf update, in one
    stacked update of all the pairs (dsmf._update).  Returns the updated
    sets and the FusionParams, a tuple of rho and one of delta.
    """
    centers = _stacked(preds)[0]
    jac = np.array([_h_jacobian(model, c) for c in centers])
    r_eff = add_remainder(model.R, [remainder_bound_h(e, model) for e in preds])
    z = np.asarray(ys, dtype=float) - model.h(centers) + (jac @ centers[..., None])[..., 0]
    return _update(preds, ellipsoids(z, r_eff), jac)


def esmf_step(beliefs: list[Ellipsoid], model: SystemModel, ys: np.ndarray,
              k: int) -> Stack:
    """One extended set-membership filter step of each set of a batch, set
    r on row r of ys, an (R, l) array of measurements."""
    return esmf_update(esmf_predict(beliefs, model, k), model, ys)[0]


def _sigma_points(mean: np.ndarray, factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric sigma-point set: mean +- sqrt(n) * columns of a factor L of
    the covariance (L L^T = cov), equal weights; or a stack of such sets.

    Reproduces the mean and covariance exactly and is exact for linear maps.
    """
    n = mean.shape[-1]
    spread = sqrt(n) * factor.swapaxes(-1, -2)  # rows are sqrt(n) L^T rows = columns of L
    mean = mean[..., None, :]
    pts = np.concatenate([mean + spread, mean - spread], axis=-2)
    weights = np.full(2 * n, 1.0 / (2 * n))
    return pts, weights


def ukf_step(beliefs: list[Ellipsoid], model: SystemModel, ys: np.ndarray,
             k: int) -> Stack:
    """One unscented predict/update cycle of each belief of a batch, belief
    r on row r of ys, an (R, l) array of measurements.

    A belief is carried as its three-sigma set {mean, 9 cov}, the set
    whose size and containment are reported, so the first sigma set is
    built on a third of its factor.  The noise covariances are those of
    uniform draws over the bounds (uniform_covariance); the measurement
    update uses the standard cross-covariance gain.  Each operation is one
    stacked call of per-matrix kernels, so a belief's result has the same
    bits in any batch.  Any belief's failed factorization raises SpdError.
    """
    ys = np.asarray(ys, dtype=float)
    q_cov, r_cov = uniform_covariance(model.Q), uniform_covariance(model.R)

    centers, _, factors = _stacked(beliefs)
    pts, w = _sigma_points(centers, factors / 3.0)
    xp = model.f(pts, k)
    mean_p = w @ xp
    dx = xp - mean_p[:, None]
    w_col = w[:, None]
    cov_p = symmetrize(dx.swapaxes(1, 2) @ (w_col * dx) + q_cov)

    chol_p, _ = spd_cholesky(cov_p, what="sigma-point covariance")
    pts2, _ = _sigma_points(mean_p, chol_p)  # the same weights w
    yp = model.h(pts2)
    y_mean = w @ yp
    dy = yp - y_mean[:, None]
    dy_w = w_col * dy
    chol_s, s = spd_cholesky(symmetrize(dy.swapaxes(1, 2) @ dy_w + r_cov),
                             what="innovation covariance")
    c_xy = (pts2 - mean_p[:, None]).swapaxes(1, 2) @ dy_w
    # Each right-hand side is a stack of matrices, never a stack of vectors.
    gain = np.linalg.solve(chol_s.swapaxes(1, 2),
                           np.linalg.solve(chol_s, c_xy.swapaxes(1, 2))).swapaxes(1, 2)
    mean = mean_p + (gain @ (ys - y_mean)[:, :, None])[:, :, 0]
    cov = symmetrize(cov_p - gain @ s @ gain.swapaxes(1, 2))
    return ellipsoids(mean, 9.0 * cov)
