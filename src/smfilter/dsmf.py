"""Dual set-membership filter: the two-phase ellipsoidal recursion.

Prediction covers the nonlinear image of the current state ellipsoid with
an enclosing-ellipsoid solve over the image of a fixed design of boundary
points, then adds the process-noise bound through the parametric covering
sum.  The measurement update encloses the inverse-measurement set the same
way, over the same kind of design on the noise boundary, and fuses it with
the prediction using the classical linear set-membership update, written
on one joint diagonalisation per update, with the mixing parameter rho
chosen by a vectorised grid search on the closed-form fused trace.  The
filter draws no random numbers: one state and measurement sequence always
gives the same sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil, sqrt
from typing import Callable

import numpy as np

from .ellipsoid import (
    Ellipsoid,
    PointCloud,
    _sphere,
    covering_sum,
    optimal_p,
    spd_cholesky,
    symmetrize,
)
from .errors import EmptyIntersectionError, RankDeficiencyError
from .mvee import MveeSolution, fw_solve

RHO_EDGE = 1e-6  # the update formulas divide by rho and 1-rho
RHO_TOL = 1e-6


@dataclass(frozen=True)
class SystemModel:
    """Dynamics, measurement maps and noise bounds for one filtering problem.

    All maps are vectorized over a leading batch axis: f and h take (..., n)
    states; h_inv takes one measurement y, a (..., l) batch of noise samples
    and a tuple of (...,) auxiliary parameter arrays, returning (..., r)
    projected-state points with E_p x = h_inv(y - v).

    The sizes are those of the noise bounds: state_dim n is the order of Q,
    meas_dim l that of R.  f_jac / h_jac are optional analytic Jacobians
    used by the linearizing baseline (finite differences otherwise).  F,
    when given, declares the dynamics linear, f(x, k) = x F^T for every k:
    an (n, n) finite matrix, stored read-only, which is then the Jacobian
    of f and with which the linearizing baseline predicts exactly (no
    remainder bound).  aux_from_predicted maps a predicted ellipsoid to an
    (n_aux, 2) array of [lo, hi] parameter bounds for models whose inverse
    needs extra state information (None when the inverse depends on y and
    v only).
    """

    f: Callable[[np.ndarray, int], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    h_inv: Callable[[np.ndarray, np.ndarray, tuple], np.ndarray]
    E_p: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    f_jac: Callable[[np.ndarray, int], np.ndarray] | None = None
    h_jac: Callable[[np.ndarray], np.ndarray] | None = None
    aux_from_predicted: Callable[[Ellipsoid], np.ndarray] | None = None
    F: np.ndarray | None = None

    def __post_init__(self):
        for name, what in (("Q", "process noise shape"), ("R", "measurement noise shape")):
            bound = np.asarray(getattr(self, name), dtype=float)
            if bound.ndim != 2 or bound.shape[0] != bound.shape[1]:
                raise ValueError(f"{name} is {bound.shape}, expected a square matrix")
            bound = symmetrize(bound)
            spd_cholesky(bound, what=what)
            bound.setflags(write=False)
            object.__setattr__(self, name, bound)
        n = self.state_dim
        if self.F is not None:
            f_mat = np.array(self.F, dtype=float)
            if f_mat.shape != (n, n):
                raise ValueError(f"F is {f_mat.shape}, expected ({n}, {n}) as Q")
            if not np.all(np.isfinite(f_mat)):
                raise ValueError("F has a non-finite entry")
            f_mat.setflags(write=False)
            object.__setattr__(self, "F", f_mat)
        ep = np.atleast_2d(np.asarray(self.E_p, dtype=float))
        if ep.shape[1] != n:
            raise ValueError(f"E_p has {ep.shape[1]} columns, expected {n} as Q")
        if np.linalg.matrix_rank(ep) != ep.shape[0]:
            raise ValueError("E_p must have full row rank")
        ep.setflags(write=False)
        object.__setattr__(self, "E_p", ep)

    @property
    def state_dim(self) -> int:
        return self.Q.shape[0]

    @property
    def meas_dim(self) -> int:
        return self.R.shape[0]


@dataclass(frozen=True)
class FilterOptions:
    """Knobs shared by the filter steps.

    m_samples is the number of design points of each enclosing solve; they
    lie on the boundary of the state or noise ellipsoid, whose images carry
    the active constraints for the smooth invertible maps used here.  The
    design is fixed per (m_samples, dimension) (see _design).  The solver
    budget (tol, max_iter) is looser than the standalone solver default:
    every solve scales its shape to cover its cloud, tol = 1e-5 already
    keeps that scale of a converged solve within 1 + 2e-5, and a filter run
    performs thousands of solves.  Cold solves converge in tens of
    iterations, those started from the last step's weights in a few;
    max_iter only bounds a pathological cloud, whose capped solve may need
    a larger scale.  Fusion has no knob: every update takes the rho that
    minimises the fused trace (optimize_rho).
    """

    m_samples: int = 200
    tol: float = 1e-5
    max_iter: int | None = 1000

    def __post_init__(self):
        if self.m_samples < 2:
            raise ValueError("m_samples must be at least 2")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(frozen=True)
class FusionParams:
    """Fusion diagnostics: mixing weight rho, consistency delta (< 1 for a
    nonempty intersection) and the covering-sum parameter used in the
    prediction that produced the fused estimate."""

    rho: float
    delta: float
    p_star: float | None = None


@dataclass(frozen=True)
class StepRecord:
    """Everything one filter step produced."""

    k: int
    predicted: Ellipsoid
    measurement: Ellipsoid
    updated: Ellipsoid
    params: FusionParams
    solves: tuple  # the (prediction, measurement) MveeSolutions


@lru_cache(maxsize=16)
def _design(m: int, n: int) -> np.ndarray:
    """The fixed design of every enclosing solve: m unit directions in R^n,
    read-only.  For n = 2 they are m equispaced angles; otherwise the
    _sphere draw of a generator seeded by (m, n), the same on every call."""
    if n == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        u = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        u = _sphere(m, n, np.random.Generator(np.random.PCG64([m, n])))
    u.setflags(write=False)
    return u


def _enclose(points: np.ndarray, opts: FilterOptions, what: Callable[[], str],
             start) -> MveeSolution:
    """The enclosing solve of a cloud from start weights (None: cold), its
    rank errors prefixed with what(), built only when one is raised."""
    try:
        return fw_solve(PointCloud(points), tol=opts.tol, max_iter=opts.max_iter,
                        start=start)
    except RankDeficiencyError as err:
        raise RankDeficiencyError(
            f"{what()}: {err}", rank=err.rank, required=err.required
        ) from err


def predict(e_k: Ellipsoid, model: SystemModel, k: int, opts: FilterOptions,
            start=None) -> tuple[Ellipsoid, MveeSolution, float]:
    """Propagate the state ellipsoid through the dynamics.

    Maps the design points c + E u of the boundary of e_k through f(., k),
    encloses the image, and adds the process-noise bound with the
    trace-optimal covering sum.  The center is the enclosing-ellipsoid
    center; the covering sum never moves it.  The solve starts from the
    start weights over the design when given (see fw_solve).  Returns
    (predicted ellipsoid, enclosing solve, covering-sum parameter p_star).
    """
    if opts.m_samples < model.state_dim + 1:
        raise ValueError("m_samples must be at least state_dim + 1")
    boundary = e_k.center + _design(opts.m_samples, model.state_dim) @ e_k.factor().T
    sol = _enclose(model.f(boundary, k), opts, lambda: f"prediction at step {k}", start)
    center, shape = sol.ellipsoid.center, sol.ellipsoid.shape
    p_star = optimal_p(shape, model.Q)
    return Ellipsoid(center, covering_sum(shape, model.Q, p_star)), sol, p_star


def measurement_ellipsoid(y: np.ndarray, model: SystemModel, aux,
                          opts: FilterOptions,
                          start=None) -> tuple[Ellipsoid, MveeSolution]:
    """Enclose the inverse-measurement set for a received measurement.

    The cloud is the product grid of noise directions of the design on the
    boundary of the measurement-noise ellipsoid times one equispaced grid
    per auxiliary parameter interval (aux is an (n_aux, 2) array of [lo, hi]
    bounds, or None).  Without aux there are m_samples noise directions;
    with it, the noise and every interval get ceil(sqrt(m_samples)) points,
    rounded up to even so that opposite noise extremes are both hit, and
    each interval grid includes its endpoints.  The solve starts from the
    start weights over that cloud when given.
    """
    y = np.asarray(y, dtype=float)
    aux = np.empty((0, 2)) if aux is None else np.reshape(aux, (-1, 2))
    count = opts.m_samples
    if len(aux):
        count = ceil(sqrt(opts.m_samples))
        count += count % 2
    grids = [np.linspace(lo, hi, count) for lo, hi in aux]
    noise = _design(count, model.meas_dim) @ spd_cholesky(model.R)[0].T
    # Noise direction slowest, then each parameter grid in turn.
    mesh = np.meshgrid(np.arange(count), *grids, indexing="ij")
    pts = model.h_inv(y, noise[mesh[0].ravel()], tuple(g.ravel() for g in mesh[1:]))
    sol = _enclose(pts, opts, lambda: f"measurement set for y={y}", start)
    return sol.ellipsoid, sol


def _joint_diag(pred: Ellipsoid, meas: Ellipsoid, e_p) -> tuple:
    """The fusion problem on one joint diagonalisation, shared by every rho.

    With L = chol(P), M = chol(P_z), the SVD M^{-1} E_p L = V diag(s) U^T
    and h = V^T M^{-1} (z - E_p x), s and h zero-padded to length n (E_p
    has r <= n rows), returns (L U, s h, at_rho): at_rho(rho) gives delta
    and the scales d_i = 1 - rho + rho s_i^2 for a scalar rho or an array
    of them (delta then has the shape of rho, d one more axis).
    """
    e_p = np.atleast_2d(np.asarray(e_p, dtype=float))
    n, r = pred.dim, meas.dim
    if e_p.shape != (r, n) or r > n:
        raise ValueError(f"E_p is {e_p.shape}, expected ({r}, {n}) with {r} <= {n}")
    chol_p = pred.factor()
    chol_z = meas.factor()
    v, s_r, ut = np.linalg.svd(np.linalg.solve(chol_z, e_p @ chol_p))
    s, h = np.zeros(n), np.zeros(n)
    s[:r], h[:r] = s_r, v.T @ np.linalg.solve(chol_z, meas.center - e_p @ pred.center)
    s2, h2 = s**2, h**2

    def at_rho(rho):
        rho = np.asarray(rho, dtype=float)[..., None]
        d = 1.0 - rho + rho * s2
        return (rho * (1.0 - rho) * h2 / d).sum(axis=-1), d

    return chol_p @ ut.T, s * h, at_rho


def fuse(pred: Ellipsoid, meas: Ellipsoid, e_p: np.ndarray,
         rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """One linear set-membership fusion of a prediction {x, P} with a
    measurement ellipsoid {z, P_z} living in the projected space z = E_p x.

    Returns (center, shape, delta) of the fused ellipsoid.  On the joint
    diagonalisation of _joint_diag, with d_i = 1 - rho + rho s_i^2,

        delta   = rho (1-rho) sum_i h_i^2 / d_i
        center  = x + rho L U diag(1/d) (s h)
        shape   = (1-delta) L U diag(1/d) (L U)^T

    which is the classical (1-delta) [(1-rho) P^{-1} + rho E_p^T P_z^{-1}
    E_p]^{-1} with no matrix inverted: every d_i is positive.  delta >= 1
    means the two sets cannot intersect and raises EmptyIntersectionError.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    basis, gain, at_rho = _joint_diag(pred, meas, e_p)
    delta, d = at_rho(rho)
    delta = float(delta)
    if delta >= 1.0:
        raise EmptyIntersectionError(
            f"prediction and measurement sets are disjoint (delta={delta:.6g})",
            delta=delta,
        )
    center = pred.center + rho * (basis @ (gain / d))
    shape = symmetrize((1.0 - delta) * (basis / d) @ basis.T)
    return center, shape, delta


def optimize_rho(pred: Ellipsoid, meas: Ellipsoid, e_p: np.ndarray) -> FusionParams:
    """Pick the fusion weight minimizing the trace of the fused ellipsoid.

    On the joint diagonalisation of fuse the trace is a sum of scalars,
    (1-delta) sum_i a_i / d_i with a_i = ||L u_i||^2.  Each pass
    evaluates it on 65 points of the bracket at once and narrows the
    bracket to the grid points either side of the argmin: five passes from
    [RHO_EDGE, 1 - RHO_EDGE] reach RHO_TOL.  Each grid is the
    np.linspace(lo, hi, 65) of its bracket, formed as linspace forms it
    from one arange per search.  Returns the best point of the last grid,
    with the delta fuse gives there.

    The fused set at any rho contains the intersection of the two sets, and
    delta >= 1 leaves it at most one point; so EmptyIntersectionError is
    raised as soon as any grid point has delta >= 1.
    """
    basis, _, at_rho = _joint_diag(pred, meas, e_p)
    a = (basis * basis).sum(axis=0)
    lo, hi = RHO_EDGE, 1.0 - RHO_EDGE
    offsets = np.arange(65.0)
    while True:
        grid = offsets * ((hi - lo) / (offsets.size - 1)) + lo
        grid[-1] = hi
        delta, d = at_rho(grid)
        worst = int(np.argmax(delta))
        if delta[worst] >= 1.0:
            raise EmptyIntersectionError(
                f"delta = {delta[worst]:.6g} >= 1 at rho = {grid[worst]:.6g}: "
                "prediction and measurement sets meet in at most one point",
                delta=float(delta[worst]),
            )
        j = int(np.argmin((1.0 - delta) * (a / d).sum(axis=-1)))
        if hi - lo <= RHO_TOL:
            rho = float(grid[j])
            return FusionParams(rho=rho, delta=float(at_rho(rho)[0]))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]


def step(e_k: Ellipsoid, model: SystemModel, y: np.ndarray, k: int,
         opts: FilterOptions, start=None) -> StepRecord:
    """One full filter step: predict, enclose the measurement set, pick rho,
    fuse.  Both solves start cold, or from start: the last step's weights.
    Both enclosing solves are kept in the record."""
    pred_start, meas_start = (None, None) if start is None else start
    predicted, sol_pred, p_star = predict(e_k, model, k, opts, pred_start)
    aux = None
    if model.aux_from_predicted is not None:
        aux = model.aux_from_predicted(predicted)
    meas, sol_meas = measurement_ellipsoid(y, model, aux, opts, meas_start)
    try:
        params = optimize_rho(predicted, meas, model.E_p)
        center, shape, _ = fuse(predicted, meas, model.E_p, params.rho)
    except EmptyIntersectionError as err:
        raise EmptyIntersectionError(
            f"step {k}: {err}", delta=err.delta
        ) from err
    return StepRecord(
        k=k,
        predicted=predicted,
        measurement=meas,
        updated=Ellipsoid(center, shape),
        params=replace(params, p_star=p_star),
        solves=(sol_pred, sol_meas),
    )
