"""Dual set-membership filter: the two-phase ellipsoidal recursion.

Prediction covers the nonlinear image of the current state ellipsoid with an
enclosing-ellipsoid solve over the image of a fixed design of boundary
points, then adds the process-noise bound through the parametric covering
sum.  The measurement update encloses the inverse-measurement set the same
way, over the same kind of design on the noise boundary, and fuses it with
the prediction using the classical linear set-membership update, written on
a joint diagonalisation of the two sets.  There the fused trace and the
consistency delta are sums of n scalars in the mixing parameter rho, with
closed-form derivatives: one bracketed Newton solve over the whole search
interval finds rho on the trace's derivative, and emptiness on that of the
concave delta.  The fusion functions take one pair of sets, or each pair of
two sequences of R sets (a Stack or a list), as spd_cholesky takes one
matrix or a stack: the diagonalisation is one stacked solve and SVD, and
each pair's rho is searched alone in Python floats, so a pair's result has
the same bits alone or in any stack.  An update diagonalises once: it calls
optimize_rho, then fuse, which finds the search's stacked diagonalisation in
a one-slot memo and the search's delta at its rho in another; both calls
stay, as the benchmark (smbench/tracer.py) times them as two layers.  The
filter draws no random numbers: one measurement sequence gives one result.

Each enclosing solve starts near its optimum: from the last step's weights,
else the optimum of its design (exact on an affine image of it), or for a
run's first prediction over curved dynamics, _prediction_start's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, sqrt
from typing import Callable

import numpy as np

from . import mvee
from .ellipsoid import (
    Ellipsoid,
    PointCloud,
    Stack,
    _checked,
    _formed,
    _sphere,
    _stacked,
    covering_sum,
    optimal_p,
    spd_cholesky,
    symmetrize,
)
from .errors import EmptyIntersectionError, RankDeficiencyError
from .mvee import MveeSolution, fw_solve

RHO_EDGE = 1e-6  # the update formulas divide by rho and 1-rho
RHO_TOL = 1e-6  # the accuracy the rho search is held to


@dataclass(frozen=True)
class SystemModel:
    """Dynamics, measurement maps and noise bounds for one filtering problem.

    All maps are vectorized over a leading batch axis: f and h take (..., n)
    states, and give each state of a batch the bits of a call on it alone,
    which the lockstep roll-out of all runs (scenarios.simulate_truth)
    relies on; h_inv takes one measurement y, a read-only (..., l) batch of
    noise samples and a tuple of (...,) auxiliary parameter arrays,
    returning (..., r) projected-state points with E_p x = h_inv(y - v).

    The sizes are those of the noise bounds: state_dim n is the order of Q,
    meas_dim l that of R.  f_jac / h_jac are the analytic Jacobians and
    f_remainder / h_remainder the linearization remainder bounds that only
    the linearizing baseline needs, and it raises without them:
    f_remainder(e, k) -> (n,) and h_remainder(e) -> (l,) are per-output
    half-widths bounding f(x, k) - f(c, k) - J(c) (x - c), and the same for
    h, over every x in the ellipsoid e with center c.  F, when given,
    declares the dynamics linear, f(x, k) = x F^T for every k: an (n, n)
    finite matrix, stored read-only, which is then the Jacobian of f and
    with which the linearizing baseline predicts exactly (no remainder
    bound, so no f_remainder).  aux_from_predicted maps a predicted
    ellipsoid to an (n_aux, 2) array of [lo, hi] parameter bounds for models
    whose inverse needs extra state information (None when the inverse
    depends on y and v only).  Q and R are copied read-only and checked as
    an Ellipsoid's shape is (_checked): an asymmetric one is a ValueError,
    not averaged into another bound than the one declared.  The Cholesky
    factors of that check are kept, read-only, as _q_factor and _r_factor,
    so that the noise balls {0, Q} and {0, R} are never checked again.
    """

    f: Callable[[np.ndarray, int], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    h_inv: Callable[[np.ndarray, np.ndarray, tuple], np.ndarray]
    E_p: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    f_jac: Callable[[np.ndarray, int], np.ndarray] | None = None
    h_jac: Callable[[np.ndarray], np.ndarray] | None = None
    f_remainder: Callable[[Ellipsoid, int], np.ndarray] | None = None
    h_remainder: Callable[[Ellipsoid], np.ndarray] | None = None
    aux_from_predicted: Callable[[Ellipsoid], np.ndarray] | None = None
    F: np.ndarray | None = None
    # The Cholesky factors of Q and R, from their checks in __post_init__.
    _q_factor: np.ndarray = field(init=False, repr=False, compare=False)
    _r_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, what in (("Q", "process noise shape"), ("R", "measurement noise shape")):
            bound = np.array(getattr(self, name), dtype=float)
            if bound.ndim != 2 or bound.shape[0] != bound.shape[1]:
                raise ValueError(f"{name} is {bound.shape}, expected a square matrix")
            for attr, arr in zip((name, f"_{name.lower()}_factor"),
                                 _checked(np.zeros(len(bound)), bound, what)):
                arr.setflags(write=False)
                object.__setattr__(self, attr, arr)
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
        if not np.all(np.isfinite(ep)):
            raise ValueError("E_p has a non-finite entry")
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
    performs thousands of solves.  Each solve starts near its optimum (see
    predict and measurement_ellipsoid), so most take no iteration; max_iter
    only bounds a pathological cloud, whose capped solve may need a larger
    scale.  Fusion has no knob: every update takes the rho that minimises
    the fused trace (optimize_rho).
    """

    m_samples: int = 200
    tol: float = 1e-5
    max_iter: int | None = 1000

    def __post_init__(self):
        if self.m_samples < 2:
            raise ValueError("m_samples must be at least 2")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")


@dataclass(frozen=True)
class FusionParams:
    """Fusion diagnostics: mixing weight rho, consistency delta (< 1 when
    the sets meet) and the covering-sum parameter of the prediction; rho
    and delta are floats for one pair, tuples for a stack of pairs."""

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


@lru_cache(maxsize=16)
def _design_optimum(m: int, n: int) -> np.ndarray:
    """The optimal weights of the enclosing solve over _design(m, n), at the
    solver's default tol, read-only.  The dual is affine-invariant (Todd
    2016), so they are optimal over every affine image of the design too,
    and near-optimal over a near-affine one.  Solved on first use, not at
    import, through the mvee module rather than this module's fw_solve,
    which tools may wrap to record the filter's own clouds."""
    return mvee.fw_solve(_design(m, n)).weights


def _boundary(e: Ellipsoid, design: tuple) -> np.ndarray:
    """The design points c + E u on the boundary of e."""
    return e.center + _design(*design) @ e.factor().T


@lru_cache(maxsize=16)
def _nominal_optimum(cloud: bytes, shape: tuple, tol: float, max_iter: int | None) -> np.ndarray:
    """The weights of the enclosing solve over the (m, n) float64 cloud whose
    C-order bytes are `cloud`, started from _design_optimum(m, n).  Keyed on
    the cloud, not a model, so experiments on one nominal set share one solve."""
    return mvee.fw_solve(np.frombuffer(cloud).reshape(shape), tol=tol, max_iter=max_iter,
                         start=_design_optimum(*shape)).weights


def _prediction_start(e0: Ellipsoid, model: SystemModel,
                      opts: FilterOptions) -> np.ndarray | None:
    """The weights of the first prediction's enclosing solve from e0, over
    f(c + design E^T, 0) and started from the design optimum; None for a
    model that declares F, where the design optimum is exact.  Solved once
    per process for each nominal cloud (_nominal_optimum).

    Every design point has kappa within rounding of d, so the design's
    optimum is an arbitrary vertex of its optimal face, 15-25 passes from
    the optimum over a curved image.  The optimum over the image of a set
    of the same shape nearby is about one pass from it.  Solved through the
    mvee module, as _design_optimum is."""
    if model.F is not None:
        return None
    design = (opts.m_samples, model.state_dim)
    cloud = np.asarray(model.f(_boundary(e0, design), 0), dtype=float)
    return _nominal_optimum(cloud.tobytes(), cloud.shape, opts.tol, opts.max_iter)


def _enclose(points: np.ndarray, opts: FilterOptions, what: Callable[[], str],
             start, design: tuple | None) -> MveeSolution:
    """The enclosing solve of a cloud whose row i is the image of row i of
    _design(*design).  It starts from start, the last step's weights; with
    none, from _design_optimum(*design); with no design either, cold.  Its
    rank errors are prefixed with what(), built only when one is raised."""
    try:
        if start is None and design is not None:
            start = _design_optimum(*design)
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
    start weights over the design when given (the last step's, or for a
    run's first step the optimum from _prediction_start), else from the
    design's own optimum, which is already optimal when f is affine (see
    fw_solve).
    Returns (predicted ellipsoid, enclosing solve, covering-sum parameter
    p_star).
    """
    design = (opts.m_samples, model.state_dim)
    sol = _enclose(model.f(_boundary(e_k, design), k), opts,
                   lambda: f"prediction at step {k}", start, design)
    center, shape = sol.ellipsoid.center, sol.ellipsoid.shape
    p_star = optimal_p(shape, model.Q)
    chol, shape = spd_cholesky(covering_sum(shape, model.Q, p_star), what="covering sum")
    return Ellipsoid._from_factor(center, shape, chol), sol, p_star


@lru_cache(maxsize=16)
def _noise_grid(r_factor: bytes, l: int, count: int, n_aux: int) -> tuple:
    """The constant parts of a measurement cloud of count noise directions
    times n_aux parameter grids of count points, in C order (noise direction
    slowest, then each parameter in turn), read-only: the noise rows
    _design(count, l) @ R_f^T, each repeated once per grid point, and the
    (n_aux, rows) index of each parameter's grid point in every row.  Keyed
    on the C-order bytes of the (l, l) factor R_f of R, as _nominal_optimum
    is keyed on its cloud, so that models with one R share them."""
    index = np.indices((count,) * (n_aux + 1)).reshape(n_aux + 1, -1)
    noise = (_design(count, l) @ np.frombuffer(r_factor).reshape(l, l).T)[index[0]]
    noise.setflags(write=False)
    index.setflags(write=False)
    return noise, index[1:]


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
    each interval grid includes its endpoints.  The noise rows and the grid's
    index pattern are constants of R and the grid's size (_noise_grid), so
    each interval enters by indexing its one np.linspace.  The solve starts from the
    start weights over that cloud when given.  Else, without aux, the cloud
    is the image of the noise design alone and the solve starts from that
    design's optimum; the product grid with aux starts cold.
    """
    y = np.asarray(y, dtype=float)
    aux = np.empty((0, 2)) if aux is None else np.reshape(aux, (-1, 2))
    count, design = opts.m_samples, (opts.m_samples, model.meas_dim)
    if len(aux):
        count, design = ceil(sqrt(opts.m_samples)), None
        count += count % 2
    noise, index = _noise_grid(model._r_factor.tobytes(), model.meas_dim, count, len(aux))
    pts = model.h_inv(y, noise, tuple(np.linspace(lo, hi, count)[at]
                                      for (lo, hi), at in zip(aux, index)))
    sol = _enclose(pts, opts, lambda: f"measurement set for y={y}", start, design)
    return sol.ellipsoid, sol


_last_joint = (None,) * 5  # pred, meas, E_p shape and bytes, result
_last_search = (None,) * 3  # joint result, rho, (rho column, delta, scales) there


def _joint_diag(pred, meas, e_p) -> tuple:
    """The fusion problem on one joint diagonalisation, shared by every rho:
    of one pair of sets, or of each pair of two sequences of R sets (lists
    or Stacks), on one (r, n) map E_p or an (R, r, n) stack of them.

    With L = chol(P), M = chol(P_z), the SVD M^{-1} E_p L = V diag(s) U^T
    and h = V^T M^{-1} (z - E_p x), s and h zero-padded to length n (E_p
    has r <= n rows), returns (x, L U, s^2, h^2, s h), read-only, each
    stacked over the pairs of sequences.  One solve with M takes both
    right-hand sides; a stack takes one solve and one SVD, which LAPACK
    makes matrix by matrix, so each pair's figures have the same bits in
    any stack.  The last result is kept, and given again for the same two
    sets or Stacks (each immutable) and an E_p of the same bytes: so the
    fuse after an update's rho search does not diagonalise again.
    """
    global _last_joint
    e_p = np.atleast_2d(np.asarray(e_p, dtype=float))
    last, key = _last_joint, e_p.tobytes()
    if last[0] is pred and last[1] is meas and last[2:4] == (e_p.shape, key):
        return last[4]
    (x, _, chol_p), (z, _, chol_m) = _stacked(pred), _stacked(meas)
    lead, n, r = x.shape[:-1], x.shape[-1], z.shape[-1]
    if z.shape[:-1] != lead or e_p.shape[-2:] != (r, n) or e_p.shape[:-2] not in ((), lead) \
            or r > n:
        raise ValueError(f"E_p is {e_p.shape} for predictions {x.shape} and measurement "
                         f"centers {z.shape}: expected ({r}, {n}) with {r} <= {n}, "
                         "or one per pair")
    rhs = np.empty((*lead, r, n + 1))
    rhs[..., :n] = e_p @ chol_p
    rhs[..., n] = z - (e_p @ x[..., None])[..., 0]
    whitened = np.linalg.solve(chol_m, rhs)
    v, s_r, ut = np.linalg.svd(whitened[..., :n])
    s, h = np.zeros((*lead, n)), np.zeros((*lead, n))
    s[..., :r] = s_r
    h[..., :r] = (v.swapaxes(-1, -2) @ whitened[..., n:])[..., 0]
    out = (x, chol_p @ ut.swapaxes(-1, -2), s**2, h**2, s * h)
    for arr in out:
        arr.setflags(write=False)
    if isinstance(pred, (Ellipsoid, Stack)) and isinstance(meas, (Ellipsoid, Stack)):
        _last_joint = (pred, meas, e_p.shape, key, out)
    return out


def _fused_delta(rho, s2: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta and the scales d_i = 1 - rho + rho s_i^2 at one rho, or per
    row of stacked s^2 and h^2 at an (R, 1) column of rho: the one formula
    of delta, for fuse and for the delta optimize_rho returns."""
    d = 1.0 - rho + rho * s2
    return (rho * (1.0 - rho) * h2 / d).sum(axis=-1), d


def fuse(pred, meas, e_p, rho) -> tuple:
    """One linear set-membership fusion of a prediction {x, P} with a
    measurement ellipsoid {z, P_z} living in the projected space z = E_p x:
    of one pair at a float rho, or of each pair of two sequences of R sets
    at a sequence of R rho, on one E_p or a stack (_joint_diag).

    Returns (center, shape, delta) of the fused ellipsoid, or their stacks
    over the pairs, delta then a list.  On the joint diagonalisation of
    _joint_diag, with d_i = 1 - rho + rho s_i^2,

        delta   = rho (1-rho) sum_i h_i^2 / d_i
        center  = x + rho L U diag(1/d) (s h)
        shape   = (1-delta) L U diag(1/d) (L U)^T

    which is the classical (1-delta) [(1-rho) P^{-1} + rho E_p^T P_z^{-1}
    E_p]^{-1} with no matrix inverted: every d_i is positive.  delta >= 1
    means the two sets cannot intersect and raises EmptyIntersectionError
    (for a stack, when any pair's does).  rho outside (0, 1) is a
    ValueError.
    """
    joint = _joint_diag(pred, meas, e_p)
    x, basis, s2, h2, gain = joint
    if _last_search[0] is joint and _last_search[1] is rho:  # the search's own rho
        rho, delta, d = _last_search[2]
    else:
        rhos = [rho] if s2.ndim == 1 else list(rho)
        if not all(0.0 < r < 1.0 for r in rhos):
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        rho = rho if s2.ndim == 1 else np.array(rhos)[:, None]
        delta, d = _fused_delta(rho, s2, h2)
    deltas = delta.tolist()
    worst = max(deltas) if s2.ndim > 1 else deltas
    if worst >= 1.0:
        raise EmptyIntersectionError(
            f"prediction and measurement sets are disjoint (delta={worst:.6g})", delta=worst)
    center = x + rho * (basis @ (gain / d)[..., None])[..., 0]
    weight = 1.0 - delta if s2.ndim == 1 else (1.0 - delta)[:, None, None]
    shape = symmetrize(weight * (basis / d[..., None, :]) @ basis.swapaxes(-1, -2))
    return center, shape, deltas


_NEWTON_STEP = 1e-9  # the rho search stops at a step this short


def _scalars(rho: float, terms: list) -> tuple:
    """delta, S = sum_i a_i / d_i and their first two derivatives in rho,
    (delta, delta', delta'', S, S', S''), in Python floats over the terms
    (a_i, h_i^2, e_i = s_i^2 - 1, s_i^2), with d_i = 1 + rho e_i."""
    weight, slope = rho * (1.0 - rho), 1.0 - 2.0 * rho
    delta = delta1 = delta2 = size = size1 = size2 = 0.0
    for a, h2, e, s2 in terms:
        inv = 1.0 / (1.0 + rho * e)
        inv2 = inv * inv
        delta += weight * h2 * inv
        delta1 += h2 * (slope - rho * rho * e) * inv2
        delta2 -= 2.0 * h2 * s2 * inv2 * inv
        size += a * inv
        size1 -= a * e * inv2
        size2 += 2.0 * a * e * e * inv2 * inv
    return delta, delta1, delta2, size, size1, size2


def _delta_slope(rho: float, terms: list) -> tuple[float, float]:
    """-delta' and -delta'': a rising slope through the maximum of the
    concave delta (delta'' = -2 sum_i h_i^2 s_i^2 / d_i^3 <= 0)."""
    _, delta1, delta2, _, _, _ = _scalars(rho, terms)
    return -delta1, -delta2


def _trace_slope(rho: float, terms: list) -> tuple[float, float]:
    """T' and T'' of the fused trace T = (1 - delta) S."""
    delta, delta1, delta2, size, size1, size2 = _scalars(rho, terms)
    return (-delta1 * size + (1.0 - delta) * size1,
            -delta2 * size - 2.0 * delta1 * size1 + (1.0 - delta) * size2)


def _newton(slope: Callable, terms: list) -> float:
    """The zero of a rising slope(rho, terms) -> (f, f') on [RHO_EDGE,
    1 - RHO_EDGE], by safeguarded Newton steps.

    When the slope is >= 0 at RHO_EDGE, RHO_EDGE is returned, and when it
    is <= 0 at 1 - RHO_EDGE, that end.  Otherwise the interval brackets a
    zero, and the steps start from the end with the smaller |slope|: a
    Newton step is taken when it lands inside the bracket and is at most
    half the last step, else the bracket is bisected, until a step is at
    most _NEWTON_STEP.
    """
    lo, hi = RHO_EDGE, 1.0 - RHO_EDGE
    f, df = slope(lo, terms)
    if f >= 0.0:
        return lo
    f_hi, df_hi = slope(hi, terms)
    if f_hi <= 0.0:
        return hi
    x, f, df = (lo, f, df) if -f <= f_hi else (hi, f_hi, df_hi)
    step = hi - lo
    while True:
        if df > 0.0 and lo <= x - f / df <= hi and abs(f) <= 0.5 * step * df:
            new = x - f / df
        else:
            new = 0.5 * (lo + hi)
        step = abs(new - x)
        x = new
        if step <= _NEWTON_STEP:
            return x
        f, df = slope(x, terms)
        if f < 0.0:
            lo = x
        elif f > 0.0:
            hi = x
        else:
            return x


def optimize_rho(pred, meas, e_p) -> FusionParams:
    """Pick the fusion weight minimizing the trace of the fused ellipsoid:
    of one pair, with float rho and delta, or of each pair of two sequences
    of R sets (as fuse takes them), with a tuple of each.

    On the joint diagonalisation of fuse, with d_i = 1 + rho e_i and e_i =
    s_i^2 - 1, the fused trace is T = (1 - delta) S with S = sum_i a_i /
    d_i and a_i = ||L u_i||^2, and delta = rho (1-rho) sum_i h_i^2 / d_i;
    both have closed-form first and second derivatives in rho.  rho is the
    zero of T' on [RHO_EDGE, 1 - RHO_EDGE] (_newton), or the edge T rises
    from, as on every robot update; returned with the delta fuse gives
    there.  Each pair is searched alone, in Python floats, so its rho has
    the same bits in any stack.  T was unimodal on every case probed (every
    dsmf and esmf update of both presets, thousands of random pairs,
    near-empty cases with delta's maximum up to 0.9999), so that zero is its
    minimum, as the fine-grid oracle tests check.  Soundness does not rest
    on it: the fused set at any rho with delta < 1 contains the
    intersection of the sets.

    delta >= 1 leaves the intersection at most one point.  rho (1-rho) / d_i
    peaks at 1 / (1 + s_i)^2, so no rho gives a delta above sum_i h_i^2 /
    (1 + s_i)^2; when that bound reaches 1, _newton on delta' finds the
    maximum of the concave delta, and EmptyIntersectionError is raised if
    and only if that maximum is >= 1 (in a stack, at the first such pair).
    """
    global _last_search
    joint = _joint_diag(pred, meas, e_p)
    _, basis, s2, h2, _ = joint
    columns = [c.tolist() for c in ((basis * basis).sum(axis=-2), h2, s2 - 1.0, s2)]
    bounds = (h2 / (1.0 + np.sqrt(s2)) ** 2).sum(axis=-1).tolist()
    pairs = zip([columns], [bounds]) if s2.ndim == 1 else zip(zip(*columns), bounds)
    rhos = []
    for i, (pair, bound) in enumerate(pairs):
        terms = list(zip(*pair))
        if bound >= 1.0:
            at = _newton(_delta_slope, terms)
            rows = s2.reshape(-1, s2.shape[-1])[i], h2.reshape(-1, s2.shape[-1])[i]
            worst = float(_fused_delta(at, *rows)[0])
            if worst >= 1.0:
                raise EmptyIntersectionError(
                    f"delta = {worst:.6g} >= 1 at rho = {at:.6g}: "
                    "prediction and measurement sets meet in at most one point",
                    delta=worst,
                )
        rhos.append(_newton(_trace_slope, terms))
    rho, at = (rhos[0], rhos[0]) if s2.ndim == 1 else (tuple(rhos), np.array(rhos)[:, None])
    delta, d = _fused_delta(at, s2, h2)
    _last_search = (joint, rho, (at, delta, d))  # for the fuse at this rho
    deltas = delta.tolist()
    return FusionParams(rho=rho, delta=deltas if s2.ndim == 1 else tuple(deltas))


def _update(pred, meas, e_p) -> tuple:
    """The linear set-membership update: fuse a prediction with a
    measurement set in the projected space E_p x at the trace-minimising
    rho; or each pair of two Stacks or two lists of R sets, on one E_p or a
    stack.  Shared by step, the esmf update and the sigma sweep.  Returns
    the fused ellipsoid, or their Stack, and the FusionParams of the rho
    search."""
    if isinstance(pred, list):  # Stacks, which the diagonalisation keeps for the fuse
        pred, meas = Stack(*_stacked(pred)), Stack(*_stacked(meas))
    params = optimize_rho(pred, meas, e_p)
    center, shape, _ = fuse(pred, meas, e_p, params.rho)
    chol, shape = spd_cholesky(shape, what="fused shape")
    return _formed(center, shape, chol), params


def step(e_k: Ellipsoid, model: SystemModel, y: np.ndarray, k: int,
         opts: FilterOptions, start=None) -> StepRecord:
    """One full filter step: predict, enclose the measurement set, pick rho,
    fuse.  Both solves start from start, the last step's weights, when
    given; else each starts as predict and measurement_ellipsoid say.  Both
    enclosing solves are kept in the record."""
    pred_start, meas_start = (None, None) if start is None else start
    predicted, sol_pred, p_star = predict(e_k, model, k, opts, pred_start)
    aux = None
    if model.aux_from_predicted is not None:
        aux = model.aux_from_predicted(predicted)
    meas, sol_meas = measurement_ellipsoid(y, model, aux, opts, meas_start)
    try:
        updated, params = _update(predicted, meas, model.E_p)
    except EmptyIntersectionError as err:
        raise EmptyIntersectionError(
            f"step {k}: {err}", delta=err.delta
        ) from err
    return StepRecord(
        k=k,
        predicted=predicted,
        measurement=meas,
        updated=updated,
        params=FusionParams(params.rho, params.delta, p_star),
        solves=(sol_pred, sol_meas),
    )
