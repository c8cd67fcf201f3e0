"""Frank-Wolfe solver for the minimum-volume enclosing ellipsoid.

The enclosing-ellipsoid problem over a point cloud is solved through its
dual: maximize logdet(sum_i mu_i yt_i yt_i^T) over the probability simplex,
where yt = [y^T, 1]^T is the lifted point and d = n + 1.  Iterations move
along lines mu + gamma (e_i - mu): toward the vertex with the largest
gradient component kappa_i = yt_i^T M(mu)^{-1} yt_i (gamma > 0), or away
from the worst currently-weighted vertex (gamma < 0, a "drop" step when the
weight hits zero).  The exact line-search step has the single closed form
gamma = (kappa_i - d) / (d (kappa_i - 1)) on the extended range; away steps
are what make the tail of the iteration linearly convergent instead of
O(1/t).  The inverse moment matrix and the gradient are maintained by
rank-one updates, so one iteration costs O(n^2 + (n+1) m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipsoid import Ellipsoid, PointCloud, symmetrize
from .errors import RankDeficiencyError

DEFAULT_TOL = 1e-7
# Refresh M^{-1} and kappa from scratch this often to cap rank-one drift.
_REFRESH_EVERY = 512


def lift(points: np.ndarray) -> np.ndarray:
    """Append the homogeneous coordinate 1 to each row of an (m, n) array."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.hstack([points, np.ones((points.shape[0], 1))])


@dataclass(frozen=True)
class SimplexWeights:
    """Nonnegative weights summing to one over the cloud points."""

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        if mu.ndim != 1:
            raise ValueError("mu must be a vector")
        if np.any(mu < 0):
            raise ValueError("weights must be nonnegative")
        if abs(mu.sum() - 1.0) > 1e-12 * max(1.0, mu.size):
            raise ValueError(f"weights sum to {mu.sum()!r}, expected 1")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class SolveStats:
    """Light summary of a solve, cheap to keep per filter step."""

    iterations: int
    duality_gap: float
    converged: bool
    coverage_scale: float


@dataclass(frozen=True)
class MveeSolution:
    """Solver output: the enclosing ellipsoid plus dual diagnostics.

    `ellipsoid.shape` is coverage_scale * n * raw_shape so that the cloud
    satisfies the quadratic form <= 1 convention used everywhere else;
    `raw_shape` is the weighted second moment sum_i mu_i y_i y_i^T - c c^T
    as produced by the dual weights.  coverage_scale is 1.0 for a converged
    solve, whose certificate bounds every quadratic form q_i by 1 + 2 tol,
    and max(1, max_i q_i) for one stopped at max_iter, which has no bound.
    `objective_path` holds the dual objective after each iteration (index
    0 is the starting value)."""

    ellipsoid: Ellipsoid
    weights: SimplexWeights
    duality_gap: float
    iterations: int
    converged: bool
    raw_shape: np.ndarray
    objective_path: np.ndarray
    coverage_scale: float

    def stats(self) -> SolveStats:
        return SolveStats(self.iterations, self.duality_gap, self.converged,
                          self.coverage_scale)


def _as_points(points) -> np.ndarray:
    if isinstance(points, PointCloud):
        return points.points
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _moment_matrix(yt: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return symmetrize(yt.T @ (mu[:, None] * yt))


def _inverse_or_raise(mmat: np.ndarray, d: int) -> np.ndarray:
    # The moment matrix is PSD by construction but can be singular to
    # machine precision, where both cholesky and inv may silently succeed
    # with garbage; an explicit relative eigenvalue margin is the reliable
    # detector.
    inv = None
    if np.all(np.isfinite(mmat)):
        eigs = np.linalg.eigvalsh(mmat)
        if eigs[0] > eigs[-1] * d * 1e-14:
            try:
                inv = np.linalg.inv(mmat)
            except np.linalg.LinAlgError:  # pragma: no cover
                inv = None
    if inv is None or not np.all(np.isfinite(inv)):
        finite = np.all(np.isfinite(mmat))
        rank = int(np.linalg.matrix_rank(mmat)) if finite else None
        raise RankDeficiencyError(
            f"weighted moment matrix is singular (rank {rank} < {d}); "
            "the cloud does not affinely span the space",
            rank=rank,
            required=d,
        )
    return inv


def dual_objective(points, mu) -> float:
    """logdet of the weighted lifted moment matrix M(mu)."""
    pts = _as_points(points)
    mu = mu.mu if isinstance(mu, SimplexWeights) else np.asarray(mu, dtype=float)
    yt = lift(pts)
    d = yt.shape[1]
    mmat = _moment_matrix(yt, mu)
    sign, logdet = np.linalg.slogdet(mmat)
    if sign <= 0 or not np.isfinite(logdet):
        rank = int(np.linalg.matrix_rank(mmat))
        raise RankDeficiencyError(
            f"weighted moment matrix is singular (rank {rank} < {d})",
            rank=rank,
            required=d,
        )
    return float(logdet)


def fw_gradient(points, mu) -> np.ndarray:
    """Gradient of the dual objective: kappa_i = yt_i^T M(mu)^{-1} yt_i.

    Satisfies sum_i mu_i kappa_i = n + 1 identically.
    """
    pts = _as_points(points)
    mu = mu.mu if isinstance(mu, SimplexWeights) else np.asarray(mu, dtype=float)
    yt = lift(pts)
    minv = _inverse_or_raise(_moment_matrix(yt, mu), yt.shape[1])
    return np.einsum("ij,jk,ik->i", yt, minv, yt)


def line_search_step(kappa_i: float, d: int) -> float:
    """Unconstrained maximizer of the dual objective along mu + gamma (e_i - mu).

    Positive when kappa_i > d (toward step), negative when kappa_i < d
    (away step); callers clamp away steps at the feasibility limit
    -mu_i / (1 - mu_i)."""
    return (kappa_i - d) / (d * (kappa_i - 1.0))


def _unclamped_gain(kappa_i: float, d: int) -> float:
    """Dual-objective gain of the unclamped line-search step.

    Equals d*log(kappa/d) - (d-1)*log((kappa-1)/(d-1)), written with log1p
    so the O(gap^2) gain survives floating point near convergence."""
    gap = kappa_i - d
    return d * np.log1p(gap / d) - (d - 1) * np.log1p(gap / (d - 1))


def _cloud_diameter(pts: np.ndarray) -> float:
    spread = pts.max(axis=0) - pts.min(axis=0)
    return float(np.linalg.norm(spread))


def fw_solve(points, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> MveeSolution:
    """Solve the enclosing-ellipsoid dual over a cloud by Frank-Wolfe ascent.

    Parameters
    ----------
    points : PointCloud or (m, n) array
    tol : termination threshold on max_i kappa_i / (n+1) - 1 (the same
        threshold is applied to the away gap over weighted points, which is
        what makes the returned KKT certificate tight)
    max_iter : iteration cap, default 100 * m

    Returns an MveeSolution; `converged=False` (not an error) if the cap is
    reached, in which case the shape is scaled up to cover every point.
    Clouds that do not affinely span get one isotropic jitter of
    magnitude 1e-9 * diameter added to the initial moment matrix; if that is
    still singular a RankDeficiencyError carrying the rank is raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    pts = _as_points(points)
    m, n = pts.shape
    d = n + 1
    if m < d:
        raise RankDeficiencyError(
            f"need at least n+1 = {d} points, got {m}", rank=m, required=d
        )
    if max_iter is None:
        max_iter = 100 * m

    # Affine preconditioning: iterate on a centered, whitened copy of the
    # cloud.  The problem is affine-equivariant (weights, gradient values
    # and gap are identical in exact arithmetic), and whitening keeps the
    # moment matrices well conditioned for very thin clouds such as images
    # of nearly collapsed ellipsoids.
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = symmetrize(centered.T @ centered / m)
    lam, vec = np.linalg.eigh(cov)
    if lam[-1] > 0.0:
        axis_scale = np.sqrt(np.maximum(lam, lam[-1] * 1e-24))
        work = (centered @ vec) / axis_scale
    else:
        work = centered

    yt = lift(work)
    mu = np.full(m, 1.0 / m)
    mmat = _moment_matrix(yt, mu)
    # One-shot regularization for clouds that do not affinely span; kept in
    # every moment-matrix rebuild so the optimized objective stays fixed.
    jitter = 0.0
    try:
        minv = _inverse_or_raise(mmat, d)
    except RankDeficiencyError:
        jitter = 1e-9 * _cloud_diameter(work)
        mmat = mmat + jitter * np.eye(d)
        minv = _inverse_or_raise(mmat, d)

    kappa = np.einsum("ij,jk,ik->i", yt, minv, yt)
    _, obj = np.linalg.slogdet(mmat)
    path = [float(obj)]
    threshold = tol * d

    # Hot-loop buffers: w holds cross terms yt_j^T M^{-1} yt_i, masked holds
    # kappa with non-weighted entries pushed to +inf for the away argmin.
    w = np.empty(m)
    masked = np.empty(m)
    inactive = np.zeros(m, dtype=bool)

    def refresh():
        nonlocal minv, kappa
        np.divide(mu, mu.sum(), out=mu)
        mm = _moment_matrix(yt, mu)
        if jitter:
            mm += jitter * np.eye(d)
        minv = _inverse_or_raise(mm, d)
        kappa = np.einsum("ij,jk,ik->i", yt, minv, yt)
        np.less_equal(mu, 0.0, out=inactive)

    it = 0
    converged = False
    certified = True  # kappa freshly recomputed since the last weight update
    n_active = m
    gap = float(np.max(kappa)) - d
    while True:
        ip = int(np.argmax(kappa))
        gap = kappa[ip] - d
        np.copyto(masked, kappa)
        masked[inactive] = np.inf
        ia = int(np.argmin(masked))
        away_gap = d - kappa[ia]
        if gap <= threshold and away_gap <= threshold:
            if certified:
                converged = True
                break
            refresh()
            certified = True
            continue
        if it >= max_iter:
            break
        if gap >= away_gap:
            i, ki = ip, kappa[ip]
            gamma = line_search_step(ki, d)
            dropped = False
        else:
            i, ki = ia, kappa[ia]
            room = 1.0 - mu[i]
            if room < 1e-12:
                # All weight on a single point: the cloud is effectively
                # degenerate and no away step is possible.
                break
            limit = -mu[i] / room
            # ki <= 1 means the point sits on the weighted center; the
            # line-search formula degenerates and the full drop is optimal.
            gamma = limit if ki <= 1.0 + 1e-15 else line_search_step(ki, d)
            dropped = gamma <= limit
            if dropped and n_active <= d:
                # Dropping another point could not leave a spanning support:
                # the stationarity condition kappa = d is unattainable, which
                # happens exactly when the cloud is effectively flat.
                raise RankDeficiencyError(
                    "cloud is effectively degenerate: the solver support "
                    f"collapsed to {n_active} points (need more than {d})",
                    rank=n_active,
                    required=d,
                )
            if dropped:
                gamma = limit
        # Rank-one update of M^{-1} and kappa for
        # M <- (1-gamma) M + gamma yt_i yt_i^T.
        c = gamma / (1.0 - gamma)
        denom = 1.0 + c * ki
        if denom <= 1e-12:  # pragma: no cover - exact line search avoids this
            # The step would make the moment matrix singular (stale kappa
            # after rank-one drift); recompute and retry the selection.
            refresh()
            certified = True
            it += 1
            continue
        if dropped:
            gain = d * np.log1p(-gamma) + np.log1p(gamma * ki / (1.0 - gamma))
        else:
            gain = _unclamped_gain(ki, d)
        path.append(path[-1] + gain)
        v = minv @ yt[i]
        np.dot(yt, v, out=w)
        scale = c / denom
        minv -= scale * np.outer(v, v)
        minv /= 1.0 - gamma
        np.multiply(w, w, out=w)
        w *= scale
        kappa -= w
        kappa /= 1.0 - gamma
        mu *= 1.0 - gamma
        if dropped:
            mu[i] = 0.0
            if not inactive[i]:
                inactive[i] = True
                n_active -= 1
        else:
            mu[i] += gamma
            if inactive[i]:
                inactive[i] = False
                n_active += 1
        certified = False
        it += 1
        if it % _REFRESH_EVERY == 0:
            refresh()
            n_active = int(m - inactive.sum())
            certified = True

    if not converged:
        # Honest certificate at the final iterate (against the jittered
        # objective when regularization was applied).
        refresh()
        gap = float(np.max(kappa)) - d
        ia = int(np.argmin(np.where(mu > 0.0, kappa, np.inf)))
        converged = gap <= threshold and (d - kappa[ia]) <= threshold

    mu /= mu.sum()
    center = mu @ pts
    second = pts.T @ (mu[:, None] * pts) - np.outer(center, center)
    second = symmetrize(second)
    ellipsoid = Ellipsoid(center, n * second)
    coverage_scale = 1.0
    if not converged:
        coverage_scale = max(1.0, float(np.max(ellipsoid.quadratic_form(pts))))
        ellipsoid = Ellipsoid(center, coverage_scale * n * second)
    return MveeSolution(
        ellipsoid=ellipsoid,
        weights=SimplexWeights(mu),
        duality_gap=float(gap),
        iterations=it,
        converged=converged,
        raw_shape=second,
        objective_path=np.asarray(path),
        coverage_scale=coverage_scale,
    )


def kkt_residual(solution: MveeSolution, points) -> float:
    """First-order optimality residual of a solve.

    max of the primal infeasibility max_i (kappa_i - d)_+ and the pointwise
    complementary slackness max_i mu_i |kappa_i - d|; both vanish at the
    exact optimum.
    """
    pts = _as_points(points)
    d = pts.shape[1] + 1
    mu = solution.weights.mu
    kappa = fw_gradient(pts, mu)
    primal = float(np.max(np.maximum(kappa - d, 0.0)))
    comp = float(np.max(mu * np.abs(kappa - d)))
    return max(primal, comp)


def enclose(cloud, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> Ellipsoid:
    """Convenience wrapper over fw_solve returning only the ellipsoid."""
    return fw_solve(cloud, tol=tol, max_iter=max_iter).ellipsoid
