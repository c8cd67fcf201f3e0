"""Frank-Wolfe solver for the minimum-volume enclosing ellipsoid.

The enclosing-ellipsoid problem over a point cloud is solved through its
dual: maximize logdet M(mu), M(mu) = sum_i mu_i yt_i yt_i^T, over the
probability simplex, where yt = [y^T, 1]^T is the lifted point and d = n + 1.
The dual is affine-invariant (Todd 2016), so each solve runs on a whitened
copy of the cloud.  A start, such as the optimum of a nearby cloud, whitens
it by its own weighted mean and second moment, where M is the identity and
kappa_i = 1 + ||w_i||^2 (_start_frame).  When that certificate meets tol,
or no pass is allowed, fw_solve returns the start's own ellipsoid right
after the frame, on the factor that whitened the cloud: an optimal start
costs the one product over the cloud that whitens it, and no
factorisation.  A cold solve whitens by the covariance of the whole cloud
and starts on the <= 2n points holding the extremes of each whitened
coordinate (a small core set, after Kumar & Yildirim 2005), else on every
point.  Each pass takes one
Frank-Wolfe step along mu + gamma (e_i - mu): toward the vertex with the
largest gradient component kappa_i = yt_i^T M^{-1} yt_i, or away from the
weighted vertex with the smallest (a "drop" step when its weight hits
zero), with the exact line-search step gamma = (kappa_i - d) /
(d (kappa_i - 1)).  Frank-Wolfe finds the support but zig-zags for thousands
of passes while weighing it (Ahipasaoglu, Sun & Todd 2008), so each pass
then takes Newton steps for the dual on the face of the weighted points (Sun
& Freund 2004) up to the face optimum: a step that would take a weight below
zero stops there, drops that point and goes on on the smaller face.  An
optimal support needs at most d(d+1)/2 points, and only that many can carry
a Newton step, so when more carry weight (a dense start, the cold fallback
to every point) the pass first moves it onto that many with M unchanged
(_shrink_support).  Each pass ends on fresh kappa, one O(d^2 m) product over
the cloud, so the certificate of every solve is read from the kappa of its
final weights, and its coverage scale from the quadratic form of the shape
it returns, over the cloud.  The filter's solves start near their optimum
(smfilter.dsmf), so most take no pass; the cold ones a few dozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ellipsoid import Ellipsoid, PointCloud, spd_cholesky, symmetrize
from .errors import RankDeficiencyError

DEFAULT_TOL = 1e-7


def lift(points: np.ndarray) -> np.ndarray:
    """Append the homogeneous coordinate 1 to each row of an (m, n) array."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.hstack([points, np.ones((points.shape[0], 1))])


@dataclass(frozen=True)
class MveeSolution:
    """Solver output: the enclosing ellipsoid plus dual diagnostics.

    `weights` is the solver's own (m,) array of dual weights mu, read-only:
    nonnegative and summing to one.  `ellipsoid.shape` is coverage_scale *
    n * S, with S = sum_i mu_i y_i y_i^T - c c^T the weighted second moment
    about the weighted center c, so that the cloud satisfies the quadratic
    form <= 1 convention used everywhere else.  coverage_scale = max(1,
    max_i q_i), with q_i the quadratic form of the unscaled shape n * S, as
    stored, at cloud point i.  whitened_scale is the same maximum read from
    the final kappa in the solver's whitened coordinates, q_i = (kappa_i -
    1) / n: a converged solve's certificate keeps it within 1 + (n + 1) tol
    / n, a capped one has no such bound.  The two differ by the rounding of
    the shape mapped back, which grows with its condition number.
    `objective_path` holds the dual objective after each pass (index
    0 is the starting value)."""

    ellipsoid: Ellipsoid
    weights: np.ndarray
    duality_gap: float
    iterations: int
    converged: bool
    objective_path: np.ndarray
    coverage_scale: float
    whitened_scale: float


def _as_points(points) -> np.ndarray:
    """The one conversion and check of a cloud, bare or in a PointCloud: a
    float (m, n) array, not copied if it is one already.  A 1-D array is one
    column; any other shape is a ValueError naming it."""
    if isinstance(points, PointCloud):
        points = points.points
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be an (m, n) array, got shape {pts.shape}")
    return pts


def _moment_matrix(yt: np.ndarray, mu: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """M(mu) = sum_i mu_i yt_i yt_i^T, symmetrized, plus fw_solve's one-shot
    jitter * I (0 unless its cloud does not affinely span)."""
    mm = symmetrize(yt.T @ (mu[:, None] * yt))
    if jitter:
        mm += jitter * np.eye(yt.shape[1])
    return mm


def _factor(mmat: np.ndarray, d: int):
    """(M^{-1}, logdet M) of a d x d moment matrix from one eigh, or None
    when M is singular.

    The moment matrix is PSD by construction but can be singular to machine
    precision, where cholesky and inv may silently succeed with garbage; an
    explicit relative eigenvalue margin is the reliable detector."""
    if not np.isfinite(mmat).all():
        return None
    lam, vec = np.linalg.eigh(mmat)
    if not _spans(lam, d):
        return None
    return (vec / lam) @ vec.T, float(np.log(lam).sum())


def _spans(lam: np.ndarray, d: int) -> bool:
    """The rank margin on the ascending eigenvalues of a PSD moment matrix."""
    return bool(lam[0] > lam[-1] * d * 1e-14)


@lru_cache(maxsize=8)
def _lower(n: int) -> np.ndarray:
    """The read-only (n, n) mask of the lower triangle and diagonal."""
    mask = np.tri(n, dtype=bool)
    mask.setflags(write=False)
    return mask


def _start_frame(pts: np.ndarray, mu: np.ndarray):
    """The affine frame of start weights mu (summing to one): (c0, L0, yt,
    act), with c0 and L0 L0^T the weighted mean and second moment S0 of the
    cloud, L0 lower triangular with a positive diagonal, yt the lifted
    cloud in that frame, w_i = L0^{-1} (x_i - c0), where M(mu) = I, and act
    the indices of the weighted points.  None when at most n points carry
    weight, or when L0 fails the rank margin.

    L0 is R^T from a QR factorisation of the weighted deviations, not the
    Cholesky factor of S0: its rounding grows with cond(L0), not cond(S0).
    At cond(S0) = 1e10 that keeps the M(mu) of the computed frame within
    about 1e-11 of I, where the Cholesky factor leaves it about 1e-6 off.
    R^T is read off the lower triangle of mode "raw" (the same factor as
    mode "r", without its triu copy).  The margin is read off L0 and the
    inverse that whitens, as cond(L0)^2 <= ||L0||_F^2 ||L0^{-1}||_F^2: it
    rejects every frame that the margin on the singular values of L0 does."""
    act = mu.nonzero()[0]
    m, n = pts.shape
    if act.size <= n:
        return None
    mu_a, pts_a = mu[act], pts[act]
    c0 = mu_a @ pts_a
    raw = np.linalg.qr(np.sqrt(mu_a)[:, None] * (pts_a - c0), mode="raw")[0]
    l0 = np.where(_lower(n), raw[:, :n], 0.0)
    l0 *= np.sign(l0.diagonal())
    try:
        inv = np.linalg.inv(l0)
    except np.linalg.LinAlgError:  # a zero pivot: the weighted points are flat
        return None
    if not _spans((1.0 / np.vdot(inv, inv), np.vdot(l0, l0)), n + 1):
        return None
    yt = np.ones((m, n + 1))
    np.matmul(pts - c0, inv.T, out=yt[:, :n])
    return c0, l0, yt, act


def _certificate(kappa: np.ndarray, act: np.ndarray, d: int) -> tuple:
    """(ip, ia, gap, away_gap) of weights whose support is act: the toward
    point, of largest kappa, and the away point, of smallest kappa over the
    support, with the gaps kappa_ip - d and d - kappa_ia."""
    ip = kappa.argmax()
    ia = act[kappa[act].argmin()]
    return ip, ia, kappa[ip] - d, d - kappa[ia]


def _factor_or_raise(mmat: np.ndarray, d: int):
    factor = _factor(mmat, d)
    if factor is None:
        finite = np.all(np.isfinite(mmat))
        rank = int(np.linalg.matrix_rank(mmat)) if finite else None
        raise RankDeficiencyError(
            f"weighted moment matrix is singular (rank {rank} < {d}); "
            "the cloud does not affinely span the space",
            rank=rank,
            required=d,
        )
    return factor


def _gradient(yt: np.ndarray, minv: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", yt @ minv, yt)


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
    return d * math.log1p(gap / d) - (d - 1) * math.log1p(gap / (d - 1))


def _face_newton(ya: np.ndarray, mu_a: np.ndarray, minv: np.ndarray,
                 jitter: float, floor: float):
    """Newton steps for the dual restricted to the face of the weighted
    points A (rows ya, weights mu_a, current M^{-1}), as (weights over A,
    (M^{-1}, logdet M)) at the last step that beat floor, or None.

    With K = Y_A M^{-1} Y_A^T the Hessian on the face is -(K o K), and
    (K o K) mu_A = kappa_A, so the Newton point on the face's affine hull is
    2 mu_A - z / 1^T z with (K o K) z = 1.  A weight that would cross zero
    stops the step at the first zero; that point is dropped and the next
    step is taken on the smaller face.  The steps end at a full step (the
    face optimum, to Newton accuracy), at a step that does not raise the
    objective, or when only d points are left."""
    d = ya.shape[1]
    out = np.zeros(mu_a.size)
    keep = np.arange(mu_a.size)  # positions in A of the face's points
    factor = None
    while True:
        k = ya @ minv @ ya.T
        try:
            z = np.linalg.solve(k * k, np.ones(mu_a.size))
        except np.linalg.LinAlgError:
            break
        total = z.sum()
        # 1^T z > 0 for a positive definite K o K; a nearly singular one
        # gives anything.
        if not 0.0 < total < np.inf:
            break
        step = mu_a - z / total
        neg = (step < 0.0).nonzero()[0]
        # Ratio test over the falling weights, against the full step 1: a
        # ratio of exactly 1 still drops its point.
        room = mu_a[neg] / -step[neg]
        j = room.argmin() if neg.size else 0
        full = not neg.size or room[j] > 1.0
        new = mu_a + (1.0 if full else room[j]) * step
        if not full:
            new[neg[j]] = 0.0
        np.maximum(new, 0.0, out=new)
        new /= new.sum()
        trial = _factor(_moment_matrix(ya, new, jitter), d)
        if trial is None or not trial[1] > floor:
            break
        factor = trial
        minv, floor = factor
        out[keep] = new
        if full:
            break
        live = new > 0.0
        if np.count_nonzero(live) <= d:
            break
        ya, mu_a, keep = ya[live], new[live], keep[live]
    return None if factor is None else (out, factor)


def _shrink_support(yt: np.ndarray, mu: np.ndarray, act: np.ndarray,
                    face_max: int) -> np.ndarray:
    """Move the weights mu of the points act onto at most face_max =
    d(d+1)/2 of them, in place, with M(mu) unchanged; returns those points.

    Any face_max + 1 lifted outer products yt_i yt_i^T, symmetric d x d,
    have a null combination z, whose homogeneous entry gives sum_i z_i = 0,
    so mu + t z keeps M(mu) and the objective.  t runs to the first weight
    that reaches zero, whose point is dropped (Caratheodory)."""
    rows, cols = np.triu_indices(yt.shape[1])
    while act.size > face_max:
        head = act[:face_max + 1]
        y = yt[head]
        z = np.linalg.svd((y[:, rows] * y[:, cols]).T)[2][-1]
        neg = np.flatnonzero(z < 0.0)
        w = mu[head]
        room = w[neg] / -z[neg]
        j = room.argmin()
        w += room[j] * z
        w[neg[j]] = 0.0
        np.maximum(w, 0.0, out=w)
        mu[head] = w
        act = np.concatenate([head[w > 0.0], act[face_max + 1:]])
    return act


def fw_solve(points, tol: float = DEFAULT_TOL, max_iter: int | None = None,
             start=None) -> MveeSolution:
    """Solve the enclosing-ellipsoid dual over a cloud by Frank-Wolfe ascent
    from start or the axis extremes, with Newton steps on the support (see
    the module docstring).  Every pass ends on fresh kappa, so the
    certificate is read from the final weights.  A 0-pass solve from a
    start returns as soon as _start_frame accepts it, from that frame: when
    the start's certificate meets tol, or when max_iter is 0.

    Parameters
    ----------
    points : (m, n) array, or a PointCloud holding one; a 1-D array is one
        column, and anything else is a ValueError naming its shape
        (_as_points)
    tol : termination threshold on max_i kappa_i / (n+1) - 1 (the same
        threshold is applied to the away gap over weighted points, which is
        what makes the returned KKT certificate tight)
    max_iter : cap on passes (a Frank-Wolfe step, then Newton steps to the
        optimum of the support's face), default 100 * m
    start : optional (m,) start weights: finite, nonnegative, with a
        positive sum (else ValueError), normalised here; they whiten the
        cloud, unless their weighted points fail the rank margin, when the
        solve starts cold

    Returns an MveeSolution; `converged=False` (not an error) if the cap is
    reached.  Either way the shape is scaled up, if need be, to cover every
    point.  A non-finite row, or fewer than n + 1 rows (none included),
    raises RankDeficiencyError before any arithmetic.  Clouds that do not
    affinely span get one isotropic jitter of magnitude 1e-9 * diameter,
    added to every moment matrix (_moment_matrix); if the jittered one is
    still singular a RankDeficiencyError carrying the rank is raised.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    if max_iter is not None and max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    pts = _as_points(points)
    m, n = pts.shape
    d = n + 1
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
        raise RankDeficiencyError(f"row {bad} of the cloud is not finite", required=d)
    if m < d:
        raise RankDeficiencyError(
            f"need at least n+1 = {d} points, got {m}", rank=m, required=d
        )
    if max_iter is None:
        max_iter = 100 * m
    threshold = tol * d
    frame = None
    if start is not None:
        start = np.asarray(start, dtype=float)
        total = start.sum()
        # NaN fails the sign test, an infinite entry the sum test.
        if not (start.shape == (m,) and (start >= 0.0).all() and 0.0 < total < np.inf):
            raise ValueError("start must be m finite nonnegative weights with a positive sum")
        mu = start / total
        frame = _start_frame(pts, mu)

    # One-shot regularization for clouds that do not affinely span; kept in
    # every moment matrix so the optimized objective stays fixed.
    jitter = 0.0

    def support_factor():
        # (M^{-1}, logdet M) of the current weights from the d x d moment
        # matrix over the weighted points.
        np.divide(mu, mu.sum(), out=mu)
        act = mu.nonzero()[0]
        return _factor_or_raise(_moment_matrix(yt[act], mu[act], jitter), d)

    # Iterate on a whitened copy of the cloud, x = mean + axes w, which
    # keeps the moment matrices of thin clouds well conditioned: by the
    # weights of a start that passes the rank margin (_start_frame), where
    # M(start) = I and the path starts at logdet 0 with no factorisation,
    # else by the covariance of the whole cloud, from the <= 2n axis
    # extremes, else from every point (1.0), else with the jitter.
    if frame is not None:
        mean, axes, yt, act = frame
        kappa = np.einsum("ij,ij->i", yt, yt)  # M = I, so kappa_i = 1 + ||w_i||^2
        ip, ia, gap, away_gap = _certificate(kappa, act, d)
        converged = bool(gap <= threshold and away_gap <= threshold)
        if converged or max_iter == 0:
            # The start, returned as it came, with no pass: {c0, n S0},
            # whose Cholesky factor sqrt(n) L0 is the factor that whitened
            # the cloud.  Its quadratic form at x_i is ||w_i||^2 / n =
            # (kappa_i - 1) / n, so the whitened scale is the coverage
            # scale of the shape as stored, and the shape is neither
            # mapped back nor factored again.
            scale = max(1.0, (float(kappa[ip]) - 1.0) / n)
            size = scale * n
            ellipsoid = Ellipsoid._from_factor(mean, size * symmetrize(axes @ axes.T),
                                               math.sqrt(size) * axes)
            mu.setflags(write=False)
            return MveeSolution(ellipsoid, mu, float(gap), 0, converged, np.zeros(1), scale,
                                scale)
        work = yt[:, :n]
        minv, logdet = np.eye(d), 0.0
    else:
        mu = np.empty(m)
        mean = pts.mean(axis=0)
        centered = pts - mean
        lam, vec = np.linalg.eigh(symmetrize(centered.T @ centered / m))
        scale = np.sqrt(np.maximum(lam, lam[-1] * 1e-24)) if lam[-1] > 0.0 else np.ones(n)
        axes = vec * scale
        work = (centered @ vec) / scale
        yt = lift(work)
        extremes = np.zeros(m)
        extremes[np.concatenate([work.argmin(axis=0), work.argmax(axis=0)])] = 1.0
        for guess in (extremes, 1.0):
            mu[:] = guess
            try:
                minv, logdet = support_factor()
                break
            except RankDeficiencyError:  # the weighted points do not span
                pass
        else:
            jitter = 1e-9 * float(np.linalg.norm(np.ptp(work, axis=0)))
            minv, logdet = support_factor()
        kappa = _gradient(yt, minv)
        act = mu.nonzero()[0]
        ip, ia, gap, away_gap = _certificate(kappa, act, d)
    path = [logdet]

    face_max = d * (d + 1) // 2  # the most points an optimal support needs
    it = 0
    while True:  # each pass starts on the certificate of the weights it gets
        converged = bool(gap <= threshold and away_gap <= threshold)
        if converged or it >= max_iter:
            break
        if gap >= away_gap:
            i, ki = ip, float(kappa[ip])
            gamma = line_search_step(ki, d)
            dropped = False
        else:
            i, ki = ia, float(kappa[ia])
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
            if dropped and act.size <= d:
                # Dropping another point could not leave a spanning support:
                # the stationarity condition kappa = d is unattainable, which
                # happens exactly when the cloud is effectively flat.
                raise RankDeficiencyError(
                    "cloud is effectively degenerate: the solver support "
                    f"collapsed to {act.size} points (need more than {d})",
                    rank=act.size,
                    required=d,
                )
            if dropped:
                gamma = limit
        # M <- (1-gamma) M + gamma yt_i yt_i^T.  On fresh kappa the line
        # search keeps 1 + c kappa_i >= (1 - mu_i) / d > 0, so M stays
        # positive definite; its closed-form logdet gain is the path step.
        c = gamma / (1.0 - gamma)
        if dropped:
            gain = d * math.log1p(-gamma) + math.log1p(c * ki)
        else:
            gain = _unclamped_gain(ki, d)
        path.append(path[-1] + gain)
        mu *= 1.0 - gamma
        mu[i] = 0.0 if dropped else mu[i] + gamma
        act = mu.nonzero()[0]
        if act.size > face_max:
            act = _shrink_support(yt, mu, act, face_max)
        # Sherman-Morrison update of M^{-1} to seed the Newton steps.
        v = minv @ yt[i]
        minv = (minv - (c / (1.0 + c * ki)) * (v[:, None] * v)) / (1.0 - gamma)
        newton = _face_newton(yt[act], mu[act], minv, jitter, path[-1])
        if newton is None:
            factor = support_factor()
        else:
            mu[act], factor = newton
            path[-1] = factor[1]
        minv = factor[0]
        kappa = _gradient(yt, minv)
        act = mu.nonzero()[0]
        ip, ia, gap, away_gap = _certificate(kappa, act, d)
        it += 1

    # The ellipsoid in whitened coordinates, mapped back.  There q_i =
    # (kappa_i - 1) / n for the shape n * second, which gives the whitened
    # scale at no cost.  The shape mapped back is rounded, which on a thin
    # cloud can move q by more than tol, so the coverage scale is read from
    # the quadratic form of the stored shape over the cloud.  Factoring the
    # scaled shape anew would move q by as much again; scaled() scales the
    # factor with it.
    whitened_scale = max(1.0, (float(kappa.max()) - 1.0) / n)
    w, mu_w = work[act], mu[act]
    center_w = mu_w @ w
    second_w = w.T @ (mu_w[:, None] * w) - np.outer(center_w, center_w)
    center = mean + axes @ center_w
    second = symmetrize(axes @ second_w @ axes.T)
    chol, shape = spd_cholesky(n * second, what="enclosing shape")
    ellipsoid = Ellipsoid._from_factor(center, shape, chol)
    z = (pts - center) @ np.linalg.inv(chol).T
    coverage_scale = max(1.0, float(np.einsum("ij,ij->i", z, z).max()))
    if coverage_scale > 1.0:
        ellipsoid = ellipsoid.scaled(coverage_scale)
    mu.setflags(write=False)
    return MveeSolution(ellipsoid, mu, float(gap), it, converged, np.asarray(path),
                        coverage_scale, whitened_scale)
