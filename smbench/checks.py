"""The benchmark's own checkers, written apart from smfilter.

- `min_volume_logdet`: logdet of the shape matrix of the minimum-volume
  enclosing ellipsoid of a point cloud, by a log-barrier Newton method on
  the dual.  smfilter solves the same problem by Frank-Wolfe ascent; this is
  a different algorithm, so it serves as an independent reference.
- `quadratic_forms`: (x - c)^T P^{-1} (x - c) for a batch of points.
- `load_clouds`: reads the stored replay clouds after checking their digest.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CLOUDS = HERE / "clouds.npz"
CLOUDS_DIGEST = HERE / "clouds.sha256"
# Groups of stored clouds: (preset, kind); kind is "pred" for prediction
# clouds and "meas" for measurement clouds.
GROUPS = (("radar", "pred"), ("radar", "meas"), ("robot", "pred"), ("robot", "meas"))


def quadratic_forms(center, shape, points) -> np.ndarray:
    """(x - c)^T P^{-1} (x - c) for each row x of points."""
    chol = np.linalg.cholesky(np.asarray(shape, dtype=float))
    dev = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(center, dtype=float)
    z = np.linalg.solve(chol, dev.T)
    return np.einsum("ij,ij->j", z, z)


def min_volume_logdet(points, gap: float = 1e-9) -> float:
    """logdet of the shape P of the minimum-volume ellipsoid
    {x : (x - c)^T P^{-1} (x - c) <= 1} covering the points.

    Maximizes the dual t * logdet(sum_i mu_i u_i u_i^T) + sum_i log mu_i
    over the simplex (u_i = [x_i, 1]) by Newton's method for a rising
    barrier weight t.  Each centred point is m/t-suboptimal in the dual, so
    the loop stops once m/t < gap; the returned logdet is then within gap
    of the optimum.  The cloud is whitened first (the problem is
    affine-equivariant) and the Newton system is scaled by mu, which keeps
    it well conditioned as weights of interior points go to zero.
    """
    x = np.asarray(points, dtype=float)
    m, n = x.shape
    d = n + 1
    if m < d:
        raise ValueError(f"need at least {d} points, got {m}")
    centered = x - x.mean(axis=0)
    lam, vec = np.linalg.eigh(centered.T @ centered / m)
    if lam[0] <= lam[-1] * 1e-20:
        raise ValueError("points do not affinely span the space")
    u = np.hstack([(centered @ vec) / np.sqrt(lam), np.ones((m, 1))])

    def phi(mu, t):
        sign, logdet = np.linalg.slogdet(u.T @ (mu[:, None] * u))
        return t * logdet + np.log(mu).sum() if sign > 0 else -np.inf

    mu = np.full(m, 1.0 / m)
    t = 1.0
    while True:
        for _ in range(200):
            k = u @ np.linalg.solve(u.T @ (mu[:, None] * u), u.T)
            grad = t * np.diag(k) + 1.0 / mu
            # Newton step for the equality-constrained maximization, in the
            # scaled variable delta = mu * s: (I + t (mu mu^T) o K o K) s = mu g + nu mu.
            scaled = t * np.outer(mu, mu) * k * k
            scaled[np.diag_indices(m)] += 1.0
            chol = np.linalg.cholesky(scaled)
            a = mu * np.linalg.solve(chol.T, np.linalg.solve(chol, mu * grad))
            b = mu * np.linalg.solve(chol.T, np.linalg.solve(chol, mu))
            step = a - (a.sum() / b.sum()) * b
            # Half the Newton decrement bounds how far phi is from its
            # maximum; divided by t it is a bound in logdet units.
            decrement = float(grad @ step)
            if decrement < 1e-12 * t:
                break
            neg = step < 0
            s = min(1.0, 0.99 * float(np.min(-mu[neg] / step[neg]))) if neg.any() else 1.0
            base = phi(mu, t)
            while phi(mu + s * step, t) < base + 0.25 * s * decrement and s > 1e-16:
                s *= 0.5
            mu = mu + s * step
            mu /= mu.sum()
        else:
            raise RuntimeError("barrier Newton iteration did not converge")
        if m / t < gap:
            break
        t *= 10.0
    z = u[:, :n]
    c = mu @ z
    second = z.T @ (mu[:, None] * z) - np.outer(c, c)
    _, logdet_z = np.linalg.slogdet(n * second)
    return float(logdet_z + np.log(lam).sum())


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_clouds(path: Path = CLOUDS, digest_path: Path = CLOUDS_DIGEST) -> dict:
    """Stored replay clouds, keyed by "<preset>_<kind>_<field>".

    Raises ValueError if the file's SHA-256 differs from the recorded one,
    so an edited input fails loudly instead of silently changing the
    workload.
    """
    expected = Path(digest_path).read_text().split()[0]
    actual = file_digest(path)
    if actual != expected:
        raise ValueError(
            f"{path.name} has SHA-256 {actual}, expected {expected}; "
            "regenerate it with capture.py instead of editing it"
        )
    with np.load(path, allow_pickle=False) as data:
        clouds = {key: data[key] for key in data.files}
    for preset, kind in GROUPS:
        pts = clouds[f"{preset}_{kind}_points"]
        if not (pts.ndim == 3 and len(clouds[f"{preset}_{kind}_ref_logdet"]) == len(pts)
                and len(clouds[f"{preset}_{kind}_run"]) == len(pts)
                and len(clouds[f"{preset}_{kind}_step"]) == len(pts)):
            raise ValueError(f"{path.name}: malformed group {preset}_{kind}")
    return clouds
