"""Ellipsoid values, point sampling, and the outer-approximation algebra
for sums of ellipsoidal sets.

An ellipsoid is stored as a center c and an SPD shape matrix P and denotes
the set {x : (x - c)^T P^{-1} (x - c) <= 1}.  Equivalently, with any factor
E such that E E^T = P, it is {c + E u : ||u|| <= 1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import SpdError

# Relative asymmetry tolerated before a shape matrix is rejected outright.
SYM_RTOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, of a matrix or of each matrix of a stack."""
    return 0.5 * (a + (a.T if a.ndim == 2 else a.swapaxes(-1, -2)))


def spd_cholesky(p: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor of an SPD matrix, or of each of an (R, n, n) stack,
    as given: the step that forms a shape symmetrizes it, once.

    A matrix with a NaN or infinite entry raises SpdError (numpy's Cholesky
    can return a NaN factor for one without raising).  If the first
    factorization fails, 1e-12 * tr(P)/n * I is added once and the
    factorization retried; a second failure raises SpdError.  A stack is
    factored in one call; only if that fails is each matrix factored alone,
    with its own retry.  Returns (L, P_used), L lower triangular with
    L L^T = P_used, and P_used p itself when no jitter was needed.
    """
    p = np.asarray(p, dtype=float)
    if not np.isfinite(p).all():
        raise SpdError(f"{what} has a non-finite entry")
    try:
        return np.linalg.cholesky(p), p
    except np.linalg.LinAlgError:
        pass
    if p.ndim == 3:
        pairs = [spd_cholesky(m, what) for m in p]
        return np.array([c for c, _ in pairs]), np.array([m for _, m in pairs])
    n = p.shape[0]
    jitter = 1e-12 * np.trace(p) / n
    p_j = p + jitter * np.eye(n)
    try:
        return np.linalg.cholesky(p_j), p_j
    except np.linalg.LinAlgError:
        raise SpdError(
            f"{what} is not positive definite (jitter retry failed); "
            f"eigenvalue range [{np.linalg.eigvalsh(p).min():.3e}, "
            f"{np.linalg.eigvalsh(p).max():.3e}]"
        ) from None


def _checked(centers: np.ndarray, shapes: np.ndarray,
             what: str = "shape matrix") -> tuple[np.ndarray, np.ndarray]:
    """(shapes, factors) of one set, an (n,) center and (n, n) shape, or of
    (R, n) centers and (R, n, n) shapes: the centers finite, and each shape
    sized to its center, finite, symmetric to SYM_RTOL (symmetrized if not
    exactly), and factored by spd_cholesky.  An exactly symmetric shape is
    not copied."""
    if not np.isfinite(centers).all():
        raise ValueError("center has a non-finite entry")
    want = (*centers.shape, centers.shape[-1])
    if shapes.shape != want:
        raise ValueError(f"{what} is {shapes.shape}, expected {want}")
    flipped = shapes.swapaxes(-1, -2)
    if not (shapes == flipped).all():
        if not np.isfinite(shapes).all():  # before inf - inf in the asymmetry
            raise SpdError(f"{what} has a non-finite entry")
        asym = np.abs(shapes - flipped).max(axis=(-2, -1))
        if (asym > SYM_RTOL * np.maximum(np.abs(shapes).max(axis=(-2, -1)), 1.0)).any():
            raise ValueError(f"{what} is not symmetric")
        shapes = symmetrize(shapes)
    chols, shapes = spd_cholesky(shapes, what)
    return shapes, chols


@dataclass(frozen=True)
class Ellipsoid:
    """Center vector plus SPD shape matrix; immutable.  The shape is copied,
    so the caller's array stays writable and unshared, then checked and
    factored once (_checked), as ellipsoids checks a stack."""

    center: np.ndarray
    shape: np.ndarray
    # Cached Cholesky factor of shape (L L^T = shape), computed on creation.
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        center = np.array(self.center, dtype=float, ndmin=1)
        if center.ndim != 1:
            raise ValueError("center must be a vector")
        self._freeze(center, *_checked(center, np.array(self.shape, dtype=float)))

    def _freeze(self, center: np.ndarray, shape: np.ndarray, chol: np.ndarray) -> None:
        for name, arr in (("center", center), ("shape", shape), ("_chol", chol)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _from_factor(cls, center: np.ndarray, shape: np.ndarray,
                     chol: np.ndarray) -> "Ellipsoid":
        """The ellipsoid with this center, shape and lower-triangular factor
        L of the shape (L L^T = shape), none of them checked or copied: for
        a shape the caller has just formed and factored by spd_cholesky, or
        scaled with its factor.  The arrays become read-only."""
        out = object.__new__(cls)
        out._freeze(center, shape, chol)
        return out

    @property
    def dim(self) -> int:
        return self.center.size

    def factor(self) -> np.ndarray:
        """A matrix E with E E^T = shape (here the Cholesky factor)."""
        return self._chol

    def scaled(self, factor: float) -> "Ellipsoid":
        """The ellipsoid with this center and shape factor * P (factor > 0).

        Its Cholesky factor is sqrt(factor) L, not a new factorisation, so
        each of its quadratic forms is this one's divided by factor, up to
        the rounding of one product per entry of L.  A new factorisation of
        an ill-conditioned shape would move them by far more."""
        if not factor > 0.0:
            raise ValueError(f"factor must be positive, got {factor}")
        return Ellipsoid._from_factor(self.center, factor * self.shape,
                                      sqrt(factor) * self._chol)

    def quadratic_form(self, x: np.ndarray) -> np.ndarray:
        """(x - c)^T P^{-1} (x - c) for a point (n,) or batch (m, n)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"point dimension {x.shape[-1]} != {self.dim}")
        dev = np.atleast_2d(x) - self.center
        # Solve L z = dev^T; form value is ||z||^2 per column.
        z = np.linalg.solve(self._chol, dev.T)
        vals = np.sum(z * z, axis=0)
        return vals[0] if x.ndim == 1 else vals


def ellipsoids(centers: np.ndarray, shapes: np.ndarray) -> list[Ellipsoid]:
    """[Ellipsoid(c, P) for c, P in zip(centers, shapes)], checked once over
    the (R, n) and (R, n, n) stacks (_checked).  Exactly symmetric shapes
    are kept uncopied, so the stacks must be the caller's own."""
    shapes, chols = _checked(centers, shapes)
    return [Ellipsoid._from_factor(c, p, l) for c, p, l in zip(centers, shapes, chols)]


@dataclass(frozen=True)
class PointCloud:
    """The cloud the filter hands its enclosing solve: the (m, n) array it
    formed, held as it is, neither converted, checked nor copied.  The solve
    converts and checks it, as it does a bare array (mvee._as_points)."""

    points: np.ndarray


def contains(e: Ellipsoid, x: np.ndarray, slack: float = 0.0):
    """True iff (x - c)^T P^{-1} (x - c) <= 1 + slack (boundary counts).

    Accepts a single point or an (m, n) batch; returns bool or bool array.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    return e.quadratic_form(x) <= 1.0 + slack


def _sphere(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """m points uniform on the unit sphere in R^n."""
    u = rng.standard_normal((m, n))
    norms = np.linalg.norm(u, axis=1)
    while np.any(norms == 0.0):  # pragma: no cover - probability zero
        bad = norms == 0.0
        u[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def sample_interior(e: Ellipsoid, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, n) points uniform over the volume of e (sphere direction, radius
    r^(1/n))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = e.dim
    u = _sphere(m, n, rng)
    r = rng.random(m) ** (1.0 / n)
    return e.center + (u * r[:, None]) @ e.factor().T


def optimal_p(pf: np.ndarray, q: np.ndarray) -> float:
    """The p minimizing the trace of the covering-sum shape:
    sqrt(tr(Pf)) / sqrt(tr(Q)).  At this p the trace equals
    (sqrt(tr Pf) + sqrt(tr Q))^2."""
    tp = float(np.trace(np.asarray(pf, dtype=float)))
    tq = float(np.trace(np.asarray(q, dtype=float)))
    if tp <= 0 or tq <= 0:
        raise ValueError("both matrices must have positive trace")
    return np.sqrt(tp / tq)


def covering_sum(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """Shape of the covering sum of two centered ellipsoids with SPD shapes
    a and b at parameter p > 0: (1 + 1/p) a + (1 + p) b, which covers
    the sum of the two sets for any p > 0."""
    return symmetrize((1.0 + 1.0 / p) * a + (1.0 + p) * b)
