"""Benchmark systems: planar radar target tracking and mobile-robot
localization against a known landmark, plus bounded-noise truth simulation.

Both presets use the range/bearing measurement geometry; bearings are
computed with atan2 so the stated inverse maps round-trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sin

import numpy as np

from .dsmf import SystemModel
from .ellipsoid import Ellipsoid, sample_interior
from .errors import MeasurementDomainError


@dataclass(frozen=True)
class RangeBearing:
    """Range and atan2 bearing of the planar positions x[..., :2] seen from
    an origin: the measurement, its 2x2 Jacobian, and the polar inverse."""

    origin: tuple[float, float]

    def measure(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dx = x[..., 0] - self.origin[0]
        dy = x[..., 1] - self.origin[1]
        return np.stack([np.hypot(dx, dy), np.arctan2(dy, dx)], axis=-1)

    def jacobian(self, x) -> np.ndarray:
        dx = x[0] - self.origin[0]
        dy = x[1] - self.origin[1]
        rho2 = dx * dx + dy * dy
        rho = np.sqrt(rho2)
        return np.array([[dx / rho, dy / rho], [-dy / rho2, dx / rho2]])

    def remainder(self, e: Ellipsoid) -> np.ndarray:
        """Half-widths bounding the remainder of the linearization of
        (range, bearing) at the center c of the state ellipsoid e, over e.

        The positions of e lie in a box of radii r_a = sqrt(P_aa), where
        |x - c| <= |r|, at rho_min or more from the origin.  Lagrange's
        remainder is at most |r|^2 / 2 times the Hessian norm on the box:
        1 / rho_min for the range and 1 / rho_min^2 for the bearing.  Without
        curvature, the range (1-Lipschitz) moves by at most 2 |r|, and the
        bearing (in (-pi, pi]) by at most 2 pi + |r| / rho_c, rho_c the
        center's distance.  A box that holds the origin gets only these
        global bounds; so does the bearing on a box that meets the atan2 cut,
        the ray y = o_y, x <= o_x."""
        center = e.center[:2] - self.origin
        radii = np.sqrt(np.diag(e.shape)[:2])
        r2 = radii @ radii
        r = np.sqrt(r2)
        rho_min = np.hypot(*np.maximum(np.abs(center) - radii, 0.0))
        range_half = 2.0 * r if rho_min == 0.0 else min(2.0 * r, r2 / (2.0 * rho_min))
        bearing_half = 2.0 * pi + r / np.hypot(*center)
        if abs(center[1]) > radii[1] or center[0] > radii[0]:  # the box is off the cut
            bearing_half = min(bearing_half, r2 / (2.0 * rho_min**2))
        return np.array([range_half, bearing_half])

    def invert(self, y, v, bearing) -> np.ndarray:
        """Positions at ranges y[0] - v[:, 0] (v a noise sample or a batch
        of them) and the given bearings; a negative range raises
        MeasurementDomainError naming its noise row."""
        v = np.atleast_2d(np.asarray(v, dtype=float))
        rng_val = y[0] - v[:, 0]
        if np.any(rng_val < 0.0):
            bad = v[int(np.argmax(rng_val < 0.0))]
            raise MeasurementDomainError(
                f"negative range {rng_val.min():.6g} after subtracting noise "
                f"sample {bad}",
                sample=bad,
            )
        return np.stack([rng_val * np.cos(bearing) + self.origin[0],
                         rng_val * np.sin(bearing) + self.origin[1]], axis=-1)

    def h_inv(self, y, v, aux) -> np.ndarray:
        """The polar inverse of measure, in the SystemModel.h_inv form:
        positions at range y[0] - v[..., 0] and bearing y[1] - v[..., 1];
        aux is unused."""
        return self.invert(y, v, y[1] - np.asarray(v, dtype=float)[..., 1])


@dataclass(frozen=True)
class RadarScenario:
    """Constant-velocity target tracked by a range/bearing sensor.

    State [px, py, vx, vy]; the process-noise shape is q_scale times the
    discretized white-acceleration kinematic matrix for sampling interval T.
    """

    T: float = 1.0
    sensor: tuple[float, float] = (420.0, 420.0)
    x0: tuple[float, ...] = (50.0, 30.0, 5.0, 5.0)
    p0_scale: float = 200.0
    q_scale: float = 10.0
    r_diag: tuple[float, float] = (100.0, 0.5)
    steps: int = 60
    init_offset: float = 0.25  # e0's center drawn from {x0, init_offset * P0}; in (0, 1]

    @property
    def F(self) -> np.ndarray:
        f = np.eye(4)
        f[0, 2] = f[1, 3] = self.T
        return f

    @property
    def Q(self) -> np.ndarray:
        t = self.T
        kin = np.array([
            [t**3 / 3.0, 0.0, t**2 / 2.0, 0.0],
            [0.0, t**3 / 3.0, 0.0, t**2 / 2.0],
            [t**2 / 2.0, 0.0, t, 0.0],
            [0.0, t**2 / 2.0, 0.0, t],
        ])
        return self.q_scale * kin

    @property
    def R(self) -> np.ndarray:
        return np.diag(self.r_diag)

    @property
    def P0(self) -> np.ndarray:
        return self.p0_scale * np.eye(4)


@dataclass(frozen=True)
class RobotScenario:
    """Unicycle-style robot with constant translational/rotational commands,
    measuring range and relative bearing to one landmark.

    State [px, py, theta]; u_r must be nonzero (the motion model divides by
    it).  The heading interval handed to the inverse-measurement map is the
    projection of the predicted set onto the heading, theta_hat +- sqrt(P33).
    """

    T0: float = 1.0
    u_p: float = 0.085
    u_r: float = 0.015
    landmark: tuple[float, float] = (50.0, 50.0)
    x0: tuple[float, ...] = (10.0, 10.0, 1.0)
    q_diag: tuple[float, ...] = (1e-6, 1e-6, 1e-7)
    r_diag: tuple[float, float] = (1.0, 1.0)
    p0_diag: tuple[float, ...] = (1.0, 1.0, 0.1)
    steps: int = 100
    # The initial estimate is a small bias around the true state while P0
    # stays the stated conservative bound; the heading component of the
    # bias is never directly corrected by the position-projected update,
    # so it must be commensurate with the heading accuracy the scenario
    # expects of the filters.  It lies in (0, 1], so that e0 holds x0.
    init_offset: float = 0.02

    def __post_init__(self):
        if self.u_r == 0.0:
            raise ValueError("u_r must be nonzero")

    @property
    def Q(self) -> np.ndarray:
        return np.diag(self.q_diag)

    @property
    def R(self) -> np.ndarray:
        return np.diag(self.r_diag)

    @property
    def P0(self) -> np.ndarray:
        return np.diag(self.p0_diag)


def radar_model(scenario: RadarScenario | None = None) -> SystemModel:
    """SystemModel for the radar preset: linear dynamics x' = F x, declared
    as the model's F (also its Jacobian), and measurement (range, bearing)
    to the sensor; the inverse map is the sensor's polar inverse
    h_inv(r, theta) = (r cos theta + a, r sin theta + b), and E_p selects
    the position components."""
    sc = scenario or RadarScenario()
    f_mat = sc.F
    sensor = RangeBearing(sc.sensor)

    def f(x, k):
        return np.asarray(x, dtype=float) @ f_mat.T

    def h_jac(x):
        return np.hstack([sensor.jacobian(x), np.zeros((2, 2))])

    e_p = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return SystemModel(
        f=f, h=sensor.measure, h_inv=sensor.h_inv,
        E_p=e_p, Q=sc.Q, R=sc.R, h_jac=h_jac, h_remainder=sensor.remainder, F=f_mat,
    )


def robot_model(scenario: RobotScenario | None = None) -> SystemModel:
    """SystemModel for the robot preset.

    The measurement (range, heading minus landmark bearing) has no inverse
    in (y, v) alone; the inverse map g(y, v, theta) additionally needs the
    heading, which the filter bounds by the predicted heading interval.
    """
    sc = scenario or RobotScenario()
    landmark = RangeBearing(sc.landmark)
    ratio = sc.u_p / sc.u_r
    dtheta = sc.T0 * sc.u_r

    def f(x, k):
        x = np.asarray(x, dtype=float)
        theta = x[..., 2]
        px = x[..., 0] - ratio * (np.sin(theta) - np.sin(theta + dtheta))
        py = x[..., 1] + ratio * (np.cos(theta) - np.cos(theta + dtheta))
        return np.stack([px, py, theta + dtheta], axis=-1)

    def f_jac(x, k):
        theta = x[2]
        return np.array([
            [1.0, 0.0, -ratio * (np.cos(theta) - np.cos(theta + dtheta))],
            [0.0, 1.0, ratio * (np.sin(theta + dtheta) - np.sin(theta))],
            [0.0, 0.0, 1.0],
        ])

    # Only theta enters f nonlinearly, and both position outputs have second
    # theta-derivatives of size at most 2 ratio |sin(dtheta / 2)|: their
    # remainder is at most ratio |sin(dtheta / 2)| (theta - theta_c)^2, and
    # (theta - theta_c)^2 <= P_33 over the set.
    half_curvature = ratio * abs(sin(dtheta / 2.0))

    def f_remainder(e, k):
        return np.array([1.0, 1.0, 0.0]) * (half_curvature * e.shape[2, 2])

    def h(x):
        x = np.asarray(x, dtype=float)
        out = landmark.measure(x)
        out[..., 1] = x[..., 2] - out[..., 1]
        return out

    def h_jac(x):
        jac = landmark.jacobian(x)
        jac[1] *= -1.0
        return np.hstack([jac, [[0.0], [1.0]]])

    def h_inv(y, v, aux):
        (theta,) = aux
        # y[1] = theta - bearing + v[1]
        bearing = np.asarray(theta, dtype=float) - y[1] + np.asarray(v, dtype=float)[..., 1]
        return landmark.invert(y, v, bearing)

    def aux_from_predicted(pred: Ellipsoid) -> np.ndarray:
        # The heading projection of the predicted set: every heading it admits.
        theta_hat, width = pred.center[2], np.sqrt(pred.shape[2, 2])
        return np.array([[theta_hat - width, theta_hat + width]])

    e_p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SystemModel(
        f=f, h=h, h_inv=h_inv,
        E_p=e_p, Q=sc.Q, R=sc.R, f_jac=f_jac, h_jac=h_jac,
        # theta minus the bearing has the remainder of the bearing.
        f_remainder=f_remainder, h_remainder=landmark.remainder,
        aux_from_predicted=aux_from_predicted,
    )


PRESETS = {"radar": RadarScenario, "robot": RobotScenario}


def build_scenario(name: str, **overrides):
    if name not in PRESETS:
        raise KeyError(f"unknown scenario preset {name!r}")
    return PRESETS[name](**overrides)


def build_model(scenario) -> SystemModel:
    if isinstance(scenario, RadarScenario):
        return radar_model(scenario)
    if isinstance(scenario, RobotScenario):
        return robot_model(scenario)
    raise TypeError(f"unknown scenario type {type(scenario).__name__}")


def simulate_truth(scenario, model: SystemModel, rng: np.random.Generator,
                   steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Roll out the true trajectory and the measurements the filter sees,
    under model, the scenario's SystemModel (build_model).

    Process and measurement noises are drawn uniformly over the interiors
    of their bound ellipsoids, so every draw satisfies its bound by
    construction.  Returns (trajectory, measurements) with trajectory of
    length steps+1 (row 0 is x0) and measurements[k] belonging to
    trajectory[k+1].
    """
    n_steps = scenario.steps if steps is None else steps
    w_ball = Ellipsoid(np.zeros(model.state_dim), model.Q)
    v_ball = Ellipsoid(np.zeros(model.meas_dim), model.R)
    ws = sample_interior(w_ball, n_steps, rng)
    vs = sample_interior(v_ball, n_steps, rng)
    traj = np.empty((n_steps + 1, model.state_dim))
    traj[0] = np.asarray(scenario.x0, dtype=float)
    for k in range(n_steps):
        traj[k + 1] = model.f(traj[k], k) + ws[k]
    return traj, model.h(traj[1:]) + vs


def initial_estimate(scenario, rng: np.random.Generator) -> Ellipsoid:
    """Initial state ellipsoid: the preset P0 around a center disturbed
    uniformly within {x0, init_offset * P0}; it holds the true initial state
    x0 when 0 < init_offset <= 1, which RunConfig checks before any run."""
    x0 = np.asarray(scenario.x0, dtype=float)
    p0 = scenario.P0
    ball = Ellipsoid(x0, scenario.init_offset * p0)
    center = sample_interior(ball, 1, rng)[0]
    return Ellipsoid(center, p0)
