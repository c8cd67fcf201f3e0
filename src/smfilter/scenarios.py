"""Benchmark systems: planar radar target tracking and mobile-robot
localization against a known landmark, plus bounded-noise truth simulation.

Both presets use the range/bearing measurement geometry; bearings are
computed with atan2 so the stated inverse maps round-trip exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        out = np.empty((*dx.shape, 2))
        out[..., 0], out[..., 1] = np.hypot(dx, dy), np.arctan2(dy, dx)
        return out

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
        radii = np.sqrt(e.shape.diagonal()[:2])
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
        east = rng_val * np.cos(bearing) + self.origin[0]
        out = np.empty((*east.shape, 2))
        out[..., 0], out[..., 1] = east, rng_val * np.sin(bearing) + self.origin[1]
        return out

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
        jac = np.zeros((2, 4))
        jac[:, :2] = sensor.jacobian(x)
        return jac

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
        out = np.empty(x.shape)
        out[..., 0] = x[..., 0] - ratio * (np.sin(theta) - np.sin(theta + dtheta))
        out[..., 1] = x[..., 1] + ratio * (np.cos(theta) - np.cos(theta + dtheta))
        out[..., 2] = theta + dtheta
        return out

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
        jac = np.zeros((2, 3))
        jac[:, :2] = landmark.jacobian(x)
        jac[1] *= -1.0
        jac[1, 2] = 1.0
        return jac

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


def simulate_truth(scenario, model: SystemModel,
                   rng: np.random.Generator | Sequence[np.random.Generator],
                   steps: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Roll out the true trajectory and the measurements the filter sees,
    under model, the scenario's SystemModel (build_model), of one run; or,
    when rng is a sequence of R generators, of R runs in lockstep.

    Each generator draws its run's process noises, then its measurement
    noises, uniformly over the interiors of the noise balls {0, Q} and
    {0, R}, on the factors the model keeps, so every draw satisfies its
    bound by construction.  The runs are rolled forward by one call of f
    per step on the (R, n) stack of their states, and measured by one call
    of h on the (R, steps, n) stack of their trajectories; f and h map each
    state as a call on it alone would (SystemModel), so a run's bits do not
    depend on the others.  Returns (trajectory, measurements) with
    trajectory of length steps+1 (row 0 is x0) and measurements[k]
    belonging to trajectory[k+1]; for a sequence of generators, their
    (R, steps + 1, n) and (R, steps, l) stacks.
    """
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else rng
    n_steps = scenario.steps if steps is None else steps
    w_ball = Ellipsoid._from_factor(np.zeros(model.state_dim), model.Q, model._q_factor)
    v_ball = Ellipsoid._from_factor(np.zeros(model.meas_dim), model.R, model._r_factor)
    ws = np.array([sample_interior(w_ball, n_steps, g) for g in rngs])
    vs = np.array([sample_interior(v_ball, n_steps, g) for g in rngs])
    traj = np.empty((len(rngs), n_steps + 1, model.state_dim))
    traj[:, 0] = np.asarray(scenario.x0, dtype=float)
    for k in range(n_steps):
        traj[:, k + 1] = model.f(traj[:, k], k) + ws[:, k]
    ys = model.h(traj[:, 1:]) + vs
    return (traj[0], ys[0]) if one else (traj, ys)


def initial_estimate(scenario, rng: np.random.Generator | Sequence[np.random.Generator],
                     nominal: Ellipsoid | None = None) -> Ellipsoid | list[Ellipsoid]:
    """Initial state ellipsoid of one run: the nominal set {x0, P0} moved to
    a center drawn uniformly within {x0, init_offset * P0}; it holds the
    true initial state x0 when 0 < init_offset <= 1, which RunConfig checks
    before any run.  When rng is a sequence of generators, the list of each
    one's set, the ball {x0, init_offset * P0} made once.  Every set is
    {center, P0} on the factor of nominal, the checked set {x0, P0}, made
    here when not given."""
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else rng
    if nominal is None:
        nominal = Ellipsoid(scenario.x0, scenario.P0)
    ball = Ellipsoid(nominal.center, scenario.init_offset * nominal.shape)
    sets = [Ellipsoid._from_factor(sample_interior(ball, 1, g)[0], nominal.shape,
                                   nominal.factor()) for g in rngs]
    return sets[0] if one else sets
