import numpy as np
import pytest

from smfilter.baselines import _f_jacobian
from smfilter.dsmf import SystemModel
from smfilter.ellipsoid import Ellipsoid, contains, sample_interior
from smfilter.errors import MeasurementDomainError, SpdError
from smfilter.harness import parse_config
from smfilter.scenarios import (
    RadarScenario,
    RangeBearing,
    RobotScenario,
    build_model,
    build_scenario,
    initial_estimate,
    radar_model,
    robot_model,
    simulate_truth,
)

from reference import numerical_jacobian, sample_boundary, simulate_truth_by_step


def plain_model(**given):
    """A model on the identity maps, with the given fields replaced."""
    fields = dict(f=lambda x, k: x, h=lambda x: x, h_inv=lambda y, v, aux: y - v,
                  E_p=np.eye(2), Q=np.eye(2), R=np.eye(2))
    return SystemModel(**{**fields, **given})


class TestSystemModel:
    def test_sizes_are_those_of_the_noise_bounds(self):
        assert (radar_model().state_dim, radar_model().meas_dim) == (4, 2)
        assert (robot_model().state_dim, robot_model().meas_dim) == (3, 2)
        model = plain_model(E_p=np.eye(3)[:2], Q=np.eye(3), R=np.eye(1))
        assert (model.state_dim, model.meas_dim) == (3, 1)

    @pytest.mark.parametrize("given, match", [
        ({"Q": np.ones((2, 3))}, "Q is"),
        ({"Q": np.ones(2)}, "Q is"),
        ({"R": np.ones((1, 2))}, "R is"),
        # A size that differs from Q's used to pass, and the first step
        # then failed with a broadcasting error.
        ({"Q": np.eye(3)}, "E_p has 2 columns, expected 3"),
        ({"F": np.eye(3)}, "F is"),
        ({"Q": np.eye(3), "E_p": np.eye(3)[:2], "F": np.eye(2)}, "F is"),
        # An asymmetric bound used to be averaged into another bound:
        # [[1, .9], [0, 1]] was taken as [[1, .45], [.45, 1]].
        ({"Q": [[1.0, 0.9], [0.0, 1.0]]}, "process noise shape is not symmetric"),
        ({"R": [[1.0, 0.0], [1e-6, 1.0]]}, "measurement noise shape is not symmetric"),
    ], ids=["Q not square", "Q a vector", "R not square", "E_p against Q", "F against Q",
            "F against a larger Q", "Q asymmetric", "R asymmetric"])
    def test_inconsistent_sizes_rejected(self, given, match):
        with pytest.raises(ValueError, match=match):
            plain_model(**given)

    @pytest.mark.parametrize("given, error", [
        ({"Q": [[np.nan, 0.0], [0.0, 1.0]]}, SpdError),
        ({"R": [[1.0, np.inf], [np.inf, 1.0]]}, SpdError),
        # numpy's rank test raised its own LinAlgError on a NaN E_p.
        ({"E_p": [[1.0, np.nan]]}, ValueError),
        ({"E_p": [[np.inf, 0.0]]}, ValueError),
    ], ids=["NaN Q", "inf R", "NaN E_p", "inf E_p"])
    def test_non_finite_entries_rejected(self, given, error):
        with pytest.raises(error, match="non-finite"):
            plain_model(**given)


class TestRangeBearing:
    def test_polar_inverse_takes_one_noise_row_or_a_batch(self):
        sensor = RangeBearing((3.0, -2.0))
        x = np.array([10.0, 4.0])
        y = sensor.measure(x)
        v = np.array([[0.5, 0.01], [-0.2, 0.03]])
        np.testing.assert_array_equal(sensor.h_inv(y, v[1], ()), sensor.h_inv(y, v, ())[1:])
        np.testing.assert_allclose(sensor.h_inv(y, np.zeros(2), ())[0], x, atol=1e-12)

    def test_robot_inverse_takes_one_noise_row(self):
        model = robot_model()
        y, theta = np.array([15.0, 0.2]), (np.array([0.8]),)
        v = np.array([[0.3, -0.1], [0.0, 0.4]])
        np.testing.assert_array_equal(model.h_inv(y, v[1], theta),
                                      model.h_inv(y, v, theta)[1:])


# The auxiliary parameters each preset's inverse map takes at a state x.
AUX = {"radar": lambda x: (), "robot": lambda x: (x[2:3],)}


def preset_model_and_states(preset, rng):
    """The preset's model and 50 states spread +-5 about its x0."""
    scenario = build_scenario(preset)
    model = build_model(scenario)
    states = np.asarray(scenario.x0) + rng.uniform(-5.0, 5.0, size=(50, model.state_dim))
    return model, states


def assert_jacobians_match_finite_differences(preset):
    """f_jac and h_jac agree with central differences at random states and steps."""
    rng = np.random.default_rng(27)
    model, states = preset_model_and_states(preset, rng)
    for x, k in zip(states, rng.integers(0, 200, size=len(states)).tolist()):
        np.testing.assert_allclose(model.h_jac(x), numerical_jacobian(model.h, x),
                                   rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(_f_jacobian(model, x, k),
                                   numerical_jacobian(lambda z: model.f(z, k), x),
                                   rtol=0.0, atol=1e-6)


# The model contract is checked in three parts: the Jacobians in each
# model's test class, the inverse map below, and the declared F and
# aux_from_predicted in test_model_contract.
@pytest.mark.parametrize("preset", sorted(AUX))
def test_inverse_map_round_trips_under_noise(preset):
    # E_p x = h_inv(h(x) + v, v, aux(x)) for every v inside R, not only v = 0.
    rng = np.random.default_rng(27)
    model, states = preset_model_and_states(preset, rng)
    noises = sample_interior(Ellipsoid(np.zeros(model.meas_dim), model.R), len(states), rng)
    for x, v in zip(states, noises):
        z = model.h_inv(model.h(x) + v, v, AUX[preset](x))
        np.testing.assert_allclose(z[0], model.E_p @ x, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("preset", sorted(AUX))
def test_model_contract(preset):
    """Each preset model's declared maps agree with its f and h: F with f
    at random states and steps where declared, and where the inverse takes
    aux, the bounds of aux_from_predicted with the headings of points
    sampled from random predicted sets."""
    rng = np.random.default_rng(27)
    model, states = preset_model_and_states(preset, rng)
    if model.F is not None:
        for k in rng.integers(0, 200, size=5).tolist():
            np.testing.assert_array_equal(model.f(states, k), states @ model.F.T)
    if model.aux_from_predicted is not None:  # the robot: aux is the heading
        for x in states[:8]:
            a = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-2.0, 0.0, size=3)
            pred = Ellipsoid(x, a @ a.T + 1e-6 * np.eye(3))
            (lo, hi), = model.aux_from_predicted(pred)
            headings = np.concatenate([sample_boundary(pred, 500, rng),
                                       sample_interior(pred, 500, rng)])[:, 2]
            slack = 1e-12 * (1.0 + abs(x[2]))
            assert lo - slack <= headings.min() and headings.max() <= hi + slack
    # f on an (R, n) stack of states and h on an (R, steps, n) stack give
    # each state the bits of one call on it alone, on strided views as the
    # lockstep roll-out (simulate_truth) passes them.
    runs = states.reshape(5, 10, model.state_dim)
    for k in rng.integers(0, 200, size=3).tolist():
        column = runs[:, k % 10]
        assert model.f(column, k).tobytes() == np.array(
            [model.f(x.copy(), k) for x in column]).tobytes()
    assert model.h(runs[:, 1:]).tobytes() == np.array(
        [[model.h(x.copy()) for x in run[1:]] for run in runs]).tobytes()


class TestRadarScenarioConstants:
    def test_transition_matrix_structure(self):
        sc = RadarScenario()
        f = sc.F
        np.testing.assert_array_equal(f[0], [1, 0, 1, 0])
        np.testing.assert_array_equal(f[3], [0, 0, 0, 1])

    def test_noise_shapes(self):
        sc = RadarScenario()
        np.testing.assert_allclose(np.diag(sc.Q), [10 / 3, 10 / 3, 10.0, 10.0])
        assert sc.Q[0, 2] == pytest.approx(5.0)
        np.testing.assert_array_equal(sc.R, np.diag([100.0, 0.5]))
        np.testing.assert_array_equal(sc.P0, 200.0 * np.eye(4))

    def test_initial_state(self):
        sc = RadarScenario()
        model = radar_model(sc)
        np.testing.assert_array_equal(model.E_p @ np.asarray(sc.x0), [50.0, 30.0])


class TestRadarModel:
    def test_noiseless_round_trip(self):
        model = radar_model()
        x = np.array([100.0, 200.0, 5.0, 5.0])
        y = model.h(x)
        z = model.h_inv(y, np.zeros((1, 2)), ())
        np.testing.assert_allclose(z[0], [100.0, 200.0], atol=1e-10)

    def test_sensor_at_origin_variant(self):
        sc = RadarScenario(sensor=(0.0, 0.0))
        model = radar_model(sc)
        y = model.h(np.array([10.0, 20.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            y, [np.sqrt(500.0), np.arctan2(20.0, 10.0)], atol=1e-12
        )

    def test_inverse_identity_on_random_states(self):
        rng = np.random.default_rng(0)
        model = radar_model()
        states = rng.uniform(0, 300, size=(1000, 4))
        ys = model.h(states)
        zs = np.stack([model.h_inv(y, np.zeros((1, 2)), ())[0] for y in ys])
        np.testing.assert_allclose(zs, states[:, :2], atol=1e-10)

    def test_negative_range_raises(self):
        model = radar_model()
        with pytest.raises(MeasurementDomainError) as exc:
            model.h_inv(np.array([1.0, 0.0]), np.array([[5.0, 0.0]]), ())
        assert exc.value.sample is not None

    def test_declared_dynamics_matrix(self):
        model = radar_model()
        np.testing.assert_array_equal(model.F, RadarScenario().F)
        states = np.random.default_rng(6).uniform(-300.0, 300.0, size=(50, 4))
        np.testing.assert_array_equal(model.f(states, 3), states @ model.F.T)
        assert model.f_jac is None  # a declared F is the Jacobian
        for k, x in enumerate(states[:5]):
            np.testing.assert_array_equal(model.f(x, k), x @ model.F.T)
            np.testing.assert_array_equal(_f_jacobian(model, x, k), model.F)

    def test_sampling_interval_override_sets_f(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = radar\n[scenario]\nT = 0.5\n")
        config = parse_config(path)
        model = build_model(build_scenario(config.scenario, **config.scenario_overrides))
        want = np.eye(4)
        want[0, 2] = want[1, 3] = 0.5
        np.testing.assert_array_equal(model.F, want)
        x = np.array([10.0, 20.0, 2.0, -4.0])
        np.testing.assert_array_equal(model.f(x, 0), [11.0, 18.0, 2.0, -4.0])
        np.testing.assert_array_equal(_f_jacobian(model, x, 0), want)

    def test_jacobians_match_finite_differences(self):
        assert_jacobians_match_finite_differences("radar")


class TestRobotModel:
    def test_one_motion_step_hand_values(self):
        sc = RobotScenario()
        model = robot_model(sc)
        x1 = model.f(np.asarray(sc.x0, dtype=float), 0)
        ratio = 0.085 / 0.015
        want = np.array([
            10.0 - ratio * (np.sin(1.0) - np.sin(1.015)),
            10.0 + ratio * (np.cos(1.0) - np.cos(1.015)),
            1.015,
        ])
        np.testing.assert_allclose(x1, want, atol=1e-12)
        assert x1[2] == pytest.approx(1.015)

    def test_noiseless_inverse_with_exact_heading(self):
        sc = RobotScenario()
        model = robot_model(sc)
        x = np.array([12.0, 9.0, 0.8])
        y = model.h(x)
        z = model.h_inv(y, np.zeros((1, 2)), (np.array([0.8]),))
        np.testing.assert_allclose(z[0], [12.0, 9.0], atol=1e-12)

    def test_heading_interval_from_predicted(self):
        # The half-width is sqrt(P33), the heading projection of the set.
        from smfilter.ellipsoid import Ellipsoid

        model = robot_model(RobotScenario())
        pred = Ellipsoid([10.0, 10.0, 1.0], np.diag([1.0, 1.0, 0.09]))
        np.testing.assert_allclose(model.aux_from_predicted(pred), [[0.7, 1.3]])

    @pytest.mark.parametrize("seed", range(8))
    def test_heading_interval_covers_the_predicted_set(self, seed):
        # Every heading the predicted set admits is in the interval handed
        # to the inverse map, and the interval is no wider than that.
        from reference import sample_boundary
        from smfilter.ellipsoid import Ellipsoid

        rng = np.random.default_rng([7, seed])
        a = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-2.0, 0.0, size=3)
        pred = Ellipsoid(rng.uniform(-5.0, 5.0, size=3), a @ a.T + 1e-6 * np.eye(3))
        (lo, hi), = robot_model(RobotScenario()).aux_from_predicted(pred)
        headings = sample_boundary(pred, 4000, rng)[:, 2]
        slack = 1e-12 * (1.0 + abs(pred.center[2]))
        assert lo - slack <= headings.min() and headings.max() <= hi + slack
        assert headings.max() - headings.min() >= 0.95 * (hi - lo)

    def test_width_zero_noiseless_is_single_point(self):
        sc = RobotScenario()
        model = robot_model(sc)
        x = np.array([12.0, 9.0, 0.8])
        y = model.h(x)
        thetas = np.full(7, 0.8)
        zs = model.h_inv(y, np.zeros((7, 2)), (thetas,))
        assert np.ptp(zs, axis=0).max() < 1e-12

    def test_u_r_zero_rejected(self):
        with pytest.raises(ValueError):
            RobotScenario(u_r=0.0)

    def test_jacobians_match_finite_differences(self):
        assert_jacobians_match_finite_differences("robot")


class TestSimulateTruth:
    def test_zero_noise_is_deterministic_rollout(self):
        sc = RobotScenario(q_diag=(1e-30, 1e-30, 1e-30), r_diag=(1e-30, 1e-30))
        model = build_model(sc)
        rng = np.random.default_rng(1)
        traj, meas = simulate_truth(sc, model, rng, steps=5)
        x = np.asarray(sc.x0, dtype=float)
        for k in range(5):
            x = model.f(x, k)
            np.testing.assert_allclose(traj[k + 1], x, atol=1e-9)
            np.testing.assert_allclose(meas[k], model.h(x), atol=1e-9)

    def test_noises_respect_bounds(self):
        sc = RadarScenario()
        model = build_model(sc)
        rng = np.random.default_rng(2)
        traj, meas = simulate_truth(sc, model, rng, steps=40)
        q_inv = np.linalg.inv(sc.Q)
        r_inv = np.linalg.inv(sc.R)
        for k in range(40):
            w = traj[k + 1] - model.f(traj[k], k)
            v = meas[k] - model.h(traj[k + 1])
            assert w @ q_inv @ w <= 1 + 1e-12
            assert v @ r_inv @ v <= 1 + 1e-12

    def test_seeded_reproducibility(self):
        sc = RadarScenario()
        model = build_model(sc)
        t1, m1 = simulate_truth(sc, model, np.random.default_rng(42), steps=60)
        t2, m2 = simulate_truth(sc, model, np.random.default_rng(42), steps=60)
        assert t1.tobytes() == t2.tobytes()
        assert m1.tobytes() == m2.tobytes()

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_one_measurement_call_matches_the_per_step_loop(self, preset):
        # h over the whole trajectory in one call gives each measurement
        # bit for bit as one call per step does.  So does the lockstep
        # roll-out of R runs, one generator each, and the e0 each generator
        # draws next is the one initial_estimate draws on it alone.
        sc = build_scenario(preset)
        model = build_model(sc)
        for seed in range(5):
            got = simulate_truth(sc, model, np.random.default_rng(seed), steps=40)
            want = simulate_truth_by_step(sc, np.random.default_rng(seed), steps=40)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        for runs in (2, 5):
            rngs = [np.random.default_rng([runs, r]) for r in range(runs)]
            trajs, meas = simulate_truth(sc, model, rngs, steps=40)
            e0s = initial_estimate(sc, rngs)
            assert trajs.shape == (runs, 41, model.state_dim)
            assert meas.shape == (runs, 40, model.meas_dim) and len(e0s) == runs
            for r in range(runs):
                alone = np.random.default_rng([runs, r])
                want = simulate_truth_by_step(sc, alone, steps=40)
                assert trajs[r].tobytes() == want[0].tobytes()
                assert meas[r].tobytes() == want[1].tobytes()
                e0 = initial_estimate(sc, alone)
                for got, b in ((e0s[r], e0), (e0, Ellipsoid(e0.center, sc.P0))):
                    assert got.center.tobytes() == b.center.tobytes()
                    assert got.shape.tobytes() == b.shape.tobytes()
                    assert got.factor().tobytes() == b.factor().tobytes()

    def test_heading_grows_linearly_without_noise(self):
        sc = RobotScenario(q_diag=(1e-30, 1e-30, 1e-30))
        rng = np.random.default_rng(3)
        traj, _ = simulate_truth(sc, build_model(sc), rng, steps=20)
        for k in range(21):
            assert traj[k, 2] == pytest.approx(1.0 + k * 0.015, abs=1e-9)


class TestInitialEstimate:
    def test_truth_contained(self):
        for name in ("radar", "robot"):
            sc = build_scenario(name)
            for seed in range(10):
                e0 = initial_estimate(sc, np.random.default_rng(seed))
                assert contains(e0, np.asarray(sc.x0, dtype=float), 0.0)
                np.testing.assert_array_equal(e0.shape, sc.P0)


def test_build_scenario_rejects_unknown():
    with pytest.raises(KeyError):
        build_scenario("sonar")


def test_build_scenario_overrides():
    sc = build_scenario("robot", u_p=0.1, steps=7)
    assert sc.u_p == 0.1 and sc.steps == 7
