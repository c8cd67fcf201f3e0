from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from smfilter import baselines, dsmf
from smfilter.baselines import (
    _f_jacobian,
    _h_jacobian,
    add_remainder,
    esmf_predict,
    esmf_step,
    esmf_update,
    remainder_bound_f,
    remainder_bound_h,
    ukf_step,
)
from smfilter.dsmf import SystemModel, fuse, optimize_rho
from smfilter.ellipsoid import (
    Ellipsoid,
    optimal_p,
    sample_interior,
    symmetrize,
)
from smfilter.errors import SpdError
from smfilter.harness import RunConfig, run_experiment
from smfilter.scenarios import build_model, build_scenario, initial_estimate

from reference import minkowski_outer, numerical_jacobian, random_spd, sample_boundary


def linear_model(f_mat, h_mat, q, r):
    """Linear maps with their Jacobians and their zero remainders declared,
    but not F."""
    return SystemModel(
        f=lambda x, k: np.asarray(x) @ f_mat.T,
        h=lambda x: np.asarray(x) @ h_mat.T,
        h_inv=lambda y, v, aux: y - np.atleast_2d(v),
        E_p=h_mat, Q=q, R=r,
        f_jac=lambda x, k: f_mat, h_jac=lambda x: h_mat,
        f_remainder=lambda e, k: np.zeros(f_mat.shape[0]),
        h_remainder=lambda e: np.zeros(h_mat.shape[0]),
    )


def reference_add_remainder(noise_shape, half):
    """The remainder inflation on Ellipsoid values: minkowski_outer of the
    noise set and the remainder box's covering ellipsoid."""
    half = np.atleast_1d(np.asarray(half, dtype=float))
    top = half.max()
    if top == 0.0:
        return noise_shape
    half = np.maximum(half, 1e-12 * top)
    bound = np.diag(half.size * half**2)
    base = Ellipsoid(np.zeros(noise_shape.shape[0]), noise_shape)
    return minkowski_outer(base, bound, optimal_p(noise_shape, bound)).shape


def reference_esmf_predict(e_k, model, k):
    """The linearized prediction on Ellipsoid values, with the declared
    remainder bound of f."""
    c = e_k.center
    jac = baselines._f_jacobian(model, c, k)
    lin_shape = symmetrize(jac @ e_k.shape @ jac.T)
    q_eff = reference_add_remainder(model.Q, remainder_bound_f(e_k, model, k))
    base = Ellipsoid(model.f(c, k), lin_shape)
    return minkowski_outer(base, q_eff, optimal_p(lin_shape, q_eff))


class TestMatrixCoveringSums:
    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_add_remainder_matches_the_ellipsoid_reference(self, name):
        scenario = build_scenario(name)
        model = build_model(scenario)
        rng = np.random.default_rng(27)
        for _ in range(4):
            e = initial_estimate(scenario, rng)
            e = Ellipsoid(e.center, e.shape * rng.uniform(0.01, 2.0))
            halves = [(model.R, remainder_bound_h(e, model))]
            if model.F is None:
                halves.append((model.Q, remainder_bound_f(e, model, 0)))
            for noise in (model.Q, model.R):
                half = rng.uniform(0.0, 3.0, noise.shape[0]) * 10.0 ** rng.integers(-6, 2)
                half[rng.integers(noise.shape[0])] = 0.0
                halves.append((noise, half))
            for noise, half in halves:
                assert np.array_equal(add_remainder(noise, half),
                                      reference_add_remainder(noise, half))

    @pytest.mark.parametrize("seed", range(4))
    def test_robot_esmf_prediction_matches_the_ellipsoid_reference(self, seed):
        scenario = build_scenario("robot")
        model = build_model(scenario)
        e = initial_estimate(scenario, np.random.default_rng(seed))
        got = esmf_predict(e, model, seed)
        want = reference_esmf_predict(e, model, seed)
        assert np.array_equal(got.center, want.center)
        assert np.array_equal(got.shape, want.shape)


class TestExactLinearPrediction:
    @staticmethod
    def closed_form(e, model):
        """Center F c and the trace-optimal covering sum of F P F^T with Q."""
        f_mat = model.F
        lin_shape = symmetrize(f_mat @ e.shape @ f_mat.T)
        p = optimal_p(lin_shape, model.Q)
        return f_mat @ e.center, symmetrize((1 + 1 / p) * lin_shape + (1 + p) * model.Q)

    @staticmethod
    def counted(monkeypatch):
        """Count the calls of the remainder bound of f and of add_remainder."""
        calls = {"remainder_bound_f": 0, "add_remainder": 0}
        for name in calls:
            original = getattr(baselines, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(baselines, name, wrapper)
        return calls

    def test_radar_prediction_is_the_closed_form(self):
        scenario = build_scenario("radar")
        model = build_model(scenario)
        rng = np.random.default_rng(28)
        for k in range(6):
            e = initial_estimate(scenario, rng)
            e = Ellipsoid(e.center, random_spd(rng, 4, rng.uniform(1.0, 300.0)))
            got = esmf_predict(e, model, k)
            center, shape = self.closed_form(e, model)
            assert np.array_equal(got.center, center)
            assert np.array_equal(got.shape, shape)

    def test_declared_linear_model_is_the_closed_form(self):
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        model = replace(linear_model(f_mat, np.eye(2)[:1], 0.05 * np.eye(2),
                                     np.array([[0.1]])), F=f_mat)
        e = Ellipsoid([1.0, -0.5], 0.5 * np.eye(2))
        got = esmf_predict(e, model, 0)
        center, shape = self.closed_form(e, model)
        assert np.array_equal(got.center, center)
        assert np.array_equal(got.shape, shape)

    def test_declared_dynamics_bound_no_remainder(self, monkeypatch):
        calls = self.counted(monkeypatch)
        scenario = build_scenario("radar")
        e = initial_estimate(scenario, np.random.default_rng(30))
        esmf_predict(e, build_model(scenario), 0)
        assert calls == {"remainder_bound_f": 0, "add_remainder": 0}

    def test_undeclared_linear_model_bounds_its_remainder(self, monkeypatch):
        calls = self.counted(monkeypatch)
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        model = linear_model(f_mat, np.eye(2)[:1], 0.05 * np.eye(2), np.array([[0.1]]))
        assert model.F is None
        esmf_predict(Ellipsoid([1.0, -0.5], 0.5 * np.eye(2)), model, 0)
        assert calls == {"remainder_bound_f": 1, "add_remainder": 1}


class TestNumericalJacobian:
    def test_matches_analytic(self):
        def fn(x):
            return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

        x = np.array([1.3, 0.4])
        jac = numerical_jacobian(fn, x)
        want = np.array([[2 * 1.3, 1.0], [0.0, np.cos(0.4)]])
        np.testing.assert_allclose(jac, want, atol=1e-7)


class TestDeclaredJacobians:
    def test_a_missing_jacobian_is_named(self):
        # The linearizing baseline has no finite-difference fallback, and no
        # sampled one for its remainder bounds.
        model = SystemModel(
            f=lambda x, k: np.asarray(x), h=lambda x: np.asarray(x),
            h_inv=lambda y, v, aux: y - np.atleast_2d(v),
            E_p=np.eye(2), Q=np.eye(2), R=np.eye(2),
        )
        e = Ellipsoid([1.0, 2.0], np.eye(2))
        with pytest.raises(ValueError, match="f_jac"):
            esmf_predict(e, model, 0)
        with pytest.raises(ValueError, match="h_jac"):
            esmf_update(e, model, np.array([1.0, 2.0]))
        model = replace(model, f_jac=lambda x, k: np.eye(2), h_jac=lambda x: np.eye(2))
        with pytest.raises(ValueError, match="f_remainder"):
            esmf_predict(e, model, 0)
        with pytest.raises(ValueError, match="h_remainder"):
            esmf_update(e, model, np.array([1.0, 2.0]))
        # Declared linear dynamics need no f_remainder.
        esmf_predict(e, replace(model, F=np.eye(2)), 0)


def dense_remainder(e, fn, jac, rng, m=8000):
    """The largest |fn(x) - fn(c) - jac (x - c)| per output over m points of
    e, half on its boundary and half inside, less a rounding allowance."""
    x = np.vstack([sample_boundary(e, m // 2, rng), sample_interior(e, m // 2, rng)])
    vals = np.atleast_2d(fn(x))
    rem = np.abs(vals - fn(e.center) - (x - e.center) @ jac.T).max(axis=0)
    return rem - 1e-12 * (1.0 + np.abs(vals).max(axis=0)
                          + np.abs(x).max() * np.abs(jac).sum(axis=1))


def random_sets(rng, model, origin, count):
    """count seeded random ellipsoids of the model's state space, at shape
    scales from 0.1 to 1000, whose position boxes (radii r_a = sqrt(P_aa))
    take turns: holding origin, crossing the atan2 cut to its left without
    holding origin, and lying anywhere around it."""
    n = model.state_dim
    sets = []
    for i in range(count):
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        a = rng.standard_normal((n, n))
        shape = scale * (a @ a.T + 1e-3 * np.eye(n))
        radii = np.sqrt(np.diag(shape)[:2])
        offset = [radii * rng.uniform(-0.5, 0.5, 2),
                  radii * [-rng.uniform(1.05, 3.0), rng.uniform(-0.5, 0.5)],
                  np.sqrt(scale) * rng.uniform(0.2, 4.0) * rng.standard_normal(2)][i % 3]
        center = 3.0 * rng.standard_normal(n)
        center[:2] = np.asarray(origin) + offset
        sets.append(Ellipsoid(center, shape))
    return sets


class TestDeclaredRemainder:
    @pytest.mark.parametrize("name, which", [("radar", "h"), ("robot", "h"), ("robot", "f")])
    def test_bound_covers_the_dense_remainder(self, name, which):
        # Each declared bound is at least the remainder found on 8000 points
        # of each of 240 seeded random sets, including sets whose position
        # box holds the sensor or landmark and sets that cross the atan2
        # cut.
        scenario = build_scenario(name)
        model = build_model(scenario)
        origin = scenario.sensor if name == "radar" else scenario.landmark
        rng = np.random.default_rng(31)
        for e in random_sets(rng, model, origin, 240):
            if which == "h":
                got = remainder_bound_h(e, model)
                want = dense_remainder(e, model.h, _h_jacobian(model, e.center), rng)
            else:
                got = remainder_bound_f(e, model, 0)
                want = dense_remainder(e, lambda x: model.f(x, 0),
                                       _f_jacobian(model, e.center, 0), rng)
            assert got.shape == want.shape
            assert np.all(got >= want), (e.center, e.shape, got, want)


class TestRemainderBound:
    """add_remainder on a negligible noise bound shows the remainder
    ellipsoid itself: the covering sum of shapes q and R is
    (sqrt(q) + sqrt(R))^2 per axis when both are diagonal and proportional."""

    def test_zero_samples_give_zero_bound(self):
        # A linear map has no remainder, and a model can declare so.
        f_mat = np.array([[1.0, 0.5], [0.0, 1.0]])
        model = linear_model(f_mat, np.eye(2), np.eye(2), np.eye(2))
        e = Ellipsoid([3.0, -1.0], np.diag([4.0, 0.5]))
        half = remainder_bound_f(e, model, 0)
        assert half.shape == (2,) and not np.any(half)

    def test_add_remainder_zero_is_noop(self):
        q = np.diag([2.0, 3.0])
        out = add_remainder(q, np.zeros(2))
        np.testing.assert_array_equal(out, q)

    def test_quadratic_scalar_example(self):
        # f(x) = x^2 on [-1, 1] linearized at 0: the remainder is x^2 and
        # its half-width 1.
        xs = np.linspace(-1.0, 1.0, 201)
        out = add_remainder(np.array([[1e-16]]), [np.abs(xs**2).max()])
        assert out[0, 0] == pytest.approx(1.0, rel=1e-6)

    def test_box_coverage_factor(self):
        # In d dimensions the remainder shape is diag(d * half^2), so the
        # whole box, corners included, is inside the sum.
        half = np.array([1.0, 2.0])
        out = add_remainder(1e-16 * np.eye(2), half)
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            corner = half * np.array(signs)
            assert corner @ np.linalg.solve(out, corner) <= 1.0 + 1e-12

    def test_zero_axis_floored(self):
        # An axis with no remainder is floored at 1e-12 of the largest
        # half-width, so the remainder shape stays SPD: on a noise axis of
        # 1e-30 the sum then reaches above (1e-12)^2.
        out = add_remainder(np.diag([1.0, 1e-30]), [1.0, 0.0])
        assert out[1, 1] > (1e-12) ** 2
        assert np.linalg.eigvalsh(out).min() > 0

    def test_esmf_inflation_matches_the_covering_sum(self):
        # add_remainder is the covering sum of the noise bound and
        # diag(d * half^2) at the trace-optimal p.
        q = np.diag([2.0, 3.0])
        half = np.array([0.5, 0.25])
        bound = np.diag(2 * half**2)
        want = minkowski_outer(Ellipsoid(np.zeros(2), q), bound, optimal_p(q, bound))
        np.testing.assert_array_equal(add_remainder(q, half), want.shape)

    def test_monotone_in_input_set(self):
        # Growing the set never shrinks the declared bounds of the presets.
        rng = np.random.default_rng(0)
        for name in ("radar", "robot"):
            scenario = build_scenario(name)
            model = build_model(scenario)
            origin = scenario.sensor if name == "radar" else scenario.landmark
            for e in random_sets(rng, model, origin, 60):
                big = Ellipsoid(e.center, rng.uniform(1.0, 4.0) * e.shape)
                assert np.all(remainder_bound_h(big, model) >= remainder_bound_h(e, model))
                if model.F is None:
                    assert np.all(remainder_bound_f(big, model, 0)
                                  >= remainder_bound_f(e, model, 0))


class TestUkf:
    def test_matches_kalman_filter_on_linear_model(self):
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        h_mat = np.array([[1.0, 0.0]])
        q = 0.1 * np.eye(2)
        r = np.array([[0.5]])
        model = linear_model(f_mat, h_mat, q, r)
        mean0, cov0 = np.array([1.0, 0.5]), 0.2 * np.eye(2)
        y = np.array([1.3])
        (out,) = ukf_step([Ellipsoid(mean0, 9 * cov0)], model, y[None], 0)

        # Kalman-filter oracle on the covariances of uniform draws over the
        # noise bounds, shape / (dim + 2).
        q = q / 4.0
        r = r / 3.0
        mean_p = f_mat @ mean0
        cov_p = f_mat @ cov0 @ f_mat.T + q
        s = h_mat @ cov_p @ h_mat.T + r
        gain = cov_p @ h_mat.T @ np.linalg.inv(s)
        mean = mean_p + gain @ (y - h_mat @ mean_p)
        cov = (np.eye(2) - gain @ h_mat) @ cov_p
        np.testing.assert_allclose(out.center, mean, atol=1e-8)
        np.testing.assert_allclose(out.shape / 9, cov, atol=1e-8)

    def test_zero_innovation_keeps_predicted_mean(self):
        f_mat = np.eye(2)
        h_mat = np.eye(2)
        model = linear_model(f_mat, h_mat, 0.01 * np.eye(2), 0.1 * np.eye(2))
        belief = Ellipsoid([2.0, -1.0], 9 * 0.3 * np.eye(2))
        (out,) = ukf_step([belief], model, np.array([[2.0, -1.0]]), 0)
        np.testing.assert_allclose(out.center, [2.0, -1.0], atol=1e-10)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(2)
        f_mat = np.array([[1.0, 0.2], [0.0, 0.9]])
        h_mat = np.array([[1.0, 1.0]])
        model = linear_model(f_mat, h_mat, 0.05 * np.eye(2), np.array([[0.2]]))
        belief = Ellipsoid(rng.standard_normal(2), 9 * random_spd(rng, 2))
        for k in range(20):
            (belief,) = ukf_step([belief], model, rng.standard_normal((1, 1)), k)
            cov = belief.shape / 9
            np.testing.assert_array_equal(cov, cov.T)
            assert np.linalg.eigvalsh(cov).min() > 0

    def test_default_noise_scale_is_uniform_covariance(self):
        # Identity dynamics in R^4 and an uninformative measurement: the
        # step adds the process covariance of a uniform draw over the
        # bound, Q / (4 + 2), and the update leaves it.
        model = linear_model(np.eye(4), np.eye(4)[:1], 6.0 * np.eye(4),
                             np.array([[1e12]]))
        belief = Ellipsoid(np.zeros(4), 9 * 0.2 * np.eye(4))
        (out,) = ukf_step([belief], model, np.array([[0.0]]), 0)
        np.testing.assert_allclose(out.shape / 9, 1.2 * np.eye(4), atol=1e-9)

    @staticmethod
    def assert_each_is_its_step_alone(batch, beliefs, model, ys, k):
        assert len(batch) == len(beliefs)
        for out, belief, y in zip(batch, beliefs, ys):
            (alone,) = ukf_step([belief], model, y[None], k)
            for a, b in ((out.center, alone.center), (out.shape, alone.shape),
                         (out.factor(), alone.factor())):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_a_stacked_step_is_each_belief_s_step_alone(self, preset):
        # Beliefs of three runs at three steps, stepped in one batch.
        result = run_experiment(RunConfig(scenario=preset, filters=("ukf",), runs=3, steps=5,
                                          master_seed=4))
        beliefs = [run.filters["ukf"].sets[k] for run in result.runs for k in (0, 2, 3)]
        ys = np.array([run.measurements[k + 1] for run in result.runs for k in (0, 2, 3)])
        batch = ukf_step(beliefs, result.model, ys, 4)
        self.assert_each_is_its_step_alone(batch, beliefs, result.model, ys, 4)

    def test_a_belief_needing_the_jitter_retry_gets_its_step_alone(self, monkeypatch):
        # h reads x0 twice, and R is below the rounding of the wide belief's
        # spread: its innovation covariance is singular, and only the
        # jitter retry factors it; the narrow belief's is SPD.
        model = SystemModel(f=lambda x, k: x, h=lambda x: x[..., [0, 0]],
                            h_inv=lambda y, v, aux: y - v, E_p=np.eye(2),
                            Q=1e-30 * np.eye(2), R=1e-30 * np.eye(2))
        beliefs = [Ellipsoid([1.0, 2.0], 9e-30 * np.eye(2)), Ellipsoid([0.0, 1.0], 9.0 * np.eye(2))]
        ys = np.array([[1.0, 1.0], [0.5, 0.5]])
        failed, real = [], np.linalg.cholesky

        def recorded(a):
            try:
                return real(a)
            except np.linalg.LinAlgError:
                failed.append(np.ndim(a))
                raise

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        batch = ukf_step(beliefs, model, ys, 0)
        assert failed[:2] == [3, 2]  # the stack, then the wide belief alone
        self.assert_each_is_its_step_alone(batch, beliefs, model, ys, 0)

    def test_a_batch_with_one_indefinite_innovation_covariance_raises(self):
        # A negative noise bound, which no SystemModel accepts, against the
        # spread of h(x) = x0 + x1^2: the wide belief's innovation
        # covariance stays SPD (so does its update), the narrow one's does not.
        model = SimpleNamespace(f=lambda x, k: x, h=lambda x: x[..., :1] + x[..., 1:] ** 2,
                                Q=1e-6 * np.eye(2), R=np.array([[-0.5]]))
        wide, narrow = (Ellipsoid(np.zeros(2), 9.0 * s * np.eye(2)) for s in (1.0, 1e-4))
        ukf_step([wide], model, np.zeros((1, 1)), 0)
        for beliefs in ([narrow], [wide, narrow], [narrow, wide]):
            with pytest.raises(SpdError, match="innovation covariance is not positive definite"):
                ukf_step(beliefs, model, np.zeros((len(beliefs), 1)), 0)

    def test_sigma_points_reproduce_moments(self):
        from smfilter.baselines import _sigma_points

        rng = np.random.default_rng(4)
        mean = rng.standard_normal(3)
        cov = random_spd(rng, 3)
        pts, w = _sigma_points(mean, np.linalg.cholesky(cov))
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(w @ pts, mean, atol=1e-12)
        dev = pts - mean
        np.testing.assert_allclose(dev.T @ (w[:, None] * dev), cov, atol=1e-10)


class TestEsmf:
    def test_linear_model_reduces_exactly(self):
        # Zero remainder: one ESMF step equals the linear fusion formulas
        # evaluated at the same rho.
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        h_mat = np.array([[1.0, 0.0]])
        q = 0.05 * np.eye(2)
        r = np.array([[0.1]])
        model = linear_model(f_mat, h_mat, q, r)
        e0 = Ellipsoid([1.0, -0.5], 0.5 * np.eye(2))
        y = np.array([1.2])
        updated, params = esmf_update(
            Ellipsoid(f_mat @ e0.center,
                      symmetrize(f_mat @ e0.shape @ f_mat.T) + 0.0), model, y,
        )
        # Oracle at the same rho on the same prediction.
        pred = Ellipsoid(f_mat @ e0.center, f_mat @ e0.shape @ f_mat.T)
        center, shape, _ = fuse(pred, Ellipsoid(y, r), h_mat, params.rho)
        np.testing.assert_allclose(updated.center, center, atol=1e-10)
        np.testing.assert_allclose(updated.shape, shape, atol=1e-10)

    def test_full_step_linear_matches_oracle(self):
        from smfilter.ellipsoid import optimal_p

        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        h_mat = np.array([[1.0, 0.0]])
        q = 0.05 * np.eye(2)
        r = np.array([[0.1]])
        model = linear_model(f_mat, h_mat, q, r)
        e0 = Ellipsoid([1.0, -0.5], 0.5 * np.eye(2))
        y = np.array([1.2])
        updated = esmf_step(e0, model, y, 0)

        lin_shape = f_mat @ e0.shape @ f_mat.T
        p_star = optimal_p(lin_shape, q)
        pred = Ellipsoid(f_mat @ e0.center,
                         (1 + 1 / p_star) * lin_shape + (1 + p_star) * q)
        params = optimize_rho(pred, Ellipsoid(y, r), h_mat)
        center, shape, _ = fuse(pred, Ellipsoid(y, r), h_mat, params.rho)
        np.testing.assert_allclose(updated.center, center, atol=1e-10)
        np.testing.assert_allclose(updated.shape, shape, atol=1e-10)

    def test_one_fuse_call_per_update(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return fuse(*args)

        monkeypatch.setattr(dsmf, "fuse", counted)
        h_mat = np.array([[1.0, 0.0]])
        model = linear_model(np.eye(2), h_mat, 0.01 * np.eye(2), 0.1 * np.eye(1))
        pred = Ellipsoid([0.0, 0.0], np.eye(2))
        esmf_update(pred, model, np.array([0.2]))
        assert len(calls) == 1

    def test_a_non_finite_predicted_center_raises(self):
        model = replace(linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2)),
                        f=lambda x, k: np.full(2, np.nan))
        with pytest.raises(ValueError, match="center has a non-finite entry"):
            esmf_predict(Ellipsoid([0.0, 0.0], np.eye(2)), model, 0)

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_prediction_carries_the_factor_of_its_shape(self, name):
        scenario = build_scenario(name)
        pred = esmf_predict(initial_estimate(scenario, np.random.default_rng(33)),
                            build_model(scenario), 0)
        assert np.array_equal(pred.factor(), np.linalg.cholesky(pred.shape))
        checked = Ellipsoid(pred.center, pred.shape)
        assert np.array_equal(checked.shape, pred.shape)
        assert not pred.center.flags.writeable and not pred.shape.flags.writeable

    def test_nonlinear_step_runs_and_contains(self):
        # Mildly quadratic dynamics: the remainder inflation keeps every
        # true propagated point inside the predicted set.
        def f(x, k):
            x = np.asarray(x, dtype=float)
            return np.stack([x[..., 0] + 0.1 * x[..., 1] ** 2,
                             0.9 * x[..., 1]], axis=-1)

        model = SystemModel(
            f=f,
            h=lambda x: np.asarray(x),
            h_inv=lambda y, v, aux: y - np.atleast_2d(v),
            E_p=np.eye(2), Q=0.01 * np.eye(2), R=0.05 * np.eye(2),
            f_jac=lambda x, k: np.array([[1.0, 0.2 * x[1]], [0.0, 0.9]]),
            h_jac=lambda x: np.eye(2),
            # The remainder 0.1 (x_1 - c_1)^2 of the first output.
            f_remainder=lambda e, k: np.array([0.1 * e.shape[1, 1], 0.0]),
        )
        from smfilter.baselines import esmf_predict
        from smfilter.ellipsoid import contains, sample_interior

        rng = np.random.default_rng(5)
        e0 = Ellipsoid([0.5, -0.2], 0.4 * np.eye(2))
        pred = esmf_predict(e0, model, 0)
        pts = sample_interior(e0, 500, rng)
        w = sample_interior(Ellipsoid(np.zeros(2), model.Q), 500, rng)
        prop = model.f(pts, 0) + w
        assert contains(pred, prop, 1e-9).all()
