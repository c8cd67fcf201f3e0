from dataclasses import replace

import numpy as np
import pytest

from smfilter import baselines, dsmf
from smfilter.baselines import (
    N_HESSIAN,
    N_REMAINDER,
    GaussianBelief,
    add_remainder,
    esmf_predict,
    esmf_step,
    esmf_update,
    hessian_abs_max,
    numerical_jacobian,
    remainder_bound_f,
    remainder_bound_h,
    ukf_step,
)
from smfilter.dsmf import SystemModel, fuse, optimize_rho
from smfilter.ellipsoid import (
    Ellipsoid,
    optimal_p,
    symmetrize,
)
from smfilter.errors import SpdError
from smfilter.harness import RunConfig, run_experiment
from smfilter.scenarios import build_model, build_scenario, initial_estimate

from reference import minkowski_outer, sample_boundary


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return symmetrize(a @ a.T + n * scale * np.eye(n))


def linear_model(f_mat, h_mat, q, r):
    return SystemModel(
        f=lambda x, k: np.asarray(x) @ f_mat.T,
        h=lambda x: np.asarray(x) @ h_mat.T,
        h_inv=lambda y, v, aux: y - np.atleast_2d(v),
        E_p=h_mat, Q=q, R=r,
        f_jac=lambda x, k: f_mat, h_jac=lambda x: h_mat,
    )


def reference_hessian_abs_max(fn, pts, out_dim, rel_step=1e-4):
    """The Hessian bound one stencil offset at a time: one fn call per
    offset, each on the whole point batch."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    m, n = pts.shape
    steps = rel_step * np.maximum(1.0, np.abs(pts))
    f0 = np.atleast_2d(fn(pts))
    hess = np.zeros((m, out_dim, n, n))
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = 1.0
        ha = steps[:, a:a + 1]
        fpa = np.atleast_2d(fn(pts + ha * ea))
        fma = np.atleast_2d(fn(pts - ha * ea))
        hess[:, :, a, a] = (fpa - 2.0 * f0 + fma) / ha**2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = 1.0
            hb = steps[:, b:b + 1]
            fpp = np.atleast_2d(fn(pts + ha * ea + hb * eb))
            fpm = np.atleast_2d(fn(pts + ha * ea - hb * eb))
            fmp = np.atleast_2d(fn(pts - ha * ea + hb * eb))
            fmm = np.atleast_2d(fn(pts - ha * ea - hb * eb))
            mixed = (fpp - fpm - fmp + fmm) / (4.0 * ha * hb)
            hess[:, :, a, b] = mixed
            hess[:, :, b, a] = mixed
    out = np.abs(hess).max(axis=0)
    scale = np.abs(f0).max(axis=0) + 1e-30
    floor = 64.0 * np.finfo(float).eps * scale / steps.min()**2
    out[out <= floor[:, None, None]] = 0.0
    return out


def reference_remainder_halfwidths(e, fn, jac):
    """The remainder half-widths with fn called separately on the samples,
    the center and each Hessian stencil offset."""
    c = e.center
    x = c + baselines._remainder_design(N_REMAINDER, e.dim) @ e.factor().T
    rem = np.atleast_2d(fn(x)) - np.atleast_2d(fn(c)) - (x - c) @ jac.T
    h_pts = c + baselines._remainder_design(N_HESSIAN, e.dim) @ e.factor().T
    h_max = reference_hessian_abs_max(fn, h_pts, out_dim=jac.shape[0])
    radii = np.sqrt(np.diag(e.shape))
    quad = 0.5 * np.einsum("jab,a,b->j", h_max, radii, radii)
    return np.maximum(np.abs(rem).max(axis=0), quad)


def reference_add_remainder(noise_shape, half):
    """The remainder inflation on Ellipsoid values: minkowski_outer of the
    noise set and the remainder box's covering ellipsoid."""
    half = baselines.REMAINDER_SAFETY * np.atleast_1d(np.asarray(half, dtype=float))
    top = half.max()
    if top == 0.0:
        return noise_shape
    half = np.maximum(half, 1e-12 * top)
    bound = np.diag(half.size * half**2)
    base = Ellipsoid(np.zeros(noise_shape.shape[0]), noise_shape)
    return minkowski_outer(base, bound, optimal_p(noise_shape, bound)).shape


def reference_esmf_predict(e_k, model, k):
    """The linearized prediction on Ellipsoid values, with the sampled
    remainder bound whether or not the model declares F."""
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
            halves = [(model.Q, remainder_bound_f(e, model, 0)),
                      (model.R, remainder_bound_h(e, model))]
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

    def test_undeclared_linear_model_samples_its_remainder(self, monkeypatch):
        calls = self.counted(monkeypatch)
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        model = linear_model(f_mat, np.eye(2)[:1], 0.05 * np.eye(2), np.array([[0.1]]))
        assert model.F is None
        esmf_predict(Ellipsoid([1.0, -0.5], 0.5 * np.eye(2)), model, 0)
        assert calls == {"remainder_bound_f": 1, "add_remainder": 1}


class TestHessianAbsMax:
    @pytest.mark.parametrize("name, which", [("radar", "h"), ("robot", "f"), ("robot", "h")])
    def test_matches_reference_loop(self, name, which):
        model = build_model(build_scenario(name))
        fn = model.h if which == "h" else (lambda x: model.f(x, 0))
        rng = np.random.default_rng(21)
        e = initial_estimate(build_scenario(name), rng)
        for _ in range(5):
            pts = sample_boundary(e, N_HESSIAN, rng)
            out_dim = np.atleast_2d(fn(pts)).shape[1]
            got = hessian_abs_max(fn, pts, out_dim)
            assert got.shape == (out_dim, model.state_dim, model.state_dim)
            np.testing.assert_array_equal(got, reference_hessian_abs_max(fn, pts, out_dim))

    def test_quadratic_map_gives_its_hessian(self):
        # f_j(x) = x^T A_j x + b_j x has the constant Hessian 2 A_j (A_j
        # symmetric) at every point.
        rng = np.random.default_rng(22)
        quad = rng.standard_normal((2, 3, 3))
        quad = quad + quad.transpose(0, 2, 1)
        lin = rng.standard_normal((2, 3))

        def fn(x):
            return np.einsum("jab,...a,...b->...j", quad, x, x) + x @ lin.T

        got = hessian_abs_max(fn, rng.standard_normal((N_HESSIAN, 3)), 2)
        np.testing.assert_allclose(got, 2.0 * np.abs(quad), rtol=1e-6)

    def test_linear_map_gives_exactly_zero(self):
        rng = np.random.default_rng(23)
        mat = rng.standard_normal((2, 4))
        pts = 50.0 * rng.standard_normal((N_HESSIAN, 4))
        got = hessian_abs_max(lambda x: x @ mat.T + 3.0, pts, 2)
        assert not np.any(got)


class TestBatchedRemainderBound:
    @staticmethod
    def counted(model):
        """The model with f and h wrapped to count their calls."""
        calls = {"f": 0, "h": 0}

        def f(x, k):
            calls["f"] += 1
            return model.f(x, k)

        def h(x):
            calls["h"] += 1
            return model.h(x)

        return replace(model, f=f, h=h), calls

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_each_bound_calls_the_model_at_most_twice(self, name):
        model, calls = self.counted(build_model(build_scenario(name)))
        e = initial_estimate(build_scenario(name), np.random.default_rng(24))
        remainder_bound_f(e, model, 0)
        f_calls = calls["f"]
        remainder_bound_h(e, model)
        assert 0 < f_calls <= 2 and f_calls == calls["f"]
        assert 0 < calls["h"] <= 2

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_esmf_sets_match_the_per_offset_reference(self, name, monkeypatch):
        config = RunConfig(scenario=name, filters=("esmf",), runs=2, master_seed=25)
        got = run_experiment(config)
        monkeypatch.setattr(baselines, "_remainder_halfwidths", reference_remainder_halfwidths)
        want = run_experiment(config)
        for run_got, run_want in zip(got.runs, want.runs, strict=True):
            for a, b in zip(run_got.filters["esmf"].sets, run_want.filters["esmf"].sets,
                            strict=True):
                np.testing.assert_array_equal(a.center, b.center)
                np.testing.assert_array_equal(a.shape, b.shape)


class TestRemainderDesign:
    @pytest.mark.parametrize("m, n", [(N_REMAINDER, 4), (N_HESSIAN, 5), (7, 2), (1, 3)])
    def test_read_only_and_cached_per_shape(self, m, n):
        design = baselines._remainder_design(m, n)
        assert design.shape == (m, n) and not design.flags.writeable
        assert baselines._remainder_design(m, n) is design
        assert baselines._remainder_design(m + 1, n) is not design
        with pytest.raises(ValueError):
            design[0, 0] = 0.0

    def test_boundary_then_interior_radii(self):
        design = baselines._remainder_design(N_REMAINDER, 4)
        n_bound = round(baselines.BOUNDARY_FRACTION * N_REMAINDER)
        radii = np.linalg.norm(design, axis=1)
        np.testing.assert_allclose(radii[:n_bound], 1.0, rtol=1e-12)
        rest = N_REMAINDER - n_bound
        np.testing.assert_allclose(radii[n_bound:],
                                   ((np.arange(rest) + 0.5) / rest) ** 0.25, rtol=1e-12)

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_bounds_repeat_on_one_set(self, name):
        scenario = build_scenario(name)
        model = build_model(scenario)
        e = initial_estimate(scenario, np.random.default_rng(26))
        np.testing.assert_array_equal(remainder_bound_h(e, model),
                                      remainder_bound_h(e, model))
        np.testing.assert_array_equal(remainder_bound_f(e, model, 2),
                                      remainder_bound_f(e, model, 2))


class TestNumericalJacobian:
    def test_matches_analytic(self):
        def fn(x):
            return np.array([x[0] ** 2 + x[1], np.sin(x[1])])

        x = np.array([1.3, 0.4])
        jac = numerical_jacobian(fn, x)
        want = np.array([[2 * 1.3, 1.0], [0.0, np.cos(0.4)]])
        np.testing.assert_allclose(jac, want, atol=1e-7)


class TestRemainderBound:
    """add_remainder on a negligible noise bound shows the remainder
    ellipsoid itself: the covering sum of shapes q and R is
    (sqrt(q) + sqrt(R))^2 per axis when both are diagonal and proportional."""

    def test_zero_samples_give_zero_bound(self):
        # A linear map has no remainder: the sampled half-widths are at
        # rounding level and the curvature term is exactly zero.
        f_mat = np.array([[1.0, 0.5], [0.0, 1.0]])
        model = linear_model(f_mat, np.eye(2), np.eye(2), np.eye(2))
        e = Ellipsoid([3.0, -1.0], np.diag([4.0, 0.5]))
        half = remainder_bound_f(e, model, 0)
        assert half.shape == (2,) and np.all(half <= 1e-12)

    def test_add_remainder_zero_is_noop(self):
        q = np.diag([2.0, 3.0])
        out = add_remainder(q, np.zeros(2))
        np.testing.assert_array_equal(out, q)

    def test_quadratic_scalar_example(self):
        # f(x) = x^2 on [-1, 1] linearized at 0: the remainder is x^2, its
        # sampled maximum 1 and the safety-inflated half-width 1.1.
        xs = np.linspace(-1.0, 1.0, 201)
        out = add_remainder(np.array([[1e-16]]), [np.abs(xs**2).max()])
        assert out[0, 0] == pytest.approx(1.1**2, rel=1e-6)

    def test_box_coverage_factor(self):
        # In d dimensions the remainder shape is diag(d * (1.1 half)^2), so
        # the whole inflated box, corners included, is inside the sum.
        half = np.array([1.0, 2.0])
        out = add_remainder(1e-16 * np.eye(2), half)
        for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
            corner = 1.1 * half * np.array(signs)
            assert corner @ np.linalg.solve(out, corner) <= 1.0 + 1e-12

    def test_zero_axis_floored(self):
        # An axis with no remainder is floored at 1e-12 of the largest
        # (inflated) half-width, so the remainder shape stays SPD: on a
        # noise axis of 1e-30 the sum then reaches above (1.1e-12)^2.
        out = add_remainder(np.diag([1.0, 1e-30]), [1.0, 0.0])
        assert out[1, 1] > (1.1e-12) ** 2
        assert np.linalg.eigvalsh(out).min() > 0

    def test_esmf_inflation_matches_the_covering_sum(self):
        # add_remainder is the covering sum of the noise bound and
        # diag(d * (1.1 half)^2) at the trace-optimal p.
        q = np.diag([2.0, 3.0])
        half = np.array([0.5, 0.25])
        bound = np.diag(2 * (1.1 * half) ** 2)
        want = minkowski_outer(Ellipsoid(np.zeros(2), q), bound, optimal_p(q, bound))
        np.testing.assert_array_equal(add_remainder(q, half), want.shape)

    def test_monotone_in_input_set(self):
        # Doubling the sampled set never shrinks the bound (quadratic map).
        rng = np.random.default_rng(0)
        quad = rng.standard_normal((2, 2, 2))

        def f(x, k):
            x = np.asarray(x, dtype=float)
            return np.einsum("ijk,...j,...k->...i", quad, x, x)

        model = SystemModel(
            f=f, h=lambda x: np.atleast_2d(x),
            h_inv=lambda y, v, aux: y - np.atleast_2d(v),
            E_p=np.eye(2), Q=np.eye(2), R=np.eye(2),
        )
        small = Ellipsoid([0.0, 0.0], np.eye(2))
        big = Ellipsoid([0.0, 0.0], 2.0 * np.eye(2))
        h_small = remainder_bound_f(small, model, 0)
        h_big = remainder_bound_f(big, model, 0)
        assert np.all(h_big >= h_small - 1e-12)


class TestUkf:
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_belief_rejects_non_finite_covariance(self, entry):
        with pytest.raises(SpdError, match="covariance has a non-finite entry"):
            GaussianBelief([0.0, 0.0], [[entry, 0.0], [0.0, 1.0]])

    def test_matches_kalman_filter_on_linear_model(self):
        f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
        h_mat = np.array([[1.0, 0.0]])
        q = 0.1 * np.eye(2)
        r = np.array([[0.5]])
        model = linear_model(f_mat, h_mat, q, r)
        belief = GaussianBelief([1.0, 0.5], 0.2 * np.eye(2))
        y = np.array([1.3])
        out = ukf_step(belief, model, y, 0)

        # Kalman-filter oracle on the covariances of uniform draws over the
        # noise bounds, shape / (dim + 2).
        q = q / 4.0
        r = r / 3.0
        mean_p = f_mat @ belief.mean
        cov_p = f_mat @ belief.cov @ f_mat.T + q
        s = h_mat @ cov_p @ h_mat.T + r
        gain = cov_p @ h_mat.T @ np.linalg.inv(s)
        mean = mean_p + gain @ (y - h_mat @ mean_p)
        cov = (np.eye(2) - gain @ h_mat) @ cov_p
        np.testing.assert_allclose(out.mean, mean, atol=1e-8)
        np.testing.assert_allclose(out.cov, cov, atol=1e-8)

    def test_zero_innovation_keeps_predicted_mean(self):
        f_mat = np.eye(2)
        h_mat = np.eye(2)
        model = linear_model(f_mat, h_mat, 0.01 * np.eye(2), 0.1 * np.eye(2))
        belief = GaussianBelief([2.0, -1.0], 0.3 * np.eye(2))
        out = ukf_step(belief, model, np.array([2.0, -1.0]), 0)
        np.testing.assert_allclose(out.mean, [2.0, -1.0], atol=1e-10)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(2)
        f_mat = np.array([[1.0, 0.2], [0.0, 0.9]])
        h_mat = np.array([[1.0, 1.0]])
        model = linear_model(f_mat, h_mat, 0.05 * np.eye(2), np.array([[0.2]]))
        belief = GaussianBelief(rng.standard_normal(2), random_spd(rng, 2))
        for k in range(20):
            belief = ukf_step(belief, model, rng.standard_normal(1), k)
            np.testing.assert_array_equal(belief.cov, belief.cov.T)
            assert np.linalg.eigvalsh(belief.cov).min() > 0

    def test_default_noise_scale_is_uniform_covariance(self):
        # Identity dynamics in R^4 and an uninformative measurement: the
        # step adds the process covariance of a uniform draw over the
        # bound, Q / (4 + 2), and the update leaves it.
        model = linear_model(np.eye(4), np.eye(4)[:1], 6.0 * np.eye(4),
                             np.array([[1e12]]))
        belief = GaussianBelief(np.zeros(4), 0.2 * np.eye(4))
        out = ukf_step(belief, model, np.array([0.0]), 0)
        np.testing.assert_allclose(out.cov, 1.2 * np.eye(4), atol=1e-9)

    def test_sigma_points_reproduce_moments(self):
        from smfilter.baselines import _sigma_points

        rng = np.random.default_rng(4)
        mean = rng.standard_normal(3)
        cov = random_spd(rng, 3)
        pts, w = _sigma_points(mean, cov)
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
        monkeypatch.setattr(baselines, "fuse", counted)
        h_mat = np.array([[1.0, 0.0]])
        model = linear_model(np.eye(2), h_mat, 0.01 * np.eye(2), 0.1 * np.eye(1))
        pred = Ellipsoid([0.0, 0.0], np.eye(2))
        esmf_update(pred, model, np.array([0.2]))
        assert len(calls) == 1

    def test_nonlinear_step_runs_and_contains(self):
        # Mildly quadratic dynamics: the remainder inflation keeps the
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
        )
        from smfilter.baselines import esmf_predict
        from smfilter.ellipsoid import contains, sample_interior

        rng = np.random.default_rng(5)
        e0 = Ellipsoid([0.5, -0.2], 0.4 * np.eye(2))
        pred = esmf_predict(e0, model, 0)
        pts = sample_interior(e0, 500, rng)
        w = sample_interior(Ellipsoid(np.zeros(2), model.Q), 500, rng)
        prop = model.f(pts, 0) + w
        assert contains(pred, prop, 1e-9).mean() >= 0.999
