import subprocess
import sys
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from smfilter import dsmf, mvee
from smfilter.dsmf import (
    FilterOptions,
    SystemModel,
    fuse,
    measurement_ellipsoid,
    optimize_rho,
    predict,
    step,
)
from smfilter.ellipsoid import (
    Ellipsoid,
    PointCloud,
    contains,
    optimal_p,
    sample_interior,
)
from smfilter.errors import (
    EmptyIntersectionError,
    MeasurementDomainError,
    RankDeficiencyError,
    SpdError,
)
from smfilter.harness import RunConfig, run_experiment
from smfilter.scenarios import (
    build_model,
    build_scenario,
    initial_estimate,
    radar_model,
    simulate_truth,
)

from reference import minkowski_outer, product_grid, random_spd, same_bits


def reference_fuse(pred, meas, e_p, rho):
    """The fusion in matrix form: the gram matrix G, two inverses and the
    information bracket, without the joint diagonalisation."""
    p, p_z = pred.shape, meas.shape
    gram = e_p @ p @ e_p.T / (1.0 - rho) + p_z / rho
    innov = meas.center - e_p @ pred.center
    sol = np.linalg.solve(gram, innov)
    delta = float(innov @ sol)
    center = pred.center + p @ e_p.T @ sol / (1.0 - rho)
    bracket = (1.0 - rho) * np.linalg.inv(p) + rho * e_p.T @ np.linalg.inv(p_z) @ e_p
    return center, (1.0 - delta) * np.linalg.inv(bracket), delta


def reference_fused_traces(pred, meas, e_p, rhos):
    """The trace of reference_fuse's shape at every rho of a grid, in one
    stacked call; +inf where delta >= 1 (the sets cannot intersect)."""
    rho = np.asarray(rhos, dtype=float)[:, None, None]
    p, p_z = pred.shape, meas.shape
    gram = e_p @ p @ e_p.T / (1.0 - rho) + p_z / rho
    innov = meas.center - e_p @ pred.center
    sol = np.linalg.solve(gram, np.broadcast_to(innov[:, None], gram.shape[:-1] + (1,)))
    delta = (innov @ sol)[:, 0]
    bracket = (1.0 - rho) * np.linalg.inv(p) + rho * (e_p.T @ np.linalg.inv(p_z) @ e_p)
    traces = (1.0 - delta) * np.trace(np.linalg.inv(bracket), axis1=1, axis2=2)
    return np.where(delta >= 1.0, np.inf, traces)


def linear_model(n=2, e_p=None, q_scale=1e-2, r_scale=1e-2):
    """Linear dynamics x' = F x with measurement y = E_p x + v."""
    f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])[:n, :n]
    e_p = np.eye(n) if e_p is None else np.atleast_2d(e_p)
    r = e_p.shape[0]
    return SystemModel(
        f=lambda x, k: np.asarray(x) @ f_mat.T,
        h=lambda x: np.asarray(x) @ e_p.T,
        h_inv=lambda y, v, aux: y - np.atleast_2d(v),
        E_p=e_p,
        Q=q_scale * np.eye(n),
        R=r_scale * np.eye(r),
        f_jac=lambda x, k: f_mat,
        h_jac=lambda x: e_p,
    ), f_mat


class TestFilterOptions:
    @pytest.mark.parametrize("bad", [{"tol": 0.0}, {"tol": -1e-5},
                                     {"max_iter": -3}, {"tol": float("inf")}])
    def test_rejects_bad_solver_budget(self, bad):
        # Caught at construction, not inside the first solve (or, for a
        # negative max_iter, never: it used to run zero passes).
        with pytest.raises(ValueError):
            FilterOptions(**bad)


class TestDesign:
    @pytest.mark.parametrize("m, n", [(40, 3), (200, 3), (500, 4), (100, 5)])
    def test_seeded_normalised_draw_above_two_dimensions(self, m, n):
        u = np.random.Generator(np.random.PCG64([m, n])).standard_normal((m, n))
        want = u / np.linalg.norm(u, axis=1, keepdims=True)
        np.testing.assert_array_equal(dsmf._design(m, n), want)


class TestDeclaredDynamics:
    @pytest.mark.parametrize("bad", [np.eye(3), np.ones(2), np.eye(2)[:1], np.eye(4)])
    def test_wrong_shape_rejected(self, bad):
        model, _ = linear_model()
        with pytest.raises(ValueError, match="F is"):
            replace(model, F=bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, entry):
        model, f_mat = linear_model()
        bad = f_mat.copy()
        bad[0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            replace(model, F=bad)

    def test_stored_as_a_read_only_copy(self):
        model, f_mat = linear_model()
        given = f_mat.tolist()
        declared = replace(model, F=given)
        assert model.F is None
        assert declared.F.dtype == float and not declared.F.flags.writeable
        given[0][0] = 5.0
        np.testing.assert_array_equal(declared.F, f_mat)


class TestPredict:
    def test_identity_map_recovers_set(self):
        # f = identity with negligible process noise: prediction ~ input set.
        e = Ellipsoid([1.0, 2.0], np.array([[2.0, 0.5], [0.5, 1.0]]))
        model = SystemModel(
            f=lambda x, k: np.asarray(x),
            h=lambda x: np.asarray(x),
            h_inv=lambda y, v, aux: y - np.atleast_2d(v),
            E_p=np.eye(2), Q=1e-12 * np.eye(2), R=np.eye(2),
        )
        opts = FilterOptions(m_samples=500, tol=1e-8, max_iter=None)
        out, sol, _ = predict(e, model, 0, opts)
        assert sol.converged
        err = np.linalg.norm(out.shape - e.shape) / np.linalg.norm(e.shape)
        assert err <= 0.05
        np.testing.assert_allclose(out.center, e.center, atol=0.05)

    def test_linear_map_oracle(self):
        model, f_mat = linear_model(q_scale=0.5)
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        opts = FilterOptions(m_samples=500, tol=1e-8, max_iter=None)
        out, sol, _ = predict(e, model, 0, opts)
        image_shape = f_mat @ e.shape @ f_mat.T
        p_star = optimal_p(sol.ellipsoid.shape, model.Q)
        want = (1 + 1 / p_star) * sol.ellipsoid.shape + (1 + p_star) * model.Q
        np.testing.assert_allclose(out.shape, want, atol=1e-12)
        # Cross-check against the analytic image of the linear map.
        analytic_p = optimal_p(image_shape, model.Q)
        analytic = (1 + 1 / analytic_p) * image_shape + (1 + analytic_p) * model.Q
        err = np.linalg.norm(out.shape - analytic) / np.linalg.norm(analytic)
        assert err <= 0.05

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        model, _ = linear_model(q_scale=0.2)
        e = Ellipsoid([1.0, -1.0], random_spd(rng, 2))
        out, sol, _ = predict(e, model, 0, FilterOptions())
        want = (np.sqrt(np.trace(sol.ellipsoid.shape))
                + np.sqrt(np.trace(model.Q))) ** 2
        assert np.trace(out.shape) == pytest.approx(want, rel=1e-10)

    def test_center_equals_enclosure_center(self):
        model, _ = linear_model()
        e = Ellipsoid([2.0, 3.0], np.eye(2))
        out, sol, _ = predict(e, model, 0, FilterOptions())
        np.testing.assert_array_equal(out.center, sol.ellipsoid.center)

    def test_too_few_design_points_is_the_solves_rank_error(self):
        # The filter's one floor on m_samples is the enclosing solve's own,
        # n + 1 points, named with the step; RunConfig rejects it earlier.
        scenario = build_scenario("radar")
        e = initial_estimate(scenario, np.random.default_rng(3))
        with pytest.raises(RankDeficiencyError) as exc:
            predict(e, build_model(scenario), 7, FilterOptions(m_samples=4))
        assert str(exc.value) == "prediction at step 7: need at least n+1 = 5 points, got 4"
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_covering_sum_is_minkowski_outer(self, name):
        # predict forms the covering sum as a matrix; minkowski_outer, with
        # its checks of Q, is the reference and must agree bit for bit.
        scenario = build_scenario(name)
        model = build_model(scenario)
        rng = np.random.default_rng(33)
        for k in range(3):
            e = initial_estimate(scenario, rng)
            out, sol, p_star = predict(e, model, k, FilterOptions())
            want = minkowski_outer(sol.ellipsoid, model.Q, p_star)
            assert p_star == optimal_p(sol.ellipsoid.shape, model.Q)
            assert np.array_equal(out.center, want.center)
            assert np.array_equal(out.shape, want.shape)


def assert_factor_of_its_shape(e: Ellipsoid):
    """e's factor is lower triangular with a positive diagonal, and L L^T
    is its shape to rounding."""
    chol = e.factor()
    assert np.array_equal(chol, np.tril(chol)) and np.all(np.diag(chol) > 0.0)
    np.testing.assert_allclose(chol @ chol.T, e.shape, rtol=0,
                               atol=1e-14 * np.abs(e.shape).max())


class TestFormedSets:
    """The covering sum of predict and the fused shape of an update are
    each factored once, by spd_cholesky, and kept with that factor."""

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_each_formed_set_keeps_the_cholesky_factor_of_its_shape(self, name):
        scenario = build_scenario(name)
        model = build_model(scenario)
        rng = np.random.default_rng(21)
        _, measurements = simulate_truth(scenario, model, rng, steps=4)
        e, start = initial_estimate(scenario, rng), None
        for k in range(4):
            rec = step(e, model, measurements[k], k, FilterOptions(), start)
            for formed in (rec.predicted, rec.updated):
                assert_factor_of_its_shape(formed)
                assert np.array_equal(formed.factor(), np.linalg.cholesky(formed.shape))
            assert_factor_of_its_shape(rec.measurement)
            e, start = rec.updated, [s.weights for s in rec.solves]

    @pytest.mark.parametrize("bad,match", [(np.nan, "covering sum has a non-finite entry"),
                                           (-1.0, "covering sum is not positive definite")])
    def test_a_bad_covering_sum_raises_spd_error(self, monkeypatch, bad, match):
        model, _ = linear_model()
        monkeypatch.setattr(dsmf, "covering_sum", lambda a, b, p: bad * np.eye(2))
        with pytest.raises(SpdError, match=match):
            predict(Ellipsoid([0.0, 0.0], np.eye(2)), model, 0, FilterOptions())

    @pytest.mark.parametrize("bad,match", [(np.nan, "fused shape has a non-finite entry"),
                                           (-1.0, "fused shape is not positive definite")])
    def test_a_bad_fused_shape_raises_spd_error(self, monkeypatch, bad, match):
        monkeypatch.setattr(dsmf, "fuse", lambda pred, meas, e_p, rho: (
            pred.center, bad * np.eye(2), 0.0))
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        with pytest.raises(SpdError, match=match):
            dsmf._update(e, e, np.eye(2))


class TestEnclose:
    def test_the_cloud_is_solved_as_the_filter_formed_it(self):
        # PointCloud holds the caller's array: no copy, no read-only flag,
        # and the solve neither writes to it nor sees it differently from
        # the bare array.
        a = np.random.default_rng(5).standard_normal((40, 2))
        before = a.copy()
        assert PointCloud(a).points is a
        opts = FilterOptions()
        sol = dsmf._enclose(a, opts, lambda: "cloud", None, None)
        assert a.flags.writeable and same_bits(a, before)
        bare = mvee.fw_solve(a, tol=opts.tol, max_iter=opts.max_iter)
        assert same_bits(sol.ellipsoid.shape, bare.ellipsoid.shape)


class TestMeasurementEllipsoid:
    @staticmethod
    def polar_model(r_scale=1.0):
        def h(x):
            x = np.asarray(x, dtype=float)
            return np.stack([np.hypot(x[..., 0], x[..., 1]),
                             np.arctan2(x[..., 1], x[..., 0])], axis=-1)

        def h_inv(y, v, aux):
            v = np.atleast_2d(np.asarray(v, dtype=float))
            rng_val = y[0] - v[:, 0]
            if np.any(rng_val < 0):
                raise MeasurementDomainError(
                    "negative range", sample=v[int(np.argmax(rng_val < 0))]
                )
            ang = y[1] - v[:, 1]
            return np.stack([rng_val * np.cos(ang), rng_val * np.sin(ang)],
                            axis=-1)

        return SystemModel(
            f=lambda x, k: np.asarray(x), h=h, h_inv=h_inv,
            E_p=np.eye(2), Q=np.eye(2), R=r_scale * np.eye(2),
        )

    def test_noiseless_polar_inverse(self):
        model = self.polar_model(r_scale=1e-12)
        y = np.array([5.0, np.pi / 2])
        out, _ = measurement_ellipsoid(y, model, None, FilterOptions())
        np.testing.assert_allclose(out.center, [0.0, 5.0], atol=1e-4)
        assert np.trace(out.shape) < 1e-9

    def test_containment_of_fresh_inverse_samples(self):
        # Sensor at the origin, R = diag(10, 1), measurement from a state
        # near (10, 20): fresh noise draws must map inside the enclosure.
        rng = np.random.default_rng(5)
        model = replace(self.polar_model(), R=np.diag([10.0, 1.0]))
        x_true = np.array([10.0, 20.0])
        v_ball = Ellipsoid(np.zeros(2), model.R)
        y = model.h(x_true) + sample_interior(v_ball, 1, rng)[0]
        out, sol = measurement_ellipsoid(
            y, model, None, FilterOptions(m_samples=400, tol=1e-8)
        )
        fresh = sample_interior(v_ball, 1000, rng)
        pts = model.h_inv(y, fresh, ())
        frac = contains(out, pts, 1e-6).mean()
        assert frac >= 0.99

    def test_domain_violation_reported(self):
        model = self.polar_model(r_scale=100.0)
        y = np.array([0.5, 0.0])  # range noise bound 10 >> range
        with pytest.raises(MeasurementDomainError) as exc:
            measurement_ellipsoid(y, model, None, FilterOptions())
        assert exc.value.sample is not None

    def test_rank_deficient_set_names_the_measurement(self):
        # A noise-blind inverse maps the whole noise set to y: one point,
        # which no jitter can make span R^2.  The error names the
        # measurement.
        model = SystemModel(
            f=lambda x, k: np.asarray(x), h=lambda x: np.asarray(x),
            h_inv=lambda y, v, aux: np.tile(y, (len(v), 1)),
            E_p=np.eye(2), Q=np.eye(2), R=np.eye(2),
        )
        y = np.array([0.5, 1.5])
        with pytest.raises(RankDeficiencyError) as exc:
            measurement_ellipsoid(y, model, None, FilterOptions())
        assert str(exc.value).startswith("measurement set for y=[0.5 1.5]: ")

    def test_zero_width_aux_matches_no_aux(self):
        # A width-zero parameter interval reduces to noise-only sampling.

        def h_inv(y, v, aux):
            v = np.atleast_2d(np.asarray(v, dtype=float))
            if aux:
                (theta,) = aux
                shift = np.asarray(theta, dtype=float)
            else:
                shift = 0.0
            out = y - v
            out[:, 0] = out[:, 0] + shift
            return out

        model = SystemModel(
            f=lambda x, k: np.asarray(x), h=lambda x: np.asarray(x),
            h_inv=h_inv, E_p=np.eye(2), Q=np.eye(2), R=np.eye(2),
        )
        y = np.array([1.0, 2.0])
        aux = np.array([[0.7, 0.7]])
        out, _ = measurement_ellipsoid(y, model, aux, FilterOptions())
        np.testing.assert_allclose(out.center, [1.7, 2.0], atol=0.05)

    def test_noise_bound_factored_once(self, monkeypatch):
        # The model factors R when it is built; a measurement set reuses
        # that factor and factors nothing itself.
        model = self.polar_model()
        np.testing.assert_array_equal(model._r_factor, np.linalg.cholesky(model.R))
        calls = []
        monkeypatch.setattr(dsmf, "spd_cholesky", lambda *a, **k: calls.append(a))
        measurement_ellipsoid(np.array([10.0, 0.3]), model, None, FilterOptions())
        assert not calls

    def test_radar_sets_cover_the_noise_circle(self):
        # Each radar measurement ellipsoid must cover the continuous image
        # of the noise boundary, probed on 20k angles, not only its own
        # design points: random noise directions missed it by up to 1.7e-2.
        result = run_experiment(RunConfig(scenario="radar", filters=("dsmf",),
                                          runs=5, steps=20))
        model = radar_model(result.scenario)
        ang = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
        noise = np.stack([np.cos(ang), np.sin(ang)], axis=-1) @ np.linalg.cholesky(model.R).T
        worst = 0.0
        for run in result.runs:
            for y, rec in zip(run.measurements, run.filters["dsmf"].records):
                pts = model.h_inv(y, noise, ())
                worst = max(worst, rec.measurement.quadratic_form(pts).max())
        assert worst <= 1.0 + 1e-3


class TestMeasurementGrid:
    """measurement_ellipsoid builds its cloud from constants keyed on R
    (_noise_grid) and one np.linspace per parameter interval; the cloud it
    hands the solve is the np.meshgrid grid of reference.product_grid."""

    @staticmethod
    def two_aux_model(r):
        # Each parameter moves the points its own way, so a grid point in
        # the wrong row would move the cloud.
        def h_inv(y, v, aux):
            a, b = aux
            return y - v + np.stack([a + 0.1 * b, b * b], axis=-1)

        return SystemModel(f=lambda x, k: np.asarray(x), h=lambda x: np.asarray(x),
                           h_inv=h_inv, E_p=np.eye(2), Q=np.eye(2), R=r)

    @staticmethod
    def solved_clouds(monkeypatch, calls):
        # Each cloud handed to dsmf.fw_solve, recorded as
        # tests/test_capture_guard.py's tool records it.
        clouds, original = [], dsmf.fw_solve

        def recording(points, *args, **kwargs):
            clouds.append(np.array(points.points))
            return original(points, *args, **kwargs)

        monkeypatch.setattr(dsmf, "fw_solve", recording)
        for y, model, aux, opts in calls:
            measurement_ellipsoid(y, model, aux, opts)
        return clouds

    def test_clouds_are_the_meshgrid_product_grids(self, monkeypatch):
        # One interval (the robot), two intervals, and none (radar), on two
        # R each and two m_samples each, interleaved so that constants
        # shared between them would put one model's grid in another's.
        robot = build_model(build_scenario("robot"))
        radar = radar_model(build_scenario("radar"))
        r2 = np.array([[0.5, 0.1], [0.1, 0.2]])
        cases = []
        for scale in (1.0, 3.0):
            for m_samples, count in ((256, 16), (100, 10)):
                opts = FilterOptions(m_samples=m_samples)
                cases += [
                    (np.array([6.0, 0.4]), replace(robot, R=scale * robot.R),
                     np.array([[0.2, 0.5]]), opts, count),
                    (np.array([1.0, 2.0]), self.two_aux_model(scale * r2),
                     np.array([[0.1, 0.4], [-2.0, 3.0]]), opts, count),
                    (np.array([900.0, 0.3]), replace(radar, R=scale * radar.R), None, opts,
                     m_samples),
                ]
        clouds = self.solved_clouds(monkeypatch, [case[:4] for case in cases])
        assert len(clouds) == len(cases)
        for (y, model, aux, _, count), cloud in zip(cases, clouds):
            n_aux = 0 if aux is None else len(aux)
            want = product_grid(model, y, () if aux is None else aux, count)
            assert cloud.shape == (count ** (n_aux + 1), 2)
            assert same_bits(cloud, want), (model.R, count, n_aux)

    def test_constants_are_read_only_and_not_shared(self):
        robot = build_model(build_scenario("robot"))
        other = replace(robot, R=2.0 * robot.R)
        grids = [dsmf._noise_grid(model._r_factor.tobytes(), 2, count, 1)
                 for model in (robot, other) for count in (16, 10)]
        for noise, index in grids:
            assert not noise.flags.writeable and not index.flags.writeable
            with pytest.raises(ValueError):
                noise[0, 0] = 1.0
        arrays = [arr for pair in grids for arr in pair]
        assert len({id(arr) for arr in arrays}) == len(arrays)
        assert not np.array_equal(grids[0][0], grids[2][0])  # one size, two R


class TestFuse:
    def test_zero_innovation_keeps_center(self):
        pred = Ellipsoid([1.0, 2.0], np.eye(2))
        meas = Ellipsoid([1.0, 2.0], 2.0 * np.eye(2))
        center, shape, delta = fuse(pred, meas, np.eye(2), 0.3)
        np.testing.assert_array_equal(center, pred.center)
        assert delta == pytest.approx(0.0, abs=1e-14)

    def test_scalar_hand_computation(self):
        pred = Ellipsoid([0.0], [[1.0]])
        meas = Ellipsoid([0.0], [[1.0]])
        center, shape, delta = fuse(pred, meas, [[1.0]], 0.5)
        assert center[0] == pytest.approx(0.0)
        assert delta == pytest.approx(0.0)
        assert shape[0, 0] == pytest.approx(1.0)

    def test_rejects_rho_outside_interval(self):
        pred = Ellipsoid([0.0], [[1.0]])
        with pytest.raises(ValueError):
            fuse(pred, pred, [[1.0]], 0.0)

    def test_empty_intersection_raises(self):
        pred = Ellipsoid([0.0], [[1.0]])
        meas = Ellipsoid([10.0], [[1.0]])
        with pytest.raises(EmptyIntersectionError) as exc:
            fuse(pred, meas, [[1.0]], 0.5)
        assert exc.value.delta >= 1.0

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_intersection_containment(self, rho):
        # Points of pred whose projection is measurement-consistent must all
        # land in the fused set.
        rng = np.random.default_rng(8)
        e_p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        witness = rng.standard_normal(3)
        pred = Ellipsoid(witness + 0.1 * rng.standard_normal(3),
                         random_spd(rng, 3))
        meas = Ellipsoid(e_p @ witness + 0.1 * rng.standard_normal(2),
                         random_spd(rng, 2))
        center, shape, delta = fuse(pred, meas, e_p, rho)
        fused = Ellipsoid(center, shape)
        cand = sample_interior(pred, 20_000, rng)
        ok = contains(meas, cand @ e_p.T, 0.0)
        inter = cand[ok]
        assert inter.shape[0] >= 1000
        assert contains(fused, inter[:1000], 1e-9).all()

    # E_p: a selector with r < n, a square one, and the radar range/bearing
    # Jacobian as the linearizing filter passes it.
    @pytest.mark.parametrize("e_p", [
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.eye(3)[[2]],
        np.eye(2),
        np.array([[-0.6, -0.8, 0.0, 0.0], [0.0016, -0.0012, 0.0, 0.0]]),
    ])
    @pytest.mark.parametrize("rho", [1e-6, 0.3, 0.7, 1.0 - 1e-6])
    def test_matches_matrix_reference(self, e_p, rho):
        # The reference inverts the information bracket, whose condition
        # number grows like 1/rho and 1/(1 - rho): at the rho edges it
        # loses up to ~1e6 * eps * cond(P) * cond(P_z) ~ 1e-7 relative.
        rng = np.random.default_rng(16)
        r, n = e_p.shape
        for _ in range(20):
            witness = rng.standard_normal(n)
            pred = Ellipsoid(witness + 0.2 * rng.standard_normal(n), random_spd(rng, n))
            meas = Ellipsoid(e_p @ witness + 0.01 * rng.standard_normal(r),
                             np.abs(e_p).max() ** 2 * random_spd(rng, r))
            center, shape, delta = fuse(pred, meas, e_p, rho)
            want_c, want_s, want_d = reference_fuse(pred, meas, e_p, rho)
            np.testing.assert_allclose(shape, want_s, rtol=0, atol=1e-6 * np.abs(want_s).max())
            np.testing.assert_allclose(center, want_c, rtol=0, atol=1e-9 * np.abs(want_c).max())
            assert delta == pytest.approx(want_d, rel=1e-9, abs=1e-14)

    def test_rejects_more_rows_than_columns(self):
        pred = Ellipsoid([0.0], [[1.0]])
        meas = Ellipsoid([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            fuse(pred, meas, [[1.0], [1.0]], 0.5)


def reference_optimize_rho(pred, meas, e_p):
    """The rho search on np.linspace grids, with its own joint
    diagonalisation squaring s and h at every evaluation: (rho, delta)."""
    e_p = np.atleast_2d(np.asarray(e_p, dtype=float))
    n, r = pred.dim, meas.dim
    chol_p, chol_z = pred.factor(), meas.factor()
    v, s_r, ut = np.linalg.svd(np.linalg.solve(chol_z, e_p @ chol_p))
    s, h = np.zeros(n), np.zeros(n)
    s[:r], h[:r] = s_r, v.T @ np.linalg.solve(chol_z, meas.center - e_p @ pred.center)

    def at_rho(rho):
        rho = np.asarray(rho, dtype=float)[..., None]
        d = 1.0 - rho + rho * s**2
        return (rho * (1.0 - rho) * h**2 / d).sum(axis=-1), d

    basis = chol_p @ ut.T
    a = (basis * basis).sum(axis=0)
    lo, hi = dsmf.RHO_EDGE, 1.0 - dsmf.RHO_EDGE
    while True:
        grid = np.linspace(lo, hi, 65)
        delta, d = at_rho(grid)
        assert delta.max() < 1.0
        j = int(np.argmin((1.0 - delta) * (a / d).sum(axis=-1)))
        if hi - lo <= dsmf.RHO_TOL:
            rho = float(grid[j])
            return rho, float(at_rho(rho)[0])
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]


@lru_cache(maxsize=None)
def seeded_records(name):
    """(model, records) of a seeded 25-step dsmf run of a preset."""
    config = RunConfig(scenario=name, filters=("dsmf",), runs=1, steps=25,
                       master_seed=41)
    records = [rec for rec in run_experiment(config).runs[0].filters["dsmf"].records
               if rec is not None]
    assert len(records) >= 20
    return build_model(build_scenario(name)), records


def random_pair(rng, n, r):
    """A prediction in R^n and a measurement set of a random r x n E_p that
    both contain one witness point, with E_p."""
    e_p = rng.standard_normal((r, n))
    witness = rng.standard_normal(n)
    pred = Ellipsoid(witness + 0.2 * rng.standard_normal(n), random_spd(rng, n))
    meas = Ellipsoid(e_p @ witness + 0.2 * rng.standard_normal(r), random_spd(rng, r))
    return pred, meas, e_p


def max_reference_delta(pred, meas, e_p):
    """The largest reference_fuse delta over (0, 1), by golden-section
    search on the concave delta."""
    def delta(rho):
        return reference_fuse(pred, meas, e_p, rho)[2]

    lo, hi = 0.0, 1.0
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if delta(x1) < delta(x2):
            lo = x1
        else:
            hi = x2
    return delta(0.5 * (lo + hi))


def near_empty_pair(rng, n, r, peak):
    """A random_pair with the shapes of both sets scaled along each axis by
    a factor from 1e-3 to 1e3, and the innovation scaled so that the largest
    delta over (0, 1) is peak: the sets nearly miss each other."""
    pred, meas, e_p = random_pair(rng, n, r)
    axes = 10.0 ** rng.uniform(-1.5, 1.5, n)
    pred = Ellipsoid(pred.center, axes[:, None] * pred.shape * axes)
    axes = 10.0 ** rng.uniform(-1.5, 1.5, r)
    meas = Ellipsoid(meas.center, axes[:, None] * meas.shape * axes)
    innov = (meas.center - e_p @ pred.center) * np.sqrt(
        peak / max_reference_delta(pred, meas, e_p))
    return pred, Ellipsoid(e_p @ pred.center + innov, meas.shape), e_p


class TestOptimizeRho:
    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_no_worse_than_the_linspace_search(self, name):
        # Seeded (prediction, measurement) pairs of a dsmf run: the fused
        # trace is no larger than at the linspace search's rho, which lies
        # within RHO_TOL, and the step fused at the rho returned.
        model, records = seeded_records(name)
        for rec in records:
            params = optimize_rho(rec.predicted, rec.measurement, model.E_p)
            rho, _ = reference_optimize_rho(rec.predicted, rec.measurement, model.E_p)
            assert abs(params.rho - rho) <= dsmf.RHO_TOL
            traces = [np.trace(fuse(rec.predicted, rec.measurement, model.E_p, r)[1])
                      for r in (params.rho, rho)]
            assert traces[0] <= traces[1] * (1.0 + 1e-12)
            center, shape, _ = fuse(rec.predicted, rec.measurement, model.E_p, params.rho)
            assert np.array_equal(rec.updated.center, center)
            assert np.array_equal(rec.updated.shape, shape)

    @pytest.mark.parametrize("name", ["radar", "robot"])
    def test_few_slope_evaluations_per_newton_solve(self, name, monkeypatch):
        # A solve reads the slope at RHO_EDGE, then at 1 - RHO_EDGE, then
        # steps from the end with the smaller |slope|: at most 9 evaluations
        # on these records, 10 over the dsmf and esmf updates of both
        # presets, 12 over random pairs.  rho at the low edge, as on every
        # robot record, takes the one evaluation there.
        solves = []
        newton = dsmf._newton

        def counted(slope, terms):
            calls = []

            def slope_counted(rho, terms):
                calls.append(rho)
                return slope(rho, terms)

            rho = newton(slope_counted, terms)
            solves.append((len(calls), rho))
            return rho

        monkeypatch.setattr(dsmf, "_newton", counted)
        model, records = seeded_records(name)
        rhos = [optimize_rho(rec.predicted, rec.measurement, model.E_p).rho
                for rec in records]
        assert len(solves) >= len(records)
        assert max(calls for calls, _ in solves) <= 12
        assert all(calls == 1 for calls, rho in solves if rho == dsmf.RHO_EDGE)
        if name == "robot":
            assert rhos == [dsmf.RHO_EDGE] * len(records)

    def test_delta_is_concave_and_below_its_bound(self):
        # delta'' <= 0 on every pair, and no rho takes delta above
        # sum_i h_i^2 / (1 + s_i)^2.
        rng = np.random.default_rng(23)
        rhos = np.linspace(1e-6, 1 - 1e-6, 401)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            pred, meas, e_p = random_pair(rng, n, int(rng.integers(1, n + 1)))
            delta = np.array([fuse(pred, meas, e_p, float(r))[2] for r in rhos])
            assert np.diff(delta, 2).max() <= 1e-12 * max(delta.max(), 1.0)
            s2, h2 = dsmf._joint_diag(pred, meas, e_p)[2:4]
            assert delta.max() <= (h2 / (1.0 + np.sqrt(s2)) ** 2).sum() * (1.0 + 1e-12)

    @pytest.mark.parametrize("excess, empty", [(1e-7, True), (-1e-7, False)])
    def test_emptiness_is_exact(self, excess, empty):
        # The innovation of the infeasible-subinterval case, scaled so that
        # the largest delta over (0, 1) is 1 + excess.  For 1 + 1e-7, delta
        # >= 1 on a stretch of rho about 3e-4 wide, with no point of a
        # 65-point grid on it: the raise must come from the maximum itself.
        pred = Ellipsoid([0.0, 0.0], np.diag([1.0, 4.0]))
        base = np.array([2.2, 0.5])
        peak = max_reference_delta(pred, Ellipsoid(base, np.diag([0.3, 1.0])), np.eye(2))
        meas = Ellipsoid(base * np.sqrt((1.0 + excess) / peak), np.diag([0.3, 1.0]))
        for rho in np.linspace(dsmf.RHO_EDGE, 1.0 - dsmf.RHO_EDGE, 65):
            fuse(pred, meas, np.eye(2), float(rho))
        if empty:
            with pytest.raises(EmptyIntersectionError) as exc:
                optimize_rho(pred, meas, np.eye(2))
            assert exc.value.delta >= 1.0
        else:
            assert optimize_rho(pred, meas, np.eye(2)).delta < 1.0

    def test_fine_grid_oracle_on_random_pairs(self):
        # Random pairs, then near-empty ones (see near_empty_pair), whose
        # delta peaks in [0.3, 0.9999] with r < n and axes 1e-3 to 1e3.
        rng = np.random.default_rng(29)
        grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
        pairs = []
        for _ in range(40):
            n = int(rng.integers(1, 5))
            pairs.append(random_pair(rng, n, int(rng.integers(1, n + 1))))
        for _ in range(100):
            n = int(rng.integers(2, 5))
            pairs.append(near_empty_pair(rng, n, int(rng.integers(1, n)),
                                         rng.uniform(0.3, 0.9999)))
        for pred, meas, e_p in pairs:
            params = optimize_rho(pred, meas, e_p)
            best = reference_fused_traces(pred, meas, e_p, grid).min()
            got = reference_fused_traces(pred, meas, e_p, [params.rho])[0]
            assert got <= best * (1.0 + 1e-9)

    def test_delta_is_the_fused_delta(self):
        rng = np.random.default_rng(17)
        e_p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for _ in range(20):
            witness = rng.standard_normal(3)
            pred = Ellipsoid(witness + 0.2 * rng.standard_normal(3), random_spd(rng, 3))
            meas = Ellipsoid(e_p @ witness + 0.2 * rng.standard_normal(2),
                             random_spd(rng, 2))
            params = optimize_rho(pred, meas, e_p)
            assert params.delta == fuse(pred, meas, e_p, params.rho)[2]

    def test_symmetric_case(self):
        # Equal shapes, identity projection, nonzero innovation: the fused
        # size is symmetric in rho <-> 1-rho, so the optimum is 1/2.
        pred = Ellipsoid([0.0], [[1.0]])
        meas = Ellipsoid([0.5], [[1.0]])
        params = optimize_rho(pred, meas, [[1.0]])
        assert params.rho == pytest.approx(0.5, abs=1e-4)

    def test_grid_oracle(self):
        rng = np.random.default_rng(9)
        e_p = np.array([[1.0, 0.0], [0.0, 1.0]])
        grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
        for _ in range(20):
            witness = rng.standard_normal(2)
            pred = Ellipsoid(witness + 0.2 * rng.standard_normal(2),
                             random_spd(rng, 2))
            meas = Ellipsoid(witness + 0.2 * rng.standard_normal(2),
                             random_spd(rng, 2))
            params = optimize_rho(pred, meas, e_p)
            best = grid[int(np.argmin(reference_fused_traces(pred, meas, e_p, grid)))]
            assert abs(params.rho - best) <= 1e-4

    def test_raises_beside_an_infeasible_subinterval(self):
        # delta >= 1 on a middle stretch of (0, 1) only.  Any rho there
        # leaves the intersection at most one point, so the search must
        # raise, not end beside the stretch on a collapsed fused set.
        pred = Ellipsoid([0.0, 0.0], np.diag([1.0, 4.0]))
        meas = Ellipsoid([2.2, 0.5], np.diag([0.3, 1.0]))

        def disjoint(rho):
            try:
                fuse(pred, meas, np.eye(2), rho)
            except EmptyIntersectionError:
                return True
            return False

        grid = np.linspace(1e-6, 1 - 1e-6, 2000)
        cut = np.flatnonzero([disjoint(rho) for rho in grid])
        assert 0 < cut[0] and cut[-1] < grid.size - 1
        assert cut.size == cut[-1] - cut[0] + 1
        with pytest.raises(EmptyIntersectionError) as exc:
            optimize_rho(pred, meas, np.eye(2))
        assert exc.value.delta >= 1.0

    def test_uninformative_measurement_pushes_rho_to_edge(self):
        pred = Ellipsoid([0.0, 0.0], np.eye(2))
        meas = Ellipsoid([0.1, -0.1], 1e12 * np.eye(2))
        params = optimize_rho(pred, meas, np.eye(2))
        assert params.rho < 1e-3
        center, shape, _ = fuse(pred, meas, np.eye(2), params.rho)
        np.testing.assert_allclose(shape, pred.shape, rtol=1e-2)

    def test_all_rho_infeasible_raises(self):
        # delta -> 0 at the rho edges, so infeasibility across the whole
        # search interval needs an innovation that dwarfs both sets even
        # after the 1e-6 edge scaling.
        pred = Ellipsoid([0.0], [[1e-12]])
        meas = Ellipsoid([1e6], [[1e-12]])
        with pytest.raises(EmptyIntersectionError):
            optimize_rho(pred, meas, [[1.0]])


class TestJointDiagMemo:
    """_joint_diag keeps its last result, so the fuse after an update's rho
    search reuses the search's diagonalisation; counted by the SVD it calls."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(dsmf, "_last_joint", (None,) * 5)
        return calls

    @staticmethod
    def cold_fuse(monkeypatch, pred, meas, e_p, rho):
        monkeypatch.setattr(dsmf, "_last_joint", (None,) * 5)
        return fuse(pred, meas, e_p, rho)

    @pytest.mark.parametrize("n, r", [(4, 2), (3, 3), (2, 1)])
    def test_search_then_fuse_diagonalises_once(self, svd_calls, monkeypatch, n, r):
        pred, meas, e_p = random_pair(np.random.default_rng(10 * n + r), n, r)
        rho = optimize_rho(pred, meas, e_p).rho
        fused = fuse(pred, meas, e_p, rho)
        assert len(svd_calls) == 1
        assert all(not a.flags.writeable for a in dsmf._joint_diag(pred, meas, e_p))
        cold = self.cold_fuse(monkeypatch, pred, meas, e_p, rho)
        assert len(svd_calls) == 2
        assert all(same_bits(a, b) for a, b in zip(fused, cold))

    def test_an_update_diagonalises_once(self, svd_calls):
        pred, meas, e_p = random_pair(np.random.default_rng(7), 4, 2)
        dsmf._update(pred, meas, e_p)
        assert len(svd_calls) == 1

    def test_other_sets_or_map_diagonalise_again(self, svd_calls, monkeypatch):
        rng = np.random.default_rng(11)
        pred, meas, e_p = random_pair(rng, 4, 2)
        rho = optimize_rho(pred, meas, e_p).rho
        # A different measurement set, then an equal one that is another
        # object, then an E_p of the same shape with other values.
        other = Ellipsoid(meas.center + 0.01, 2.0 * meas.shape)
        cases = [(other, e_p), (Ellipsoid(meas.center, meas.shape), e_p),
                 (meas, e_p + 0.01)]
        for m, ep in cases:
            fuse(pred, meas, e_p, rho)  # the memo holds (pred, meas, e_p)
            svd_calls.clear()
            fused = fuse(pred, m, ep, rho)
            assert len(svd_calls) == 1
            cold = self.cold_fuse(monkeypatch, pred, m, ep, rho)
            assert all(same_bits(a, b) for a, b in zip(fused, cold))

    def test_an_e_p_edited_in_place_diagonalises_again(self, svd_calls, monkeypatch):
        pred, meas, e_p = random_pair(np.random.default_rng(12), 4, 2)
        assert e_p.flags.writeable
        rho = optimize_rho(pred, meas, e_p).rho
        before = fuse(pred, meas, e_p, rho)
        e_p[0, 0] += 0.01
        fused = fuse(pred, meas, e_p, rho)
        assert len(svd_calls) == 2
        assert not same_bits(fused[0], before[0])
        cold = self.cold_fuse(monkeypatch, pred, meas, e_p.copy(), rho)
        assert all(same_bits(a, b) for a, b in zip(fused, cold))


class TestStackedFusion:
    """optimize_rho, fuse and the update on R pairs at once: each pair's
    rho, delta, center and shape have the bits of the pair alone."""

    @staticmethod
    def pairs(count, shared):
        """count random pairs, each with a common point, as two lists, the
        list of their maps E_p and what fuse takes: one E_p (shared) or
        the (count, 2, 4) stack."""
        rng = np.random.default_rng(50 + count + 10 * shared)
        pairs = [random_pair(rng, 4, 2) for _ in range(count)]
        if shared:  # one E_p for every pair, each pair about its own witness
            e_p, pairs = pairs[0][2], []
            for _ in range(count):
                witness = rng.standard_normal(4)
                pairs.append((Ellipsoid(witness + 0.2 * rng.standard_normal(4),
                                        random_spd(rng, 4)),
                              Ellipsoid(e_p @ witness + 0.2 * rng.standard_normal(2),
                                        random_spd(rng, 2)), e_p))
        preds, meas, maps = (list(side) for side in zip(*pairs))
        return preds, meas, maps, maps[0] if shared else np.array(maps)

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_a_stack_gives_each_pair_its_solo_bits(self, count, shared):
        preds, meas, maps, e_p = self.pairs(count, shared)
        params = optimize_rho(preds, meas, e_p)
        center, shape, deltas = fuse(preds, meas, e_p, params.rho)
        assert len(params.rho) == len(params.delta) == len(deltas) == count
        for i in range(count):
            solo = optimize_rho(preds[i], meas[i], maps[i])
            assert isinstance(solo.rho, float) and isinstance(solo.delta, float)
            assert params.rho[i] == solo.rho and params.delta[i] == solo.delta
            want = fuse(preds[i], meas[i], maps[i], solo.rho)
            assert same_bits(center[i], want[0]) and same_bits(shape[i], want[1])
            assert deltas[i] == want[2] == solo.delta

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_stacked_update_is_each_update_alone(self, count):
        preds, meas, maps, e_p = self.pairs(count, False)
        updated, params = dsmf._update(preds, meas, e_p)
        for i, e in enumerate(updated):
            want, solo = dsmf._update(preds[i], meas[i], maps[i])
            assert params.rho[i] == solo.rho
            for a, b in ((e.center, want.center), (e.shape, want.shape),
                         (e.factor(), want.factor())):
                assert same_bits(a, b)

    def test_one_empty_pair_fails_the_stack(self):
        preds, meas, maps, e_p = self.pairs(3, False)
        far = Ellipsoid(meas[1].center + 1e4, meas[1].shape)
        with pytest.raises(EmptyIntersectionError):
            optimize_rho(preds[1], far, maps[1])
        with pytest.raises(EmptyIntersectionError):
            optimize_rho(preds, [meas[0], far, meas[2]], e_p)

    def test_pairs_that_do_not_pair_up_are_refused(self):
        preds, meas, maps, e_p = self.pairs(3, False)
        with pytest.raises(ValueError, match="E_p is"):
            optimize_rho(preds, meas[:2], e_p)
        with pytest.raises(ValueError, match="E_p is"):
            optimize_rho(preds, meas, e_p[:2])


class TestStep:
    def test_linear_degeneration_against_direct_formulas(self):
        # Linear f and h = E_p x: the full sampled step must match the same
        # fusion formulas evaluated on the exact prediction and measurement
        # ellipsoids (the inverse-measurement set is exactly {y, R}).
        e_p = np.array([[1.0, 0.0]])
        model, f_mat = linear_model(n=2, e_p=e_p, q_scale=0.05, r_scale=0.1)
        e0 = Ellipsoid([1.0, -0.5], 0.5 * np.eye(2))
        y = np.array([1.1])
        opts = FilterOptions(m_samples=500, tol=1e-8, max_iter=None)
        rec = step(e0, model, y, 0, opts)

        # Oracle: exact linear propagation, measurement set {y, R}, same
        # rho optimization on the exact ellipsoids.
        image = Ellipsoid(f_mat @ e0.center, f_mat @ e0.shape @ f_mat.T)
        p_star = optimal_p(image.shape, model.Q)
        pred = Ellipsoid(
            image.center,
            (1 + 1 / p_star) * image.shape + (1 + p_star) * model.Q,
        )
        meas = Ellipsoid(y, model.R)
        params = optimize_rho(pred, meas, e_p)
        center, shape, _ = fuse(pred, meas, e_p, params.rho)
        err = np.linalg.norm(rec.updated.shape - shape) / np.linalg.norm(shape)
        assert err <= 0.05
        np.testing.assert_allclose(rec.updated.center, center, atol=0.05)

    def test_noiseless_consistency_contracts(self):
        # Exact model, negligible noise: the set collapses toward the truth.
        model = SystemModel(
            f=lambda x, k: np.asarray(x),
            h=lambda x: np.asarray(x),
            h_inv=lambda y, v, aux: y - np.atleast_2d(v),
            E_p=np.eye(2), Q=1e-12 * np.eye(2), R=1e-12 * np.eye(2),
        )
        truth = np.array([0.3, -0.2])
        e = Ellipsoid([0.0, 0.0], np.eye(2))
        opts = FilterOptions(m_samples=200, tol=1e-7)
        traces = [np.trace(e.shape)]
        for k in range(10):
            rec = step(e, model, truth, k, opts)
            e = rec.updated
            traces.append(np.trace(e.shape))
        assert traces[-1] < 1e-6 * traces[0]
        assert np.linalg.norm(e.center - truth) < 1e-4

    def test_record_fields(self):
        model, _ = linear_model(q_scale=0.1, r_scale=0.1)
        e0 = Ellipsoid([0.0, 0.0], np.eye(2))
        rec = step(e0, model, np.array([0.1, 0.0]), 3, FilterOptions())
        assert rec.k == 3
        assert rec.params.p_star > 0
        assert 0 < rec.params.rho < 1
        assert rec.params.delta < 1
        assert len(rec.solves) == 2

    def test_one_fuse_call_per_step(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return fuse(*args)

        monkeypatch.setattr(dsmf, "fuse", counted)
        model, _ = linear_model(q_scale=0.1, r_scale=0.1)
        e0 = Ellipsoid([0.0, 0.0], np.eye(2))
        dsmf.step(e0, model, np.array([0.1, 0.0]), 0, FilterOptions())
        assert len(calls) == 1

    def test_one_optimal_p_call_per_step(self, monkeypatch):
        # The covering-sum parameter is computed by predict and reused.
        calls = []

        def counted(*args):
            calls.append(args)
            return optimal_p(*args)

        monkeypatch.setattr(dsmf, "optimal_p", counted)
        model, _ = linear_model(q_scale=0.1, r_scale=0.1)
        e0 = Ellipsoid([0.0, 0.0], np.eye(2))
        rec = dsmf.step(e0, model, np.array([0.1, 0.0]), 0, FilterOptions())
        assert len(calls) == 1
        assert rec.params.p_star == optimal_p(*calls[0])

    def test_containment_over_noisy_run(self):
        # Truth simulated inside all bounds stays inside the filter set.
        model, f_mat = linear_model(n=2, q_scale=0.05, r_scale=0.1)
        opts = FilterOptions(m_samples=200, tol=1e-6)
        hits = total = 0
        for run in range(5):
            run_rng = np.random.default_rng([13, run])
            x = np.array([0.5, -0.5])
            e = Ellipsoid(x + 0.1 * run_rng.standard_normal(2), np.eye(2))
            w_ball = Ellipsoid(np.zeros(2), model.Q)
            v_ball = Ellipsoid(np.zeros(2), model.R)
            for k in range(15):
                x = model.f(x, k) + sample_interior(w_ball, 1, run_rng)[0]
                y = model.h(x) + sample_interior(v_ball, 1, run_rng)[0]
                rec = step(e, model, y, k, opts)
                e = rec.updated
                hits += bool(contains(e, x, 1e-6))
                total += 1
        assert hits / total >= 0.99


class TestWarmStartedSteps:
    STEPS = 8

    def robot_run(self):
        """Records of a seeded robot run whose steps start from the last
        step's weights, with a cold step from the same e_k beside each:
        one whose solves get no start at all, not even a design optimum."""
        scenario = build_scenario("robot")
        model = build_model(scenario)
        rng = np.random.default_rng([21, 0])
        _, ys = simulate_truth(scenario, model, rng, steps=self.STEPS)
        e = initial_estimate(scenario, rng)
        opts = FilterOptions()
        pairs, start = [], None
        for k in range(self.STEPS):
            rec = step(e, model, ys[k], k, opts, start)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dsmf, "_design_optimum", lambda m, n: None)
                pairs.append((rec, step(e, model, ys[k], k, opts)))
            e, start = rec.updated, [s.weights for s in rec.solves]
        return pairs, model.state_dim * np.log1p(2 * opts.tol)

    def test_warm_solves_are_short_and_agree_with_cold_ones(self):
        pairs, bound = self.robot_run()
        iters = [warm.solves[0].iterations for warm, _ in pairs[1:]]
        cold_iters = [c.solves[0].iterations for _, c in pairs[1:]]
        assert np.median(iters) <= 5 < np.median(cold_iters)  # cold: 18
        for warm, cold in pairs:
            assert all(s.converged for s in warm.solves)
            for field in ("predicted", "updated"):
                a, b = getattr(warm, field).shape, getattr(cold, field).shape
                assert abs(np.linalg.slogdet(a)[1] - np.linalg.slogdet(b)[1]) <= bound

    def test_repeated_run_is_identical(self):
        first, _ = self.robot_run()
        second, _ = self.robot_run()
        for (a, _), (b, _) in zip(first, second):
            for field in ("predicted", "measurement", "updated"):
                ea, eb = getattr(a, field), getattr(b, field)
                np.testing.assert_array_equal(ea.center, eb.center)
                np.testing.assert_array_equal(ea.shape, eb.shape)


class TestDesignOptimumStart:
    """A solve with no last-step weights starts from the optimum of its own
    design, which is exact for an affine image of the design."""

    @staticmethod
    def seeded(name, steps=3):
        scenario = build_scenario(name)
        model = build_model(scenario)
        rng = np.random.default_rng([7, 0])
        _, ys = simulate_truth(scenario, model, rng, steps=steps)
        return model, ys, initial_estimate(scenario, rng)

    def test_radar_prediction_takes_no_pass(self):
        # Radar declares F: its prediction cloud is an affine image of the
        # design, from e0 as from any later set.
        model, ys, e = self.seeded("radar")
        opts = FilterOptions()
        assert model.F is not None
        for k in range(3):
            _, sol, _ = predict(e, model, k, opts)
            assert sol.iterations == 0 and sol.converged
            np.testing.assert_array_equal(sol.weights, dsmf._design_optimum(200, 4))
            e = step(e, model, ys[k], k, opts).updated

    def test_radar_step_without_start_is_the_design_optimum_start(self):
        model, ys, e0 = self.seeded("radar")
        opts = FilterOptions()
        start = [dsmf._design_optimum(200, 4), dsmf._design_optimum(200, 2)]
        a = step(e0, model, ys[0], 0, opts)
        b = step(e0, model, ys[0], 0, opts, start)
        assert a.solves[0].iterations == 0 and a.solves[1].iterations <= 2  # cold: 7, 5
        for field in ("predicted", "measurement", "updated"):
            ea, eb = getattr(a, field), getattr(b, field)
            np.testing.assert_array_equal(ea.center, eb.center)
            np.testing.assert_array_equal(ea.shape, eb.shape)
        for sa, sb in zip(a.solves, b.solves):
            np.testing.assert_array_equal(sa.weights, sb.weights)

    def test_robot_product_grid_starts_cold(self, monkeypatch):
        # With aux the cloud is a product grid, which has no design optimum.
        model, ys, e0 = self.seeded("robot", steps=1)
        opts = FilterOptions()
        predicted = predict(e0, model, 0, opts)[0]
        aux = model.aux_from_predicted(predicted)
        calls = []

        def recording(cloud, **kwargs):
            calls.append((cloud.points, kwargs))
            return mvee.fw_solve(cloud, **kwargs)

        monkeypatch.setattr(dsmf, "fw_solve", recording)
        meas, sol = measurement_ellipsoid(ys[0], model, aux, opts)
        (points, kwargs), = calls
        assert kwargs["start"] is None
        cold = mvee.fw_solve(points, tol=opts.tol, max_iter=opts.max_iter)
        assert sol.iterations == cold.iterations
        np.testing.assert_array_equal(sol.weights, cold.weights)
        np.testing.assert_array_equal(meas.center, cold.ellipsoid.center)
        np.testing.assert_array_equal(meas.shape, cold.ellipsoid.shape)

    def test_robot_nominal_weights_are_the_first_prediction_optimum(self, monkeypatch):
        # Solved from the design optimum through the mvee module, never the
        # dsmf.fw_solve that tools wrap, in the 18 passes a run's first
        # prediction took from there; a prediction of the same set from
        # those weights then takes no pass.  The solve is cached per nominal
        # cloud, so an earlier test's experiment on this set would hide it.
        dsmf._nominal_optimum.cache_clear()
        scenario = build_scenario("robot")
        model = build_model(scenario)
        nominal = Ellipsoid(np.asarray(scenario.x0, dtype=float), scenario.P0)
        opts = FilterOptions()
        cold = predict(nominal, model, 0, opts)[1]
        assert cold.iterations > 3

        def wrapped(*args, **kwargs):
            raise AssertionError("the nominal solve reached dsmf.fw_solve")

        solves, solve = [], mvee.fw_solve

        def counted(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(dsmf, "fw_solve", wrapped)
        monkeypatch.setattr(mvee, "fw_solve", counted)
        weights = dsmf._prediction_start(nominal, model, opts)
        monkeypatch.undo()
        assert len(solves) == 1  # the design optimum is cached by predict
        assert solves[0].converged and solves[0].iterations <= 20
        np.testing.assert_array_equal(weights, cold.weights)
        warm = predict(nominal, model, 0, opts, weights)[1]
        assert warm.converged and warm.iterations == 0

    def test_measurement_without_aux_is_the_noise_design_image(self):
        # The noise design goes to h_inv as it is, as the product-grid
        # index over it gave before.
        model, ys, _ = self.seeded("radar")
        opts = FilterOptions()
        noise = dsmf._design(200, 2) @ np.linalg.cholesky(model.R).T
        pts = model.h_inv(ys[0], noise[np.arange(200)], ())
        want = mvee.fw_solve(pts, tol=opts.tol, max_iter=opts.max_iter,
                             start=dsmf._design_optimum(200, 2))
        meas, sol = measurement_ellipsoid(ys[0], model, None, opts)
        np.testing.assert_array_equal(sol.weights, want.weights)
        np.testing.assert_array_equal(meas.center, want.ellipsoid.center)
        np.testing.assert_array_equal(meas.shape, want.ellipsoid.shape)

    def test_import_solves_nothing(self):
        # The design optima are solved on first use, so importing the
        # package costs no solve.
        code = ("import smfilter\n"
                "from smfilter import dsmf\n"
                "print(dsmf._design_optimum.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "0"


class TestUpdateFormulaLimits:
    def test_shape_continuous_near_rho_edges(self):
        rng = np.random.default_rng(14)
        witness = rng.standard_normal(2)
        pred = Ellipsoid(witness + 0.1 * rng.standard_normal(2),
                         random_spd(rng, 2))
        meas = Ellipsoid(witness + 0.1 * rng.standard_normal(2),
                         random_spd(rng, 2))
        for edge in (1e-6, 1 - 1e-6):
            rhos = np.linspace(edge, abs(edge - 1e-4), 20)
            shapes = [fuse(pred, meas, np.eye(2), float(r))[1] for r in rhos]
            diffs = [np.linalg.norm(shapes[i + 1] - shapes[i])
                     for i in range(len(shapes) - 1)]
            assert max(diffs) < 0.05 * np.linalg.norm(shapes[0])

    def test_rho_to_zero_limit(self):
        pred = Ellipsoid([0.0, 0.0], np.eye(2))
        meas = Ellipsoid([0.1, 0.0], 2.0 * np.eye(2))
        rho = 1e-6
        _, shape, delta = fuse(pred, meas, np.eye(2), rho)
        want = (1 - delta) / (1 - rho) * pred.shape
        np.testing.assert_allclose(shape, want, rtol=1e-4)

    def test_unimodality_spot_check(self):
        # The rho objective should have a single interior minimum on
        # well-conditioned instances; count strict local minima on a grid.
        rng = np.random.default_rng(15)
        witness = rng.standard_normal(2)
        pred = Ellipsoid(witness + 0.2 * rng.standard_normal(2),
                         random_spd(rng, 2))
        meas = Ellipsoid(witness + 0.2 * rng.standard_normal(2),
                         random_spd(rng, 2))
        grid = np.linspace(1e-6, 1 - 1e-6, 1000)
        vals = np.array([np.trace(fuse(pred, meas, np.eye(2), r)[1])
                         for r in grid])
        interior_minima = 0
        for i in range(1, len(vals) - 1):
            if vals[i] < vals[i - 1] - 1e-9 and vals[i] < vals[i + 1] - 1e-9:
                interior_minima += 1
        assert interior_minima <= 1
