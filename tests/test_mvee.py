import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smfilter import mvee
from smfilter.dsmf import _design, _design_optimum
from smfilter.ellipsoid import Ellipsoid, PointCloud, contains, symmetrize
from smfilter.errors import RankDeficiencyError
from smfilter.mvee import fw_solve, lift, line_search_step
from smfilter.scenarios import build_model, build_scenario, initial_estimate

from reference import dual_objective, fw_gradient, kkt_residual, same_bits, sample_boundary

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class TestLifting:
    def test_lift_appends_one(self):
        out = lift(np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[2.0, 3.0, 1.0]])


class TestDualObjective:
    def test_symmetric_pair_1d(self):
        # y in {-1, +1}, uniform weights: lifted moment is the identity.
        val = dual_objective(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_vertex_weights_singular(self):
        mu = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficiencyError) as exc:
            dual_objective(TRIANGLE, mu)
        assert exc.value.rank is not None and exc.value.rank < 3

    def test_triangle_uniform(self):
        # Lifted moment is [[1/3,0,1/3],[0,1/3,1/3],[1/3,1/3,1]], det 1/27.
        val = dual_objective(TRIANGLE, np.full(3, 1 / 3))
        assert val == pytest.approx(np.log(1 / 27), abs=1e-12)


class TestFwGradient:
    def test_triangle_uniform_symmetry(self):
        kappa = fw_gradient(TRIANGLE, np.full(3, 1 / 3))
        np.testing.assert_allclose(kappa, 3.0, atol=1e-12)

    def test_pair_1d(self):
        kappa = fw_gradient(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(kappa, 2.0, atol=1e-12)

    def test_weighted_sum_identity(self):
        # sum_i mu_i kappa_i = n + 1 for any weights (trace identity).
        rng = np.random.default_rng(0)
        for _ in range(10):
            m, n = 30, 3
            pts = rng.standard_normal((m, n))
            mu = rng.random(m)
            mu /= mu.sum()
            kappa = fw_gradient(pts, mu)
            assert mu @ kappa == pytest.approx(n + 1, abs=1e-8)


class TestFwSolve:
    def test_cross_instance(self):
        sol = fw_solve(CROSS, tol=1e-9)
        np.testing.assert_allclose(sol.ellipsoid.center, 0.0, atol=1e-9)
        np.testing.assert_allclose(sol.ellipsoid.shape, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(
            sol.ellipsoid.quadratic_form(CROSS), 1.0, atol=1e-8
        )

    def test_triangle_instance(self):
        sol = fw_solve(TRIANGLE, tol=1e-9)
        np.testing.assert_allclose(sol.ellipsoid.center, [1 / 3, 1 / 3], atol=1e-9)
        want = 2.0 * np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
        np.testing.assert_allclose(sol.ellipsoid.shape, want, atol=1e-9)
        np.testing.assert_allclose(
            sol.ellipsoid.quadratic_form(TRIANGLE), 1.0, atol=1e-8
        )

    def test_interval_1d(self):
        sol = fw_solve(np.array([[0.0], [10.0]]), tol=1e-9)
        assert sol.ellipsoid.center[0] == pytest.approx(5.0, abs=1e-9)
        assert sol.ellipsoid.shape[0, 0] == pytest.approx(25.0, abs=1e-7)

    @pytest.mark.parametrize("pts, wrap", [
        (np.array([[0.0, 0.0], [1.0, 1.0]]), False),
        (np.zeros((0, 2)), False),
        (np.zeros((0, 2)), True),
    ], ids=["two points", "empty", "empty in a PointCloud"])
    def test_too_few_points(self, pts, wrap):
        # An empty cloud, wrapped or bare, is refused by fw_solve's one n + 1
        # check: PointCloud holds it unchecked.
        with pytest.raises(RankDeficiencyError, match=r"need at least n\+1 = 3 points"):
            fw_solve(PointCloud(pts) if wrap else pts)

    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "in a PointCloud"])
    @pytest.mark.parametrize("shape", [(4, 2, 2), ()], ids=["3-D", "scalar"])
    def test_a_cloud_that_is_not_a_matrix_is_named_by_its_shape(self, shape, wrap):
        pts = np.zeros(shape)
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            fw_solve(PointCloud(pts) if wrap else pts)

    def test_max_iter_exhaustion_not_an_error(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        sol = fw_solve(pts, tol=1e-12, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.duality_gap > 0

    def test_negative_max_iter_rejected(self):
        # It used to run zero passes and return the start ellipsoid.
        with pytest.raises(ValueError):
            fw_solve(CROSS, max_iter=-3)

    @pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
    def test_tol_must_be_finite_and_positive(self, tol):
        # An infinite tol used to pass: the start met the certificate, and
        # the solve returned it as converged after no pass.
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            fw_solve(CROSS, tol=tol)

    def test_capped_solve_covers_its_cloud(self):
        # Without a convergence certificate the dual ellipsoid can leave
        # points well outside; every solve scales its shape by its final
        # kappa to cover them, which a capped solve needs most.
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((50, 3))
        sol = fw_solve(pts, tol=1e-12, max_iter=3)
        assert not sol.converged
        assert contains(sol.ellipsoid, pts, 1e-12).all()
        assert sol.coverage_scale > 1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("start", [None, np.full(4, 0.25)])
    def test_non_finite_point_named_before_any_arithmetic(self, bad, start):
        # An infinite point used to warn from inf - inf in the whitening
        # before the solve failed; a NaN one failed as a singular moment
        # matrix of rank None.
        pts = CROSS.copy()
        pts[2, 1] = bad
        with pytest.raises(RankDeficiencyError, match="row 2 of the cloud is not finite"):
            fw_solve(pts, start=start)

    def test_singleton_cloud_errors(self):
        with pytest.raises(RankDeficiencyError):
            fw_solve(np.zeros((6, 2)))

    def test_monotone_ascent(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((80, 4))
        sol = fw_solve(pts, tol=1e-9)
        assert sol.converged
        assert np.all(np.diff(sol.objective_path) >= 0)

    def test_weight_recovery(self):
        # Center and second moment reconstruct from the returned weights.
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 2))
        sol = fw_solve(pts, tol=1e-9)
        mu = sol.weights
        center = mu @ pts
        second = pts.T @ (mu[:, None] * pts) - np.outer(center, center)
        np.testing.assert_allclose(sol.ellipsoid.center, center, atol=1e-10)
        np.testing.assert_allclose(sol.ellipsoid.shape, 2.0 * second, atol=1e-10)

    def test_weights_are_a_read_only_simplex_array(self):
        # The solver's own weights, for a cold solve, a warm one and a
        # restart at the optimum that takes no pass.
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 2))
        cold = fw_solve(pts, tol=1e-9)
        for sol in (cold, fw_solve(pts, tol=1e-9, start=rng.random(40)),
                    fw_solve(pts, tol=1e-9, start=cold.weights)):
            mu = sol.weights
            assert type(mu) is np.ndarray and mu.shape == (40,)
            assert not mu.flags.writeable
            assert np.all(mu >= 0.0) and mu.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            cold.weights[0] = 0.5

    @pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((30, 2))
        base = fw_solve(pts, tol=1e-9)
        scaled = fw_solve(scale * pts, tol=1e-9)
        np.testing.assert_allclose(
            scaled.ellipsoid.center, scale * base.ellipsoid.center,
            rtol=1e-6, atol=1e-9 * scale,
        )
        np.testing.assert_allclose(
            scaled.ellipsoid.shape, scale**2 * base.ellipsoid.shape,
            rtol=1e-6, atol=1e-9 * scale**2,
        )

    def test_convergence_certificate(self):
        # At convergence the (1+tol)-inflated ellipsoid contains everything.
        rng = np.random.default_rng(5)
        tol = 1e-8
        pts = rng.standard_normal((60, 3))
        sol = fw_solve(pts, tol=tol)
        assert sol.converged
        assert sol.duality_gap <= tol * 4
        assert contains(sol.ellipsoid, pts, 10 * tol).all()

    def test_flat_cloud_gets_thin_ellipsoid(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal(40)
        flat = np.stack([t, 2 * t + 1], axis=1)
        sol = fw_solve(flat, tol=1e-7)
        assert contains(sol.ellipsoid, flat, 1e-5).all()

    def test_unicycle_boundary_image_converges(self):
        # A prediction cloud of the robot kind: plain away-step Frank-Wolfe
        # zig-zags between the eight points of its optimal support for
        # about 1500 iterations.
        rng = np.random.default_rng(0)
        e = Ellipsoid([1.0, 2.0, 0.3], np.diag([0.5, 0.3, 0.8]))
        s = sample_boundary(e, 200, rng)
        pts = np.stack([s[:, 0] + 0.5 * np.cos(s[:, 2]),
                        s[:, 1] + 0.5 * np.sin(s[:, 2]), s[:, 2]], axis=1)
        sol = fw_solve(pts, tol=1e-5, max_iter=1000)
        assert sol.converged
        assert contains(sol.ellipsoid, pts, 2e-5).all()

    def test_unicycle_boundary_images_pass_count_and_certificate(self):
        # Newton steps taken to the face optimum, dropping points on the
        # way, weigh each new support in one pass; a single step per pass,
        # stopped at the first zero weight, needs 380 passes here.
        tol = 1e-5
        passes = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            e = Ellipsoid([1.0, 2.0, 0.3], np.diag([0.5, 0.3, 0.8]))
            s = sample_boundary(e, 200, rng)
            pts = np.stack([s[:, 0] + 0.5 * np.cos(s[:, 2]),
                            s[:, 1] + 0.5 * np.sin(s[:, 2]), s[:, 2]], axis=1)
            sol = fw_solve(pts, tol=tol, max_iter=1000)
            assert sol.converged
            assert kkt_residual(sol, pts) <= 2 * tol * 4
            passes += sol.iterations
        assert passes <= 320

    def test_singular_extreme_start_falls_back(self):
        # Two tips hold the min and max of both principal coordinates, so
        # the points holding the axis extremes do not span the plane.
        s = np.array([0.4, 0.5, 0.6, np.sqrt(0.23)])
        inner = np.concatenate([np.stack([s, -s], 1), np.stack([-s, s], 1)])
        pts = np.vstack([[[-1.0, -1.0], [1.0, 1.0]], inner]) * [2.0, 1.0]
        centered = pts - pts.mean(axis=0)
        _, vec = np.linalg.eigh(centered.T @ centered)
        coords = centered @ vec
        assert set(coords.argmin(axis=0)) | set(coords.argmax(axis=0)) == {0, 1}
        tol = 1e-9
        sol = fw_solve(pts, tol=tol)
        assert sol.converged
        assert contains(sol.ellipsoid, pts, 2 * tol).all()
        assert kkt_residual(sol, pts) <= 10 * tol * 3

    def test_converged_thin_clouds_cover_their_points(self):
        # One axis shrunk by 10^-U(1, 2) before a random linear map: a shape
        # formed in the original coordinates, with no coverage scale, left
        # points of 4 of these clouds up to 1 + 58 tol outside.
        tol = 1e-7
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 3, 80))
            pts = rng.standard_normal((m, n))
            pts[:, 0] *= 10.0 ** -rng.uniform(1, 2)
            pts = pts @ rng.standard_normal((n, n))
            for offset in (0.0, 10.0):
                cloud = pts + offset * rng.standard_normal(n)
                sol = fw_solve(cloud, tol=tol)
                assert sol.converged
                assert 1.0 <= sol.whitened_scale <= 1.0 + (n + 1) * tol / n
                assert contains(sol.ellipsoid, cloud, 2 * tol).all(), (seed, offset)

    def test_very_thin_clouds_cover_their_points(self):
        # One axis shrunk by 10^-U(2, 5), which puts cond(shape) up to about
        # 1e15: there the rounding of the shape mapped back from whitened
        # coordinates moves q by far more than tol.  A coverage scale read
        # from the whitened kappa left points of 33 of these 400 solves
        # outside, by up to 4.3e-2.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 3, 80))
            pts = rng.standard_normal((m, n))
            pts[:, 0] *= 10.0 ** -rng.uniform(2, 5)
            pts = pts @ rng.standard_normal((n, n))
            for offset, tol in itertools.product((0.0, 10.0), (1e-5, 1e-7)):
                cloud = pts + offset * rng.standard_normal(n)
                sol = fw_solve(cloud, tol=tol)
                assert contains(sol.ellipsoid, cloud, 2 * tol).all(), (seed, offset, tol)


class TestWarmStart:
    def test_restart_from_the_optimum_takes_no_pass(self):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((60, 3))
        tol = 1e-7
        cold = fw_solve(pts, tol=tol)
        warm = fw_solve(pts, tol=tol, start=cold.weights)
        assert cold.converged and warm.converged
        assert warm.iterations == 0
        np.testing.assert_allclose(warm.ellipsoid.center, cold.ellipsoid.center,
                                   atol=1e-12)
        np.testing.assert_allclose(warm.ellipsoid.shape, cold.ellipsoid.shape,
                                   rtol=1e-10)
        logdets = [np.linalg.slogdet(s.ellipsoid.shape)[1] for s in (cold, warm)]
        assert abs(logdets[0] - logdets[1]) <= 3 * np.log1p(2 * tol)

    @pytest.mark.parametrize("start", [
        np.full(3, 0.25), [0.5, 0.5, -0.1, 0.1], [0.5, np.nan, 0.25, 0.25], np.zeros(4),
    ])
    def test_bad_start_rejected(self, start):
        with pytest.raises(ValueError):
            fw_solve(CROSS, start=start)

    def test_start_on_two_points_falls_back(self):
        # Two weighted points of a plane cloud cannot span its lifted space.
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((30, 2))
        start = np.zeros(30)
        start[[3, 7]] = 1.0
        sol = fw_solve(pts, tol=1e-9, start=start)
        assert sol.converged
        assert kkt_residual(sol, pts) <= 10 * 1e-9 * 3

    def test_restart_at_the_optimum_of_thin_clouds_is_certified(self):
        # The thin-cloud family of the coverage test, cond(shape) up to
        # about 1e10.  A start at the optimum takes no pass: its kappa is
        # read as 1 + ||w||^2 in its own frame, where M(start) = I, and its
        # shape is returned with the factor that whitened the cloud.  The
        # KKT residual is recomputed from scratch, so that assuming M = I
        # cannot hide a gap.
        tol = 1e-7
        for seed in range(120):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 3, 80))
            pts = rng.standard_normal((m, n))
            pts[:, 0] *= 10.0 ** -rng.uniform(1, 2)
            pts = pts @ rng.standard_normal((n, n))
            for offset in (0.0, 10.0):
                cloud = pts + offset * rng.standard_normal(n)
                cold = fw_solve(cloud, tol=tol)
                warm = fw_solve(cloud, tol=tol, start=cold.weights)
                e = warm.ellipsoid
                assert warm.converged and warm.iterations == 0, (seed, offset)
                assert np.all(e.quadratic_form(cloud) <= 1.0 + 2 * tol), (seed, offset)
                assert kkt_residual(warm, cloud) <= 10 * tol * (n + 1), (seed, offset)

    def test_capped_start_is_scaled_to_cover_its_cloud(self):
        # With no pass allowed, the start itself is returned, its shape and
        # the factor that whitened the cloud scaled to cover every point.
        rng = np.random.default_rng(15)
        pts = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 3))
        sol = fw_solve(pts, tol=1e-9, max_iter=0, start=np.full(50, 1.0))
        assert not sol.converged and sol.iterations == 0
        assert sol.coverage_scale == sol.whitened_scale > 1.0
        assert contains(sol.ellipsoid, pts, 1e-12).all()
        np.testing.assert_allclose(
            sol.ellipsoid.shape, sol.coverage_scale * 3 * np.cov(pts.T, bias=True), rtol=1e-12)

    @pytest.mark.parametrize("converges", [True, False])
    def test_a_solve_that_stops_at_its_start_returns_its_frame(self, converges):
        # A start whose certificate meets tol (the design optimum on an
        # affine image of the design), or a start off the optimum with no
        # pass allowed, is returned from its own frame bit for bit: center
        # c0, shape n s sym(L0 L0^T) and factor sqrt(n s) L0, with s =
        # max(1, (max kappa - 1) / n), at logdet 0 and 0 passes.
        rng = np.random.default_rng(38)
        if converges:
            n, max_iter, start = 4, None, _design_optimum(200, 4)
            pts = _design(200, n) @ rng.standard_normal((n, n)).T + rng.standard_normal(n)
        else:
            n, max_iter, start = 3, 0, rng.random(50)
            pts = rng.standard_normal((50, n)) @ rng.standard_normal((n, n))
        sol = fw_solve(pts, max_iter=max_iter, start=start)
        mu = start / start.sum()
        c0, l0, yt, _ = mvee._start_frame(pts, mu)
        top = np.einsum("ij,ij->i", yt, yt).max()  # 1 + ||w_i||^2
        s = max(1.0, (top - 1.0) / n)
        assert sol.converged == converges and (converges or s > 1.0)
        assert same_bits(sol.ellipsoid.center, c0)
        assert same_bits(sol.ellipsoid.shape, n * s * symmetrize(l0 @ l0.T))
        assert same_bits(sol.ellipsoid.factor(), np.sqrt(n * s) * l0)
        assert same_bits(sol.weights, mu)
        assert same_bits(sol.objective_path, [0.0])
        assert sol.duality_gap == top - (n + 1) and sol.iterations == 0
        assert sol.coverage_scale == sol.whitened_scale == s

    def test_start_failing_the_rank_margin_solves_cold(self):
        # Weight on n points (a flat start), on one point, or on points
        # along one line: S0 is singular, and the solve is the cold one.
        rng = np.random.default_rng(14)
        for n in (2, 3, 4):
            pts = rng.standard_normal((40, n)) @ rng.standard_normal((n, n))
            pts[5] = 0.5 * (pts[3] + pts[4])
            cold = fw_solve(pts, tol=1e-9)
            for support in (range(n), [7], [3, 4, 5]):
                start = np.zeros(40)
                start[list(support)] = 1.0
                warm = fw_solve(pts, tol=1e-9, start=start)
                assert warm.iterations == cold.iterations
                np.testing.assert_array_equal(warm.weights, cold.weights)
                np.testing.assert_array_equal(warm.ellipsoid.shape, cold.ellipsoid.shape)

    def test_start_off_the_optimum_reaches_the_cold_logdet(self):
        # Passes taken in the start's frame end where the cold solve does:
        # both shapes cover the cloud and lie within n log(1 + 2 tol) above
        # the minimum volume.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 10, 120))
            pts = rng.standard_normal((m, n)) @ rng.standard_normal((n, n))
            start = rng.random(m) * (rng.random(m) < 0.5)
            start[rng.integers(m)] = 1.0
            for tol in (1e-5, 1e-7):
                cold = fw_solve(pts, tol=tol)
                warm = fw_solve(pts, tol=tol, start=start)
                assert warm.converged and warm.iterations > 0
                assert np.all(np.diff(warm.objective_path) >= 0)
                logdets = [np.linalg.slogdet(s.ellipsoid.shape)[1] for s in (cold, warm)]
                assert abs(logdets[0] - logdets[1]) <= n * np.log1p(2 * tol), (seed, tol)


def weighted_factor(pts, mu) -> np.ndarray:
    """R of the QR factorisation of the weighted deviations, L0^T up to
    the signs of its rows, as _start_frame forms it."""
    act = np.flatnonzero(mu)
    c0 = mu[act] @ pts[act]
    return np.linalg.qr(np.sqrt(mu[act])[:, None] * (pts[act] - c0), mode="r")


def svd_margin_accepts(pts, mu) -> bool:
    """The start frame's rank margin taken on the singular values of its
    factor: sigma_min^2 > sigma_max^2 d 1e-14."""
    sv = np.linalg.svd(weighted_factor(pts, mu), compute_uv=False)
    return bool(sv[-1] ** 2 > sv[0] ** 2 * (pts.shape[1] + 1) * 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("thin", [1.0, 1e-5])
def test_start_frame_factor_is_the_mode_r_factor_bit_for_bit(n, thin):
    # L0 read off the raw QR output is the R^T of mode "r" with its
    # columns' signs flipped to a positive diagonal, bit for bit (signs of
    # zeros included), on every support size from n + 1 to d(d+1)/2, on
    # round clouds and on thin ones, whose S0 has cond about 1e10.
    d = n + 1
    rng = np.random.default_rng(100 * n + int(thin < 1.0))
    for support in range(n + 1, d * (d + 1) // 2 + 1):
        for _ in range(3):
            pts = rng.standard_normal((40, n))
            pts[:, 0] *= thin
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            pts = pts @ q.T + 5.0 * rng.standard_normal(n)
            mu = np.zeros(40)
            mu[rng.choice(40, support, replace=False)] = rng.random(support) + 0.1
            mu /= mu.sum()
            r = weighted_factor(pts, mu)
            frame = mvee._start_frame(pts, mu)
            assert frame is not None, (n, support)
            if thin < 1.0 and n > 1:
                assert np.linalg.cond(frame[1]) ** 2 > 1e9
            assert frame[1].tobytes() == (r.T * np.sign(r.diagonal())).tobytes()
            assert frame[0].tobytes() == (mu[mu > 0] @ pts[mu > 0]).tobytes()


class TestStartFrameMargin:
    """_start_frame reads its rank margin off L0 and L0^{-1} through
    cond(L0)^2 <= ||L0||_F^2 ||L0^{-1}||_F^2 <= n^2 cond(L0)^2."""

    @staticmethod
    def supports():
        # Random weights on random supports of clouds with one axis shrunk
        # by 10^-U(0, 9): cond(L0)^2 from about 1 to far past the margin's
        # 1 / (d 1e-14), which it crosses near a shrink of 10^-6.5.
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 6))
            m = int(rng.integers(n + 2, 40))
            pts = rng.standard_normal((m, n))
            pts[:, 0] *= 10.0 ** -rng.uniform(0, 9)
            pts = pts @ rng.standard_normal((n, n)) + 10.0 * rng.standard_normal(n)
            mu = rng.random(m) * (rng.random(m) < 0.6)
            mu[rng.choice(m, n + 1, replace=False)] += 0.1
            yield pts, mu / mu.sum()

    def test_never_accepts_a_frame_the_singular_values_reject(self):
        accepted = rejected = 0
        for pts, mu in self.supports():
            frame = mvee._start_frame(pts, mu)
            if frame is not None:
                assert svd_margin_accepts(pts, mu)
                accepted += 1
            rejected += not svd_margin_accepts(pts, mu)
        assert accepted > 100 and rejected > 50

    def test_accepts_every_frame_n_squared_inside_the_margin(self):
        inside = 0
        for pts, mu in self.supports():
            n = pts.shape[1]
            r = weighted_factor(pts, mu)
            sv = np.linalg.svd(r, compute_uv=False)
            if (sv[0] / sv[-1]) ** 2 * n * n < 0.5 / ((n + 1) * 1e-14):
                l0 = mvee._start_frame(pts, mu)[1]
                np.testing.assert_allclose(l0 @ l0.T, r.T @ r, rtol=1e-12,
                                           atol=1e-12 * sv[0] ** 2)
                inside += 1
        assert inside > 100

    def test_exactly_flat_weighted_points_give_no_frame(self):
        # A zero pivot in L0 (a coordinate constant over the weighted
        # points) has no inverse: no frame, and the solve starts cold.
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((30, 3))
        start = np.zeros(30)
        start[:8] = 1.0
        pts[:8, 2] = 0.25
        assert mvee._start_frame(pts, start / start.sum()) is None
        cold = fw_solve(pts, tol=1e-9)
        warm = fw_solve(pts, tol=1e-9, start=start)
        np.testing.assert_array_equal(warm.weights, cold.weights)

    def test_restarts_across_the_margin_are_certified(self):
        # Thinner than the thin-cloud family of TestWarmStart, so that
        # some restarts at the optimum fail the margin and solve cold.
        # Either way the restart converges, with its whitened scale within
        # the certificate's bound, and covers its cloud within 2 tol; one
        # whose frame is accepted takes no pass.
        tol = 1e-7
        warm_starts = cold_starts = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(n + 3, 60))
            pts = rng.standard_normal((m, n))
            pts[:, 0] *= 10.0 ** -rng.uniform(4, 8)
            pts = pts @ rng.standard_normal((n, n))
            cold = fw_solve(pts, tol=tol)
            warm = fw_solve(pts, tol=tol, start=cold.weights)
            assert warm.converged, seed
            assert 1.0 <= warm.whitened_scale <= 1.0 + (n + 1) * tol / n, seed
            assert contains(warm.ellipsoid, pts, 2 * tol).all(), seed
            if mvee._start_frame(pts, np.asarray(cold.weights)) is not None:
                assert warm.iterations == 0, seed
                warm_starts += 1
            else:
                cold_starts += 1
        assert warm_starts > 0 and cold_starts > 0


class TestSolveFactor:
    def test_a_cold_solve_keeps_the_cholesky_factor_of_its_shape(self):
        # A solve with no start returns the shape mapped back from
        # whitened coordinates, factored once by spd_cholesky; a coverage
        # scale scales that factor with it.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6))
            pts = rng.standard_normal((int(rng.integers(n + 2, 80)), n))
            sol = fw_solve(pts @ rng.standard_normal((n, n)), tol=1e-7)
            chol, shape = sol.ellipsoid.factor(), sol.ellipsoid.shape
            assert np.array_equal(chol, np.tril(chol)) and np.all(np.diag(chol) > 0.0)
            np.testing.assert_allclose(chol @ chol.T, shape, rtol=0,
                                       atol=1e-14 * np.abs(shape).max())
            if sol.coverage_scale == 1.0:
                assert np.array_equal(chol, np.linalg.cholesky(shape))


class TestDenseStarts:
    """Weight on more points than an optimal support needs, d(d+1)/2, is
    moved onto at most that many with M unchanged, and the Newton steps
    follow, where plain Frank-Wolfe passes used to run on to the cap."""

    @staticmethod
    def robot_first_cloud():
        scenario = build_scenario("robot")
        model = build_model(scenario)
        e0 = initial_estimate(scenario, np.random.default_rng(3))
        return model.f(e0.center + _design(200, 3) @ e0.factor().T, 0)

    @pytest.mark.parametrize("support", [200, 10])
    def test_robot_first_cloud_from_a_dense_start(self, support):
        # The filter's budget; both starts ran to max_iter = 1000 before.
        cloud = self.robot_first_cloud()
        start = np.zeros(200)
        start[:support] = 1.0
        sol = fw_solve(cloud, tol=1e-5, max_iter=1000, start=start)
        assert sol.converged and sol.iterations <= 40
        assert np.count_nonzero(sol.weights) <= 10
        assert np.all(np.diff(sol.objective_path) >= 0)

    def test_random_starts_converge_in_few_passes(self):
        # At the standalone defaults these took 50 to 300 passes.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            m = int(rng.integers(3 * n * n, 200))
            pts = rng.standard_normal((m, n)) @ rng.standard_normal((n, n))
            sol = fw_solve(pts, start=rng.random(m), max_iter=1000)
            assert sol.converged and sol.iterations <= 40, seed
            assert kkt_residual(sol, pts) <= 10 * mvee.DEFAULT_TOL * (n + 1), seed

    def test_shrink_keeps_the_moment_matrix(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            d = n + 1
            face_max = d * (d + 1) // 2
            yt = lift(rng.standard_normal((60, n)))
            mu = rng.random(60)
            mu[::7] = 0.0
            mu /= mu.sum()
            before = yt.T @ (mu[:, None] * yt)
            act = mvee._shrink_support(yt, mu, np.flatnonzero(mu), face_max)
            np.testing.assert_array_equal(act, np.flatnonzero(mu))
            assert act.size <= face_max
            assert np.all(mu >= 0.0) and mu.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(yt.T @ (mu[:, None] * yt), before, atol=1e-12)


class TestFactor:
    """The moment-matrix factor rejects a non-finite matrix before eigh,
    whose handling of NaN and inf numpy leaves unspecified."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 2)])
    def test_non_finite_entry_gives_none(self, bad, where):
        mmat = np.diag([0.5, 1.0, 2.0])
        mmat[where] = mmat[where[::-1]] = bad
        assert mvee._factor(mmat, 3) is None

    def test_finite_matrix_factored(self):
        minv, logdet = mvee._factor(np.diag([0.5, 1.0, 2.0]), 3)
        np.testing.assert_allclose(minv, np.diag([2.0, 1.0, 0.5]))
        assert logdet == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=1, max_value=79),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    boundary=st.booleans(),
    tol=st.sampled_from([1e-5, 1e-7, 1e-9]),
    warm=st.booleans(),
)
@example(n=5, extra=32, seed=4521978, boundary=False, tol=1e-7, warm=False)
@example(n=4, extra=18, seed=14769, boundary=False, tol=1e-9, warm=True)
def test_solve_invariants_on_spanning_clouds(n, extra, seed, boundary, tol, warm):
    # The small start, a random sparse start and the face Newton step must
    # never turn a spanning cloud into a collapsed-support error, leave the
    # simplex, or lower the objective; a converged solve covers its cloud.
    rng = np.random.default_rng(seed)
    m = min(n + 1 + extra, 80)
    pts = rng.standard_normal((m, n))
    if boundary and n > 1:  # the 1-D "sphere" is two points
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts @ rng.standard_normal((n, n)) + rng.standard_normal(n)
    start = None
    if warm:
        start = rng.random(m) * (rng.random(m) < 0.3)
        start[rng.integers(m)] = 1.0  # a positive sum
    sol = fw_solve(pts, tol=tol, start=start)
    mu = sol.weights
    assert np.all(mu >= 0.0) and mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(sol.objective_path) >= 0)
    if sol.converged:
        assert contains(sol.ellipsoid, pts, 2 * tol).all()


class TestLineSearch:
    def test_closed_form_beats_grid_on_reference_run(self):
        # Re-run the iteration with public primitives; at each visited
        # iterate the closed-form step must dominate a fine gamma grid.
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((15, 2))
        m, n = pts.shape
        d = n + 1
        mu = np.full(m, 1.0 / m)
        grid = np.linspace(0.0, 0.999, 1000)
        for _ in range(25):
            kappa = fw_gradient(pts, mu)
            i = int(np.argmax(kappa))
            gamma = line_search_step(kappa[i], d)
            base = dual_objective(pts, mu)

            def obj_at(g):
                trial = (1 - g) * mu
                trial[i] += g
                try:
                    return dual_objective(pts, trial)
                except RankDeficiencyError:
                    return -np.inf

            star = obj_at(gamma)
            vals = np.array([obj_at(g) for g in grid])
            assert star >= vals.max() - 1e-12 * max(1.0, abs(star))
            assert star >= base
            mu = (1 - gamma) * mu
            mu[i] += gamma

    def test_step_formula_sign(self):
        assert line_search_step(5.0, 3) > 0
        assert line_search_step(2.0, 3) < 0
        assert line_search_step(3.0, 3) == 0.0


class TestKktResidual:
    def test_triangle_uniform_zero(self):
        sol = fw_solve(TRIANGLE, tol=1e-9)
        assert kkt_residual(sol, TRIANGLE) <= 1e-10

    def test_solved_instance_scaled_by_tolerance(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((50, 2))
        tol = 1e-9
        sol = fw_solve(pts, tol=tol)
        assert sol.converged
        assert kkt_residual(sol, pts) <= 10 * tol * 3

    def test_unconverged_has_large_residual(self):
        rng = np.random.default_rng(9)
        pts = rng.random((40, 2)) * [3.0, 1.0]
        tol = 1e-9
        sol = fw_solve(pts, tol=tol, max_iter=1)
        assert not sol.converged
        assert kkt_residual(sol, pts) > tol * 3


class TestEnclose:
    def test_linear_image_oracle(self):
        # The image of an ellipsoid under a linear map is an ellipsoid with
        # center F c and shape F P F^T; the sampled enclosure approximates it.
        rng = np.random.default_rng(10)
        e = Ellipsoid([1.0, -1.0], np.array([[2.0, 0.3], [0.3, 1.0]]))
        f_mat = np.array([[1.2, -0.4], [0.5, 0.9]])
        pts = sample_boundary(e, 500, rng) @ f_mat.T
        out = fw_solve(pts, tol=1e-8).ellipsoid
        want_shape = f_mat @ e.shape @ f_mat.T
        want_center = f_mat @ e.center
        np.testing.assert_allclose(out.center, want_center, atol=0.05)
        err = np.linalg.norm(out.shape - want_shape) / np.linalg.norm(want_shape)
        assert err <= 0.05

    def test_all_points_contained(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((100, 3))
        out = fw_solve(pts, tol=1e-7).ellipsoid
        assert contains(out, pts, 1e-6).all()

    def test_degenerate_singleton_errors(self):
        with pytest.raises(RankDeficiencyError):
            fw_solve(np.ones((8, 2)))
