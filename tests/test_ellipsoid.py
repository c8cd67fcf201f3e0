import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smfilter.ellipsoid import (
    Ellipsoid,
    Stack,
    _stacked,
    contains,
    covering_sum,
    ellipsoids,
    optimal_p,
    sample_interior,
    spd_cholesky,
    symmetrize,
)
from smfilter.errors import SpdError

from reference import minkowski_outer, random_spd, same_bits, sample_boundary


def unit_ball(n):
    return Ellipsoid(np.zeros(n), np.eye(n))


class TestEllipsoidType:
    def test_validates_symmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            Ellipsoid([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(SpdError):
            Ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Ellipsoid([0.0, 0.0, 0.0], np.eye(2))

    def test_factor_reproduces_shape(self):
        rng = np.random.default_rng(0)
        p = random_spd(rng, 3)
        e = Ellipsoid(rng.standard_normal(3), p)
        np.testing.assert_allclose(e.factor() @ e.factor().T, e.shape,
                                   rtol=0, atol=1e-12 * np.abs(p).max())

    def test_immutable(self):
        e = unit_ball(2)
        with pytest.raises(ValueError):
            e.shape[0, 0] = 5.0

    def test_scaled_divides_every_quadratic_form(self):
        # An ill-conditioned shape: a new factorisation of the scaled shape
        # would move these forms by far more than a few roundings.
        rng = np.random.default_rng(3)
        vec = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        p = symmetrize((vec * np.logspace(0, 10, 4)) @ vec.T)
        e = Ellipsoid(rng.standard_normal(4), p)
        pts = e.center + rng.standard_normal((200, 4)) @ e.factor().T
        out = e.scaled(1.0 + 3e-9)
        np.testing.assert_array_equal(out.center, e.center)
        np.testing.assert_array_equal(out.shape, (1.0 + 3e-9) * e.shape)
        assert not out.shape.flags.writeable and not out.factor().flags.writeable
        np.testing.assert_allclose(out.quadratic_form(pts) * (1.0 + 3e-9),
                                   e.quadratic_form(pts), rtol=1e-11)
        with pytest.raises(ValueError):
            e.scaled(0.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite_shape(self, entry, where):
        # numpy's Cholesky returned a NaN or infinite factor for some of
        # these without raising, and contains then put every point outside.
        p = np.eye(2)
        p[where] = p[where[::-1]] = entry
        with pytest.raises(SpdError, match="non-finite"):
            spd_cholesky(p)
        with pytest.raises(SpdError, match="non-finite"):
            Ellipsoid([0.0, 0.0], p)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_center(self, entry):
        with pytest.raises(ValueError, match="center has a non-finite entry"):
            Ellipsoid([entry, 0.0], np.eye(2))

    def test_jitter_recovers_marginal_matrix(self):
        # Symmetric, eigenvalue exactly 0: the one-shot jitter makes it SPD.
        p = np.array([[1.0, 1.0], [1.0, 1.0]])
        chol, fixed = spd_cholesky(p)
        assert np.linalg.eigvalsh(fixed).min() > 0

    def test_spd_cholesky_returns_the_matrix_it_was_given(self):
        p = random_spd(np.random.default_rng(4), 3)
        assert spd_cholesky(p)[1] is p

    @pytest.mark.parametrize("skew", [0.0, 1e-15])
    def test_the_caller_s_shape_stays_writable_and_unshared(self, skew):
        # Exactly symmetric, or asymmetric within SYM_RTOL: either way the
        # stored shape is a copy, and the caller's array is not frozen.
        p = random_spd(np.random.default_rng(5), 3)
        p[0, 1] += skew
        assert (p == p.T).all() == (skew == 0.0)
        e = Ellipsoid(np.zeros(3), p)
        assert p.flags.writeable and not np.shares_memory(p, e.shape)
        assert not e.shape.flags.writeable


class TestStacks:
    """spd_cholesky of an (R, n, n) stack and ellipsoids of stacked centers
    and shapes: one call over the stack, each matrix with the bits of a call
    on it alone."""

    def stack(self, rng, count=6, n=4):
        shapes = np.array([random_spd(rng, n, 10.0 ** rng.uniform(-3, 3)) for _ in range(count)])
        shapes[1::2] *= 1.0 + 1e-15 * rng.standard_normal((count // 2, n, n))
        return shapes  # the odd ones a little asymmetric

    def test_spd_cholesky_of_a_stack_is_each_matrix_alone(self):
        shapes = self.stack(np.random.default_rng(30))
        chols, used = spd_cholesky(shapes)
        for p, chol, p_used in zip(shapes, chols, used, strict=True):
            want_chol, want_used = spd_cholesky(p)
            assert same_bits(chol, want_chol) and same_bits(p_used, want_used)

    def test_a_matrix_that_needs_the_jitter_retry_gets_its_own(self):
        shapes = self.stack(np.random.default_rng(31), count=3, n=2)
        shapes[1] = [[1.0, 1.0], [1.0, 1.0]]
        chols, used = spd_cholesky(shapes)
        for p, chol, p_used in zip(shapes, chols, used, strict=True):
            want_chol, want_used = spd_cholesky(p)
            assert same_bits(chol, want_chol) and same_bits(p_used, want_used)
        assert same_bits(used[0], symmetrize(shapes[0])) and not same_bits(used[1], shapes[1])

    @pytest.mark.parametrize("bad,match", [
        (np.diag([1.0, -1.0]), "not positive definite"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
    ])
    def test_one_bad_matrix_fails_the_stack(self, bad, match):
        shapes = np.array([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(SpdError, match=match):
            spd_cholesky(shapes, what="stacked matrix")

    def test_ellipsoids_are_each_ellipsoid_alone(self):
        rng = np.random.default_rng(32)
        shapes = self.stack(rng)
        centers = rng.standard_normal((6, 4))
        got = ellipsoids(centers.copy(), shapes.copy())
        for e, c, p in zip(got, centers, shapes, strict=True):
            want = Ellipsoid(c, p)
            for a, b in ((e.center, want.center), (e.shape, want.shape),
                         (e.factor(), want.factor())):
                assert same_bits(a, b) and not a.flags.writeable

    @pytest.mark.parametrize("where,entry,error,match", [
        ("center", np.nan, ValueError, "center has a non-finite entry"),
        ("shape", np.inf, SpdError, "non-finite"),
        ("shape", np.nan, SpdError, "non-finite"),
        ("asymmetric", 1e-6, ValueError, "not symmetric"),
        ("indefinite", -1.0, SpdError, "not positive definite"),
    ])
    def test_ellipsoids_make_each_check_of_ellipsoid(self, where, entry, error, match):
        centers, shapes = np.zeros((3, 2)), np.array([np.eye(2)] * 3)
        if where == "center":
            centers[1, 0] = entry
        elif where == "shape":
            shapes[1, 0, 1] = shapes[1, 1, 0] = entry
        elif where == "asymmetric":
            shapes[1, 0, 1] = entry
        else:
            shapes[1, 1, 1] = entry
        with pytest.raises(error, match=match):
            Ellipsoid(centers[1], shapes[1])
        with pytest.raises(error, match=match):
            ellipsoids(centers, shapes)

    def test_a_stack_keeps_its_arrays_and_makes_each_set_once(self):
        rng = np.random.default_rng(33)
        shapes, centers = self.stack(rng), rng.standard_normal((6, 4))
        got = ellipsoids(centers, shapes)
        assert isinstance(got, Stack) and len(got) == 6
        # The stacks are the arrays it was given, now read-only, and not copied.
        kept = _stacked(got)
        assert kept[0] is centers and not centers.flags.writeable
        assert all(not a.flags.writeable for a in kept)
        assert got[2] is got[2] and list(got)[2] is got[2]
        assert [e.center.tolist() for e in got[1:3]] == centers[1:3].tolist()
        # A list of sets is stacked, row r being set r.
        again = _stacked(list(got))
        assert all(same_bits(a, b) for a, b in zip(again, kept, strict=True))

    def test_covering_sums_of_a_stack_are_each_sum_alone(self):
        rng = np.random.default_rng(34)
        a, b = self.stack(rng), random_spd(rng, 4)
        a = symmetrize(a)
        p = optimal_p(a, b)
        assert p.shape == (6,)
        got = covering_sum(a, b, p)
        for a_r, p_r, out in zip(a, p, got, strict=True):
            assert p_r == optimal_p(a_r, b)
            assert same_bits(out, covering_sum(a_r, b, optimal_p(a_r, b)))


class TestContains:
    def test_center_inside(self):
        assert contains(unit_ball(2), np.zeros(2), 0.0)

    def test_boundary_counts(self):
        assert contains(unit_ball(2), np.array([1.0, 0.0]), 0.0)

    def test_hand_computed_threshold(self):
        # {center (10,20), shape 30 I}: (10+sqrt(30), 20) is exactly on the
        # boundary; nudging past it leaves the set.
        e = Ellipsoid([10.0, 20.0], 30.0 * np.eye(2))
        on = np.array([10.0 + np.sqrt(30.0), 20.0])
        out = np.array([10.0 + np.sqrt(30.0) + 0.01, 20.0])
        assert contains(e, on, 1e-12)
        assert not contains(e, out, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains(unit_ball(2), np.zeros(3), 0.0)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            contains(unit_ball(2), np.zeros(2), -1e-3)

    def test_batch(self):
        e = unit_ball(2)
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(contains(e, pts, 0.0), [True, False])


class TestSampling:
    def test_boundary_1d_is_two_points(self):
        rng = np.random.default_rng(1)
        pts = sample_boundary(unit_ball(1), 20, rng)
        np.testing.assert_allclose(np.abs(pts), 1.0, atol=1e-14)

    def test_boundary_on_quadratic_form_one(self):
        rng = np.random.default_rng(2)
        e = Ellipsoid([1.0, -2.0, 0.5], random_spd(rng, 3))
        pts = sample_boundary(e, 500, rng)
        np.testing.assert_allclose(e.quadratic_form(pts), 1.0, atol=1e-9)

    def test_boundary_mean_near_center(self):
        rng = np.random.default_rng(3)
        pts = sample_boundary(unit_ball(2), 10_000, rng)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.05

    def test_interior_mean_1d(self):
        rng = np.random.default_rng(4)
        pts = sample_interior(unit_ball(1), 100_000, rng)
        assert abs(pts.mean()) < 0.02

    def test_interior_all_contained(self):
        rng = np.random.default_rng(5)
        e = Ellipsoid([3.0, 4.0], random_spd(rng, 2))
        pts = sample_interior(e, 2000, rng)
        assert contains(e, pts, 0.0).all()

    def test_single_interior_point(self):
        rng = np.random.default_rng(6)
        pts = sample_interior(unit_ball(3), 1, rng)
        assert pts.shape == (1, 3)
        assert contains(unit_ball(3), pts[0], 0.0)

    def test_m_must_be_positive(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError):
            sample_boundary(unit_ball(2), 0, rng)

    def test_interior_radius_distribution(self):
        # r^(1/n) transform: P(||x|| <= r) = r^n for the unit ball.
        rng = np.random.default_rng(8)
        pts = sample_interior(unit_ball(2), 50_000, rng)
        radii = np.linalg.norm(pts, axis=1)
        frac_half = (radii <= 0.5).mean()
        assert abs(frac_half - 0.25) < 0.01


class TestMinkowskiOuter:
    def test_identity_example(self):
        e = unit_ball(2)
        out = minkowski_outer(e, np.eye(2), 1.0)
        np.testing.assert_allclose(out.shape, 4.0 * np.eye(2), atol=1e-14)

    def test_formula_example(self):
        out = minkowski_outer(unit_ball(2), 4.0 * np.eye(2), 0.5)
        np.testing.assert_allclose(out.shape, 9.0 * np.eye(2), atol=1e-14)

    def test_center_unchanged(self):
        e = Ellipsoid([5.0, -1.0], 2.0 * np.eye(2))
        out = minkowski_outer(e, np.eye(2), 0.3)
        np.testing.assert_array_equal(out.center, e.center)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            minkowski_outer(unit_ball(2), np.eye(2), 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_outer(unit_ball(2), np.eye(3), 1.0)

    @pytest.mark.parametrize("p", [0.2, 1.0, 5.0])
    def test_containment_monte_carlo(self, p):
        # Sums of points from the two sets stay inside the covering set.
        rng = np.random.default_rng(9)
        ef = Ellipsoid([1.0, 2.0], random_spd(rng, 2))
        q = random_spd(rng, 2, scale=0.5)
        out = minkowski_outer(ef, q, p)
        xs = sample_boundary(ef, 1000, rng)
        ws = sample_boundary(Ellipsoid(np.zeros(2), q), 1000, rng)
        assert contains(out, xs + ws, 1e-9).all()

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_covering_sum_is_its_shape(self, n):
        # The matrix form skips minkowski_outer's checks of q, not its value.
        rng = np.random.default_rng(12)
        for _ in range(5):
            ef = Ellipsoid(rng.standard_normal(n), random_spd(rng, n))
            q = random_spd(rng, n, scale=rng.uniform(0.01, 3.0))
            p = float(rng.uniform(0.05, 20.0))
            np.testing.assert_array_equal(covering_sum(ef.shape, q, p),
                                          minkowski_outer(ef, q, p).shape)


class TestOptimalP:
    def test_equal_traces(self):
        assert optimal_p(np.eye(3), np.eye(3)) == pytest.approx(1.0)

    def test_formula_example(self):
        p = optimal_p(np.eye(2), 4.0 * np.eye(2))
        assert p == pytest.approx(0.5)
        out = minkowski_outer(unit_ball(2), 4.0 * np.eye(2), p)
        assert np.trace(out.shape) == pytest.approx((np.sqrt(2) + np.sqrt(8)) ** 2)

    def test_grid_oracle(self):
        # Brute-force 1-D check that p* minimizes the covering-sum trace.
        rng = np.random.default_rng(10)
        pf = random_spd(rng, 3)
        q = random_spd(rng, 3, scale=2.0)
        p_star = optimal_p(pf, q)

        def trace_at(p):
            return (1 + 1 / p) * np.trace(pf) + (1 + p) * np.trace(q)

        grid = np.logspace(-2, 2, 400)
        assert trace_at(p_star) <= min(trace_at(p) for p in grid) + 1e-9

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pf = random_spd(rng, 4)
            q = random_spd(rng, 4, scale=3.0)
            p_star = optimal_p(pf, q)
            got = (1 + 1 / p_star) * np.trace(pf) + (1 + p_star) * np.trace(q)
            want = (np.sqrt(np.trace(pf)) + np.sqrt(np.trace(q))) ** 2
            assert abs(got - want) <= 1e-10 * want


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    p=st.floats(min_value=1e-3, max_value=1e3),
)
def test_spd_preserved_by_covering_sum(n, seed, p):
    rng = np.random.default_rng(seed)
    ef = Ellipsoid(rng.standard_normal(n), random_spd(rng, n))
    q = random_spd(rng, n)
    out = minkowski_outer(ef, q, p)
    assert np.linalg.eigvalsh(symmetrize(out.shape)).min() > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_trace_optimality_on_log_grid(seed):
    rng = np.random.default_rng(seed)
    pf = random_spd(rng, 2)
    q = random_spd(rng, 2)
    p_star = optimal_p(pf, q)
    star = np.trace(minkowski_outer(Ellipsoid(np.zeros(2), pf), q, p_star).shape)
    for p in np.logspace(-2, 2, 200):
        assert star <= np.trace(
            minkowski_outer(Ellipsoid(np.zeros(2), pf), q, float(p)).shape
        ) + 1e-9 * star
