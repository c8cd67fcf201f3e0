"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  The Monte Carlo criteria reuse
module-scoped experiment fixtures; all randomness is seeded.
"""

import time

import numpy as np
import pytest

from smfilter.dsmf import (
    FilterOptions,
    SystemModel,
    fuse,
    optimize_rho,
    step,
)
from smfilter.ellipsoid import (
    Ellipsoid,
    contains,
    optimal_p,
    sample_interior,
    symmetrize,
)
from smfilter.errors import RankDeficiencyError
from smfilter.harness import (
    RunConfig,
    affine_fit_r2,
    bench_mvee,
    emit_outputs,
    run_experiment,
    sweep_sigma,
)
from smfilter.mvee import fw_solve, line_search_step

from reference import dual_objective, fw_gradient, kkt_residual

TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
CROSS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def report(num, label, ok):
    print(f"\nACCEPTANCE {num:>2} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def random_spd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n))
    return symmetrize(a @ a.T + n * scale * np.eye(n))


def fused_traces(pred, meas, e_p, rhos):
    """Trace of the classical fused shape (1-delta) [(1-rho) P^-1 + rho
    E_p^T P_z^-1 E_p]^-1 at every rho of a grid, in one stacked call; +inf
    where delta >= 1 (the sets cannot intersect)."""
    rho = np.asarray(rhos, dtype=float)[:, None, None]
    p, p_z = pred.shape, meas.shape
    gram = e_p @ p @ e_p.T / (1.0 - rho) + p_z / rho
    innov = meas.center - e_p @ pred.center
    sol = np.linalg.solve(gram, np.broadcast_to(innov[:, None], gram.shape[:-1] + (1,)))
    delta = (innov @ sol)[:, 0]
    bracket = (1.0 - rho) * np.linalg.inv(p) + rho * (e_p.T @ np.linalg.inv(p_z) @ e_p)
    traces = (1.0 - delta) * np.trace(np.linalg.inv(bracket), axis1=1, axis2=2)
    return np.where(delta >= 1.0, np.inf, traces)


@pytest.fixture(scope="module")
def criterion2_solves():
    """50 random clouds solved at the default tolerance, with timings."""
    rng = np.random.default_rng(2024)
    tol = 1e-7
    out = []
    t0 = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(max(rng.integers(20, 201), n + 2))
        pts = rng.standard_normal((m, n))
        sol = fw_solve(pts, tol=tol)
        out.append((pts, sol, n))
    elapsed = time.perf_counter() - t0
    return out, tol, elapsed


@pytest.fixture(scope="module")
def radar_experiment():
    config = RunConfig(scenario="radar", filters=("dsmf", "esmf", "ukf"),
                       runs=50, master_seed=0)
    t0 = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def robot_experiment():
    config = RunConfig(scenario="robot", filters=("dsmf", "esmf"),
                       runs=50, master_seed=0)
    t0 = time.perf_counter()
    result = run_experiment(config)
    return result, time.perf_counter() - t0


def test_criterion_01_mvee_oracle_equivalence():
    t0 = time.perf_counter()
    tri = fw_solve(TRIANGLE, tol=1e-9)
    cross = fw_solve(CROSS, tol=1e-9)
    elapsed = time.perf_counter() - t0
    tri_shape = 2.0 * np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
    ok = (
        np.linalg.norm(tri.ellipsoid.center - [1 / 3, 1 / 3]) <= 1e-6
        and np.linalg.norm(tri.ellipsoid.shape - tri_shape) <= 1e-6
        and np.linalg.norm(cross.ellipsoid.center) <= 1e-6
        and np.linalg.norm(cross.ellipsoid.shape - np.eye(2)) <= 1e-6
        and elapsed < 1.0
    )
    report(1, "enclosing-ellipsoid hand instances", ok)


def test_criterion_02_kkt_certificates(criterion2_solves):
    solves, tol, elapsed = criterion2_solves
    worst = 0.0
    contained = True
    for pts, sol, n in solves:
        assert sol.converged
        worst = max(worst, kkt_residual(sol, pts) / (10 * tol * (n + 1)))
        contained &= bool(contains(sol.ellipsoid, pts, 10 * tol).all())
    ok = worst <= 1.0 and contained and elapsed < 30.0
    print(f"\n  worst kkt ratio {worst:.3f}, total solve time {elapsed:.2f}s")
    report(2, "KKT certificates on 50 random clouds", ok)


def test_criterion_03_monotone_ascent_and_step_optimality(criterion2_solves):
    solves, _, _ = criterion2_solves
    monotone = all(
        np.all(np.diff(sol.objective_path) >= 0) for _, sol, _ in solves
    )

    # Step optimality: replay the iteration rule with public primitives on
    # a sample of instances and beat a 1e3-point grid at every checked
    # iteration, for both toward and away steps.
    rng = np.random.default_rng(7)
    optimal = True
    for _ in range(5):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(10, 25))
        pts = rng.standard_normal((m, n))
        d = n + 1
        mu = np.full(m, 1.0 / m)
        for _ in range(12):
            kappa = fw_gradient(pts, mu)
            ip = int(np.argmax(kappa))
            ia = int(np.argmin(np.where(mu > 0, kappa, np.inf)))
            toward = kappa[ip] - d >= d - kappa[ia]
            i = ip if toward else ia
            gamma = line_search_step(kappa[i], d)
            lo = 0.0 if toward else -mu[i] / (1.0 - mu[i])
            hi = 0.999 if toward else 0.0
            gamma = min(max(gamma, lo), hi)

            def obj_at(g):
                trial = (1 - g) * mu
                trial[i] += g
                trial = np.maximum(trial, 0.0)
                try:
                    return dual_objective(pts, trial)
                except RankDeficiencyError:
                    return -np.inf

            star = obj_at(gamma)
            grid = np.linspace(lo, hi, 1000)
            vals = np.array([obj_at(g) for g in grid])
            if star < vals.max() - 1e-12 * max(1.0, abs(star)):
                optimal = False
            mu = (1 - gamma) * mu
            mu[i] = max(mu[i] + gamma, 0.0)
    ok = monotone and optimal
    report(3, "monotone dual ascent and exact line search", ok)


def test_criterion_04_solver_timing_and_scaling():
    cells = bench_mvee([2, 6], [1000], trials=20)
    by_n = {row["n"]: row["fw_time_s"] for row in cells}
    print(f"\n  (n=2, m=1000): {by_n[2]*1e3:.1f} ms  "
          f"(n=6, m=1000): {by_n[6]*1e3:.1f} ms")

    # The O(m) share of one iteration is a few nanoseconds per point, so
    # the scaling law is measured where it dominates the fixed per-call
    # overhead; below m ~ 1000 the fit sees mostly scheduler noise.  Each
    # cell's per-iteration time is its minimum over 10 trials, so that a
    # slow stretch must last through all of them to bend the fit.
    scaling = bench_mvee([6], [1000, 2000, 4000, 6000, 8000], trials=10)
    _, _, r2 = affine_fit_r2(
        [row["m"] for row in scaling],
        [row["time_per_iter_s"] for row in scaling],
    )
    print(f"  per-iteration affine fit R^2 = {r2:.4f}")
    ok = by_n[2] <= 0.1 and by_n[6] <= 0.5 and r2 >= 0.9
    report(4, "solver wall time and per-iteration scaling", ok)


def test_criterion_05_covering_sum_p_star():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    ok = True
    grid = np.logspace(-2, 2, 200)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pf = random_spd(rng, n)
        q = random_spd(rng, n, scale=float(rng.uniform(0.2, 3.0)))
        p_star = optimal_p(pf, q)
        t_star = (1 + 1 / p_star) * np.trace(pf) + (1 + p_star) * np.trace(q)
        want = (np.sqrt(np.trace(pf)) + np.sqrt(np.trace(q))) ** 2
        if abs(t_star - want) > 1e-10 * want:
            ok = False
        traces = (1 + 1 / grid) * np.trace(pf) + (1 + grid) * np.trace(q)
        if t_star > traces.min() + 1e-12 * want:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(5, "covering-sum trace identity and grid argmin", ok)


def test_criterion_06_fusion_containment_and_rho_oracle():
    rng = np.random.default_rng(6)
    e_p = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    containment_ok = True
    for pair in range(100):
        witness = rng.standard_normal(3)
        pred = Ellipsoid(witness + 0.15 * rng.standard_normal(3),
                         random_spd(rng, 3))
        meas = Ellipsoid(e_p @ witness + 0.15 * rng.standard_normal(2),
                         random_spd(rng, 2))
        cand = sample_interior(pred, 30_000, rng)
        inside = contains(meas, cand @ e_p.T, 0.0)
        inter = cand[inside][:1000]
        assert inter.shape[0] >= 1000, "intersection sampling starved"
        for rho in (0.1, 0.5, 0.9):
            center, shape, _ = fuse(pred, meas, e_p, rho)
            if not contains(Ellipsoid(center, shape), inter, 1e-9).all():
                containment_ok = False

    # The rho search vs brute-force grid argmin of the classical fused trace
    # (20 of the pairs).
    grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
    oracle_ok = True
    for pair in range(20):
        witness = rng.standard_normal(3)
        pred = Ellipsoid(witness + 0.15 * rng.standard_normal(3),
                         random_spd(rng, 3))
        meas = Ellipsoid(e_p @ witness + 0.15 * rng.standard_normal(2),
                         random_spd(rng, 2))
        params = optimize_rho(pred, meas, e_p)
        best = grid[int(np.argmin(fused_traces(pred, meas, e_p, grid)))]
        if abs(params.rho - best) > 1e-4:
            oracle_ok = False
    ok = containment_ok and oracle_ok
    report(6, "fusion containment and rho grid oracle", ok)


def test_criterion_07_linear_model_degeneration():
    f_mat = np.array([[1.0, 0.1], [0.0, 1.0]])
    e_p = np.array([[1.0, 0.0]])
    q = 0.05 * np.eye(2)
    r = np.array([[0.1]])
    model = SystemModel(
        f=lambda x, k: np.asarray(x) @ f_mat.T,
        h=lambda x: np.asarray(x) @ e_p.T,
        h_inv=lambda y, v, aux: y - np.atleast_2d(v),
        E_p=e_p, Q=q, R=r,
        f_jac=lambda x, k: f_mat, h_jac=lambda x: e_p,
        f_remainder=lambda e, k: np.zeros(2), h_remainder=lambda e: np.zeros(1),
    )
    e0 = Ellipsoid([1.0, -0.5], 0.5 * np.eye(2))
    y = np.array([1.15])

    # Analytic linear set-membership oracle.
    image = Ellipsoid(f_mat @ e0.center,
                      symmetrize(f_mat @ e0.shape @ f_mat.T))
    p_star = optimal_p(image.shape, q)
    pred = Ellipsoid(image.center,
                     (1 + 1 / p_star) * image.shape + (1 + p_star) * q)
    meas = Ellipsoid(y, r)

    # Full sampled filter step at m = 500.
    rec = step(e0, model, y, 0, FilterOptions(m_samples=500, tol=1e-8,
                                              max_iter=None))
    oracle_params = optimize_rho(pred, meas, e_p)
    center, shape, _ = fuse(pred, meas, e_p, oracle_params.rho)
    dsmf_err = np.linalg.norm(rec.updated.shape - shape) / np.linalg.norm(shape)

    # The linearizing baseline must agree with the oracle formulas exactly
    # (zero remainder): compare at its own chosen rho.
    from smfilter.baselines import esmf_predict, esmf_update

    e_pred = esmf_predict(e0, model, 0)
    pred_err = np.linalg.norm(e_pred.shape - pred.shape)
    updated, params = esmf_update(e_pred, model, y)
    center2, shape2, _ = fuse(pred, meas, e_p, params.rho)
    esmf_err = max(
        pred_err,
        np.linalg.norm(updated.shape - shape2),
        np.linalg.norm(updated.center - center2),
    )
    print(f"\n  sampled-step shape error {dsmf_err:.4f}, "
          f"linearizing-baseline error {esmf_err:.2e}")
    ok = dsmf_err <= 0.05 and esmf_err <= 1e-10
    report(7, "linear-model degeneration to the linear filter", ok)


def test_criterion_08_radar_scenario(radar_experiment):
    result, elapsed = radar_experiment
    rows = result.metrics
    tr_dsmf = np.mean([r.trace for r in rows if r.filter == "dsmf" and r.k > 10])
    tr_esmf = np.mean([r.trace for r in rows if r.filter == "esmf" and r.k > 10])
    cont = np.mean([r.contained for r in rows if r.filter == "dsmf"])
    ukf_violation = any(r.contained < 1.0 for r in rows if r.filter == "ukf")
    print(f"\n  mean trace after step 10: dsmf {tr_dsmf:.4g}, esmf {tr_esmf:.4g}")
    print(f"  dsmf containment rate {cont:.4f}; ukf 3-sigma violation "
          f"{ukf_violation}; elapsed {elapsed:.0f}s")
    ok = (tr_dsmf < tr_esmf) and cont >= 0.99 and ukf_violation and elapsed < 600
    report(8, "radar scenario ordering and containment", ok)


def test_criterion_09_robot_scenario(robot_experiment):
    result, elapsed = robot_experiment
    rows = result.metrics

    def avg(name, attr):
        return float(np.mean([getattr(r, attr) for r in rows
                              if r.filter == name]))

    px_d, px_e = avg("dsmf", "rmse_x"), avg("esmf", "rmse_x")
    th_d, th_e = avg("dsmf", "rmse_theta"), avg("esmf", "rmse_theta")
    print(f"\n  time-averaged RMSE px: dsmf {px_d:.4f} vs esmf {px_e:.4f}")
    print(f"  time-averaged RMSE theta: dsmf {th_d:.5f} vs esmf {th_e:.5f}; "
          f"elapsed {elapsed:.0f}s")
    ok = px_d < px_e and th_d < th_e and elapsed < 600
    report(9, "robot scenario RMSE ordering", ok)


def test_criterion_10_sigma_sweep():
    rows = sweep_sigma(np.arange(5.0, 51.0, 5.0), replicates=50,
                       master_seed=0)
    slope_d, _, _ = affine_fit_r2([r["sigma"] for r in rows],
                                  [r["dsmf_logdet"] for r in rows])
    slope_e, _, _ = affine_fit_r2([r["sigma"] for r in rows],
                                  [r["esmf_logdet"] for r in rows])
    print(f"\n  logdet-vs-sigma slopes: dsmf {slope_d:.5f}, esmf {slope_e:.5f}")
    report(10, "posterior growth slope vs prior size", slope_d < slope_e)


def test_criterion_11_determinism(tmp_path):
    config = RunConfig(scenario="radar", filters=("dsmf", "esmf", "ukf"),
                       runs=2, steps=3, master_seed=123)
    for sub in ("first", "second"):
        emit_outputs(run_experiment(config), tmp_path / sub)
    same_metrics = (tmp_path / "first" / "metrics.csv").read_bytes() == \
        (tmp_path / "second" / "metrics.csv").read_bytes()
    same_summary = (tmp_path / "first" / "summary.json").read_bytes() == \
        (tmp_path / "second" / "summary.json").read_bytes()
    report(11, "byte-identical outputs for identical configs",
           same_metrics and same_summary)
