"""Tests of the benchmark's own checkers.

    python3 -m pytest smbench/test_checks.py
"""

import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from source import import_smfilter  # noqa: E402


def regular_simplex(n: int) -> np.ndarray:
    """The n+1 vertices of a regular simplex in R^n, centred at the origin,
    with circumradius sqrt(n / (n + 1))."""
    corners = np.eye(n + 1) - 1.0 / (n + 1)
    basis, _ = np.linalg.qr(corners.T)
    return corners @ basis[:, :n]


def test_min_volume_of_unit_circle_points_is_the_unit_disk():
    ang = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    assert abs(checks.min_volume_logdet(circle)) < 1e-8
    # Interior points do not change the minimum.
    rng = np.random.default_rng(0)
    inner = 0.9 * rng.uniform(-0.7, 0.7, (30, 2))
    assert abs(checks.min_volume_logdet(np.vstack([circle, inner]))) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_volume_of_regular_simplex_is_its_circumscribed_ball(n):
    # Shape r^2 I with r^2 = n / (n + 1).
    expected = n * np.log(n / (n + 1.0))
    assert abs(checks.min_volume_logdet(regular_simplex(n)) - expected) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_volume_of_any_simplex_has_uniform_weights(n):
    # With n+1 affinely independent points every weight is 1/(n+1), so the
    # shape is n times their covariance.
    rng = np.random.default_rng(n)
    vertices = 100.0 + rng.standard_normal((n + 1, n)) @ rng.standard_normal((n, n))
    dev = vertices - vertices.mean(axis=0)
    expected = np.linalg.slogdet(n * dev.T @ dev / (n + 1))[1]
    assert abs(checks.min_volume_logdet(vertices) - expected) < 1e-8


def test_quadratic_form_flags_a_point_just_outside():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    shape = a @ a.T + np.eye(3)
    center = np.array([1.0, -2.0, 3.0])
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    on_boundary = center + np.linalg.cholesky(shape) @ u
    slack = workloads.CONTAINMENT_SLACK
    outside = center + (1.0 + slack) * (on_boundary - center)
    inside = center + (1.0 - slack) * (on_boundary - center)
    q = checks.quadratic_forms(center, shape, np.stack([outside, inside]))
    assert q[0] > 1.0 + slack
    assert q[1] < 1.0


def test_edited_cloud_file_fails_loudly(tmp_path):
    copy = tmp_path / "clouds.npz"
    shutil.copy(checks.CLOUDS, copy)
    assert checks.load_clouds(copy)  # the stored file matches its digest
    data = bytearray(copy.read_bytes())
    data[-100] ^= 1
    copy.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="SHA-256"):
        checks.load_clouds(copy)


def _functions(mods):
    return {(name, attr): obj for name, module in mods.items()
            for attr, obj in vars(module).items() if callable(obj)}


def test_tracer_restores_every_wrapped_function(tmp_path, monkeypatch):
    mods = import_smfilter()
    before = _functions(mods)
    monkeypatch.setattr(workloads, "CYCLES", 1)
    spec = workloads.Workload("radar", ("dsmf", "esmf", "ukf"), runs=1, steps=11)
    opts = mods["dsmf"].FilterOptions()
    with tracer.Tracer(mods) as tr:
        assert _functions(mods) != before
        workloads.workload_round(mods, spec, 0, _stored_order(2), opts.tol, opts.max_iter,
                                 tmp_path)
    assert {s.name for s in tr.spans} >= {"dsmf.step", "mvee.fw_solve", "baselines.ukf_step"}
    after = _functions(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    mods = import_smfilter()
    before = _functions(mods)
    with pytest.raises(ValueError):
        with tracer.Tracer(mods):
            mods["mvee"].fw_solve(np.zeros((5, 2)), tol=-1.0)
    after = _functions(mods)
    assert all(after[key] is before[key] for key in before)


def test_replay_counts_a_solve_that_leaves_its_cloud_as_failed(monkeypatch):
    mods = import_smfilter()
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    order = [(circle, 0.0)]
    opts = mods["dsmf"].FilterOptions()
    good = workloads.replay(mods, order, opts.tol, opts.max_iter)
    assert (good.failed, good.correct) == (0, True)

    solve = mods["mvee"].fw_solve

    def shrunk(points, **kwargs):
        sol = solve(points, **kwargs)
        e = sol.ellipsoid
        return type(sol)(**{**sol.__dict__, "ellipsoid": type(e)(e.center, 0.999 * e.shape)})

    monkeypatch.setattr(mods["mvee"], "fw_solve", shrunk)
    bad = workloads.replay(mods, order, opts.tol, opts.max_iter)
    assert bad.failed == 1


def _replay_with_shape(monkeypatch, mods, order, scale_of):
    """replay over `order`, with every returned shape multiplied by
    scale_of(ellipsoid, points)."""
    solve = mods["mvee"].fw_solve

    def rescaled(points, **kwargs):
        sol = solve(points, **kwargs)
        e = sol.ellipsoid
        shape = scale_of(e, points) * e.shape
        return type(sol)(**{**sol.__dict__, "ellipsoid": type(e)(e.center, shape)})

    monkeypatch.setattr(mods["mvee"], "fw_solve", rescaled)
    opts = mods["dsmf"].FilterOptions()
    return workloads.replay(mods, order, opts.tol, opts.max_iter)


def _stored_order(count):
    clouds = checks.load_clouds()
    return workloads.replay_order(clouds, "robot", 0)[:count]


def test_replay_accepts_a_shape_scaled_to_cover_its_cloud(monkeypatch):
    # A certified solve scales the dual shape by max(1, max_i q_i) so that
    # it covers every point; the check must accept it, capped or not.
    mods = import_smfilter()
    order = _stored_order(40)
    opts = mods["dsmf"].FilterOptions()
    plain = workloads.replay(mods, order, opts.tol, opts.max_iter)
    assert plain.failed > 0  # capped solves that leave their cloud
    cover = _replay_with_shape(
        monkeypatch, mods, order,
        lambda e, pts: max(1.0, checks.quadratic_forms(e.center, e.shape, pts).max()))
    assert (cover.failed, cover.correct) == (0, True)


def test_replay_rejects_a_shape_larger_than_the_minimum(monkeypatch):
    mods = import_smfilter()
    ang = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    order = [(np.stack([np.cos(ang), np.sin(ang)], axis=1), 0.0)]
    loose = _replay_with_shape(monkeypatch, mods, order, lambda e, pts: 1.01)
    assert (loose.failed, loose.correct) == (0, False)
