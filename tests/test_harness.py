import dataclasses
import itertools
import json
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from smfilter import dsmf, harness, mvee, scenarios
from smfilter.cli import _config_from_args, build_parser
from smfilter.cli import main as cli_main
from smfilter.baselines import esmf_predict, esmf_step
from smfilter.dsmf import FilterOptions, StepRecord, _prediction_start, predict, step
from smfilter.ellipsoid import Ellipsoid, contains
from smfilter.errors import (ConfigError, EmptyIntersectionError, NumericalError,
                             RankDeficiencyError, SpdError)
from smfilter.harness import (
    RunConfig,
    affine_fit_r2,
    bench_mvee,
    emit_outputs,
    mix_seed,
    parse_config,
    run_experiment,
)
from smfilter.scenarios import build_model, build_scenario, simulate_truth

from reference import metrics_by_step, position_outline, read_sets

TINY = dict(scenario="radar", filters=("dsmf", "esmf", "ukf"), runs=2, steps=3,
            master_seed=11)


@pytest.fixture(scope="module")
def tiny_result():
    return run_experiment(RunConfig(**TINY))


class TestMixSeed:
    def test_deterministic(self):
        assert mix_seed(42, 0) == mix_seed(42, 0)

    def test_spreads_indices(self):
        seeds = {mix_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_64_bit_range(self):
        s = mix_seed(2**63, 999)
        assert 0 <= s < 2**64


class TestRunConfig:
    def test_validate_rejects_unknown_scenario(self):
        with pytest.raises(ConfigError):
            RunConfig(scenario="lidar").validate()

    def test_validate_rejects_empty_filters(self):
        with pytest.raises(ConfigError):
            RunConfig(filters=()).validate()

    def test_validate_rejects_unknown_filter(self):
        with pytest.raises(ConfigError):
            RunConfig(filters=("dsmf", "pf")).validate()

    def test_repeated_filter_rejected(self, tmp_path, capsys):
        # A repeated name used to run that filter twice per run, write each
        # of its metrics rows twice and count its failures twice.
        with pytest.raises(ConfigError, match=r"repeated filters \['dsmf'\]"):
            RunConfig(filters=("dsmf", "esmf", "dsmf")).validate()
        path = tmp_path / "run.cfg"
        path.write_text("scenario = robot\nfilters = ukf, esmf, ukf, esmf\n")
        with pytest.raises(ConfigError, match=r"repeated filters \['esmf', 'ukf'\]"):
            parse_config(path)
        code = cli_main(["simulate", "--scenario", "robot", "--filters", "dsmf,esmf,dsmf",
                         "--runs", "1", "--steps", "2", "--out", str(tmp_path / "out")])
        assert code == 2 and "repeated filters" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_rejects_bad_runs(self):
        with pytest.raises(ConfigError):
            RunConfig(runs=0).validate()

    @pytest.mark.parametrize("field, value", [("runs", 2.5), ("steps", 2.5),
                                              ("m_samples", 200.5)])
    def test_validate_rejects_non_integer_counts(self, field, value):
        # Config files and CLI flags read these as int; through the Python
        # API a float used to reach range() or the design's seed as a
        # TypeError.
        config = RunConfig(**{"runs": 2, "steps": 2, field: value})
        with pytest.raises(ConfigError, match=field):
            config.validate()
        with pytest.raises(ConfigError, match=field):
            run_experiment(config)

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_validate_runs_no_truth_step(self, monkeypatch, preset):
        # The check is declared: it reads the preset, its model and f and h
        # at x0, and neither simulates a truth nor draws an initial set.
        def refuse(*args, **kwargs):
            raise AssertionError("validate ran a truth step or drew e0")

        monkeypatch.setattr(harness, "simulate_truth", refuse)
        monkeypatch.setattr(harness, "initial_estimate", refuse)
        config = RunConfig(scenario=preset, filters=("dsmf", "esmf", "ukf"))
        assert config.validate() is config

    def test_validate_rejects_nan_tol(self):
        # A NaN tol never meets the certificate, and an infinite one is met
        # at every solve's start; the filter options reject both.
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                RunConfig(tol=tol).validate()

    def test_validate_rejects_an_overflowing_override(self):
        # The radar Q takes T**3 in Python floats, which raises
        # OverflowError rather than returning inf.
        with pytest.raises(ConfigError, match="bad config for radar"):
            RunConfig(scenario="radar", scenario_overrides={"T": 1e200}).validate()

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 1.5), ("master_seed", "7"), ("master_seed", np.int64(3)),
        ("runs", np.int64(2)), ("steps", np.int64(2)), ("m_samples", np.int64(200)),
        ("tol", "1e-5"), ("tol", np.float32(1e-5))])
    def test_validate_rejects_what_the_run_or_summary_cannot_take(self, field, value):
        # A float or string seed used to pass validate and fail in mix_seed
        # with a TypeError, a numpy integer seed with an OverflowError; a
        # numpy count or tol used to run and then fail json.dumps in
        # emit_outputs, after metrics.csv was written.
        config = RunConfig(**{"runs": 1, "steps": 2, field: value})
        with pytest.raises(ConfigError, match=field):
            config.validate()
        with pytest.raises(ConfigError, match=field):
            run_experiment(config)

    @pytest.mark.parametrize("field, value", [
        ("out_dir", Path("x")), ("record_timing", np.bool_(True)),
        ("scenario_overrides", {"T": np.float32(1.0)}),
        ("scenario_overrides", {"steps": np.int64(5)})],
        ids=["out_dir-Path", "record_timing-np.bool_", "T-np.float32", "steps-np.int64"])
    def test_validate_rejects_what_summary_json_cannot_record(self, tmp_path, monkeypatch,
                                                              field, value):
        # Each used to pass validate and run_experiment, then fail
        # json.dumps in emit_outputs with a TypeError after metrics.csv was
        # written.
        monkeypatch.chdir(tmp_path)
        config = RunConfig(**{"runs": 1, "steps": 2, field: value})
        with pytest.raises(ConfigError, match="cannot be recorded in summary.json"):
            config.validate()
        with pytest.raises(ConfigError, match="cannot be recorded in summary.json"):
            emit_outputs(run_experiment(config), config.out_dir)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", [-3, 2**70])
    def test_any_python_int_seed_runs_and_emits(self, tmp_path, seed):
        config = RunConfig(runs=2, steps=2, master_seed=seed).validate()
        emit_outputs(run_experiment(config), tmp_path)
        assert json.loads((tmp_path / "summary.json").read_text())["config"]["master_seed"] \
            == seed

    @pytest.mark.parametrize("preset,floor", [("radar", 5), ("robot", 4)])
    def test_m_samples_floor_is_state_dim_plus_one(self, preset, floor):
        # Fewer design points than state_dim + 1 used to pass the constant
        # floor of 4 and fail inside the first prediction (radar, 4).
        config = RunConfig(scenario=preset, runs=1, steps=1, m_samples=floor - 1)
        with pytest.raises(ConfigError, match="m_samples"):
            config.validate()
        with pytest.raises(ConfigError, match="m_samples"):
            run_experiment(config)
        RunConfig(scenario=preset, m_samples=floor).validate()


class TestParseConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "scenario = robot\n"
            "filters = dsmf, esmf\n"
            "runs = 3\n"
            "steps = 10\n"
            "master_seed = 99\n"
            "m_samples = 150\n"
            "tol = 1e-6\n"
            "out_dir = results\n"
            "\n"
            "[scenario]\n"
            "u_p = 0.1\n"
            "landmark = (40.0, 60.0)\n"
        )
        cfg = parse_config(path)
        assert cfg.scenario == "robot"
        assert cfg.filters == ("dsmf", "esmf")
        assert cfg.runs == 3 and cfg.steps == 10
        assert cfg.master_seed == 99 and cfg.m_samples == 150
        assert cfg.tol == 1e-6
        assert cfg.scenario_overrides == {"u_p": 0.1, "landmark": (40.0, 60.0)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = radar\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_literal_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("scenario = robot\n[scenario]\nu_p = not a number\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("preset,field", [("radar", "T"), ("robot", "T0")])
    def test_sampling_interval_override_keeps_its_case(self, tmp_path, preset, field):
        # ConfigParser lowercases keys by default, which turned T into an
        # unknown preset field t and crashed with a TypeError.
        path = tmp_path / "run.cfg"
        path.write_text(f"scenario = {preset}\n[scenario]\n{field} = 2.0\n")
        cfg = parse_config(path)
        assert cfg.scenario_overrides == {field: 2.0}
        assert getattr(build_scenario(cfg.scenario, **cfg.scenario_overrides),
                       field) == 2.0

    def test_top_level_keys_stay_case_insensitive(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("Scenario = robot\nRUNS = 3\n")
        cfg = parse_config(path)
        assert cfg.scenario == "robot" and cfg.runs == 3
        path.write_text("runs = 2\nRUNS = 3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("override", [
        "bogus = 1", "u_r = 0.0", "T = 2.0", "steps = 0", "steps = 2.5",
        "init_offset = 4.0", "init_offset = 0.0"])
    def test_override_the_preset_rejects(self, tmp_path, override):
        # An unknown field (T is radar's, not robot's) or a value the preset
        # refuses is a configuration error, not a traceback.  The preset's
        # run length must be an integer of at least 1, and init_offset must
        # lie in (0, 1], else e0 need not hold x0.
        path = tmp_path / "run.cfg"
        path.write_text(f"scenario = robot\n[scenario]\n{override}\n")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestRunExperiment:
    def test_metrics_shape(self, tiny_result):
        rows = tiny_result.metrics
        assert len(rows) == 3 * 3  # filters x steps
        assert {r.filter for r in rows} == {"dsmf", "esmf", "ukf"}

    def test_rmse_matches_independent_recompute(self, tiny_result):
        # Recompute RMSE from the raw per-step records (not the estimate
        # arrays the metrics pass consumed) and compare to the table.
        res = tiny_result
        steps = res.runs[0].measurements.shape[0]
        centers = np.stack([
            [rec.updated.center for rec in log.filters["dsmf"].records]
            for log in res.runs
        ])
        err = np.stack([
            centers[i] - log.truth[1:] for i, log in enumerate(res.runs)
        ])
        rmse0 = np.sqrt((err[:, :, 0] ** 2).mean(axis=0))
        got = [r.rmse_x for r in res.metrics if r.filter == "dsmf"]
        assert len(got) == steps
        np.testing.assert_allclose(got, rmse0, atol=1e-12)

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_metrics_match_the_per_step_means_for_any_run_count(self, preset):
        # One mean per figure over (steps, runs) sums each step's runs in
        # the order of its own (runs,) column, bit for bit; a mean over
        # axis 0 of (runs, steps) would not from three runs up.
        scenario = build_scenario(preset)
        n, steps = (4, 7) if preset == "radar" else (3, 7)
        config = RunConfig(scenario=preset, filters=("dsmf", "ukf"))
        rng = np.random.default_rng(5)
        for count in (1, 2, 3, 8, 9, 13):
            runs = []
            for r in range(count):
                logs = {name: harness.FilterRunLog(
                    estimates=rng.standard_normal((steps, n)) * 10.0 ** rng.uniform(-3, 3),
                    sets=[], contained=rng.random(steps) < 0.7,
                    traces=rng.random(steps) * 10.0 ** rng.uniform(-2, 6),
                    logdets=np.where(rng.random(steps) < 0.1, -np.inf,
                                     rng.standard_normal(steps)),
                    times=rng.random(steps) * 1e-3, failures=0, records=[])
                    for name in config.filters}
                truth = rng.standard_normal((steps + 1, n))
                runs.append(harness.RunLog(r, r, truth, None, logs))
            got = harness.compute_metrics(config, scenario, runs, steps)
            want = metrics_by_step(config, scenario, runs, steps)
            assert [repr(r) for r in got] == [repr(r) for r in want], count

    def test_deterministic_across_calls(self):
        # Everything except measured wall time must repeat exactly.
        a = run_experiment(RunConfig(**TINY))
        b = run_experiment(RunConfig(**TINY))
        for ra, rb in zip(a.metrics, b.metrics):
            for field in ("k", "filter", "trace", "logdet", "rmse_x",
                          "contained"):
                assert getattr(ra, field) == getattr(rb, field)

    def test_dsmf_does_not_depend_on_the_filter_order(self):
        # The dual filter draws no random numbers, so the per-filter stream
        # its position in `filters` selects cannot change its sets.
        base = dict(scenario="radar", runs=1, steps=3, master_seed=3)
        first = run_experiment(RunConfig(filters=("dsmf", "esmf"), **base))
        second = run_experiment(RunConfig(filters=("esmf", "dsmf"), **base))
        a, b = first.runs[0].filters["dsmf"], second.runs[0].filters["dsmf"]
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.traces, b.traces)

    @pytest.mark.parametrize("scenario", ["radar", "robot"])
    def test_esmf_does_not_depend_on_the_other_filters(self, scenario):
        # esmf draws no random numbers (its remainder bounds are the
        # model's closed forms), so its sets are the same alone and behind
        # two other filters.
        base = dict(scenario=scenario, runs=2, steps=4, master_seed=8)
        alone = run_experiment(RunConfig(filters=("esmf",), **base))
        behind = run_experiment(RunConfig(filters=("dsmf", "ukf", "esmf"), **base))
        for run_a, run_b in zip(alone.runs, behind.runs, strict=True):
            for a, b in zip(run_a.filters["esmf"].sets, run_b.filters["esmf"].sets,
                            strict=True):
                assert np.array_equal(a.center, b.center)
                assert np.array_equal(a.shape, b.shape)

    @pytest.mark.parametrize("scenario", ["radar", "robot"])
    def test_stacked_figures_are_the_per_set_figures(self, scenario):
        # A run reads the center, containment, trace and logdet of all its
        # sets in one stacked call each; they must be the values of the
        # per-set calls, bit for bit.
        result = run_experiment(RunConfig(scenario=scenario, filters=harness.KNOWN_FILTERS,
                                          runs=3, steps=12, master_seed=5))
        for run in result.runs:
            for log in run.filters.values():
                assert log.estimates.tolist() == [e.center.tolist() for e in log.sets]
                assert log.contained.tolist() == [
                    bool(contains(e, run.truth[k + 1], harness.CONTAINMENT_SLACK))
                    for k, e in enumerate(log.sets)]
                assert log.traces.tolist() == [float(np.trace(e.shape)) for e in log.sets]
                assert log.logdets.tolist() == [
                    float(np.linalg.slogdet(e.shape)[1]) for e in log.sets]

    @pytest.mark.parametrize("scenario", ["radar", "robot"])
    def test_no_run_s_sets_depend_on_the_run_count(self, scenario):
        # Every filter steps all runs together; runs 0 and 1 of three runs
        # must still be, bit for bit, the runs of one and of two.
        by_count = {runs: run_experiment(RunConfig(
            scenario=scenario, filters=harness.KNOWN_FILTERS, runs=runs, steps=6,
            master_seed=21)) for runs in (1, 2, 3)}
        for runs in (1, 2):
            for r in range(runs):
                for name in harness.KNOWN_FILTERS:
                    want = by_count[runs].runs[r].filters[name].sets
                    got = by_count[3].runs[r].filters[name].sets
                    assert len(got) == len(want) == 6
                    for a, b in zip(got, want):
                        assert a.center.tobytes() == b.center.tobytes()
                        assert a.shape.tobytes() == b.shape.tobytes()

    @staticmethod
    def esmf_alone(e0, model, ys):
        """The esmf sets of one run stepped alone, a batch of one, carried
        by its prediction at a step that raises NumericalError; and the
        number of such steps."""
        sets, failures, e = [], 0, e0
        for k in range(len(ys)):
            try:
                (e,) = esmf_step([e], model, ys[k:k + 1], k)
            except NumericalError:
                failures += 1
                (e,) = esmf_predict([e], model, k)
            sets.append(e)
        return sets, failures

    @staticmethod
    def e0s_of(monkeypatch):
        """The initial sets run_experiment draws, in run order, all in one
        call of initial_estimate on every run's generator."""
        e0s, real = [], harness.initial_estimate

        def initial(*args):
            assert not e0s, "initial_estimate was called twice"
            e0s.extend(real(*args))
            return e0s

        monkeypatch.setattr(harness, "initial_estimate", initial)
        return e0s

    @pytest.mark.parametrize("runs", [1, 2, 5])
    @pytest.mark.parametrize("scenario", ["radar", "robot"])
    def test_each_run_s_esmf_sets_are_its_sets_alone(self, monkeypatch, scenario, runs):
        # esmf steps all runs in one stacked call per step; every run's sets
        # must be, bit for bit, those of the run stepped alone.
        e0s = self.e0s_of(monkeypatch)
        result = run_experiment(RunConfig(scenario=scenario, filters=("esmf",), runs=runs,
                                          steps=6, master_seed=23))
        assert len(e0s) == runs
        for e0, run in zip(e0s, result.runs, strict=True):
            want, failures = self.esmf_alone(e0, result.model, run.measurements)
            assert failures == run.filters["esmf"].failures == 0
            for a, b in zip(run.filters["esmf"].sets, want, strict=True):
                assert np.array_equal(a.center, b.center)
                assert np.array_equal(a.shape, b.shape)

    def test_the_esmf_steps_every_run_in_one_call_per_step(self, monkeypatch):
        # As the ukf: one esmf_step call per step on all runs' sets, and
        # each run's time for the step is that call's time divided by R.
        calls, real = [], harness.esmf_step

        def counted(beliefs, model, ys, k):
            calls.append((len(beliefs), ys.shape, k))
            return real(beliefs, model, ys, k)

        monkeypatch.setattr(harness, "esmf_step", counted)
        monkeypatch.setattr(harness, "time", SimpleNamespace(
            perf_counter=itertools.count().__next__))
        result = run_experiment(RunConfig(scenario="robot", filters=("esmf",), runs=3,
                                          steps=4, master_seed=2))
        assert calls == [(3, (3, 2), k) for k in range(4)]
        assert [run.filters["esmf"].times.tolist() for run in result.runs] == [[1 / 3] * 4] * 3

    def test_the_ukf_steps_every_run_in_one_call_per_step(self, monkeypatch):
        # One ukf_step call per step, on all runs' beliefs and an (R, l)
        # array of their measurements; each run's time for the step is that
        # call's time divided by R.
        calls, real = [], harness.ukf_step

        def counted(beliefs, model, ys, k):
            calls.append((len(beliefs), ys.shape, k))
            return real(beliefs, model, ys, k)

        monkeypatch.setattr(harness, "ukf_step", counted)
        # A clock that advances by 1 s per reading: each call takes 1 s.
        monkeypatch.setattr(harness, "time", SimpleNamespace(
            perf_counter=itertools.count().__next__))
        result = run_experiment(RunConfig(scenario="robot", filters=("ukf",), runs=3,
                                          steps=4, master_seed=2))
        assert calls == [(3, (3, 2), k) for k in range(4)]
        assert [run.filters["ukf"].times.tolist() for run in result.runs] == [[1 / 3] * 4] * 3

    def test_logdet_of_a_stack_keeps_the_sign_rule(self):
        stack = np.array([np.diag([2.0, 3.0]), np.diag([1.0, -1.0]), np.zeros((2, 2))])
        out = harness._logdet(stack)
        assert out[0] == pytest.approx(np.log(6.0)) and out[1:].tolist() == [-np.inf, -np.inf]
        assert float(harness._logdet(np.diag([-1.0, 2.0]))) == -np.inf

    def test_one_truth_roll_out_per_experiment(self, monkeypatch):
        # Every run's truth comes from one lockstep roll-out, which carries
        # each run's generator, seeded as mix_seed gives it.
        calls = []

        def counted(scenario, model, rngs, **kwargs):
            calls.append([g.bit_generator.state for g in rngs])  # as yet undrawn
            return simulate_truth(scenario, model, rngs, **kwargs)

        monkeypatch.setattr(harness, "simulate_truth", counted)
        result = run_experiment(RunConfig(filters=("ukf",), runs=3, steps=2, master_seed=8))
        assert calls == [[np.random.default_rng([seed, 0]).bit_generator.state
                          for seed in result.seeds]]
        assert [run.truth.shape for run in result.runs] == [(3, 4)] * 3

    def test_unvalidated_wrong_length_override_is_a_config_error(self):
        # An override the model reads is checked when the model is built:
        # the robot q_diag used to raise a bare ValueError and the radar
        # r_diag an SpdError.
        for preset, override in (("radar", {"x0": (1.0, 2.0)}),
                                 ("robot", {"q_diag": (1e-6, 1e-6)}),
                                 ("radar", {"r_diag": (100.0, -1.0)})):
            config = RunConfig(scenario=preset, runs=1, steps=1,
                               scenario_overrides=override)
            with pytest.raises(ConfigError):
                run_experiment(config)

    def test_one_model_per_experiment(self, monkeypatch, tmp_path):
        # harness calls build_model by its own name, scenarios by its
        # module's; the truth of every run and the outputs reuse the one
        # model of the experiment.
        calls = []

        def counted(scenario):
            calls.append(scenario)
            return build_model(scenario)

        monkeypatch.setattr(harness, "build_model", counted)
        monkeypatch.setattr(scenarios, "build_model", counted)
        for runs in (1, 3):
            calls.clear()
            result = run_experiment(RunConfig(scenario="robot", filters=("dsmf", "ukf"),
                                              runs=runs, steps=2))
            assert len(calls) == 1
            emit_outputs(result, tmp_path / str(runs))
            assert len(calls) == 1

    def test_seeds_recorded(self, tiny_result):
        assert tiny_result.seeds == [mix_seed(11, 0), mix_seed(11, 1)]

    def test_radar_rmse_theta_is_nan(self, tiny_result):
        assert all(np.isnan(r.rmse_theta) for r in tiny_result.metrics)


class TestFirstPredictionStart:
    """Every run's first dsmf prediction starts from the optimum over the
    image of the preset's nominal set {x0, P0}, solved once per process for
    each nominal cloud."""

    @staticmethod
    def spied(monkeypatch, nominal=None):
        """Record the start of every dsmf step by step index, and replace
        the nominal solve with nominal when given."""
        starts = []

        def spy(e, model, y, k, opts, start=None):
            starts.append((k, start))
            return step(e, model, y, k, opts, start)

        monkeypatch.setattr(harness, "step", spy)
        if nominal is not None:
            monkeypatch.setattr(harness, "_prediction_start", nominal)
        return starts

    @staticmethod
    def assert_same_sets(a, b):
        for run_a, run_b in zip(a.runs, b.runs, strict=True):
            for ea, eb in zip(run_a.filters["dsmf"].sets, run_b.filters["dsmf"].sets,
                              strict=True):
                np.testing.assert_array_equal(ea.center, eb.center)
                np.testing.assert_array_equal(ea.shape, eb.shape)

    def test_robot_first_predictions_take_few_passes(self, monkeypatch):
        # From the design optimum each took 18 passes.
        calls = []

        def counted(*args):
            calls.append(args)
            return _prediction_start(*args)

        monkeypatch.setattr(harness, "_prediction_start", counted)
        result = run_experiment(RunConfig(scenario="robot", filters=("dsmf",), runs=8,
                                          steps=1, master_seed=4))
        assert len(calls) == 1
        firsts = [run.filters["dsmf"].records[0].solves[0] for run in result.runs]
        assert all(s.converged and s.iterations <= 3 for s in firsts)

    def test_one_nominal_solve_per_nominal_cloud(self, monkeypatch):
        # Keyed on the nominal cloud: the seed, the run count and Q leave it
        # as it is, and each of x0, P0, m_samples and tol makes a new one.
        solves, solve = [], mvee.fw_solve

        def counted(points, **kwargs):
            if "start" in kwargs:  # the nominal solve; a design optimum has none
                solves.append(kwargs)
            return solve(points, **kwargs)

        monkeypatch.setattr(mvee, "fw_solve", counted)
        dsmf._nominal_optimum.cache_clear()
        base = dict(scenario="robot", filters=("dsmf",), steps=1)
        run_experiment(RunConfig(runs=2, master_seed=1, **base))
        run_experiment(RunConfig(runs=3, master_seed=2, **base,
                                 scenario_overrides={"q_diag": (2e-6, 2e-6, 2e-7)}))
        assert len(solves) == 1
        for changed in ({"scenario_overrides": {"x0": (11.0, 10.0, 1.0)}},
                        {"scenario_overrides": {"p0_diag": (2.0, 1.0, 0.1)}},
                        {"m_samples": 150}, {"tol": 1e-6}):
            before = len(solves)
            run_experiment(RunConfig(**base, **changed))
            assert len(solves) == before + 1, changed

    def test_run_sets_do_not_depend_on_the_run_count(self):
        # One run included: every experiment starts from the nominal weights.
        base = dict(scenario="robot", filters=("dsmf",), steps=4, master_seed=9)
        five = run_experiment(RunConfig(runs=5, **base))
        for runs in (1, 3):
            fewer = run_experiment(RunConfig(runs=runs, **base))
            head = dataclasses.replace(five, runs=five.runs[:runs])
            self.assert_same_sets(fewer, head)

    def test_radar_first_step_starts_as_every_step_without_weights(self, monkeypatch):
        # Radar declares F, whose design optimum is exact: no nominal
        # weights, so every step calls step() as it did before.
        starts = self.spied(monkeypatch)
        scenario = build_scenario("radar")
        nominal = Ellipsoid(np.asarray(scenario.x0, dtype=float), scenario.P0)
        assert _prediction_start(nominal, build_model(scenario), FilterOptions()) is None
        run_experiment(RunConfig(scenario="radar", filters=("dsmf",), runs=2, steps=3))
        assert [start for k, start in starts if k == 0] == [None, None]

    def test_failed_nominal_solve_leaves_the_design_optimum_start(self, monkeypatch):
        def failing(*args):
            raise RankDeficiencyError("nominal cloud does not span", rank=2, required=4)

        config = RunConfig(scenario="robot", filters=("dsmf",), runs=2, steps=3, master_seed=2)
        starts = self.spied(monkeypatch, failing)
        failed = run_experiment(config)
        assert [start for k, start in starts if k == 0] == [None, None]
        assert failed.failures == {"dsmf": 0}
        monkeypatch.setattr(harness, "_prediction_start", lambda *args: None)
        self.assert_same_sets(failed, run_experiment(config))


class TestCarriedFailure:
    """A dsmf or esmf step that raises is carried by its prediction."""

    CONFIG = dict(scenario="radar", filters=("dsmf", "esmf"), runs=1, steps=4,
                  master_seed=6)

    @pytest.fixture
    def failing(self, monkeypatch):
        """dsmf and esmf raise EmptyIntersectionError at k = 1; returns the
        start weights of every dsmf call."""
        starts = {}

        def dsmf_step(e, model, y, k, opts, start=None):
            starts[k] = start
            if k == 1:
                raise EmptyIntersectionError("disjoint", delta=1.0)
            return step(e, model, y, k, opts, start)

        def esmf(beliefs, model, ys, k):
            if k == 1:
                raise EmptyIntersectionError("disjoint", delta=1.0)
            return esmf_step(beliefs, model, ys, k)

        monkeypatch.setattr(harness, "step", dsmf_step)
        monkeypatch.setattr(harness, "esmf_step", esmf)
        return starts

    def test_the_prediction_is_carried(self, failing):
        starts = failing
        config = RunConfig(**self.CONFIG)
        res = run_experiment(config)
        assert res.failures == {"dsmf": 1, "esmf": 1}
        model = build_model(res.scenario)
        opts = FilterOptions(m_samples=config.m_samples, tol=config.tol)
        dsmf_log, esmf_log = (res.runs[0].filters[n] for n in ("dsmf", "esmf"))
        want = {"dsmf": predict(dsmf_log.sets[0], model, 1, opts)[0],
                "esmf": esmf_predict(esmf_log.sets[:1], model, 1)[0]}
        for name, log in (("dsmf", dsmf_log), ("esmf", esmf_log)):
            np.testing.assert_array_equal(log.sets[1].center, want[name].center)
            np.testing.assert_array_equal(log.sets[1].shape, want[name].shape)
            np.testing.assert_array_equal(log.estimates[1], want[name].center)
            assert len(log.sets) == 4
        assert [r is None for r in dsmf_log.records] == [False, True, False, False]
        assert isinstance(dsmf_log.records[0], StepRecord)
        # A carried step leaves no weights, so the next step starts as the
        # first does, from the design optima.
        assert starts[0] is None and starts[2] is None
        assert starts[1] is not None and starts[3] is not None

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_a_bad_fused_shape_is_carried(self, monkeypatch, bad):
        # The fused shape is factored once, by spd_cholesky: a NaN or a
        # non-positive-definite one raises SpdError, which is carried.
        real_fuse = dsmf.fuse

        def fuse(pred, meas, e_p, rho):
            center, shape, delta = real_fuse(pred, meas, e_p, rho)
            return center, np.broadcast_to(bad * np.eye(shape.shape[-1]), shape.shape), delta

        monkeypatch.setattr(dsmf, "fuse", fuse)
        res = run_experiment(RunConfig(**self.CONFIG))
        assert res.failures == {"dsmf": 4, "esmf": 4}
        with pytest.raises(SpdError, match="fused shape"):
            run_experiment(RunConfig(on_empty="raise", **self.CONFIG))

    @pytest.mark.parametrize("on_empty", ["carry", "raise"])
    def test_one_empty_run_of_a_batch_is_carried_alone(self, monkeypatch, on_empty):
        # Run 1 measures a range 5 km off at step 2, which no esmf set can
        # meet.  The stacked step raises, each run is stepped again alone,
        # and only run 1 is carried; every run's sets are its sets alone.
        # Under on_empty = raise the batch raises the empty intersection.
        e0s = TestRunExperiment.e0s_of(monkeypatch)

        def far_off(*args, **kwargs):
            truths, ys = simulate_truth(*args, **kwargs)
            ys = ys.copy()
            ys[1, 2, 0] += 5000.0  # run 1's range at step 2
            return truths, ys

        monkeypatch.setattr(harness, "simulate_truth", far_off)
        config = RunConfig(scenario="radar", filters=("esmf",), runs=3, steps=5,
                           master_seed=4, on_empty=on_empty)
        if on_empty == "raise":
            with pytest.raises(EmptyIntersectionError):
                run_experiment(config)
            return
        result = run_experiment(config)
        assert result.failures == {"esmf": 1}
        assert [run.filters["esmf"].failures for run in result.runs] == [0, 1, 0]
        for e0, run in zip(e0s, result.runs, strict=True):
            want, failures = TestRunExperiment.esmf_alone(e0, result.model, run.measurements)
            assert failures == run.filters["esmf"].failures
            for a, b in zip(run.filters["esmf"].sets, want, strict=True):
                assert np.array_equal(a.center, b.center)
                assert np.array_equal(a.shape, b.shape)
        carried = result.runs[1].filters["esmf"]
        (want,) = esmf_predict([carried.sets[1]], result.model, 2)
        assert np.array_equal(carried.sets[2].shape, want.shape)

    def test_raise_reraises(self, failing):
        with pytest.raises(EmptyIntersectionError):
            run_experiment(RunConfig(on_empty="raise", **self.CONFIG))

    def test_robot_step_carried_at_k0_restarts_from_the_design_optima(self, monkeypatch):
        # Robot has nominal weights: step 0 starts from them, and a step 1
        # after a carried step 0 starts from the design optima (None), not
        # from the nominal weights again.
        starts = {}

        def dsmf_step(e, model, y, k, opts, start=None):
            starts[k] = start
            if k == 0:
                raise EmptyIntersectionError("disjoint", delta=1.0)
            return step(e, model, y, k, opts, start)

        monkeypatch.setattr(harness, "step", dsmf_step)
        config = RunConfig(scenario="robot", filters=("dsmf",), runs=1, steps=3,
                           master_seed=6)
        res = run_experiment(config)
        assert res.failures == {"dsmf": 1}
        opts = FilterOptions(m_samples=config.m_samples, tol=config.tol)
        scenario = res.scenario
        nominal = _prediction_start(Ellipsoid(scenario.x0, scenario.P0), res.model, opts)
        assert nominal is not None
        first, second = starts[0]
        np.testing.assert_array_equal(first, nominal)
        assert second is None
        assert starts[1] is None
        log = res.runs[0].filters["dsmf"]
        assert [r is None for r in log.records] == [True, False, False]
        np.testing.assert_array_equal(
            starts[2][0], log.records[1].solves[0].weights)

    def test_ukf_error_propagates(self, monkeypatch):
        def broken(beliefs, model, ys, k):
            raise SpdError("innovation covariance is not positive definite")

        monkeypatch.setattr(harness, "ukf_step", broken)
        with pytest.raises(SpdError):
            run_experiment(RunConfig(scenario="radar", filters=("ukf",), runs=1,
                                     steps=4, on_empty="carry"))

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_ukf_starts_from_three_sigma_set_of_e0(self, monkeypatch, preset):
        # The one conversion the harness makes: the ukf starts from the
        # three-sigma set of a uniform draw over e0, {c0, 9 P0 / (n + 2)}.
        e0s, starts, real_initial = [], [], harness.initial_estimate

        def initial(*args):
            e0s.extend(real_initial(*args))
            return e0s

        def first(beliefs, model, ys, k):
            starts.extend(beliefs)
            raise SpdError("stop after the first step")

        monkeypatch.setattr(harness, "initial_estimate", initial)
        monkeypatch.setattr(harness, "ukf_step", first)
        with pytest.raises(SpdError):
            run_experiment(RunConfig(scenario=preset, filters=("ukf",), runs=1, steps=2))
        (e0,), (start,) = e0s, starts
        np.testing.assert_array_equal(start.center, e0.center)
        np.testing.assert_allclose(start.shape, 9.0 / (e0.dim + 2) * e0.shape, rtol=1e-14)


class TestEmitOutputs:
    def test_files_and_counts(self, tiny_result, tmp_path):
        files = emit_outputs(tiny_result, tmp_path)
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "summary.json").exists()
        sets = sorted((tmp_path / "sets").iterdir())
        # one file per (run, filter), one row per step
        assert [f.name for f in sets] == [f"run{r}_{name}.csv" for r in (0, 1)
                                          for name in ("dsmf", "esmf", "ukf")]
        assert len(files) == 2 + len(sets)
        assert all(len(f.read_text().splitlines()) == 1 + 3 for f in sets)
        # the center, then the upper triangle of the shape, row-major
        header = sets[0].read_text().splitlines()[0]
        assert header == "k,c0,c1,c2,c3,p00,p01,p02,p03,p11,p12,p13,p22,p23,p33"

    @pytest.mark.parametrize("preset", ["radar", "robot"])
    def test_every_set_reads_back_bit_for_bit(self, preset, tmp_path):
        result = run_experiment(RunConfig(**{**TINY, "scenario": preset}))
        emit_outputs(result, tmp_path)
        for log in result.runs:
            for name, flog in log.filters.items():
                path = tmp_path / "sets" / f"run{log.run_index}_{name}.csv"
                ks, centers, shapes = read_sets(path)
                np.testing.assert_array_equal(ks, np.arange(1, 4))
                np.testing.assert_array_equal(centers, [e.center for e in flog.sets])
                np.testing.assert_array_equal(shapes, [e.shape for e in flog.sets])

    def test_metrics_header_and_lf(self, tiny_result, tmp_path):
        emit_outputs(tiny_result, tmp_path)
        raw = (tmp_path / "metrics.csv").read_bytes()
        assert b"\r" not in raw
        header = raw.decode().splitlines()[0]
        assert header == "k,filter,trace,logdet,rmse_x,rmse_theta,contained,time_s"

    def test_timing_blank_by_default(self, tiny_result, tmp_path):
        emit_outputs(tiny_result, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        assert all(line.endswith(",") for line in lines)

    @pytest.mark.parametrize("how", ["config key", "flag"])
    def test_timing_recorded_on_request(self, tmp_path, capsys, how):
        out = tmp_path / "out"
        argv = ["simulate", "--scenario", "radar", "--filters", "dsmf,ukf",
                "--runs", "2", "--steps", "2", "--out", str(out)]
        if how == "flag":
            argv.append("--timing")
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("record_timing = true\n")
            argv += ["--config", str(cfg)]
        assert cli_main(argv) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        times = [float(line.rsplit(",", 1)[1]) for line in rows]
        assert len(times) == 4 and all(t > 0 for t in times)
        timing = json.loads((out / "summary.json").read_text())["timing"]
        assert set(timing) == {"dsmf", "ukf"} and all(t > 0 for t in timing.values())

    def test_polyline_points_on_projected_ellipsoid(self, tiny_result, tmp_path):
        # The outline a plot draws from a read-back set row.
        emit_outputs(tiny_result, tmp_path)
        e_p = tiny_result.model.E_p
        e = tiny_result.runs[0].filters["dsmf"].sets[0]
        proj_c = e_p @ e.center
        proj_p = e_p @ e.shape @ e_p.T
        _, centers, shapes = read_sets(tmp_path / "sets" / "run0_dsmf.csv")
        pts = position_outline(centers[0], shapes[0], e_p, m=128).T
        assert pts.shape == (128, 2)
        dev = pts - proj_c
        vals = np.einsum("mi,ij,mj->m", dev, np.linalg.inv(proj_p), dev)
        np.testing.assert_allclose(vals, 1.0, atol=1e-9)

    def test_summary_contents(self, tiny_result, tmp_path):
        emit_outputs(tiny_result, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["runs"] == 2
        assert summary["seeds"] == [int(s) for s in tiny_result.seeds]
        assert set(summary["failures"]) == {"dsmf", "esmf", "ukf"}
        assert "timing" not in summary

    def test_unwritable_directory_fails_early(self, tiny_result, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("running as root: directory permissions not enforced")
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        with pytest.raises(ConfigError):
            emit_outputs(tiny_result, locked / "out")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = RunConfig(**TINY)
        for d in ("a", "b"):
            emit_outputs(run_experiment(cfg), tmp_path / d)
        for name in ("metrics.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestZeroNoiseContraction:
    def test_one_exact_step_shrinks_the_set(self):
        # Near-zero process and measurement noise with one measurement: the
        # updated set is no bigger than the initial one.
        cfg = RunConfig(
            scenario="radar", filters=("dsmf",), runs=1, steps=1,
            master_seed=4,
            scenario_overrides={"q_scale": 1e-12, "r_diag": (1e-9, 1e-11)},
        )
        res = run_experiment(cfg)
        initial_trace = 4 * 200.0
        assert res.metrics[0].trace <= initial_trace


class TestBench:
    def test_rows_and_affine_fit(self):
        rows = bench_mvee([2], [50, 100], trials=2)
        assert [r["m"] for r in rows] == [50, 100]
        assert all(r["fw_time_s"] > 0 for r in rows)

    def test_affine_fit_exact_line(self):
        slope, intercept, r2 = affine_fit_r2([1, 2, 3], [2.0, 4.0, 6.0])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)


class TestCli:
    def run_cli(self, *args):
        return cli_main(list(args))

    def test_simulate_roundtrip(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = radar\nfilters = dsmf\nruns = 1\nsteps = 2\n")
        code = self.run_cli("simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_simulate_flag_overrides(self, tmp_path, capsys):
        code = self.run_cli(
            "simulate", "--scenario", "radar", "--filters", "ukf",
            "--runs", "1", "--steps", "2", "--seed", "5",
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "ukf" in out["aggregate"]

    def test_simulate_config_error_exit_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = nothing\n")
        assert self.run_cli("simulate", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("override", [
        "bogus = 1", "u_r = 0.0", "u_p = 1e999", "landmark = (1e999, 0.0)",
        "init_offset = 4.0"])
    def test_simulate_bad_override_exit_2(self, tmp_path, capsys, override):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = robot\nruns = 1\nsteps = 1\n"
                       f"[scenario]\n{override}\n")
        code = self.run_cli("simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("preset,override", [
        ("radar", "x0 = (1.0, 2.0)"),
        ("radar", "r_diag = (1.0, 2.0, 3.0)"),
        ("robot", "x0 = (1.0,)"),
        ("robot", "q_diag = (1e-6, 1e-6)"),
        ("robot", "p0_diag = (1.0, 1.0)"),
        ("radar", "sensor = (1.0,)"),
        ("robot", "landmark = (1.0,)"),
        ("radar", "r_diag = (100.0,)"),
    ])
    def test_simulate_wrong_length_override_exit_2(self, tmp_path, capsys,
                                                   preset, override):
        # The set-up check builds the nominal set {x0, P0} and requires f(x0, 0)
        # and h(x0) of sizes state_dim and meas_dim; a wrong length used to
        # fail inside the run (exit 1).
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = {preset}\nruns = 1\nsteps = 1\n"
                       f"[scenario]\n{override}\n")
        code = self.run_cli("simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_simulate_overflowing_override_exit_2(self, tmp_path, capsys):
        # It used to end in an OverflowError traceback (exit 1).
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = radar\nruns = 1\nsteps = 1\n[scenario]\nT = 1e200\n")
        code = self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, key", [
        ("runs = abc", "runs"), ("steps = 2.5", "steps"), ("master_seed = x", "master_seed"),
        ("m_samples = ", "m_samples"), ("tol = small", "tol"), ("record_timing = maybe", "record_timing"),
    ])
    def test_simulate_unreadable_config_value_exit_2(self, tmp_path, capsys, line, key):
        # Bare int() and float() used to end in a ValueError traceback, and
        # any word but a true one read as False.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"scenario = radar\n{line}\n")
        code = self.run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("word, want", [("yes", True), ("On", True), ("1", True),
                                            ("no", False), ("OFF", False), ("0", False)])
    def test_record_timing_words(self, tmp_path, word, want):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"record_timing = {word}\n")
        assert parse_config(cfg).record_timing is want

    def test_simulate_too_few_design_points_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = radar\nm_samples = 4\nruns = 1\nsteps = 1\n")
        code = self.run_cli("simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert code == 2
        assert "m_samples must be >= 5" in capsys.readouterr().err

    def test_simulate_override_checked_against_flag_scenario(self, tmp_path):
        # T0 is a robot field; --scenario radar makes it an unknown one.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario = robot\nruns = 1\nsteps = 1\n[scenario]\nT0 = 2.0\n")
        code = self.run_cli("simulate", "--config", str(cfg), "--scenario", "radar",
                            "--out", str(tmp_path / "out"))
        assert code == 2

    FILE_KEYS = {"scenario": ("robot", "robot"), "filters": ("esmf, ukf", ("esmf", "ukf")),
                 "runs": ("3", 3), "steps": ("4", 4), "master_seed": ("7", 7),
                 "out_dir": ("from_file", "from_file"), "record_timing": ("no", False)}

    @pytest.mark.parametrize("flags, field, want", [
        ([], None, None),
        (["--scenario", "radar"], "scenario", "radar"),
        (["--filters", "dsmf"], "filters", ("dsmf",)),
        (["--runs", "2"], "runs", 2),
        (["--steps", "6"], "steps", 6),
        (["--seed", "9"], "master_seed", 9),
        (["--out", "from_flag"], "out_dir", "from_flag"),
        (["--timing"], "record_timing", True),
    ])
    def test_simulate_flag_overrides_its_file_key_only(self, tmp_path, flags, field, want):
        # A config file that sets every key a simulate flag sets: the given
        # flag wins for its field, and every other field keeps the file's
        # value.
        cfg = tmp_path / "c.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, (text, _) in self.FILE_KEYS.items()))
        config = _config_from_args(build_parser().parse_args(
            ["simulate", "--config", str(cfg), *flags]))
        expected = {key: value for key, (_, value) in self.FILE_KEYS.items()}
        if field is not None:
            expected[field] = want
        assert {key: getattr(config, key) for key in expected} == expected

    def test_simulate_file_is_checked_after_its_flags(self, tmp_path, monkeypatch):
        # T0 is a robot field: the file alone (radar) is refused, but with
        # --scenario robot it is the robot file, and writes what that file
        # writes.  It used to be checked before the flag applied, and exit 2.
        body = "runs = 2\nsteps = 3\nfilters = dsmf, esmf, ukf\n[scenario]\nT0 = 2.0\n"
        (tmp_path / "radar.cfg").write_text("scenario = radar\n" + body)
        (tmp_path / "robot.cfg").write_text("scenario = robot\n" + body)
        outs = {}
        for work, argv in (("alone", ["--config", "../radar.cfg"]),
                           ("flagged", ["--config", "../radar.cfg", "--scenario", "robot"]),
                           ("robot", ["--config", "../robot.cfg"])):
            (tmp_path / work).mkdir()
            monkeypatch.chdir(tmp_path / work)
            outs[work] = self.run_cli("simulate", *argv, "--out", "out")
        assert outs == {"alone": 2, "flagged": 0, "robot": 0}
        flagged, robot = ({p.relative_to(tmp_path / work): p.read_bytes()
                           for p in sorted((tmp_path / work / "out").rglob("*")) if p.is_file()}
                          for work in ("flagged", "robot"))
        assert len(robot) == 2 + 2 * 3 and flagged == robot

    def test_simulate_absent_timing_flag_keeps_the_file_s_true(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("record_timing = yes\n")
        args = build_parser().parse_args(["simulate", "--config", str(cfg)])
        assert _config_from_args(args).record_timing is True

    @pytest.mark.parametrize("how", ["config key", "flag"])
    def test_simulate_empty_filters_exit_2(self, tmp_path, capsys, how):
        # An empty --filters used to be dropped, which ran dsmf and exited
        # 0; an empty filters key was already a config error.
        argv = ["simulate", "--runs", "1", "--steps", "1", "--out", str(tmp_path / "out")]
        if how == "flag":
            argv += ["--filters", ""]
        else:
            cfg = tmp_path / "c.cfg"
            cfg.write_text("filters =\n")
            argv += ["--config", str(cfg)]
        assert self.run_cli(*argv) == 2
        assert "config error: filters must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_mvee_subcommand(self, tmp_path, capsys):
        pts = tmp_path / "tri.csv"
        pts.write_text("0,0\n1,0\n0,1\n")
        code = self.run_cli("mvee", "--points", str(pts), "--tol", "1e-9")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["center"], [1 / 3, 1 / 3], atol=1e-8)
        assert out["converged"] is True
        np.testing.assert_allclose(
            out["shape"], [[4 / 9, -2 / 9], [-2 / 9, 4 / 9]], atol=1e-8
        )

    def test_mvee_capped_solve_prints_json(self, tmp_path, capsys):
        path = tmp_path / "c.csv"
        np.savetxt(path, np.random.default_rng(1).standard_normal((50, 3)),
                   delimiter=",")
        code = self.run_cli("mvee", "--points", str(path), "--tol", "1e-12",
                            "--max-iter", "3")
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] is False
        assert out["iterations"] == 3

    @pytest.mark.parametrize("flag,value", [("--tol", "-1"), ("--tol", "0"),
                                            ("--max-iter", "-3"), ("--tol", "inf")])
    def test_mvee_bad_solver_budget_exit_2(self, tmp_path, capsys, flag, value):
        pts = tmp_path / "tri.csv"
        pts.write_text("0,0\n1,0\n0,1\n")
        assert self.run_cli("mvee", "--points", str(pts), flag, value) == 2
        assert "config error" in capsys.readouterr().err

    def test_mvee_numerical_failure_exit_3(self, tmp_path):
        pts = tmp_path / "same.csv"
        pts.write_text("1,1\n1,1\n1,1\n1,1\n")
        assert self.run_cli("mvee", "--points", str(pts)) == 3

    @pytest.mark.parametrize("text,want", [("", "n+1 = 2 points, got 0"),
                                           ("0,0\n1,0\n", "n+1 = 3 points, got 2")])
    def test_mvee_too_few_points_exit_2(self, tmp_path, capsys, text, want):
        # An empty file or fewer than n + 1 rows is an input error, with no
        # numpy warning about the empty file.
        pts = tmp_path / "few.csv"
        pts.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli("mvee", "--points", str(pts)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and want in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_mvee_non_finite_point_exit_2(self, tmp_path, capsys, value):
        pts = tmp_path / "bad.csv"
        pts.write_text(f"0,0\n1,0\n0,{value}\n1,1\n")
        assert self.run_cli("mvee", "--points", str(pts)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "row 3 is not finite" in err

    def test_mvee_missing_file_exit_2(self, tmp_path):
        assert self.run_cli("mvee", "--points", str(tmp_path / "nope.csv")) == 2

    def test_bench_subcommand(self, tmp_path, capsys):
        code = self.run_cli("bench", "--n", "2", "--m", "50", "--trials", "1",
                            "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "bench.csv").exists()
        header = (tmp_path / "bench.csv").read_text().splitlines()[0]
        assert header.startswith("n,m,fw_time_s")

    @pytest.mark.parametrize("args, flag", [
        (("bench", "--n", "2", "--m", "50", "--trials", "0"), "--trials"),
        (("sweep-sigma", "--from", "5", "--to", "5", "--replicates", "0"), "--replicates"),
        (("bench", "--n", "0", "--m", "50", "--trials", "1"), "--n"),
        (("bench", "--n", "2", "--m", "2", "--trials", "1"), "--m"),
        (("sweep-sigma", "--from", "0", "--to", "5"), "--from"),
        (("sweep-sigma", "--from", "-5", "--to", "5"), "--from"),
    ])
    def test_empty_study_exit_2(self, tmp_path, capsys, args, flag):
        # Zero trials died in numpy's reduction over an empty array; zero
        # replicates printed NaN slopes and exited 0.  A zero --n died with
        # an IndexError, an --m of n or fewer points with a rank error
        # (exit 3), and a prior size of zero or less with an SpdError.
        rule = {"--m": ">= n + 1 for every --n", "--from": "> 0"}.get(flag, ">= 1")
        assert self.run_cli(*args, "--out", str(tmp_path)) == 2
        assert f"config error: {flag} must be {rule}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args", [("--to", "nan"), ("--to", "inf"), ("--step", "inf"),
                                      ("--step", "nan"), ("--from", "nan")])
    def test_sweep_sigma_non_finite_range_exit_2(self, tmp_path, capsys, args):
        # These died in np.arange with a ValueError traceback.
        assert self.run_cli("sweep-sigma", *args, "--out", str(tmp_path)) == 2
        assert "config error" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_sweep_sigma_subcommand(self, tmp_path, capsys):
        code = self.run_cli("sweep-sigma", "--from", "5", "--to", "10",
                            "--step", "5", "--replicates", "2",
                            "--out", str(tmp_path))
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert "dsmf_slope" in out and "esmf_slope" in out
        assert (tmp_path / "sigma_sweep.csv").exists()

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "smfilter.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout
