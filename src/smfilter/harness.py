"""Configuration-driven Monte Carlo engine: runs the filters over simulated
truths, aggregates metrics, benchmarks the enclosing-ellipsoid solver, and
writes CSV/JSON outputs: the metrics, a summary, and every filter set of
every run, center and shape as read-back-exact floats.  Every filter state
is an Ellipsoid, whose size and containment are what a run reports: the
set-membership filters' guaranteed set, the ukf's three-sigma set.

All randomness flows from a single master seed; per-run seeds are derived
with a stable 64-bit mix and recorded so any single run can be replayed.
Wall-clock timings are measured with a monotonic clock but serialized only
when explicitly requested, so that default outputs are byte-identical
across executions of the same configuration.
"""

from __future__ import annotations

import dataclasses
import json
import time
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import scenarios as sc
from .baselines import esmf_predict, esmf_step, esmf_update, ukf_step, uniform_covariance
from .dsmf import (FilterOptions, SystemModel, _prediction_start, _update,
                   measurement_ellipsoid, predict, step)
from .ellipsoid import Ellipsoid, sample_interior
from .errors import ConfigError, NumericalError
from .mvee import fw_solve
from .scenarios import RangeBearing, build_model, build_scenario, initial_estimate, simulate_truth

KNOWN_FILTERS = ("dsmf", "esmf", "ukf")
CONTAINMENT_SLACK = 1e-6


def mix_seed(master_seed: int, index: int) -> int:
    """Stable 64-bit mix of (master seed, run index): splitmix64 finalizer
    over the golden-ratio-stepped input."""
    mask = (1 << 64) - 1
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


@dataclass(frozen=True)
class RunConfig:
    """One experiment: scenario, filter set, replication and solver knobs."""

    scenario: str = "radar"
    filters: tuple[str, ...] = ("dsmf",)
    runs: int = 1
    steps: int | None = None  # None: scenario default
    master_seed: int = 0
    m_samples: int = FilterOptions.m_samples
    tol: float = FilterOptions.tol
    out_dir: str = "out"
    on_empty: str = "carry"  # carry | raise
    record_timing: bool = False
    scenario_overrides: dict = field(default_factory=dict)

    def validate(self) -> "RunConfig":
        """This config, once _set_up has checked it."""
        self._set_up()
        return self

    def _set_up(self) -> tuple[object, SystemModel, Ellipsoid, int]:
        """The scenario, model, nominal initial set {x0, P0} and run length
        (steps, else the preset's) of this config, after the one check of
        it, made before anything runs: the fields; that the overrides build
        the preset, its model and the nominal set; that f(x0, 0) and h(x0)
        are finite, of sizes state_dim and meas_dim; that
        0 < init_offset <= 1, so that every run's e0 holds x0; a run length
        and run count of at least 1, an m_samples of at least state_dim + 1,
        since fewer design points cannot span the state, and a master_seed,
        each a Python int (a numpy integer is refused); a finite positive
        tol; and that json.dumps takes the fields as emit_outputs writes them
        to summary.json: a str out_dir, a Python bool record_timing, no numpy
        scalar in scenario_overrides.  Each failure is a ConfigError that
        names the value."""
        if self.scenario not in sc.PRESETS:
            raise ConfigError(f"unknown scenario preset {self.scenario!r}")
        if not self.filters:
            raise ConfigError("filters must not be empty")
        unknown = [f for f in self.filters if f not in KNOWN_FILTERS]
        if unknown:
            raise ConfigError(f"unknown filters {unknown}; choose from {KNOWN_FILTERS}")
        repeated = sorted({f for f in self.filters if self.filters.count(f) > 1})
        if repeated:
            raise ConfigError(f"repeated filters {repeated}; name each filter once")
        if not isinstance(self.runs, int) or self.runs < 1:
            raise ConfigError(f"runs must be a Python int >= 1, got {self.runs!r}")
        if not isinstance(self.master_seed, int):
            raise ConfigError(f"master_seed must be a Python int, got {self.master_seed!r}")
        if self.on_empty not in ("carry", "raise"):
            raise ConfigError(f"on_empty must be carry or raise, got {self.on_empty!r}")
        if not isinstance(self.tol, (int, float)) or not 0.0 < self.tol < np.inf:
            raise ConfigError(f"tol must be finite and positive, got {self.tol!r}")
        try:
            scenario = build_scenario(self.scenario, **self.scenario_overrides)
            model = build_model(scenario)
            nominal = Ellipsoid(scenario.x0, scenario.P0)
            x1, y0 = model.f(nominal.center, 0), model.h(nominal.center)
            if not (np.shape(x1) == nominal.center.shape == (model.state_dim,)
                    and np.shape(y0) == (model.meas_dim,) and np.isfinite([*x1, *y0]).all()):
                raise ValueError(f"f(x0, 0) = {x1} and h(x0) = {y0} must be finite, "
                                 f"of sizes {model.state_dim} and {model.meas_dim}")
            if not 0.0 < scenario.init_offset <= 1.0:
                raise ValueError(f"init_offset must be in (0, 1], got {scenario.init_offset}")
            steps = scenario.steps if self.steps is None else self.steps
            if not isinstance(steps, int) or steps < 1:
                raise ValueError(f"steps must be a Python int >= 1, got {steps!r}")
        except (TypeError, ValueError, IndexError, ArithmeticError) as err:
            raise ConfigError(f"bad config for {self.scenario}: {err}") from None
        if not isinstance(self.m_samples, int) or self.m_samples < model.state_dim + 1:
            raise ConfigError(f"m_samples must be >= {model.state_dim + 1} (state_dim + 1), "
                              f"a Python int, for {self.scenario}, got {self.m_samples!r}")
        json.dumps(dataclasses.asdict(self), sort_keys=True, default=_unrecordable)
        return scenario, model, nominal, steps


def _unrecordable(value):
    """json.dumps's fallback for a config value it cannot write: a
    ConfigError that names the value."""
    kind = type(value)
    raise ConfigError(f"config value {value!r} of type {kind.__module__}.{kind.__name__} "
                      "cannot be recorded in summary.json")


def split_filters(text: str) -> tuple[str, ...]:
    """The filter names of a comma list, blanks dropped."""
    return tuple(s.strip() for s in text.split(",") if s.strip())


_CONVERTERS = {"scenario": str.strip, "filters": split_filters, "runs": int, "steps": int,
               "master_seed": int, "m_samples": int, "tol": float, "out_dir": str.strip,
               "on_empty": str.strip,
               "record_timing": lambda raw: ConfigParser.BOOLEAN_STATES[raw.strip().lower()]}


def read_config(path: str | Path) -> dict:
    """The RunConfig fields, unchecked, of a flat key = value config file
    with one optional [scenario] section holding preset-field overrides
    (values are Python literals).  Top-level keys are case-insensitive, and
    each is read by its converter in _CONVERTERS, as the simulate flags are
    by argparse; a key without one is unknown.  [scenario] keys are preset
    field names and keep their case (T, T0).  Every failure is a
    ConfigError."""
    import ast

    text = Path(path).read_text()
    parser = ConfigParser()
    parser.optionxform = str
    try:
        parser.read_string("[run]\n" + text)
    except Exception as err:
        raise ConfigError(f"cannot parse config {path}: {err}") from None

    fields: dict = {}
    for key, raw in parser["run"].items():
        key = key.lower()
        convert = _CONVERTERS.get(key)
        if convert is None:
            raise ConfigError(f"unknown config key {key!r}")
        if key in fields:
            raise ConfigError(f"config key {key!r} is given twice")
        try:
            fields[key] = convert(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"config key {key!r}: cannot read {raw!r}") from None
    if parser.has_section("scenario"):
        overrides = {}
        for key, raw in parser["scenario"].items():
            try:
                overrides[key] = ast.literal_eval(raw)
            except (ValueError, SyntaxError):
                raise ConfigError(
                    f"scenario override {key} = {raw!r} is not a literal"
                ) from None
        fields["scenario_overrides"] = overrides
    return fields


def parse_config(path: str | Path) -> RunConfig:
    """The checked RunConfig of a config file (read_config)."""
    return RunConfig(**read_config(path)).validate()


@dataclass
class FilterRunLog:
    """Per-step artifacts of one filter on one run."""

    estimates: np.ndarray  # (steps, n) centers
    sets: list  # the Ellipsoid of each step; a ukf step's is its three-sigma set
    contained: np.ndarray  # (steps,) bool
    traces: np.ndarray
    logdets: np.ndarray
    times: np.ndarray  # (steps,) s; a ukf or esmf step's is its stacked step's time / runs
    failures: int
    records: list  # per step: the dsmf StepRecord; None for a carried step or another filter


@dataclass
class RunLog:
    run_index: int
    seed: int
    truth: np.ndarray
    measurements: np.ndarray
    filters: dict[str, FilterRunLog]


@dataclass(frozen=True)
class MetricsRow:
    k: int
    filter: str
    trace: float
    logdet: float
    rmse_x: float
    rmse_theta: float
    contained: float
    time_s: float


@dataclass
class ExperimentResult:
    """The runs of one experiment; model is the SystemModel they all ran
    on, and metrics holds one MetricsRow per (filter, step), filter-major."""

    config: RunConfig
    scenario: object
    model: SystemModel
    runs: list[RunLog]
    metrics: list[MetricsRow]
    failures: dict[str, int]
    seeds: list[int]


def _logdet(shape: np.ndarray):
    """log det of a shape, or of each shape of a stack; -inf where the sign
    of the determinant is not positive."""
    sign, val = np.linalg.slogdet(shape)
    return np.where(sign > 0, val, -np.inf)


def _run_filter(name: str, config: RunConfig, opts: FilterOptions, model,
                e0s: list[Ellipsoid], truths: np.ndarray, measurements: np.ndarray,
                first) -> list[FilterRunLog]:
    """Step one filter through all runs in one loop over the steps, run r
    from e0s[r] (the ukf from the three-sigma set of a uniform draw over it)
    on truths[r] and measurements[r].  The ukf and esmf make one stacked
    call per step, ukf_step or esmf_step, on every run's set, and each
    run's time is that step's time divided by R; dsmf steps the runs one by
    one.  A ukf error propagates.  When a stacked esmf call raises
    NumericalError, each run of that step is stepped again alone, as a
    batch of one.  A dsmf step, or an esmf run stepped alone, that raises
    NumericalError is carried by its prediction, unless on_empty is raise.
    dsmf's warm start is one value per run, start: (first, None) before
    step 0 when first, the nominal weights, is not None; the weights of its
    last step's two solves after a step; and None, which starts each solve
    from its design optimum, after a carried step or with no nominal
    weights."""
    runs, steps = measurements.shape[:2]
    states = ([Ellipsoid(e0.center, 9.0 * uniform_covariance(e0.shape)) for e0 in e0s]
              if name == "ukf" else list(e0s))
    starts = [None if first is None else (first, None)] * runs
    sets, records, times, failures = [], [], np.empty((steps, runs)), [0] * runs

    def alone(r: int, k: int, recs: list) -> Ellipsoid:
        """Run r's step k alone, or its prediction when the step raises
        NumericalError and on_empty is carry."""
        try:
            if name == "dsmf":
                recs[r] = rec = step(states[r], model, measurements[r, k], k, opts, starts[r])
                starts[r] = [s.weights for s in rec.solves]
                return rec.updated
            return esmf_step(states[r:r + 1], model, measurements[r:r + 1, k], k)[0]
        except NumericalError:
            if config.on_empty == "raise":
                raise
            failures[r] += 1
            starts[r] = None
            return (predict(states[r], model, k, opts)[0] if name == "dsmf"
                    else esmf_predict(states[r:r + 1], model, k)[0])

    for k in range(steps):
        recs = [None] * runs  # the dsmf StepRecord of each run's step that solved
        if name == "dsmf":
            states = list(states)
            for r in range(runs):
                t0 = time.perf_counter()
                states[r] = alone(r, k, recs)
                times[k, r] = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            try:
                states = (ukf_step if name == "ukf" else esmf_step)(
                    states, model, measurements[:, k], k)
            except NumericalError:
                if name == "ukf":
                    raise
                states = [alone(r, k, recs) for r in range(runs)]
            times[k] = (time.perf_counter() - t0) / runs
        sets.append(states)
        records.append(recs)

    # One stacked call per figure over every run's sets, run-major, each the
    # same per-matrix LAPACK call or sum as contains and np.trace make per set.
    by_run = [list(run_sets) for run_sets in zip(*sets)]
    flat = [e for run_sets in by_run for e in run_sets]
    centers = np.array([e.center for e in flat])
    shapes = np.array([e.shape for e in flat])
    dev = truths[:, 1:].reshape(centers.shape) - centers
    z = np.linalg.solve(np.array([e.factor() for e in flat]), dev[:, :, None])[:, :, 0]
    contained = ((z * z).sum(axis=1) <= 1.0 + CONTAINMENT_SLACK).reshape(runs, steps)
    traces = np.trace(shapes, axis1=1, axis2=2).reshape(runs, steps)
    logdets = _logdet(shapes).reshape(runs, steps)
    centers = centers.reshape(runs, steps, -1)
    return [FilterRunLog(estimates=centers[r], sets=by_run[r], contained=contained[r],
                         traces=traces[r], logdets=logdets[r], times=times[:, r],
                         failures=failures[r], records=[recs[r] for recs in records])
            for r in range(runs)]


def compute_metrics(config: RunConfig, scenario, runs: list[RunLog],
                    steps: int) -> list[MetricsRow]:
    """Aggregate per-step, per-filter metrics over the Monte Carlo runs.

    RMSE_k per component is sqrt(mean over runs of squared estimate error);
    trace/logdet/time are means over runs; contained is the fraction of
    runs whose true state lies in the filter set at that step.
    """
    th = 2 if isinstance(scenario, sc.RobotScenario) else None  # the heading
    rows = []
    for name in config.filters:
        logs = [log.filters[name] for log in runs]
        err = np.stack([f.estimates - log.truth[1:] for f, log in zip(logs, runs)])
        rmse = np.sqrt((err**2).mean(axis=0))  # (steps, n), over runs in order
        # Each figure as (steps, runs), so that each step's mean sums its
        # runs as the mean of one (runs,) column does.
        trace, logdet, contained, time_s = (
            np.stack([getattr(f, key) for f in logs], axis=1).mean(axis=1).tolist()
            for key in ("traces", "logdets", "contained", "times"))
        theta = rmse[:, th].tolist() if th is not None else [float("nan")] * steps
        rows += map(MetricsRow, range(1, steps + 1), [name] * steps, trace, logdet,
                    rmse[:, 0].tolist(), theta, contained, time_s)
    return rows


def aggregate(result: ExperimentResult) -> dict[str, dict[str, float]]:
    """Per-filter figures over the whole experiment: the share of
    (run, step) pairs whose set contains the truth, the mean trace, and the
    time-averaged RMSE of the first state component."""
    out = {}
    for name in result.config.filters:
        logs = [log.filters[name] for log in result.runs]
        out[name] = {
            "containment_rate": float(np.mean([f.contained.mean() for f in logs])),
            "mean_trace": float(np.mean([f.traces.mean() for f in logs])),
            "time_avg_rmse_x": float(np.mean([
                row.rmse_x for row in result.metrics if row.filter == name])),
        }
    return out


def run_experiment(config: RunConfig) -> ExperimentResult:
    """Simulate truth and run every requested filter for each replicate.

    Deterministic given the config: replicate r uses seed mix(master_seed, r)
    for its truth and initial set.  No filter draws random numbers, so the
    sets of a filter do not depend on which other filters run, or in which
    order.  The config is checked first, as validate checks it (_set_up):
    each failure raises ConfigError.  One model serves the whole
    experiment.  Every run's e0 is the nominal set {x0, P0} moved by at
    most init_offset P0, so dsmf's first prediction is solved on it, once
    per process for each nominal cloud (_prediction_start), and each run's
    starts from there, a pass or two away; when that solve fails
    numerically, from the design optimum.  Each filter steps all runs
    together (_run_filter); run r's sets do not depend on the number of runs.
    """
    scenario, model, nominal, steps = config._set_up()
    seeds = [mix_seed(config.master_seed, r) for r in range(config.runs)]
    opts = FilterOptions(m_samples=config.m_samples, tol=config.tol)
    first = None
    if "dsmf" in config.filters:
        try:
            first = _prediction_start(nominal, model, opts)
        except NumericalError:
            pass
    truths, measurements, e0s = [], [], []
    for seed in seeds:
        truth_rng = np.random.default_rng([seed, 0])
        truth, ys = simulate_truth(scenario, model, truth_rng, steps=steps)
        truths.append(truth)
        measurements.append(ys)
        e0s.append(initial_estimate(scenario, truth_rng))
    stacked = np.array(truths), np.array(measurements)
    logs = {name: _run_filter(name, config, opts, model, e0s, *stacked, first)
            for name in config.filters}
    failures = {name: sum(log.failures for log in logs[name]) for name in config.filters}
    runs = [RunLog(r, seed, truths[r], measurements[r], {name: logs[name][r] for name in logs})
            for r, seed in enumerate(seeds)]
    metrics = compute_metrics(config, scenario, runs, steps)
    return ExperimentResult(config, scenario, model, runs, metrics, failures, seeds)


def _write_csv(path: Path, header: str, rows) -> Path:
    """Write header and rows as CSV with LF line ends: floats as repr (the
    shortest string that reads back to the same double), every other value
    (ints, names, blanks) as str."""
    lines = [header]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def emit_outputs(result: ExperimentResult, out_dir: str | Path) -> list[Path]:
    """Write metrics.csv, summary.json and the filter sets of every run.

    sets/run<r>_<filter>.csv holds one row per step of run r: k, the
    full-state center c0..c{n-1}, then the upper triangle of the shape,
    p00, p01, ..., in the row-major order of np.triu_indices(n).  Every
    value is a repr float, so each set reads back bit for bit.  Timing
    columns are left empty unless the config requested timing, keeping
    default outputs byte-identical across executions.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise ConfigError(f"output directory {out} is not writable: {err}") from None

    config = result.config
    written = []

    written.append(_write_csv(
        out / "metrics.csv", "k,filter,trace,logdet,rmse_x,rmse_theta,contained,time_s",
        [(row.k, row.filter, row.trace, row.logdet, row.rmse_x, row.rmse_theta,
          row.contained, row.time_s if config.record_timing else "")
         for row in result.metrics]))

    summary = {
        "config": dataclasses.asdict(config),
        "steps": int(result.metrics[-1].k) if result.metrics else 0,
        "seeds": [int(s) for s in result.seeds],
        "failures": result.failures,
        "aggregate": aggregate(result),
    }
    if config.record_timing:
        summary["timing"] = {
            name: float(np.mean([
                log.filters[name].times.mean() for log in result.runs
            ]))
            for name in config.filters
        }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    written.append(summary_path)

    n = result.model.state_dim
    rows, cols = np.triu_indices(n)
    header = ",".join(["k", *(f"c{i}" for i in range(n)),
                       *(f"p{i}{j}" for i, j in zip(rows, cols))])
    set_dir = out / "sets"
    set_dir.mkdir(exist_ok=True)
    for log in result.runs:
        for name, flog in log.filters.items():
            tri = np.array([e.shape for e in flog.sets])[:, rows, cols]
            table = ((k, *c, *p) for k, (c, p) in
                     enumerate(zip(flog.estimates.tolist(), tri.tolist()), 1))
            path = set_dir / f"run{log.run_index}_{name}.csv"
            written.append(_write_csv(path, header, table))
    return written


def bench_mvee(n_list, m_list, trials: int, master_seed: int = 0) -> list[dict]:
    """Mean solver wall time over standard-uniform clouds per (n, m) cell,
    at the solver's default tol (mvee.DEFAULT_TOL).

    Also reports mean iteration counts and per-iteration time, which is the
    quantity expected to grow affinely in m at fixed n.
    """
    cells = [(n, m) for n in n_list for m in m_list]
    rngs = [np.random.default_rng([master_seed, n, m]) for n, m in cells]
    times = np.empty((len(cells), trials))
    iters = np.empty((len(cells), trials))
    # Each trial visits every cell, so a slow stretch of the machine spreads
    # over the cells instead of landing on one; each cell keeps its own
    # stream of clouds.
    for t in range(trials):
        for c, (rng, (n, m)) in enumerate(zip(rngs, cells)):
            pts = rng.random((m, n))
            t0 = time.perf_counter()
            sol = fw_solve(pts)
            times[c, t] = time.perf_counter() - t0
            iters[c, t] = max(sol.iterations, 1)
    return [{
        "n": n,
        "m": m,
        "fw_time_s": float(times[c].mean()),
        "iterations": float(iters[c].mean()),
        # Minimum over trials: the least scheduler-contaminated estimate of
        # the clean per-iteration cost.
        "time_per_iter_s": float(np.min(times[c] / iters[c])),
    } for c, (n, m) in enumerate(cells)]


def affine_fit_r2(x, y) -> tuple[float, float, float]:
    """Least-squares line fit returning (slope, intercept, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def sweep_sigma(sigmas, replicates: int = 50, master_seed: int = 0) -> list[dict]:
    """Single-update study of how the posterior volume scales with the
    prior size, comparing the enclosing-set update against the linearizing
    update on the range/bearing geometry with the sensor at the origin.

    For each sigma the prior is {(10, 20), sigma I}; a true position is
    drawn from it, measured with noise bounded by diag(10, 1), and both
    updates are applied, each fusing at the trace-minimising rho in one
    stacked update over the replicates; the mean posterior logdet over the
    replicates is recorded.  The enclosing solves use the FilterOptions
    defaults.
    """
    results = []
    prior_center = np.array([10.0, 20.0])
    r_shape = np.diag([10.0, 1.0])
    sensor = RangeBearing((0.0, 0.0))
    model = SystemModel(
        f=lambda x, k: x, h=sensor.measure, h_inv=sensor.h_inv,
        E_p=np.eye(2), Q=1e-9 * np.eye(2), R=r_shape,
        h_jac=sensor.jacobian, h_remainder=sensor.remainder,
    )
    opts = FilterOptions()
    v_ball = Ellipsoid(np.zeros(2), r_shape)

    for sigma in sigmas:
        prior = Ellipsoid(prior_center, float(sigma) * np.eye(2))
        ys, meas = [], []
        for rep in range(replicates):
            rng = np.random.default_rng([master_seed, int(round(100 * sigma)), rep])
            x_true = sample_interior(prior, 1, rng)[0]
            v_true = sample_interior(v_ball, 1, rng)[0]
            ys.append(sensor.measure(x_true) + v_true)
            meas.append(measurement_ellipsoid(ys[-1], model, None, opts)[0])
        priors = [prior] * replicates
        ld_new = _logdet(np.array([e.shape for e in _update(priors, meas, np.eye(2))[0]]))
        ld_lin = _logdet(np.array([e.shape for e in esmf_update(priors, model, ys)[0]]))
        results.append({
            "sigma": float(sigma),
            "dsmf_logdet": float(np.mean(ld_new)),
            "esmf_logdet": float(np.mean(ld_lin)),
        })
    return results


def write_table(rows: list[dict], path: str | Path) -> Path:
    """Write a list of dicts with the same keys as CSV, making its directory;
    the header is the first row's keys, in order."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return _write_csv(Path(path), ",".join(rows[0]), (row.values() for row in rows))
