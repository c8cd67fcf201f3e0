"""The two workloads: one round of each, its checks and its figures.

A round of a workload runs every filter on the workload's preset, and
hands the preset's stored solver clouds to fw_solve alone (the replay).  A
run repeats identical rounds (the same seed gives the same inputs), so the
work counts of every round agree and round times can be summarized by
their median.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# Slack on the benchmark's own containment test of the true state, the same
# value the harness uses for its `contained` column.
CONTAINMENT_SLACK = 1e-6

# The speed of this class of machine drifts by 10-30% over seconds to tens
# of seconds, and every filter slows down alike (README.md, "Noise").  So
# the timed calls of each cycle alternate with a fixed reference kernel, and
# their times are scaled to the speed at which the kernel takes REFERENCE_S:
# its typical time on the 2-core box the benchmark was written on.
REFERENCE_S = 0.25
_REFERENCE_POINTS = np.random.default_rng(0).standard_normal((200, 5))


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of small numpy calls driven from
    Python, the mix the solver and fusion loops are made of."""
    inverse = np.eye(5)
    cross = np.empty(200)
    t0 = time.perf_counter()
    for i in range(23000):
        v = inverse @ _REFERENCE_POINTS[i % 200]
        np.dot(_REFERENCE_POINTS, v, out=cross)
        inverse -= 1e-9 * np.outer(v, v)
        int(np.argmax(cross))
    return time.perf_counter() - t0


class SpeedGauge:
    """Scales wall times of timed calls to times at reference speed.

    The kernel runs once when the gauge is made and once at every call of
    `factor`, after the calls it scales; the factor is REFERENCE_S over
    the mean of the kernel times just before and just after them.
    """

    def __init__(self):
        self._last = reference_kernel()

    def factor(self) -> float:
        now = reference_kernel()
        factor = REFERENCE_S / (0.5 * (self._last + now))
        self._last = now
        return factor


# A round is CYCLES cycles.  In each cycle, every filter runs alone through
# run_experiment on a few runs, emit_outputs writes each result, a slice
# of the stored clouds is solved, and the reference kernel runs.  A time
# figure is the median over the cycles of that cycle's time at reference
# speed: the median sheds the spikes of a few hundred milliseconds that
# the machine shows, and the kernel next to every cycle follows its slow
# phases.
#
# Cycle c < QUALITY_CYCLES uses master seed c whatever the run's seed, and
# the dsmf quality figures (dsmf_trace, dsmf_rmse_x) come from those cycles
# alone, so they repeat exactly from run to run and can carry a tight
# bound.  Cycle c >= QUALITY_CYCLES uses master seed seed * CYCLES + c, so
# the timed work varies with the seed.
CYCLES = 20
QUALITY_CYCLES = 5


def cycle_seed(seed: int, cycle: int) -> int:
    return cycle if cycle < QUALITY_CYCLES else seed * CYCLES + cycle


@dataclass(frozen=True)
class Workload:
    """Each cycle runs every filter on `runs` runs of `steps` steps of the
    `scenario` preset, then solves a slice of that preset's stored clouds.
    Filters named in `repeats` have short runs: they are run that many
    times per cycle and timed by the median call.
    """

    scenario: str
    filters: tuple[str, ...]
    runs: int
    steps: int
    repeats: dict = field(default_factory=dict)


# Sizes are chosen so that one round takes 30-40 s on a 2-core x86 box (see
# README.md).  The robot horizon is short because the spread of its RMSE
# comes from the initial-estimate offsets, which only more runs average out.
# A ukf call takes 5-7 ms, so it is repeated.
WORKLOADS = {
    "radar-mc": Workload("radar", ("dsmf", "esmf", "ukf"), runs=1, steps=20,
                         repeats={"ukf": 20}),
    "robot-mc": Workload("robot", ("dsmf", "esmf", "ukf"), runs=2, steps=8,
                         repeats={"ukf": 20}),
}


@dataclass
class Round:
    attempted: int
    failed: int
    correct: bool
    timings: dict  # end-to-end time figures of this round, at reference speed
    quality: dict
    summaries: dict  # output dir -> summary.json bytes


# --------------------------------------------------------------------------
# Filters


def mc_config(mods, spec: Workload, name: str, seed: int):
    return mods["harness"].RunConfig(
        scenario=spec.scenario, filters=(name,), runs=spec.runs,
        steps=spec.steps, master_seed=seed,
    ).validate()


def _outside_steps(run, name: str) -> int:
    """Steps at which the filter set misses the true state, by the
    benchmark's own quadratic form."""
    return sum(
        bool(checks.quadratic_forms(e.center, e.shape, run.truth[k + 1])[0]
             > 1.0 + CONTAINMENT_SLACK)
        for k, e in enumerate(run.filters[name].sets)
    )


def _rmse_by_step(runs, name: str, components) -> np.ndarray:
    err = np.stack([
        run.filters[name].estimates[:, components] - run.truth[1:, components]
        for run in runs
    ])  # (runs, steps, len(components))
    return np.sqrt((err**2).sum(axis=2).mean(axis=0))


def _traces(runs, name: str) -> np.ndarray:
    return np.array([[np.trace(e.shape) for e in run.filters[name].sets] for run in runs])


def run_filters(mods, spec: Workload, seed: int, out_dir: Path):
    """One cycle's filter calls: ({filter: result}, {filter: seconds per
    step}, operations attempted, {output dir: summary.json bytes})."""
    harness = mods["harness"]
    results, per_step, attempted = {}, {}, 0
    for name in spec.filters:
        config = mc_config(mods, spec, name, seed)
        calls = []
        for _ in range(spec.repeats.get(name, 1)):
            t0 = time.perf_counter()
            results[name] = harness.run_experiment(config)
            calls.append(time.perf_counter() - t0)
            attempted += spec.runs * spec.steps
        per_step[name] = statistics.median(calls) / (spec.runs * spec.steps)
    summaries = {}
    for name, result in results.items():
        harness.emit_outputs(result, out_dir / name)
        summaries[f"{out_dir.name}/{name}"] = (out_dir / name / "summary.json").read_bytes()
    return results, per_step, attempted, summaries


def filter_failures(spec: Workload, results: dict) -> int:
    """Steps the harness reports as failed, and dsmf and esmf steps whose
    set misses the true state, each counted once per repeated call."""
    failed = 0
    for name, result in results.items():
        failed += spec.repeats.get(name, 1) * result.failures[name]
        if name in ("dsmf", "esmf"):
            failed += spec.repeats.get(name, 1) * sum(
                _outside_steps(run, name) for run in result.runs)
    return failed


def filter_checks(spec: Workload, runs: dict) -> bool:
    if spec.scenario == "radar":
        # After the first ten steps the sampled enclosure must be tighter
        # than the linearized one.
        return bool(_traces(runs["dsmf"], "dsmf")[:, 10:].mean()
                    < _traces(runs["esmf"], "esmf")[:, 10:].mean())
    return all(
        _rmse_by_step(runs["dsmf"], "dsmf", comp).mean()
        < _rmse_by_step(runs["esmf"], "esmf", comp).mean()
        for comp in ([0, 1], [2])  # position, heading
    )


# --------------------------------------------------------------------------
# Replay

# A solve that stops at max_iter has no duality-gap guarantee.  Scaled up to
# cover its cloud, each of the 229 capped solves of the stored set lies at
# most 5.2e-3 above the minimum logdet; the check allows twice that.
CAPPED_EXCESS = 1e-2


def replay_order(clouds: dict, preset: str, seed: int) -> list:
    """(points, reference logdet) of every stored cloud of the preset.  The
    seed shuffles the order of the captured runs; within a run, steps stay
    in order and each step's prediction cloud precedes its measurement
    cloud."""
    runs = [int(r) for r in np.unique(clouds[f"{preset}_pred_run"])]
    random.Random(seed).shuffle(runs)
    order = []
    for run in runs:
        rows = {kind: np.flatnonzero(clouds[f"{preset}_{kind}_run"] == run)
                for kind in ("pred", "meas")}
        for i_pred, i_meas in zip(rows["pred"], rows["meas"]):
            for kind, i in (("pred", i_pred), ("meas", i_meas)):
                order.append((clouds[f"{preset}_{kind}_points"][i],
                              float(clouds[f"{preset}_{kind}_ref_logdet"][i])))
    return order


@dataclass
class Replayed:
    seconds: float  # time spent in fw_solve
    failed: int
    correct: bool


def replay(mods, group: list, tol: float, max_iter: int) -> Replayed:
    """Solve each stored cloud of `group` with the filter's solver settings.

    A solve fails when it raises or when its ellipsoid leaves a point of
    its own cloud beyond the 1 + 2 tol slack that a converged solve
    guarantees.  Every other solve is checked against the reference
    after its ellipsoid is scaled up, if need be, to cover the cloud: with
    s = max(1, max_i q_i), its logdet plus n log s covers the cloud, so it
    may not lie below the minimum, and may lie above it by at most
    n log(1 + 2 tol) for a converged solve (the dual ellipsoid is below
    the minimum and s <= 1 + 2 tol) or CAPPED_EXCESS for a capped one.
    The check reads the same whether fw_solve returns the dual ellipsoid
    or one already scaled to cover.
    """
    mvee = mods["mvee"]
    solutions, busy = [], 0.0
    for points, _ in group:
        t0 = time.perf_counter()
        try:
            solutions.append(mvee.fw_solve(points, tol=tol, max_iter=max_iter))
        except Exception as err:  # any raise is a failed operation
            print(f"smbench: fw_solve raised {err!r}", file=sys.stderr)
            solutions.append(None)
        busy += time.perf_counter() - t0
    failed, correct = 0, True
    for (points, ref_logdet), sol in zip(group, solutions):
        if sol is None:
            failed += 1
            continue
        e = sol.ellipsoid
        q_max = checks.quadratic_forms(e.center, e.shape, points).max()
        if q_max > 1.0 + 2.0 * tol:
            failed += 1
            continue
        n = points.shape[1]
        excess = (np.linalg.slogdet(e.shape)[1] + n * np.log(max(1.0, q_max))
                  - ref_logdet)
        limit = n * np.log1p(2.0 * tol) if sol.converged else CAPPED_EXCESS
        correct &= bool(-1e-8 <= excess <= limit + 1e-8)
    return Replayed(busy, failed, correct)


# --------------------------------------------------------------------------
# A whole round


def workload_round(mods, spec: Workload, seed: int, order: list, tol: float,
                   max_iter: int, out_dir: Path) -> Round:
    """CYCLES cycles of filter runs and replayed solves; cycle c replays
    the c-th of CYCLES equal slices of `order`."""
    runs = {name: [] for name in spec.filters}
    per_step = {name: [] for name in spec.filters}
    per_solve, attempted, failed, correct, summaries = [], 0, 0, True, {}
    bounds = [len(order) * c // CYCLES for c in range(CYCLES + 1)]
    gauge = SpeedGauge()
    for cycle in range(CYCLES):
        results, step_s, tried, written = run_filters(
            mods, spec, cycle_seed(seed, cycle), out_dir / f"cycle{cycle}")
        group = order[bounds[cycle]:bounds[cycle + 1]]
        solved = replay(mods, group, tol, max_iter)
        factor = gauge.factor()
        for name in spec.filters:
            per_step[name].append(step_s[name] * factor)
            runs[name].extend(results[name].runs)
        per_solve.append(solved.seconds / len(group) * factor)
        attempted += tried + len(group)
        failed += filter_failures(spec, results) + solved.failed
        correct &= solved.correct
        summaries.update(written)

    timings = {f"{name}_step_ms": 1e3 * statistics.median(per_step[name])
               for name in spec.filters}
    timings["solve_ms"] = 1e3 * statistics.median(per_solve)
    fixed = runs["dsmf"][:QUALITY_CYCLES * spec.runs]  # on master seeds 0, 1, ...
    quality = {
        "dsmf_trace": float(_traces(fixed, "dsmf").mean()),
        "dsmf_rmse_x": float(_rmse_by_step(fixed, "dsmf", [0]).mean()),
    }
    correct &= filter_checks(spec, runs)
    return Round(attempted, failed, bool(correct), timings, quality, summaries)
