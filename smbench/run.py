"""Benchmark of smfilter: end-to-end figures, or per-layer figures when
traced.

    python3 smbench/run.py --workload radar-mc --seed 1 --seconds 25 --trace 0

Workloads (see README.md): radar-mc, robot-mc.  The run sets
up the workload 50 times and reports the median set-up time, then
repeats identical rounds until the next round would overrun --seconds (at
least one round).  With --trace 1 the rounds alternate untraced and traced,
and the per-layer figures come from the traced rounds.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One process and no worker threads: the filter works on matrices of
# order <= 5, where a BLAS thread pool only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import statistics
import sys
import time

import checks
import tracer
import workloads
from source import ROOT, import_smfilter

SETUP_REPEATS = 50
# emit_outputs writes here.  The files are kept from run to run, so each
# run overwrites the previous run's files: on ext4, creating a thousand
# files just after deleting a thousand costs two to three times as much as
# overwriting them, and varies far more.
OUT_DIR = ROOT / ".smbench_out"


def declared_units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def set_up(workload: str, seed: int):
    """Import smfilter afresh and build what the workload's rounds need."""
    mods = import_smfilter(fresh=True)
    spec = workloads.WORKLOADS[workload]
    opts = mods["dsmf"].FilterOptions()
    order = workloads.replay_order(checks.load_clouds(), spec.scenario, seed)
    scenario = mods["scenarios"].build_scenario(spec.scenario)
    mods["scenarios"].build_model(scenario)
    for name in spec.filters:
        workloads.mc_config(mods, spec, name, seed)
    out = OUT_DIR / workload
    return mods, lambda: workloads.workload_round(
        mods, spec, seed, order, opts.tol, opts.max_iter, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods, one_round = set_up(args.workload, args.seed)
        setup_times.append(time.perf_counter() - t0)

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(one_round())
        if args.trace:
            with tracer.Tracer(mods) as tr:
                traced.append(one_round())
            tracers.append(tr)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break

    rounds = plain + traced
    first = rounds[0]
    correct = all(r.correct for r in rounds)
    # Identical rounds must give identical outputs, traced or not.
    correct &= all(r.summaries == first.summaries for r in rounds)
    correct &= all(r.quality == first.quality for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if args.trace:
        rho_edge = mods["dsmf"].RHO_EDGE + 2 * mods["dsmf"].RHO_TOL
        per_round = [tracer.layer_metrics(tr, rho_edge) for tr in tracers]
        metrics = {
            name: (statistics.median(m[name] for m in per_round)
                   if isinstance(per_round[0][name], float) else per_round[0][name])
            for name in per_round[0]
        }
        # Work counts repeat exactly from round to round.
        correct &= all(
            m[name] == metrics[name] for m in per_round for name in m
            if not isinstance(m[name], float))
        metrics["trace.overhead_s"] = tracer.wrapper_seconds() * len(tracers[0].spans)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update({key: statistics.median(r.timings[key] for r in plain)
                        for key in first.timings})
        metrics.update(first.quality)

    units = declared_units()
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as err:
        print(f"smbench: {err}", file=sys.stderr)
        sys.exit(2)
