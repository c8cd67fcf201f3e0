"""Command-line interface.

Subcommands:
  simulate     Monte Carlo filter experiment driven by a config file
  mvee         enclosing ellipsoid of a CSV point cloud, JSON to stdout
  bench        solver timing table over standard-uniform clouds
  sweep-sigma  posterior-size-vs-prior-size single-update study

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .harness import (
    RunConfig,
    affine_fit_r2,
    aggregate,
    bench_mvee,
    emit_outputs,
    read_config,
    run_experiment,
    split_filters,
    sweep_sigma,
    write_table,
)
from .mvee import DEFAULT_TOL, fw_solve
from .scenarios import PRESETS


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smfilter",
        description="Set-membership filtering toolkit with ellipsoidal bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo filter experiment")
    sim.add_argument("--config", help="config file (flat key=value; [scenario] section)")
    sim.add_argument("--scenario", help="scenario preset: " + ", ".join(PRESETS))
    sim.add_argument("--filters", type=split_filters, help="comma list from dsmf,esmf,ukf")
    sim.add_argument("--runs", type=int)
    sim.add_argument("--steps", type=int)
    sim.add_argument("--seed", type=int, dest="master_seed")
    sim.add_argument("--out", dest="out_dir")
    sim.add_argument("--timing", dest="record_timing", action="store_const", const=True,
                     help="serialize wall-clock timings (breaks byte-identical outputs)")

    mv = sub.add_parser("mvee", help="enclose a CSV point cloud")
    mv.add_argument("--points", required=True, help="CSV, one point per row, no header")
    mv.add_argument("--tol", type=float, default=DEFAULT_TOL)
    mv.add_argument("--max-iter", type=int, default=None)

    be = sub.add_parser("bench", help="solver timing table")
    be.add_argument("--n", type=_int_list, default=[2, 6])
    be.add_argument("--m", type=_int_list,
                    default=[50, 100, 200, 400, 600, 800, 1000])
    be.add_argument("--trials", type=int, default=20)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--out", default=".")

    sw = sub.add_parser("sweep-sigma", help="posterior size vs prior size study")
    sw.add_argument("--from", dest="sigma_from", type=float, default=5.0)
    sw.add_argument("--to", dest="sigma_to", type=float, default=50.0)
    sw.add_argument("--step", dest="sigma_step", type=float, default=5.0)
    sw.add_argument("--replicates", type=int, default=50)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--out", default=".")
    return parser


def _config_from_args(args) -> RunConfig:
    """The RunConfig of the config file's fields (read_config), or of the
    defaults, with each field whose flag was given (the flag's dest is the
    field's name) set to the flag's value: run_experiment checks it."""
    fields = read_config(args.config) if args.config else {}
    fields.update({f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                   if getattr(args, f.name, None) is not None})
    return RunConfig(**fields)


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    result = run_experiment(config)
    emit_outputs(result, config.out_dir)
    agg = {
        name: {"containment_rate": round(figures["containment_rate"], 6),
               "failures": result.failures[name]}
        for name, figures in aggregate(result).items()
    }
    print(json.dumps({"out_dir": config.out_dir, "runs": config.runs,
                      "aggregate": agg}, indent=2, sort_keys=True))
    return 0


def cmd_mvee(args) -> int:
    path = Path(args.points)
    if not path.exists():
        raise ConfigError(f"points file {path} does not exist")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: checked below
            pts = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise ConfigError(f"{path}: row {bad[0] + 1} is not finite")
    if len(pts) <= pts.shape[1]:
        raise ConfigError(f"{path}: need at least n+1 = {pts.shape[1] + 1} points, got {len(pts)}")
    if not 0.0 < args.tol < np.inf:
        raise ConfigError("--tol must be finite and positive")
    if args.max_iter is not None and args.max_iter < 0:
        raise ConfigError("--max-iter must be nonnegative")
    sol = fw_solve(pts, tol=args.tol, max_iter=args.max_iter)
    out = {
        "center": sol.ellipsoid.center.tolist(),
        "shape": sol.ellipsoid.shape.tolist(),
        "gap": sol.duality_gap,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }
    print(json.dumps(out))
    return 0


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    if min(args.n, default=0) < 1:
        raise ConfigError("--n must be >= 1")
    if min(args.m, default=0) <= max(args.n):
        raise ConfigError("--m must be >= n + 1 for every --n")
    rows = bench_mvee(args.n, args.m, args.trials, master_seed=args.seed)
    path = write_table(rows, Path(args.out) / "bench.csv")
    print(json.dumps({"csv": str(path), "cells": rows}, indent=2))
    return 0


def cmd_sweep_sigma(args) -> int:
    if not args.sigma_from > 0.0:
        raise ConfigError("--from must be > 0")
    if not (0.0 < args.sigma_step < np.inf and args.sigma_from <= args.sigma_to < np.inf):
        raise ConfigError("need finite step > 0 and to >= from")
    if args.replicates < 1:
        raise ConfigError("--replicates must be >= 1")
    sigmas = np.arange(args.sigma_from, args.sigma_to + 0.5 * args.sigma_step,
                       args.sigma_step)
    rows = sweep_sigma(sigmas, replicates=args.replicates, master_seed=args.seed)
    path = write_table(rows, Path(args.out) / "sigma_sweep.csv")
    sigma = [r["sigma"] for r in rows]
    slopes = {f"{name}_slope": affine_fit_r2(sigma, [r[f"{name}_logdet"] for r in rows])[0]
              for name in ("dsmf", "esmf")}
    print(json.dumps({"csv": str(path), **slopes}, indent=2))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"simulate": cmd_simulate, "mvee": cmd_mvee, "bench": cmd_bench,
                "sweep-sigma": cmd_sweep_sigma}
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
