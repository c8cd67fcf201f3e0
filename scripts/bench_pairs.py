"""Alternating parent/change pairs of the untraced benchmark, summarised in
one BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload radar-mc --workload robot-mc --pairs 10 --seconds 25 \
        --first-seed 2300 --label mychange

Pair i runs `smbench/run.py --workload W --seed (first_seed + i) --seconds S
--trace 0` in each tree, the parent first on even i and the change first on
odd i, so that a drift of the machine's speed over the session falls on
both sides alike.  Each tree runs its own copy of smbench/run.py on its own
sources.  For every end-to-end metric that the change tree's BENCHMARK.json
declares, the file holds each side's median, quartiles and minimum over
the pairs, and the number of pairs in which the change is better (a tie is
no win).
A metric with a bound is also judged as the benchmark pipeline judges it:
worse_than_bound when the change's median is worse than the parent's by
more than bound x |parent median|, and unresolved when the parent's IQR
exceeds that margin and not every change run beats every parent run.
It also records each pair's raw figures, whether every run printed
`correct: true` and `failed: 0`, the commit of each tree (when it is a git
checkout), the core count, the Python and numpy versions and the BLAS
numpy was built with.  The figures and judgements are reported, not acted
on: the script exits 0 whatever they say, and non-zero only when a run fails
to print its result.

With --trace N, each workload then runs N traced pairs (`--trace 1`, on the
seeds after the untraced ones, in the same alternating order), and the file
also holds, under "traced", each side's median, quartiles and minimum of
every per-layer figure that BENCHMARK.json declares, with their raw figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def blas_name() -> str:
    """The BLAS numpy names in np.show_config, or 'unknown'."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 prints its configuration only
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        names = [line.split("=", 1)[1].strip(" '[]") for line in text.getvalue().splitlines()
                 if line.strip().startswith("libraries") and "blas" in line]
        return names[0] if names else "unknown"


def commit_of(tree: Path) -> str | None:
    """The HEAD commit of a git checkout, with '-dirty' when its tracked
    files differ from it; None for a tree that is not a checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The last-line JSON of one benchmark run in tree, traced when trace is 1."""
    cmd = [sys.executable, "smbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    """Median, quartiles, IQR and minimum.  The minimum is a diagnostic: a
    metric that is bimodal per process (setup_s) moves its median with the
    mix of bands, while a real change moves each side's fastest run."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "min": float(min(values))}


def summarise(pairs: list, declared: list) -> dict:
    """Per declared metric: each side's spread, the change's wins, the
    median change in percent of the parent's median, and for a metric with
    a bound whether it is worse_than_bound or unresolved (None without)."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if not all(name in p[side]["metrics"] for p in pairs for side in ("parent", "change")):
            continue
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        sign = 1.0 if metric["better"] == "lower" else -1.0
        parent, change = spread(values["parent"]), spread(values["change"])
        worse = unresolved = None
        if metric.get("bound") is not None:
            margin = metric["bound"] * abs(parent["median"])
            worse = sign * (change["median"] - parent["median"]) > margin
            every_run_better = (max(sign * c for c in values["change"])
                                < min(sign * p for p in values["parent"]))
            unresolved = parent["iqr"] > margin and not every_run_better
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric.get("bound"),
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (c - p) < 0.0
                               for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            "median_change_pct": (100.0 * (change["median"] - parent["median"])
                                  / parent["median"] if parent["median"] else None),
            "better_by_more_than_parent_iqr":
                sign * (parent["median"] - change["median"]) > parent["iqr"],
            "worse_than_bound": worse,
            "unresolved": unresolved,
        }
    return out


def run_pairs(trees: dict, workload: str, count: int, first_seed: int, seconds: float,
              trace: int) -> list:
    """count alternating pairs on the seeds first_seed, first_seed + 1, ...:
    the parent first on even i and the change first on odd i."""
    pairs = []
    for i in range(count):
        seed = first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            print(f"bench_pairs: {workload} seed {seed} {side}" + " traced" * trace,
                  file=sys.stderr, flush=True)
            pair[side] = run_once(trees[side], workload, seed, seconds, trace)
        pairs.append(pair)
    return pairs


def report_pairs(pairs: list, declared: list) -> dict:
    """Whether every run was correct, each side's failed operations, the
    summary of the declared metrics and each pair's raw figures."""
    return {
        "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "failed": {s: sum(p[s]["failed"] for p in pairs) for s in ("parent", "change")},
        "metrics": summarise(pairs, declared),
        "pairs": [{"seed": p["seed"], "first": p["first"],
                   **{s: {name: m["value"] for name, m in p[s]["metrics"].items()}
                      for s in ("parent", "change")}} for p in pairs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="the change tree")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of smbench/run.py; repeat for more")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, default=0,
                        help="traced pairs per workload, after the untraced ones")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.trace < 0:
        parser.error("--trace must be >= 0")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    report = {
        "label": args.label,
        "command": f"smbench/run.py --seconds {args.seconds:g} --trace 0",
        "traced_pairs": args.trace,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "blas": blas_name()},
        "commits": {side: commit_of(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = run_pairs(trees, workload, args.pairs, args.first_seed, args.seconds, 0)
        result = report["workloads"][workload] = report_pairs(pairs, spec["end_to_end"])
        if args.trace:
            traced = run_pairs(trees, workload, args.trace, args.first_seed + args.pairs,
                               args.seconds, 1)
            result["traced"] = report_pairs(traced, spec["per_layer"])
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for workload, result in report["workloads"].items():
        for section in (result, result.get("traced", {"metrics": {}})):
            for name, m in section["metrics"].items():
                print(f"{workload} {name}: parent {m['parent']['median']:.6g} "
                      f"(min {m['parent']['min']:.6g}) change {m['change']['median']:.6g} "
                      f"(min {m['change']['min']:.6g}) "
                      f"wins {m['change_wins']}/{m['pairs']} "
                      f"worse_than_bound {m['worse_than_bound']} unresolved {m['unresolved']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
