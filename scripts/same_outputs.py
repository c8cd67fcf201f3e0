"""Whether two trees write the same outputs, file by file, in one
SAME_<label>.json.

    python3 scripts/same_outputs.py --parent ../parent --change . --label mychange

In each tree, `smfilter simulate` runs on a fixed grid: radar and robot, 3
runs x 30 steps, master seed 0, with dsmf, esmf and ukf.  Each tree runs its
own sources (PYTHONPATH=<tree>/src) in a fresh working directory, with the
same relative --out, since summary.json records out_dir.  The sha256 of
metrics.csv, summary.json and every sets/ file are compared.  For each file
that differs, the report gives, per column (a CSV column, or a summary.json
key path), the largest absolute and relative change and the number of
changed cells.  The result is reported, not acted on: the script exits 0
whatever it finds, and non-zero only when a run fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import commit_of  # noqa: E402

PRESETS = ("radar", "robot")
GRID = ["--filters", "dsmf,esmf,ukf", "--runs", "3", "--steps", "30", "--seed", "0"]
OUT = "out"  # the same relative --out in both trees


def simulate(tree: Path, preset: str, work: Path) -> Path:
    """The output directory of the grid's run of preset by tree's sources,
    written under work."""
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "smfilter.cli", "simulate", "--scenario", preset,
           *GRID, "--out", OUT]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"same_outputs: {' '.join(cmd)} with {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return work / OUT


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flatten(value, key: str, out: dict) -> None:
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(item, f"{key}.{name}" if key else str(name), out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", out)
    else:
        out[key] = [value]


def columns(path: Path) -> dict:
    """A file as columns of cells: a CSV's columns by header, numbers read
    as floats; a JSON file's leaves by key path, one cell each."""
    if path.suffix == ".json":
        out: dict = {}
        _flatten(json.loads(path.read_text()), "", out)
        return out
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    out = {name: [] for name in header}
    for row in rows:
        for name, cell in zip(header, row):
            try:
                out[name].append(float(cell))
            except ValueError:
                out[name].append(cell)
    return out


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def cell_change(p, c) -> tuple[float, float]:
    """The absolute and relative change from p to c: 0 for equal cells (NaN
    equals NaN), inf where either is not a finite number, or when p is 0."""
    if p == c or (_number(p) and _number(c) and math.isnan(p) and math.isnan(c)):
        return 0.0, 0.0
    if not (_number(p) and _number(c) and math.isfinite(p) and math.isfinite(c)):
        return math.inf, math.inf
    diff = abs(c - p)
    return diff, diff / abs(p) if p else math.inf


def column_changes(parent: Path, change: Path) -> dict:
    """Per column that differs: the largest absolute and relative change,
    the number of changed cells, and both lengths; a column on one side
    only counts every cell of it as changed."""
    a, b = columns(parent), columns(change)
    out = {}
    for name in [*a, *(n for n in b if n not in a)]:
        pa, ch = a.get(name, []), b.get(name, [])
        changes = [cell_change(p, c) for p, c in zip(pa, ch)]
        changes += [(math.inf, math.inf)] * abs(len(pa) - len(ch))
        changed = [d for d in changes if d != (0.0, 0.0)]
        if changed:
            out[name] = {"max_abs": max(d[0] for d in changed),
                         "max_rel": max(d[1] for d in changed),
                         "cells_changed": len(changed), "cells": [len(pa), len(ch)]}
    return out


def compare_dirs(parent: Path, change: Path) -> dict:
    """Per file under either output directory (relative path): each side's
    sha256 (None where it is missing), whether they match, and for a file
    on both sides that differs, its column changes."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    out = {}
    for name in names:
        pa, ch = parent / name, change / name
        entry = {"parent": sha256(pa) if pa.is_file() else None,
                 "change": sha256(ch) if ch.is_file() else None}
        entry["same"] = entry["parent"] == entry["change"]
        if not entry["same"] and entry["parent"] and entry["change"]:
            entry["columns"] = column_changes(pa, ch)
        out[name] = entry
    return out


def table(files: dict) -> list[str]:
    """One line per file, then one per changed column of each differing file."""
    lines = []
    for name, entry in files.items():
        state = ("same" if entry["same"] else "only in change" if entry["parent"] is None
                 else "only in parent" if entry["change"] is None else "DIFFERS")
        lines.append(f"{name}: {state}")
        for col, m in entry.get("columns", {}).items():
            lines.append(f"  {col}: max abs {m['max_abs']:.3g}, max rel {m['max_rel']:.3g}, "
                         f"{m['cells_changed']} of {max(m['cells'])} cells")
    same = sum(e["same"] for e in files.values())
    lines.append(f"{same} of {len(files)} files identical")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="the change tree")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    files = {}
    with tempfile.TemporaryDirectory() as work:
        for preset in PRESETS:
            out = {side: simulate(tree, preset, Path(work) / side / preset)
                   for side, tree in trees.items()}
            for name, entry in compare_dirs(out["parent"], out["change"]).items():
                files[f"{preset}/{name}"] = entry
    report = {
        "label": args.label,
        "command": f"smfilter simulate --scenario {{{','.join(PRESETS)}}} {' '.join(GRID)} "
                   f"--out {OUT}",
        "commits": {side: commit_of(tree) for side, tree in trees.items()},
        "identical": all(e["same"] for e in files.values()),
        "files": files,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"SAME_{args.label}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\n".join(table(files)))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
