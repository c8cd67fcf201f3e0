"""scripts/same_outputs.py compares two output directories file by file:
the sha256 of each, and for a file that differs the largest absolute and
relative change per column.  Checked on synthetic output directories, and
the whole script once on this tree against itself."""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import same_outputs  # noqa: E402

METRICS = "k,filter,trace,logdet,time_s\n1,dsmf,2.0,-1.5,\n2,dsmf,4.0,-inf,\n"
SETS = "k,c0,p00\n1,1.0,0.5\n2,-2.0,nan\n"
SUMMARY = {"config": {"runs": 2, "filters": ["dsmf"]}, "aggregate": {"dsmf": {"t": 3.0}}}


def write(root: Path, metrics=METRICS, sets=SETS, summary=SUMMARY, extra=None) -> Path:
    """An output directory as emit_outputs lays it out."""
    (root / "sets").mkdir(parents=True)
    (root / "metrics.csv").write_text(metrics)
    (root / "sets" / "run0_dsmf.csv").write_text(sets)
    (root / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if extra:
        (root / "sets" / extra).write_text(sets)
    return root


def test_identical_directories_match_file_by_file(tmp_path):
    files = same_outputs.compare_dirs(write(tmp_path / "a"), write(tmp_path / "b"))
    assert sorted(files) == ["metrics.csv", "sets/run0_dsmf.csv", "summary.json"]
    assert all(e["same"] and e["parent"] == e["change"] and "columns" not in e
               for e in files.values())
    assert same_outputs.table(files)[-1] == "3 of 3 files identical"


def test_a_changed_csv_reports_each_changed_column(tmp_path):
    changed = METRICS.replace("4.0,-inf", "4.4,-inf").replace("2.0,-1.5", "2.0,-1.0")
    files = same_outputs.compare_dirs(write(tmp_path / "a"),
                                      write(tmp_path / "b", metrics=changed))
    entry = files["metrics.csv"]
    assert not entry["same"] and entry["parent"] != entry["change"]
    assert set(entry["columns"]) == {"trace", "logdet"}
    trace = entry["columns"]["trace"]
    assert trace["max_abs"] == pytest.approx(0.4) and trace["max_rel"] == pytest.approx(0.1)
    assert trace["cells_changed"] == 1 and trace["cells"] == [2, 2]
    assert entry["columns"]["logdet"]["max_rel"] == pytest.approx(1 / 3)
    assert files["summary.json"]["same"] and files["sets/run0_dsmf.csv"]["same"]
    lines = same_outputs.table(files)
    assert "metrics.csv: DIFFERS" in lines and lines[-1] == "2 of 3 files identical"


def test_nan_equals_nan_and_a_moved_infinity_is_an_infinite_change(tmp_path):
    assert same_outputs.cell_change(math.nan, math.nan) == (0.0, 0.0)
    assert same_outputs.cell_change(-math.inf, -math.inf) == (0.0, 0.0)
    assert same_outputs.cell_change(-math.inf, 1.0) == (math.inf, math.inf)
    assert same_outputs.cell_change(0.0, 1e-300) == (1e-300, math.inf)
    assert same_outputs.cell_change("dsmf", "esmf") == (math.inf, math.inf)
    changed = SETS.replace("nan", "0.25")
    files = same_outputs.compare_dirs(write(tmp_path / "a"), write(tmp_path / "b", sets=changed))
    assert files["sets/run0_dsmf.csv"]["columns"] == {
        "p00": {"max_abs": math.inf, "max_rel": math.inf, "cells_changed": 1, "cells": [2, 2]}}


def test_summary_json_is_compared_by_key_path(tmp_path):
    summary = {**SUMMARY, "aggregate": {"dsmf": {"t": 3.3}}, "steps": 30}
    files = same_outputs.compare_dirs(write(tmp_path / "a"),
                                      write(tmp_path / "b", summary=summary))
    columns = files["summary.json"]["columns"]
    assert set(columns) == {"aggregate.dsmf.t", "steps"}
    assert columns["aggregate.dsmf.t"]["max_rel"] == pytest.approx(0.1)
    assert columns["steps"] == {"max_abs": math.inf, "max_rel": math.inf,
                                "cells_changed": 1, "cells": [0, 1]}


def test_a_file_on_one_side_only_is_reported(tmp_path):
    files = same_outputs.compare_dirs(write(tmp_path / "a"),
                                      write(tmp_path / "b", extra="run1_dsmf.csv"))
    entry = files["sets/run1_dsmf.csv"]
    assert entry["parent"] is None and entry["change"] and not entry["same"]
    assert "columns" not in entry
    assert "sets/run1_dsmf.csv: only in change" in same_outputs.table(files)


def test_extra_rows_count_as_changed_cells(tmp_path):
    files = same_outputs.compare_dirs(write(tmp_path / "a"),
                                      write(tmp_path / "b", sets=SETS + "3,0.0,1.0\n"))
    columns = files["sets/run0_dsmf.csv"]["columns"]
    assert set(columns) == {"k", "c0", "p00"}
    assert all(c["cells_changed"] == 1 and c["cells"] == [2, 3] for c in columns.values())


def test_one_tree_against_itself_is_identical(tmp_path, capsys):
    # The whole script, on this tree on both sides: 11 files per preset.
    assert same_outputs.main(["--parent", str(ROOT), "--change", str(ROOT),
                              "--label", "self", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "SAME_self.json").read_text())
    assert report["identical"] is True and len(report["files"]) == 22
    assert {"radar/summary.json", "robot/sets/run2_ukf.csv"} <= set(report["files"])
    assert "22 of 22 files identical" in capsys.readouterr().out
