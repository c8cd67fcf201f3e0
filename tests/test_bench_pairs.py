"""scripts/bench_pairs.py judges each metric with a bound as the benchmark
pipeline does: worse than the bound allows, or unresolved inside the
parent's spread; it also reports each side's minimum, and with --trace N
the per-layer figures of N traced pairs.  summarise and the printed summary
are checked on synthetic pairs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402

LOWER = {"name": "step_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98]  # IQR 0.015, far inside 0.25 x 1.0


def judged(metric, parent, change):
    """summarise's entry for one metric over the pairs zip(parent, change)."""
    pairs = [{side: {"metrics": {metric["name"]: {"value": value}}}
              for side, value in (("parent", p), ("change", c))}
             for p, c in zip(parent, change, strict=True)]
    return bench_pairs.summarise(pairs, [metric])[metric["name"]]


@pytest.mark.parametrize("factor, worse", [(1.3, True), (1.2, False), (0.7, False)])
def test_lower_is_better_against_its_bound(factor, worse):
    m = judged(LOWER, TIGHT, [factor * v for v in TIGHT])
    assert m["worse_than_bound"] is worse
    assert m["unresolved"] is False


@pytest.mark.parametrize("factor, worse", [(0.7, True), (0.8, False), (1.3, False)])
def test_higher_is_better_against_its_bound(factor, worse):
    m = judged(HIGHER, TIGHT, [factor * v for v in TIGHT])
    assert m["worse_than_bound"] is worse
    assert m["unresolved"] is False


def test_a_wide_parent_spread_is_unresolved():
    # The parent's IQR (0.75) exceeds 0.25 x its median (1.75), and one
    # change run (1.2) is slower than the fastest parent run (1.0).
    m = judged(LOWER, [1.0, 1.5, 2.0, 2.5], [0.6, 0.7, 0.8, 1.2])
    assert m["parent"]["iqr"] > 0.25 * m["parent"]["median"]
    assert m["worse_than_bound"] is False and m["unresolved"] is True


def test_a_wide_spread_that_every_change_run_beats_is_resolved():
    m = judged(LOWER, [1.0, 1.5, 2.0, 2.5], [0.6, 0.7, 0.8, 0.9])
    assert m["unresolved"] is False
    m = judged(HIGHER, [1.0, 1.5, 2.0, 2.5], [2.6, 2.7, 2.8, 2.9])
    assert m["unresolved"] is False


def test_a_metric_without_a_bound_is_not_judged():
    m = judged({**LOWER, "bound": None}, TIGHT, [2.0 * v for v in TIGHT])
    assert m["worse_than_bound"] is None and m["unresolved"] is None


def test_a_metric_missing_from_one_pair_is_skipped():
    pairs = [{side: {"metrics": {"step_ms": {"value": 1.0}, "rate": {"value": 2.0}}}
              for side in ("parent", "change")} for _ in range(3)]
    del pairs[1]["change"]["metrics"]["rate"]
    assert list(bench_pairs.summarise(pairs, [LOWER, HIGHER])) == ["step_ms"]


def test_the_printed_line_shows_each_side_s_minimum(tmp_path, monkeypatch, capsys):
    values = iter([0.5, 0.25, 0.75, 0.25])

    def run_once(tree, workload, seed, seconds, trace=0):
        return {"correct": True, "failed": 0,
                "metrics": {"step_ms": {"value": next(values)}}}

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [LOWER]}))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--workload", "w", "--pairs", "2", "--label", "t",
                             "--out-dir", str(tmp_path)]) == 0
    # Pair 0 runs the parent first (0.5, then the change 0.25); pair 1 the
    # change first (0.75, then the parent 0.25).  The change's median is
    # higher, though its fastest run matches the parent's.
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("w step_ms: parent 0.375 (min 0.25) change 0.5 (min 0.25) ")
    w = json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w"]
    m = w["metrics"]
    assert m["step_ms"]["parent"]["min"] == m["step_ms"]["change"]["min"] == 0.25
    assert "traced" not in w


def test_traced_pairs_report_each_side_s_per_layer_medians(tmp_path, monkeypatch):
    layer = {"name": "mvee.meas.ms", "unit": "ms", "better": "lower"}
    runs = []

    def run_once(tree, workload, seed, seconds, trace=0):
        side = "parent" if tree == parent else "change"
        runs.append((seed, side, trace))
        name, value = (layer["name"], 2.0) if trace else ("step_ms", 1.0)
        value *= 1.0 if side == "parent" else 0.5
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": value + 0.1 * (seed - 10)}}}

    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [LOWER], "per_layer": [layer]}))
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--pairs", "2", "--trace", "3",
                             "--first-seed", "10", "--label", "t",
                             "--out-dir", str(tmp_path)]) == 0
    # Two untraced pairs on seeds 10-11, then three traced ones on 12-14,
    # each pair alternating which side runs first.
    assert [(seed, trace) for seed, _, trace in runs] == (
        [(10, 0)] * 2 + [(11, 0)] * 2 + [(12, 1)] * 2 + [(13, 1)] * 2 + [(14, 1)] * 2)
    assert [side for _, side, _ in runs][4:8] == ["parent", "change", "change", "parent"]
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["traced_pairs"] == 3
    w = report["workloads"]["w"]
    assert list(w["metrics"]) == ["step_ms"]
    traced = w["traced"]
    assert list(traced["metrics"]) == ["mvee.meas.ms"]
    m = traced["metrics"]["mvee.meas.ms"]
    assert m["parent"]["median"] == pytest.approx(2.3)
    assert m["change"]["median"] == pytest.approx(1.3)
    assert m["change_wins"] == 3 and m["pairs"] == 3
    assert m["worse_than_bound"] is None
    assert [p["seed"] for p in traced["pairs"]] == [12, 13, 14]
    assert traced["all_correct"] and traced["failed"] == {"parent": 0, "change": 0}

