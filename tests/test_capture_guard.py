"""The cloud-regeneration tool keeps working against the package.

smbench/capture.py records every cloud the filter hands its enclosing
solve by wrapping dsmf.fw_solve and reading `.points` off the cloud it is
given.  This test runs it for three steps of each preset and checks the
clouds it records, so that a change which stops handing the solve such a
cloud fails here rather than only when the stored clouds are regenerated.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "smbench"))

import capture  # noqa: E402
import source  # noqa: E402


@pytest.mark.parametrize("preset, pred_shape, meas_shape", [
    ("radar", (200, 4), (200, 2)),
    ("robot", (200, 3), (256, 2)),
])
def test_capture_run_records_each_cloud(preset, pred_shape, meas_shape):
    mods = {name: importlib.import_module(f"smfilter.{name}") for name in source.MODULES}
    # An empty cache makes the filter solve its design optima inside the
    # run, as when this test runs alone: those solves must not reach the
    # wrapped dsmf.fw_solve, whose recorder reads `.points` off every cloud.
    mods["dsmf"]._design_optimum.cache_clear()
    clouds = capture.capture_run(mods, preset, steps=3, seed=0)
    assert [c.shape for c in clouds["pred"]] == [pred_shape] * 3
    assert [c.shape for c in clouds["meas"]] == [meas_shape] * 3
