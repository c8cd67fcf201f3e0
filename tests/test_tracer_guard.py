"""The benchmark's per-layer figures stay computable from the package.

smbench/tracer.py reads the package by function name (dsmf.fuse,
dsmf.optimize_rho, mvee.fw_solve under dsmf.predict, ...).  This test runs
a tiny traced round per preset and checks that every per-layer figure
BENCHMARK.json declares comes out, so that a change which drops or stops
calling one of those functions fails here rather than only in the
benchmark.  Each preset is traced and reduced on its own, with its own
replayed solve, after one untraced round that fills the package's caches,
as smbench/run.py does: a figure that one preset's traced round alone
cannot produce must not be filled in by the other preset or by a first
call's set-up.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "smbench"))

import source  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_layer_metrics_cover_the_declared_figures(tmp_path):
    mods = {name: importlib.import_module(f"smfilter.{name}") for name in source.MODULES}
    harness = mods["harness"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    for preset in ("radar", "robot"):
        runs = workloads.WORKLOADS[f"{preset}-mc"].runs

        def one_round():
            for name in harness.KNOWN_FILTERS:
                config = harness.RunConfig(scenario=preset, filters=(name,), runs=runs,
                                           steps=3, master_seed=0).validate()
                harness.emit_outputs(harness.run_experiment(config),
                                     tmp_path / preset / name)
            mods["mvee"].fw_solve(np.random.default_rng(0).standard_normal((40, 3)))

        one_round()
        with tracer.Tracer(mods) as tr:
            one_round()
        metrics = tracer.layer_metrics(tr, mods["dsmf"].RHO_EDGE + 2 * mods["dsmf"].RHO_TOL)
        assert not wanted - set(metrics), preset
        # One rho search per set-membership update: the benchmark's dsmf.rho.*
        # and baselines.esmf.rho.* figures would read 0 if a refactor stopped
        # calling optimize_rho from the updates.
        esmf_updates = sum(s.name == "baselines.esmf_update" for s in tr.spans)
        assert metrics["dsmf.step.calls"] > 0 and esmf_updates > 0, preset
        assert metrics["dsmf.rho.calls"] == metrics["dsmf.step.calls"], preset
        assert metrics["baselines.esmf.rho.calls"] == esmf_updates, preset
