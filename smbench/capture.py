"""Regenerate the stored replay clouds and their reference volumes.

    python3 smbench/capture.py

Runs the dual set-membership filter on seeded radar and robot experiments,
records every point cloud it hands to the enclosing-ellipsoid solver (the
prediction cloud, then the measurement cloud, of each step), computes each
cloud's minimum-volume logdet with the benchmark's own solver
(checks.min_volume_logdet, not smfilter's fw_solve), and writes
clouds.npz plus its SHA-256 to clouds.sha256.  The file is written
byte-for-byte reproducibly, so rerunning this on the same code reproduces
the recorded digest.
"""

from __future__ import annotations

import io
import sys
import zipfile

import numpy as np

import checks
from source import import_smfilter

# (preset, runs, steps, master seed of the first run).  Each run is its own
# one-run experiment, so its clouds stay in step order.
CAPTURES = (("radar", 2, 30, 2019), ("robot", 2, 50, 2019))


def capture_run(mods, preset: str, steps: int, seed: int) -> dict:
    dsmf, harness, scenarios = mods["dsmf"], mods["harness"], mods["scenarios"]
    # Prediction clouds live in the state space, measurement clouds in the
    # two-dimensional position space.
    state_dim = scenarios.build_model(scenarios.build_scenario(preset)).state_dim
    clouds = {"pred": [], "meas": []}
    original = dsmf.fw_solve

    def recording_solve(points, *args, **kwargs):
        pts = np.array(points.points, dtype=float)
        clouds["pred" if pts.shape[1] == state_dim else "meas"].append(pts)
        return original(points, *args, **kwargs)

    dsmf.fw_solve = recording_solve
    try:
        result = harness.run_experiment(harness.RunConfig(
            scenario=preset, filters=("dsmf",), runs=1, steps=steps, master_seed=seed))
    finally:
        dsmf.fw_solve = original
    if result.failures["dsmf"]:
        raise RuntimeError(f"{preset} seed {seed}: the filter reported failures")
    if not len(clouds["pred"]) == len(clouds["meas"]) == steps:
        raise RuntimeError(f"{preset} seed {seed}: expected {steps} clouds of each kind")
    return clouds


def write_npz(path, arrays: dict) -> None:
    """np.savez with fixed member timestamps, so the bytes are reproducible."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]), allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0)), buf.getvalue())


def main() -> int:
    mods = import_smfilter()
    arrays = {}
    for preset, runs, steps, seed in CAPTURES:
        per_kind = {"pred": [], "meas": []}
        for r in range(runs):
            clouds = capture_run(mods, preset, steps, seed + r)
            for kind in per_kind:
                per_kind[kind].extend((r, k, pts) for k, pts in enumerate(clouds[kind]))
        for kind, items in per_kind.items():
            key = f"{preset}_{kind}"
            arrays[f"{key}_run"] = np.array([r for r, _, _ in items], dtype=np.int64)
            arrays[f"{key}_step"] = np.array([k for _, k, _ in items], dtype=np.int64)
            arrays[f"{key}_points"] = np.stack([pts for _, _, pts in items])
            arrays[f"{key}_ref_logdet"] = np.array(
                [checks.min_volume_logdet(pts) for _, _, pts in items])
            print(f"{key}: {len(items)} clouds of shape {items[0][2].shape}", file=sys.stderr)
    write_npz(checks.CLOUDS, arrays)
    digest = checks.file_digest(checks.CLOUDS)
    checks.CLOUDS_DIGEST.write_text(f"{digest}  {checks.CLOUDS.name}\n")
    print(digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
