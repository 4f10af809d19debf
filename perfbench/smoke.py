"""Smoke test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Run from the repository root. Checks that every metric BENCHMARK.json names
is emitted with its unit, untraced and traced, that the layer self times
add up to the traced root, that a planted NaN prediction or loss is counted
as a failed op, and that the command refuses to run without the sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workload  # noqa: E402
from tglrn import model  # noqa: E402

TINY_MODEL = dict(
    embed_dim=4, hop_dim=4, hidden_dim=8, levels=2, diff_steps=2, kernel_size=2,
    n_blocks=1, gamma=0.3, dropout_rate=0.1,
)
W = workload.WORKLOADS
TINY = [
    replace(W["train_n8"], name="tiny_train_chain", epochs=2, setup_reps=2),
    replace(W["train_n170"], name="tiny_train_road", nodes=10, steps=200, road_edges=14,
            model=TINY_MODEL, train_windows=8, val_windows=4, setup_reps=2),
    replace(W["predict_n170"], name="tiny_predict_road", nodes=10, steps=200, road_edges=14,
            model=TINY_MODEL, test_windows=4, setup_reps=2),
]


def check_metrics(record, trace):
    declared = {m["name"]: m["unit"] for m in workload.benchmark_metrics(trace)}
    res = record["result"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, record["failures"]
    assert set(res["metrics"]) == set(declared), set(res["metrics"]) ^ set(declared)
    for name, m in res["metrics"].items():
        assert m["unit"] == declared[name], (name, m["unit"])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    if trace:
        root = record["all_values"]["trace.root_s"]
        assert abs(record["self_time_sum_s"] - root) <= 1e-9 * root, (record["self_time_sum_s"], root)


def planted_nan(spec, out_dir):
    """Poison one public method; the run must count failed ops and report incorrect."""
    if spec.kind == "predict":
        attr, orig = "predict_raw", model.TGLRN.predict_raw

        def poisoned(self, *args, **kwargs):
            return orig(self, *args, **kwargs) * np.nan
    else:
        attr, orig = "forward", model.TGLRN.forward

        def poisoned(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            return out * np.nan if kwargs.get("mode") == "train" else out

    setattr(model.TGLRN, attr, poisoned)
    try:
        record = workload.run(spec, 0, 0.0, False, out_dir)
    finally:
        setattr(model.TGLRN, attr, orig)
    res = record["result"]
    assert not res["correct"] and res["failed"] >= 1, res
    return res


def refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(
            cmd + ["--workload", "train_n8", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)


def main():
    out_dir = ROOT / ".bench_build" / "perfbench" / "smoke"
    for spec in TINY:
        for trace in (False, True):
            check_metrics(workload.run(spec, 0, 0.0, trace, out_dir), trace)
        res = planted_nan(spec, out_dir)
        print(f"ok {spec.name}: metrics complete; planted NaN -> {res['failed']}/{res['attempted']} ops failed")
    refuses_without_sources()
    print("ok command exits non-zero without the sources")
    shutil.rmtree(out_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
