"""Record the MAE references that benchmark runs are checked against.

    python3 perfbench/record_reference.py --seeds 0-19 [--workloads train_n8,predict_n170]

Run from the repository root, and only for a change that is meant to alter
the numbers (say so in that change). Each (workload, seed) pair runs one
untimed repetition with one BLAS thread and overwrites its entry in
perfbench/reference.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workload  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description="record MAE references")
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    ap.add_argument("--workloads", default=",".join(workload.WORKLOADS))
    args = ap.parse_args(argv)

    path = HERE / "reference.json"
    refs = json.loads(path.read_text())
    scratch = HERE.parent / ".bench_build" / "perfbench" / "reference-inputs"
    for name in args.workloads.split(","):
        spec = workload.WORKLOADS[name]
        for seed in args.seeds:
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            st = workload.setup(spec, seed, scratch, workload.prepare(spec, seed, scratch))
            rep = workload.REP[spec.kind](spec, st, seed)
            if rep.error:
                raise SystemExit(f"{name} seed {seed}: {rep.error}")
            refs.setdefault(name, {})[str(seed)] = rep.quality
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(name, seed, rep.quality, flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
