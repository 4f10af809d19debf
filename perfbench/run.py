"""Run one tglrn benchmark workload in its own process and print its result.

    python3 perfbench/run.py --workload train_n8 --seed 0 --seconds 20 --trace 0

Run from the repository root. The workload process gets one BLAS thread
(set in its own environment, nothing machine-wide) and ``src`` on its
import path. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record, and the spans of a traced run, go to
``.bench_build/perfbench/``. The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
BLAS_THREADS = "1"


def main(argv=None):
    ap = argparse.ArgumentParser(description="tglrn benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tglrn" / "__init__.py").is_file():
        print(f"perfbench: no tglrn sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]),
    )
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(root / ".bench_build" / "perfbench"),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stdout.write(exc.stdout or "")
        print(f"perfbench: workload exceeded {TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except json.JSONDecodeError:
        valid = False
    if not valid:
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"perfbench: workload exited with code {proc.returncode} and no result",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
