"""Run one benchmark workload of the doss repository.

    python3 benchmarks/run.py --workload decode_eval --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the sources under `src/` as they
are, with nothing to build or install. It starts `workloads.py` in a fresh
child process whose environment pins OpenBLAS, OpenMP and MKL to one thread
(the `--threads` flag of `doss` is not relied on), waits for it, and exits
with the child's code. The child's last line of standard output is the result
as JSON: `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics when `--trace 0` and the per-layer metrics when `--trace 1`. On a
timeout or SIGTERM it kills the child, waits for it and removes its working
directory. See `workloads.py` for what each workload runs and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one doss benchmark workload.")
    parser.add_argument("--workload", required=True,
                        choices=["decode_eval", "pipeline_cold"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "doss" / "__init__.py").is_file():
        print(f"no doss sources under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED, PYTHONPATH=str(ROOT / "src"), DOSS_LOG="WARNING")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    signal.signal(signal.SIGTERM, _stop)
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish within {TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt as stop:
        print(f"workload {args.workload} stopped by {stop}", file=sys.stderr)
        return 4
    finally:
        # a child stopped early leaves its working directory behind
        if child.poll() is None:
            child.kill()
            child.wait()
        tmp = ROOT / ".bench_tmp"
        shutil.rmtree(tmp / f"{args.workload}-{child.pid}", ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.rmdir()


def _stop(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


if __name__ == "__main__":
    raise SystemExit(main())
