"""Benchmark entry point.

    python3 bench/run.py --workload rare-kld --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed into a temporary directory under
`.bench_build/`; for a fit workload that includes the checkpoint of an
untimed warm-up fit. It then starts the measured worker process with
BLAS/OpenMP threads pinned to 1 and the checkout's `src` as the only qdtm on
the path.
The worker prints a report and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

import argparse
import logging
import os
import shutil
import subprocess
import sys
import tempfile
import time

_START = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEADLINE_S = 170   # a run must end within 180 s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        ap.error("--seed must be >= 0 and --seconds in (0, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "qdtm", "__init__.py")):
        print(f"error: no qdtm sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from bench import THREAD_ENV
    os.environ.update(THREAD_ENV)   # before numpy is imported
    from bench.workloads import WORKLOADS, write_checkpoint, write_inputs
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=build)
    try:
        workload = WORKLOADS[args.workload]
        paths = write_inputs(workload, args.seed, inputs)
        if workload.kind == "fit":
            logging.getLogger("qdtm").setLevel(logging.ERROR)
            write_checkpoint(workload, paths)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([ROOT, os.path.join(ROOT, "src")])}
        cmd = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--inputs", inputs]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        try:
            return proc.wait(timeout=max(1.0, DEADLINE_S - (time.monotonic() - _START)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("error: the worker overran the run deadline", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
