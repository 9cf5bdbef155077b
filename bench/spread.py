"""Run-to-run spread check: run one workload on several seeds and compare each
end-to-end metric's quartile spread with its bound in BENCHMARK.json.

    python3 bench/spread.py --workload rare-kld --seeds 1-10

The spread is (Q3 - Q1) / median over the runs, with quartiles from
`statistics.quantiles(values, n=4)`. Every metric is flagged when its spread
is above its bound, or above the target of a third of the bound. Raw results
can be kept with `--out FILE`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.stats import spread  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="write the raw results here as JSON")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"{result['failed']}/{result['attempted']} failed  {values}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if not args.trace else {}
    print(f"\n{'metric':36s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        s = spread(values) if len(values) > 1 and med else float("nan")
        bound = bounds.get(name)
        flag = ("" if bound is None or s < bound / 3
                else "  <-- above bound/3" if s <= bound else "  <-- ABOVE BOUND")
        print(f"{name:36s} {med:12.6g} {s:8.4f} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
