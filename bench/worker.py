"""The measured process: set-up, the closed loop of operations, the result line.

Run by `bench/run.py` with BLAS/OpenMP threads pinned to 1 and only the
checkout's `src` on the import path.
"""

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import qdtm
from qdtm import corpus as corpus_mod
from qdtm import embeddings

from . import ROOT, THREAD_ENV
from .layers import HOOKS, PER_LAYER, per_layer_metrics
from .ops import OPS
from .stats import tail
from .trace import NullTracer, Tracer
from .workloads import WORKLOADS, input_paths

SETUP_REPEATS = 5
IMPORT_PROBES = 11
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qdtm; "
                "print(time.perf_counter() - t)")
# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms.p50": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def git_sha() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def import_seconds() -> float:
    """Median time of `import qdtm` (numpy included) in fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(workload, paths: dict, tracer):
    """ingest_jsonl + load_embeddings + the embedding norm cache, repeated.

    Returns the last corpus and table and the median seconds of one set-up.
    """
    times = []
    corpus = table = None
    for _ in range(SETUP_REPEATS):
        corpus = table = None    # drop the previous copy before building the next
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            corpus = corpus_mod.ingest_jsonl(paths["corpus"])
            if workload.embeddings:
                table = embeddings.load_embeddings(paths["embeddings"], corpus.vocab)
                table.norm_matrix()
        times.append(time.perf_counter() - start)
    return corpus, table, statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True, help="directory written by write_inputs")
    args = ap.parse_args(argv)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(qdtm.__file__).startswith(src + os.sep):
        print(f"error: qdtm imported from {qdtm.__file__}, not from {src}", file=sys.stderr)
        return 2
    logging.getLogger("qdtm").setLevel(logging.ERROR)

    workload = WORKLOADS[args.workload]
    paths = input_paths(args.inputs)
    with open(paths["plan"]) as fh:
        plan = json.load(fh)

    tracer = Tracer() if args.trace else None
    null = NullTracer()
    if tracer:
        with tracer.installed(HOOKS):
            corpus, table, setup_once = set_up(workload, paths, tracer)
    else:
        corpus, table, setup_once = set_up(workload, paths, null)
    ops = OPS[workload.kind](workload, plan, corpus, table, args.inputs)

    seen: dict = {}              # op key -> serialized output of its first run
    samples, overheads, quality, counts = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    i = 0
    # closed loop, one client: stop before an operation would overrun the budget
    while i == 0 or time.perf_counter() - start + last <= args.seconds:
        t_op = time.perf_counter()
        key = ops.key(i)
        attempted += 1
        problems = []
        try:
            res = ops.run(i, null)
            problems += res.problems
            if tracer:
                with tracer.installed(HOOKS):
                    traced = ops.run(i, tracer)
                if traced.text != res.text:
                    problems.append("traced output differs from the untraced output")
                overheads.append((res.seconds, traced.seconds))
                counts.append(traced.counts)
            if key in seen and seen[key] != res.text:
                problems.append(f"output for {key!r} differs from its first run")
        except Exception as e:  # noqa: BLE001 - any failure of the program is counted
            problems.append(f"{type(e).__name__}: {e}")
            res = None
        if problems:
            failed += 1
            print(f"op {i} ({key!r}) failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            samples.append(res.seconds)
            if key not in seen:
                seen[key] = res.text
                if res.quality:
                    quality.append(res.quality)
        last = time.perf_counter() - t_op
        i += 1

    if not samples:
        print("error: every operation failed", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = [f"workload {workload.name} seed {plan['seed']} trace {args.trace}: "
              f"{attempted} ops attempted, {failed} failed "
              f"(error_rate {failed / attempted:.4f})",
              f"env {json.dumps(environment(), sort_keys=True)}"]

    if args.trace:
        metrics, notes = per_layer_metrics(tracer.spans, counts)
        metrics["trace.overhead_share"] = statistics.median(t / u - 1.0 for u, t in overheads)
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = PER_LAYER
        report.append(f"traced ops {notes['ops']}, phase-1 sweeps {notes['p1_sweeps']}, "
                      f"phase-2 sweeps {notes['p2_sweeps']}; "
                      f"sampler.p1.sweep_ms.tail is {notes['sweep_tail']}")
        for name in ("phase1_tokens_per_s", "phase2_tokens_per_s"):
            report.append(f"  {name:34s} {notes[name]:14.6g} 1/s")
        report.append(f"  {'bench.self_ms_per_op':34s} {notes['bench_self_ms_per_op']:14.6g} ms")
        report.append(f"  {'trace.overhead_ms':34s} "
                      f"{statistics.median(t - u for u, t in overheads) * 1e3:14.6g} ms")
    else:
        op_s = statistics.median(samples)
        import_s = import_seconds()
        metrics = {
            "setup_s": import_s + setup_once,
            "op_ms.p50": op_s * 1e3,
            "ops_per_s": len(samples) / sum(samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        report.append(f"  setup_s = median of {IMPORT_PROBES} imports {import_s:.4f} s "
                      f"+ median of {SETUP_REPEATS} set-ups {setup_once:.4f} s")
        if workload.kind == "fit":
            report.append(f"  {'fit_s':34s} {op_s:14.6g} s   (median of {len(samples)})")
            for name in ("rare_p_at_k", "parent_overlap"):
                value = statistics.fmean(q[name] for q in quality)
                report.append(f"  {name:34s} {value:14.6g}     (fit seed {plan['fit_seed']})")
        else:
            label, value = tail(samples)
            report.append(f"  {'query_ms.p50':34s} {op_s * 1e3:14.6g} ms  "
                          f"(median of {len(samples)})")
            if label != "p50":
                report.append(f"  {'query_ms.' + label:34s} {value * 1e3:14.6g} ms  "
                              f"({len(samples)} samples)")
            report.append(f"  {'queries_per_s':34s} {metrics['ops_per_s']:14.6g} 1/s")
        report.append(f"  {'error_rate':34s} {failed / attempted:14.6g}")
    for name, value in metrics.items():
        report.append(f"  {name:34s} {value:14.6g} {units[name]}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
