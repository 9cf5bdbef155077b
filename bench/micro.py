"""Sweep-only micro-run for sampler work, in seconds instead of minutes.

    python3 bench/micro.py --seed 1 --warmup 15 --sweeps 10 --repeats 3

Builds the rare-kld inputs for the seed and the checkpoint of a `--warmup`
sweep fit, a settled phase-1 state. Each repeat is the rare-kld fit operation
resumed from that checkpoint for `--sweeps` phase-1 sweeps and one phase-2
sweep, run under the tracer, so the sweeps timed are the ones
`HDPSampler.run` makes. Every repeat does the same work; its output is checked
as in the benchmark, and the repeats must be byte-identical. Prints the
phase-1 sampler metrics (medians over all timed calls) with the state they
were measured on, and a JSON line. A developer tool, not a gated workload.
"""

import argparse
import dataclasses
import json
import logging
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)   # before numpy is imported

from qdtm import corpus as corpus_mod  # noqa: E402
from qdtm import embeddings  # noqa: E402

from bench.layers import HOOKS, per_layer_metrics  # noqa: E402
from bench.ops import FitOps  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, write_checkpoint, write_inputs  # noqa: E402

REPORTED = ("sampler.p1.sweep_us_per_token", "sampler.p1.sweep_ms.p50",
            "sampler.refresh_cohesion_ms", "sampler.compact_tables_ms", "sampler.init_ms",
            "sampler.live_topics", "sampler.live_tables")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--warmup", type=int, default=WORKLOADS["rare-kld"].warmup)
    ap.add_argument("--sweeps", type=int, default=10)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    logging.getLogger("qdtm").setLevel(logging.ERROR)
    workload = dataclasses.replace(WORKLOADS["rare-kld"], warmup=args.warmup,
                                   iterations=(args.sweeps, 1))

    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="micro-", dir=build)
    tracer = Tracer()
    problems, texts = [], set()
    try:
        paths = write_inputs(workload, args.seed, workdir)
        write_checkpoint(workload, paths)
        with open(paths["plan"]) as fh:
            plan = json.load(fh)
        corpus = corpus_mod.ingest_jsonl(paths["corpus"])
        table = embeddings.load_embeddings(paths["embeddings"], corpus.vocab)
        ops = FitOps(workload, plan, corpus, table, workdir)
        for i in range(args.repeats):
            with tracer.installed(HOOKS):
                res = ops.run(i, tracer)
            problems += res.problems
            texts.add(res.text)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(texts) > 1:
        problems.append("repeats of the same fit differ")

    metrics, notes = per_layer_metrics(tracer.spans, [])
    result = {name: metrics[name] for name in REPORTED}
    result["timed_sweeps"] = notes["p1_sweeps"]
    print(f"rare-kld seed {args.seed}, resumed after {args.warmup} sweeps, "
          f"{args.repeats} x {args.sweeps} timed sweeps")
    for name, value in result.items():
        print(f"  {name:32s} {value:12.6g}")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
