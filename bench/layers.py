"""Per-layer metrics derived from a traced run's spans.

Phase is read from the span tree: a sampler span under `pipeline.run_phase2`
belongs to phase 2, any other to phase 1. Sampler state counts are read after
each sweep by a hook that runs outside the sweep's span.
"""

from __future__ import annotations

import inspect
import statistics

from qdtm import concepts, retrieval

from .stats import median_or_zero, tail
from .trace import LAYERS, self_times

OP = "bench.op"
SWEEP = "sampler.HDPSampler.sweep"
STATE_COUNTS = ("live_topics", "live_tables", "flag_rate", "parent_share")

# name -> unit, in the order they are reported
PER_LAYER = {
    "sampler.p1.sweep_us_per_token": "us",
    "sampler.p1.sweep_ms.p50": "ms",
    "sampler.p1.sweep_ms.tail": "ms",
    "sampler.refresh_cohesion_ms": "ms",
    "sampler.compact_tables_ms": "ms",
    "sampler.init_ms": "ms",
    "embeddings.promotion_build_ms": "ms",
    "sampler.p2.sweep_us_per_token": "us",
    "pipeline.phase2_s": "s",
    "sampler.state_dict_ms": "ms",
    "sampler.load_state_ms": "ms",
    "sampler.checkpoint_bytes": "bytes",
    "pipeline.checkpoint_read_ms": "ms",
    "pipeline.checkpoint_write_ms": "ms",
    "pipeline.extract_parent_ms": "ms",
    "pipeline.fit_self_s": "s",
    "pipeline.serialize_ms": "ms",
    "pipeline.result_bytes": "bytes",
    "metrics.eval_ms": "ms",
    "metrics.npmi_ms": "ms",
    "retrieval.retrieve_ms": "ms",
    "retrieval.candidates": "count",
    "concepts.expand_ms.fre": "ms",
    "concepts.expand_ms.kld": "ms",
    "concepts.expand_ms.rel": "ms",
    "corpus.ingest_s": "s",
    "embeddings.load_s": "s",
    "sampler.live_topics": "count",
    "sampler.live_tables": "count",
    "sampler.flag_rate": "ratio",
    "sampler.parent_share": "ratio",
    **{f"{layer}.self_ms_per_op": "ms" for layer in LAYERS},
    "trace.overhead_share": "ratio",
}


def _after_sweep(tracer, idx, args, kwargs, out) -> None:
    sampler = args[0]
    tokens = sum(map(len, sampler.docs))
    n_parents = sampler.n_parents
    parent_tokens = sum(1 for tables, tt in zip(sampler.table_topic, sampler.t)
                        for t in tt if tables[t] < n_parents)
    tracer.spans[idx].attrs.update(
        tokens=tokens,
        live_topics=len(sampler.m_k),
        live_tables=sampler.m_total - n_parents,   # minus the parents' phantom tables
        flag_rate=sum(map(sum, sampler.flags)) / tokens,
        parent_share=parent_tokens / tokens)


def _after_retrieve(tracer, idx, args, kwargs, out) -> None:
    bound = inspect.signature(retrieval.retrieve).bind(*args, **kwargs).arguments
    corpus, query = bound["corpus"], bound["query"]
    terms = set(query.terms)
    if query.mode == "and":
        n = sum(1 for d in corpus.documents if terms.issubset(d.counts))
    else:
        n = sum(1 for d in corpus.documents if not terms.isdisjoint(d.counts))
    tracer.spans[idx].attrs["candidates"] = n


def _after_expand(tracer, idx, args, kwargs, out) -> None:
    bound = inspect.signature(concepts.extract_concept_words).bind(*args, **kwargs)
    tracer.spans[idx].attrs["method"] = bound.arguments["method"].lower()


HOOKS = {
    SWEEP: _after_sweep,
    "retrieval.retrieve": _after_retrieve,
    "concepts.extract_concept_words": _after_expand,
}


def per_layer_metrics(spans, op_counts: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics over the traced operations.

    State counts come from the first operation only, so they do not depend on
    how many operations fitted in the run. `op_counts` holds each traced
    operation's byte counts. Returns (metrics, notes), where notes carry
    sample counts and figures reported for reading only.
    """
    selfs = self_times(spans)
    op_of = []          # index of the enclosing operation span, or -1
    phase2 = []
    for i, sp in enumerate(spans):
        parent = sp.parent
        op_of.append(i if sp.name == OP else (op_of[parent] if parent >= 0 else -1))
        phase2.append(sp.name == "pipeline.run_phase2" or (parent >= 0 and phase2[parent]))
    op_idx = [i for i, sp in enumerate(spans) if sp.name == OP]
    n_ops = len(op_idx)

    def durations(name, phase=None, scale=1.0):
        return [sp.duration * scale for i, sp in enumerate(spans)
                if sp.name == name and (phase is None or phase2[i] == (phase == 2))]

    def per_op(names, scale=1.0):
        """Total time under `names` per operation that called any of them."""
        totals: dict[int, float] = {}
        for i, sp in enumerate(spans):
            if sp.name in names and op_of[i] >= 0:
                totals[op_of[i]] = totals.get(op_of[i], 0.0) + sp.duration * scale
        return list(totals.values())

    sweeps = {p: [(i, sp) for i, sp in enumerate(spans)
                  if sp.name == SWEEP and phase2[i] == (p == 2)] for p in (1, 2)}
    p1_ms = [sp.duration * 1e3 for _, sp in sweeps[1]]
    tail_label, tail_ms = tail(p1_ms) if p1_ms else ("p50", 0.0)
    m = {
        "sampler.p1.sweep_us_per_token": median_or_zero(
            sp.duration * 1e6 / sp.attrs["tokens"] for _, sp in sweeps[1]),
        "sampler.p1.sweep_ms.p50": median_or_zero(p1_ms),
        "sampler.p1.sweep_ms.tail": tail_ms,
        "sampler.refresh_cohesion_ms": median_or_zero(
            durations("sampler.HDPSampler.refresh_cohesion", 1, 1e3)),
        "sampler.compact_tables_ms": median_or_zero(
            durations("sampler.HDPSampler.compact_tables", 1, 1e3)),
        "sampler.init_ms": median_or_zero(
            durations("sampler.HDPSampler.initialize", 1, 1e3)),
        "embeddings.promotion_build_ms": median_or_zero(
            per_op({"embeddings.build_relatedness", "embeddings.build_promotion"}, 1e3)),
        "sampler.p2.sweep_us_per_token": median_or_zero(
            sp.duration * 1e6 / sp.attrs["tokens"] for _, sp in sweeps[2]),
        "pipeline.phase2_s": median_or_zero(per_op({"pipeline.run_phase2"})),
        "sampler.state_dict_ms": median_or_zero(
            durations("sampler.HDPSampler.state_dict", None, 1e3)),
        "sampler.load_state_ms": median_or_zero(
            durations("sampler.HDPSampler.load_state_dict", None, 1e3)),
        "sampler.checkpoint_bytes": median_or_zero(
            c["checkpoint_bytes"] for c in op_counts if "checkpoint_bytes" in c),
        "pipeline.checkpoint_read_ms": median_or_zero(
            durations("pipeline.json.load", None, 1e3)),
        "pipeline.checkpoint_write_ms": median_or_zero(
            durations("pipeline.json.dump", None, 1e3)),
        "pipeline.extract_parent_ms": median_or_zero(
            durations("pipeline.extract_parent_subcorpus", None, 1e3)),
        "pipeline.fit_self_s": median_or_zero(
            selfs[i] for i, sp in enumerate(spans) if sp.name == "pipeline.fit_topics"),
        "pipeline.serialize_ms": median_or_zero(durations("pipeline.serialize", None, 1e3)),
        "pipeline.result_bytes": median_or_zero(
            c["result_bytes"] for c in op_counts if "result_bytes" in c),
        "metrics.eval_ms": median_or_zero(durations("metrics.eval", None, 1e3)),
        "metrics.npmi_ms": median_or_zero(durations("metrics.npmi_coherence", None, 1e3)),
        "retrieval.retrieve_ms": median_or_zero(durations("retrieval.retrieve", None, 1e3)),
        "retrieval.candidates": median_or_zero(
            sp.attrs["candidates"] for sp in spans if sp.name == "retrieval.retrieve"),
        **{f"concepts.expand_ms.{method}": median_or_zero(
            sp.duration * 1e3 for sp in spans
            if sp.name == "concepts.extract_concept_words" and sp.attrs["method"] == method)
           for method in concepts.METHODS},
        "corpus.ingest_s": median_or_zero(durations("corpus.ingest_jsonl")),
        "embeddings.load_s": median_or_zero(durations("embeddings.load_embeddings")),
    }
    first_sweeps = [sp for i, sp in sweeps[1] if op_idx and op_of[i] == op_idx[0]]
    for count in STATE_COUNTS:
        m[f"sampler.{count}"] = (statistics.fmean(sp.attrs[count] for sp in first_sweeps)
                                 if first_sweeps else 0.0)
    for layer in LAYERS:
        total = sum(selfs[i] for i, sp in enumerate(spans)
                    if sp.layer == layer and op_of[i] >= 0)
        m[f"{layer}.self_ms_per_op"] = total * 1e3 / n_ops if n_ops else 0.0

    p1_time = sum(sp.duration for _, sp in sweeps[1])
    p2_time = sum(sp.duration for _, sp in sweeps[2])
    notes = {
        "ops": n_ops,
        "p1_sweeps": len(sweeps[1]),
        "p2_sweeps": len(sweeps[2]),
        "sweep_tail": tail_label,
        "phase1_tokens_per_s": (sum(sp.attrs["tokens"] for _, sp in sweeps[1]) / p1_time
                                if p1_time else 0.0),
        "phase2_tokens_per_s": (sum(sp.attrs["tokens"] for _, sp in sweeps[2]) / p2_time
                                if p2_time else 0.0),
        "bench_self_ms_per_op": sum(selfs[i] for i, sp in enumerate(spans)
                                    if sp.layer == "bench" and op_of[i] >= 0)
                                * 1e3 / max(n_ops, 1),
    }
    return m, notes
