"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import dataclasses
import json
import os
import sys

import pytest

from bench import ROOT
from bench.layers import HOOKS, PER_LAYER, per_layer_metrics
from bench.ops import FitOps
from bench.stats import tail
from bench.trace import NullTracer, Span, Tracer, self_times
from bench.workloads import (WORKLOADS, input_paths, make_plan, synthetic_spec,
                             write_checkpoint, write_inputs)

SMALL_SPEC = {"n_topics": 4, "vocab_size": 160, "n_docs": 90, "doc_length": 25,
              "rare_topic_prevalence": 0.05}


def test_self_time_subtracts_children_once_and_clips_to_parent():
    spans = [
        Span("pipeline.fit_topics", 0.0, 10.0, -1),
        Span("sampler.a", 1.0, 3.0, 0),
        Span("sampler.b", 2.0, 4.0, 0),      # overlaps a: [1,4] covered once
        Span("retrieval.c", 9.0, 12.0, 0),   # clipped to [9,10]
        Span("corpus.d", 1.5, 2.5, 1),       # grandchild: only charged against a
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("metrics.x", 2.0, 2.5, -1)]) == [0.5]


@pytest.mark.parametrize("n, label, value", [
    (19, "p50", 10.0),     # too few samples for any tail: the median
    (20, "p50", 10.5),
    (99, "p50", 50.0),     # p90 would leave only 9 beyond
    (100, "p90", 90.0),
    (999, "p90", 900.0),
    (1000, "p99", 990.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, label, value):
    assert tail(range(1, n + 1)) == (label, value)


def _read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", ["rare-kld", "multi-fre-wide"])
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d, seed in ((a, 3), (b, 3), (c, 4)):
        d.mkdir()
        write_inputs(WORKLOADS[name], seed, str(d))
    assert _read_all(a) == _read_all(b)
    assert _read_all(a)["corpus.jsonl"] != _read_all(c)["corpus.jsonl"]
    plan = json.loads(_read_all(a)["plan.json"])
    assert len(plan["queries"]) == WORKLOADS[name].n_queries
    rare = synthetic_spec(WORKLOADS[name], 3).n_topics - 1
    assert plan["target_labels"][0] == f"topic{rare}"


def test_query_plan_is_deterministic_for_a_seed():
    truth = {"n_topics": 3,
             "topic_top_words": {f"topic{k}": [f"w{k}{i:02d}" for i in range(25)]
                                 for k in range(3)}}
    workload = WORKLOADS["query-explore"]
    a, b = make_plan(workload, 5, truth), make_plan(workload, 5, truth)
    assert a == b and a != make_plan(workload, 6, truth)
    assert [m for _, m in a["query_ops"][:4]] == ["fre", "kld", "rel", "fre"]


def _qdtm_bindings():
    return {(name, attr): obj
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qdtm" or name.startswith("qdtm."))
            for attr, obj in vars(mod).items()}


def _small_fit(checkpoint_path=None, iterations_phase1=3):
    from qdtm import pipeline, synth
    from qdtm.corpus import ingest
    records, truth = synth.generate(synth.SyntheticSpec(seed=2, **SMALL_SPEC))
    corpus = ingest(records)
    query = " ".join(truth["topic_top_words"]["topic3"][:2])
    result = pipeline.fit_topics(corpus, [query], "kld", seed=5,
                                 iterations_phase1=iterations_phase1, iterations_phase2=3,
                                 checkpoint_path=checkpoint_path)
    return json.dumps(result.to_dict(), sort_keys=True)


def test_traced_fit_matches_untraced_and_wrappers_do_not_leak():
    import qdtm.pipeline
    import qdtm.retrieval
    from qdtm.sampler import HDPSampler

    before = _qdtm_bindings()
    sweep = HDPSampler.__dict__["sweep"]
    untraced = _small_fit()
    tracer = Tracer()
    with tracer.installed(HOOKS):
        assert qdtm.pipeline.retrieve is qdtm.retrieval.retrieve
        assert getattr(qdtm.pipeline.build_promotion, "__bench_traced__", False)
        assert getattr(HDPSampler.sweep, "__bench_traced__", False)
        with tracer.span("bench.op"):
            traced = _small_fit()
    assert traced == untraced
    assert HDPSampler.__dict__["sweep"] is sweep
    after = _qdtm_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = {sp.name for sp in tracer.spans}
    assert {"pipeline.fit_topics", "retrieval.retrieve", "pipeline.run_phase2",
            "sampler.HDPSampler.sweep"} <= names
    assert "retrieval.query_likelihood" not in names   # per-document: never wrapped
    metrics, notes = per_layer_metrics(tracer.spans, [])
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_share"}
    assert notes["p1_sweeps"] == 3 and notes["p2_sweeps"] == 3
    assert metrics["sampler.p1.sweep_us_per_token"] > 0
    assert 0 < metrics["sampler.parent_share"] < 1
    assert metrics["sampler.self_ms_per_op"] > 0


def test_checkpoint_io_is_traced_in_pipeline_only(tmp_path):
    import qdtm.pipeline

    checkpoint = str(tmp_path / "checkpoint.json")
    _small_fit(checkpoint)                       # writes the state after 3 sweeps
    tracer = Tracer()
    with tracer.installed(HOOKS):
        assert getattr(qdtm.pipeline.json.dump, "__bench_traced__", False)
        assert not getattr(json.dump, "__bench_traced__", False)
        with tracer.span("bench.op"):
            _small_fit(checkpoint, iterations_phase1=5)   # resumes for 2 sweeps
    assert qdtm.pipeline.json is json

    names = [sp.name for sp in tracer.spans]
    assert names.count("pipeline.json.load") == names.count("pipeline.json.dump") == 1
    metrics, notes = per_layer_metrics(tracer.spans, [])
    assert notes["p1_sweeps"] == 2
    assert metrics["pipeline.checkpoint_read_ms"] > 0
    assert metrics["pipeline.checkpoint_write_ms"] > 0
    assert metrics["sampler.load_state_ms"] > 0


def test_fit_operation_resumes_the_warm_up_checkpoint(tmp_path):
    workload = dataclasses.replace(WORKLOADS["rare-kld"], spec=SMALL_SPEC, warmup=2,
                                   iterations=(1, 1))
    paths = write_inputs(workload, 3, str(tmp_path))
    write_checkpoint(workload, paths)
    assert paths == input_paths(str(tmp_path))
    with open(paths["checkpoint"]) as fh:
        assert json.load(fh)["iterations_done"] == 2
    from qdtm.corpus import ingest_jsonl
    from qdtm.embeddings import load_embeddings
    with open(paths["plan"]) as fh:
        plan = json.load(fh)
    corpus = ingest_jsonl(paths["corpus"])
    table = load_embeddings(paths["embeddings"], corpus.vocab)
    ops = FitOps(workload, plan, corpus, table, str(tmp_path))
    first, second = ops.run(0, NullTracer()), ops.run(1, NullTracer())
    assert first.problems == [] and first.text == second.text
    with open(ops.checkpoint) as fh:
        assert json.load(fh)["iterations_done"] == 3
    with open(paths["checkpoint"]) as fh:
        assert json.load(fh)["iterations_done"] == 2   # the warm state is never overwritten


def test_benchmark_json_matches_the_code():
    from bench.worker import END_TO_END
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER.items())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
