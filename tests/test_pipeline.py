import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import qdtm
from qdtm import pipeline
from qdtm.corpus import ingest
from qdtm.pipeline import (FitConfig, ParentTopicError, extract_parent_subcorpus,
                           fit_topics, prune_subtopics, run_phase2)
from qdtm.sampler import HDPSampler, Hyperparameters, SamplerError
from qdtm.synth import SyntheticSpec

from helpers import (checkpoint_array, flat_state, parent_subcorpus_oracle, sampler_cases,
                     stream)
from test_acceptance import embedding_table, synthetic_corpus

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qdtm.__file__)))

def test_extract_parent_subcorpus_matches_assignments():
    docs = [[0, 1, 2], [2, 2, 1]]
    s = HDPSampler(*stream(docs), 3, Hyperparameters(initial_topics=3), seed=0,
                   forced_topic={2: 0}, n_parents=1)
    s.set_state(*flat_state([[0, 0, 1], [0, 1, 2]], [[1, 0], [0, 0, 2]]))
    words, doc_ptr = extract_parent_subcorpus(s, 0)
    assert words.tolist() == [2, 2, 2]
    assert doc_ptr.tolist() == [0, 1, 3]


def test_extract_parent_subcorpus_whole_doc_passthrough():
    docs = [[1, 2, 1]]
    s = HDPSampler(*stream(docs), 3, Hyperparameters(initial_topics=2), seed=0, n_parents=1)
    s.set_state(*flat_state([[0, 0, 0]], [[0]]))
    words, doc_ptr = extract_parent_subcorpus(s, 0)
    assert words.tolist() == [1, 2, 1]
    assert doc_ptr.tolist() == [0, 3]


def test_extract_parent_subcorpus_empty_is_fatal():
    docs = [[0, 1]]
    s = HDPSampler(*stream(docs), 2, Hyperparameters(initial_topics=2), seed=0, n_parents=1)
    s.set_state(*flat_state([[0, 0]], [[1]]))
    with pytest.raises(ParentTopicError):
        extract_parent_subcorpus(s, 0)


@settings(max_examples=100, deadline=None)
@given(sampler_cases())
def test_extract_parent_subcorpus_equals_the_per_token_loop(case):
    docs, V, hp, seed, kwargs, sweeps = case
    s = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    s.initialize()
    s.run(sweeps)
    for k in range(s.next_topic + 1):   # every live topic, and ids with no tokens
        try:
            expected = parent_subcorpus_oracle(s, k)
        except ParentTopicError:
            with pytest.raises(ParentTopicError, match=f"parent topic {k} claimed no tokens"):
                extract_parent_subcorpus(s, k)
        else:
            got = extract_parent_subcorpus(s, k)
            assert all(map(np.array_equal, got, expected))


@settings(max_examples=100, deadline=None)
@given(sampler_cases())
def test_checkpoint_text_equals_json_dumps_of_the_state(case):
    """`state_dict()` holds plain JSON values: `json.dump`, as `fit` writes
    it, gives the text of `json.dumps`, and that text reads back as the state."""
    docs, V, hp, seed, kwargs, sweeps = case
    s = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    s.initialize()
    s.run(sweeps)
    state = s.state_dict()
    out = io.StringIO()
    json.dump(state, out, allow_nan=False)
    assert out.getvalue() == json.dumps(state, allow_nan=False)
    assert json.loads(out.getvalue()) == state


@pytest.fixture
def audited_runs(monkeypatch):
    """Every `HDPSampler.run` checks the invariants after each sweep, as
    `run(check_invariants=True)` does; returns the sweep counts of the runs."""
    run, calls = HDPSampler.run, []

    def audited(self, iterations, check_invariants=False):
        calls.append(iterations)
        run(self, iterations, check_invariants=True)
    monkeypatch.setattr(HDPSampler, "run", audited)
    return calls


def test_fit_with_flags_checks_invariants_through_a_resume(tmp_path, audited_runs):
    """The default synth corpus with embeddings and a kld query flags
    tokens in both phases; every sweep compares the kernel's counts with a
    rebuild, and the resumed fit starts from a loaded flagged state."""
    spec = SyntheticSpec(seed=1)
    corpus, truth = synthetic_corpus(spec)
    rare = truth["rare_topic"]
    query = " ".join(truth["topic_top_words"][rare][:2])
    ckpt = tmp_path / "state.json"
    kw = dict(embeddings=embedding_table(spec, corpus), seed=3, iterations_phase2=3,
              checkpoint_path=str(ckpt))
    fit_topics(corpus, [query], "kld", iterations_phase1=3, **kw)
    state = json.loads(ckpt.read_text())
    assert checkpoint_array(state, "flags").any()
    assert ckpt.read_text() == json.dumps(state, allow_nan=False)
    resumed = fit_topics(corpus, [query], "kld", iterations_phase1=5, **kw)
    assert json.loads(ckpt.read_text())["iterations_done"] == 5
    assert resumed.queries[0].subtopics
    assert audited_runs == [3, 3, 2, 3]   # phase 1 and phase 2 of each fit


def test_phase2_single_word_type_point_mass():
    words, doc_ptr = stream([[7], [7, 7], [7]])
    sampler, scope, counts = run_phase2(words, doc_ptr, Hyperparameters(initial_topics=2),
                                        seed=1, iterations=10)
    assert scope.tolist() == sorted(set(words.tolist())) == [7]
    assert sampler.V == len(scope)
    live = sampler.live_topics()
    assert len(live) == 1
    phi = sampler.phi(live[0])
    assert phi[0] == pytest.approx(1.0)
    assert counts[live[0]] == 4


def test_phase2_disjoint_blocks_separate():
    rng = np.random.default_rng(4)
    block_a = list(range(0, 10))
    block_b = list(range(10, 20))
    sub_docs = []
    for _ in range(30):
        block = block_a if rng.random() < 0.5 else block_b
        sub_docs.append([int(rng.choice(block)) for _ in range(15)])
    sampler, scope, counts = run_phase2(*stream(sub_docs), Hyperparameters(initial_topics=3),
                                        seed=2, iterations=60, check_invariants=True)
    survivors = prune_subtopics(counts, 10_000, 0.005)
    assert len(survivors) >= 2
    pure = 0
    for k in survivors:
        top = [scope[w] for w, _ in sampler.top_words(k, 10)]
        in_a = sum(1 for w in top if w in set(block_a))
        if max(in_a, len(top) - in_a) >= 8:
            pure += 1
    assert pure >= 2


def test_phase2_support_closure():
    rng = np.random.default_rng(5)
    sub_docs = [[int(rng.integers(30, 40)) for _ in range(10)] for _ in range(10)]
    support = set(range(30, 40))
    words, doc_ptr = stream(sub_docs)
    sampler, scope, counts = run_phase2(words, doc_ptr, Hyperparameters(initial_topics=2),
                                        seed=3, iterations=20)
    assert scope.tolist() == sorted(set(words.tolist())) == sorted(support)
    assert sampler.V == len(scope)
    for k in sampler.live_topics():
        nonzero = {scope[w] for w in range(len(scope)) if sampler.nkw_units[k][w]}
        assert nonzero <= support


def test_prune_subtopics_floor():
    counts = {0: 300, 1: 30, 2: 5}
    # floor 0.5% of 10000 tokens = 50
    assert prune_subtopics(counts, 10_000, 0.005) == [0]
    assert prune_subtopics(counts, 10_000, 0.0) == [0, 1, 2]


def make_block_corpus(seed=0, n_docs=60):
    """Two topical document groups over disjoint word blocks."""
    rng = np.random.default_rng(seed)
    docs = []
    for j in range(n_docs):
        if j % 3 == 0:
            ids = rng.integers(0, 15, size=20)
            label = "planted"
        else:
            ids = rng.integers(15, 60, size=20)
            label = "other"
        docs.append((f"d{j}", " ".join(f"w{i:02d}" for i in ids), label))
    return ingest(docs)


def test_fit_topics_end_to_end(audited_runs):
    corpus = make_block_corpus()
    hp = Hyperparameters(initial_topics=4)
    result = fit_topics(corpus, ["w01 w02"], "kld", hp=hp, seed=7,
                        iterations_phase1=30, iterations_phase2=20,
                        mode="and", retrieval_cutoff=50, full_posterior=True)
    assert audited_runs == [30, 20]
    assert len(result.queries) == 1
    q = result.queries[0]
    assert q.parent_topic == 0
    assert q.concept_words
    # parent top words drawn from the planted block
    top = [w for w, _ in q.parent_top_words]
    planted = {f"w{i:02d}" for i in range(15)}
    assert sum(1 for w in top if w in planted) >= 7
    assert q.subtopics
    for st in q.subtopics:
        assert st.prevalence >= 0
    # posterior rows normalize
    for row in result.phi.values():
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    for row in result.theta.values():
        assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_fit_topics_deterministic_dict():
    corpus = make_block_corpus()
    hp = Hyperparameters(initial_topics=4)
    kw = dict(hp=hp, seed=9, iterations_phase1=15, iterations_phase2=10,
              mode="and", retrieval_cutoff=50)
    r1 = fit_topics(corpus, ["w01 w02"], "kld", **kw)
    r2 = fit_topics(corpus, ["w01 w02"], "kld", **kw)
    assert r1.to_dict() == r2.to_dict()


def test_fit_topics_checkpoint_resume(tmp_path):
    corpus = make_block_corpus()
    hp = Hyperparameters(initial_topics=4)
    ckpt = tmp_path / "state.json"
    kw = dict(hp=hp, seed=5, iterations_phase2=10, mode="and", retrieval_cutoff=50)
    full = fit_topics(corpus, ["w01 w02"], "kld", iterations_phase1=20, **kw)
    fit_topics(corpus, ["w01 w02"], "kld", iterations_phase1=10,
               checkpoint_path=str(ckpt), **kw)
    resumed = fit_topics(corpus, ["w01 w02"], "kld", iterations_phase1=20,
                         checkpoint_path=str(ckpt), **kw)
    assert resumed.to_dict()["queries"] == full.to_dict()["queries"]


def _checkpoint_fit(ckpt, iterations_phase1):
    return fit_topics(make_block_corpus(), ["w01 w02"], "kld",
                      hp=Hyperparameters(initial_topics=4), seed=5,
                      iterations_phase1=iterations_phase1, iterations_phase2=5,
                      mode="and", retrieval_cutoff=50, checkpoint_path=str(ckpt))


def test_resumed_fit_only_loads_the_checkpoint(tmp_path, monkeypatch):
    ckpt = tmp_path / "state.json"
    _checkpoint_fit(ckpt, 5)

    initialize = HDPSampler.initialize

    def phase2_only(self):   # phase 2 starts a fresh sampler without parents
        assert self.n_parents == 0, "a resumed fit must not initialize phase 1"
        initialize(self)
    monkeypatch.setattr(HDPSampler, "initialize", phase2_only)
    _checkpoint_fit(ckpt, 8)
    assert json.loads(ckpt.read_text())["iterations_done"] == 8


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    ckpt = tmp_path / "state.json"
    _checkpoint_fit(ckpt, 5)
    before = ckpt.read_bytes()
    state_dict = HDPSampler.state_dict
    # json.dump writes the real state, then fails on the object appended last
    monkeypatch.setattr(HDPSampler, "state_dict",
                        lambda self: {**state_dict(self), "zz": object()})
    with pytest.raises(TypeError):
        _checkpoint_fit(ckpt, 8)
    assert ckpt.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.json"]


def test_resumed_fit_hashes_the_token_stream_once(tmp_path, monkeypatch):
    ckpt = tmp_path / "state.json"
    _checkpoint_fit(ckpt, 5)
    calls = []
    sha256 = hashlib.sha256

    def counted(*args):
        calls.append(args)
        return sha256(*args)
    monkeypatch.setattr(hashlib, "sha256", counted)
    _checkpoint_fit(ckpt, 8)   # checks the fingerprint on load, writes it on save
    assert len(calls) == 1


@pytest.mark.parametrize("kw, match", [
    (dict(iterations_phase1=-5), "iterations_phase1"),
    (dict(iterations_phase1=0), "iterations_phase1"),
    (dict(iterations_phase2=0), "iterations_phase2"),
    (dict(target_labels=["a"]), "1 target labels for 2 queries"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(target_labels=["planted", "x"]), "target label 'x' is carried by no document"),
    # `iterations_phase1=True` ran one sweep and recorded `true`; a string or None
    # raised a bare TypeError naming no field; 2.5 and inf failed only after retrieval
    (dict(iterations_phase1=True), "^iterations_phase1 must be an integer, got True$"),
    (dict(iterations_phase1="3"), "^iterations_phase1 must be an integer, got '3'$"),
    (dict(iterations_phase1=2.5), r"^iterations_phase1 must be an integer, got 2\.5$"),
    (dict(iterations_phase2=float("inf")), "^iterations_phase2 must be an integer, got inf$"),
    (dict(seed="5"), "^seed must be an integer, got '5'$"),
    (dict(seed=None), "^seed must be an integer, got None$"),
    (dict(seed=False), "^seed must be an integer, got False$"),
    (dict(retrieval_cutoff=50.0), r"^retrieval_cutoff must be an integer, got 50\.0$"),
    (dict(mu="100"), "^mu must be a number, got '100'$"),
    (dict(lam=None), "^lam must be a number, got None$"),
    # `method=None` failed after retrieval with a bare AttributeError, `full_posterior="no"`
    # fitted and was recorded, and one label string was counted as 7 labels
    (dict(method=None), "^method must be a string, got None$"),
    (dict(full_posterior="no"), "^full_posterior must be a bool, got 'no'$"),
    (dict(target_labels="planted"),
     "^target_labels must be None or a sequence of strings, got 'planted'$"),
    (dict(target_labels=["planted", 3]),
     r"^target_labels must be None or a sequence of strings, got \['planted', 3\]$"),
    # numpy scalars fitted to the end, then `json.dumps(result.to_dict())` raised
    # "Object of type int64 is not JSON serializable"
    (dict(seed=np.int64(5)), "^seed must be an integer, got "),
    (dict(mu=np.float32(100)), "^mu must be a number, got "),
    (dict(full_posterior=np.bool_(True)), "^full_posterior must be a bool, got "),
    (dict(hp=Hyperparameters(alpha=np.float32(1.0))), "^alpha must be a number, got "),
])
def test_fit_arguments_are_checked_before_any_work(kw, match, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("fit_topics started before checking its arguments")
    monkeypatch.setattr(pipeline, "retrieve", no_work)
    args = dict(method="kld", hp=Hyperparameters(initial_topics=4), seed=5,
                iterations_phase1=5, iterations_phase2=5, mode="and", retrieval_cutoff=50)
    with pytest.raises(SamplerError, match=match):
        fit_topics(make_block_corpus(), ["w01 w02", "w20 w21"], **{**args, **kw})


FIFO_FIT = """
import sys
from qdtm import fit_topics, ingest, pipeline
from qdtm.sampler import SamplerError
def no_work(*args, **kwargs):
    raise AssertionError("fit_topics started before checking its checkpoint")
pipeline.retrieve = no_work
corpus = ingest([(f"d{j}", "ab cd ab ef" if j % 2 else "cd gh ij") for j in range(20)])
try:
    fit_topics(corpus, ["ab"], "fre", iterations_phase1=1, iterations_phase2=1,
               checkpoint_path=sys.argv[1])
except SamplerError as e:
    print(e)
"""


def test_a_checkpoint_that_is_not_a_regular_file_is_refused_before_any_work(tmp_path):
    """A FIFO at `checkpoint_path` exists, so a library fit opened it to resume
    and blocked for ever waiting for a writer. A subprocess with a timeout, so
    that the hang fails the test instead of stopping the suite."""
    fifo = tmp_path / "ck.fifo"
    os.mkfifo(fifo)
    out = subprocess.run([sys.executable, "-c", FIFO_FIT, str(fifo)], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"checkpoint {fifo} is not a regular file\n"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_a_misspelt_fit_setting_is_a_type_error():
    with pytest.raises(TypeError, match="iterations_phase_1"):
        fit_topics(make_block_corpus(), ["w01 w02"], "kld", iterations_phase_1=5)


def test_fit_topics_takes_the_benchmark_call_shape(tmp_path):
    """The benchmark calls `fit_topics` with exactly these keywords and cannot
    follow a change of them, so a change must fail here first."""
    spec = SyntheticSpec(n_topics=4, vocab_size=150, n_docs=80, doc_length=25,
                         rare_topic_prevalence=0.05, seed=2)
    corpus, truth = synthetic_corpus(spec)
    query = " ".join(truth["topic_top_words"][truth["rare_topic"]][:2])
    ckpt = tmp_path / "state.json"
    result = fit_topics(corpus, [query], "kld", hp=Hyperparameters(),
                        embeddings=embedding_table(spec, corpus), seed=5,
                        iterations_phase1=3, iterations_phase2=2,
                        target_labels=[truth["rare_topic"]], checkpoint_path=str(ckpt))
    assert result.queries[0].target_label == truth["rare_topic"]
    assert json.loads(ckpt.read_text())["iterations_done"] == 3


def test_the_result_metadata_records_every_fit_setting():
    settings = dict(hp=Hyperparameters(initial_topics=4, prevalence_floor=0.01), seed=9,
                    iterations_phase1=4, iterations_phase2=3, mode="and",
                    retrieval_cutoff=50, mu=80.0, n_concepts=6, lam=0.25, sim_top_k=20,
                    target_labels=["planted"], full_posterior=True)
    assert set(settings) | {"method"} == {f.name for f in dataclasses.fields(FitConfig)}
    result = fit_topics(make_block_corpus(), ["w01 w02"], "fre", **settings)
    meta = result.metadata
    assert meta.pop("hyperparameters") == dataclasses.asdict(settings.pop("hp"))
    assert meta == {**settings, "method": "fre", "embeddings": False,
                    "live_topics_phase1": meta["live_topics_phase1"]}
