import numpy as np
import pytest

from qdtm.corpus import ingest
from qdtm.pipeline import (ParentTopicError, extract_parent_subcorpus, fit_topics,
                           prune_subtopics, run_phase2)
from qdtm.sampler import HDPSampler, Hyperparameters


def test_extract_parent_subcorpus_matches_assignments():
    docs = [[0, 1, 2], [2, 2, 1]]
    s = HDPSampler(docs, 3, Hyperparameters(initial_topics=3), seed=0,
                   forced_topic={2: 0}, n_parents=1)
    s.set_state([[0, 0, 1], [0, 1, 2]], [[1, 0], [0, 0, 2]])
    sub_docs, sub_ids, support = extract_parent_subcorpus(s, 0, ["a", "b"])
    assert sub_docs == [[2], [2, 2]]
    assert sub_ids == ["a", "b"]
    assert support == {2}


def test_extract_parent_subcorpus_whole_doc_passthrough():
    docs = [[1, 2, 1]]
    s = HDPSampler(docs, 3, Hyperparameters(initial_topics=2), seed=0, n_parents=1)
    s.set_state([[0, 0, 0]], [[0]])
    sub_docs, _, support = extract_parent_subcorpus(s, 0, ["a"])
    assert sub_docs == [[1, 2, 1]]
    assert support == {1, 2}


def test_extract_parent_subcorpus_empty_is_fatal():
    docs = [[0, 1]]
    s = HDPSampler(docs, 2, Hyperparameters(initial_topics=2), seed=0, n_parents=1)
    s.set_state([[0, 0]], [[1]])
    with pytest.raises(ParentTopicError):
        extract_parent_subcorpus(s, 0, ["a"])


def test_phase2_single_word_type_point_mass():
    sub_docs = [[7], [7, 7], [7]]
    sampler, scope, counts = run_phase2(sub_docs, {7}, Hyperparameters(initial_topics=2),
                                        seed=1, iterations=10)
    assert scope == [7]
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
    support = set(range(20))
    sampler, scope, counts = run_phase2(sub_docs, support,
                                        Hyperparameters(initial_topics=3),
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
    sampler, scope, counts = run_phase2(sub_docs, support,
                                        Hyperparameters(initial_topics=2),
                                        seed=3, iterations=20)
    assert set(scope) == support
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


def test_fit_topics_end_to_end():
    corpus = make_block_corpus()
    hp = Hyperparameters(initial_topics=4)
    result = fit_topics(corpus, ["w01 w02"], "kld", hp=hp, seed=7,
                        iterations_phase1=30, iterations_phase2=20,
                        mode="and", retrieval_cutoff=50,
                        check_invariants=True, full_posterior=True)
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
