"""Acceptance gate: one test per release criterion, each printing a PASS line.

Every numeric expectation is either checked against an independent oracle
implemented inline (plain-Python straight-line code, no library reuse) or
against planted ground truth from the synthetic generator.
"""

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from qdtm.cli import EXIT_OK, main
from qdtm.concepts import extract_concept_words
from qdtm.corpus import ingest
from qdtm.embeddings import EmbeddingTable, PromotionMatrix, build_promotion
from qdtm.metrics import overall_quality
from qdtm.pipeline import fit_topics, prune_subtopics, run_phase2
from qdtm.retrieval import parse_query, precision_at_k, retrieve
from qdtm.sampler import HDPSampler, Hyperparameters
from qdtm.synth import SyntheticSpec, block_embeddings, generate

from test_sampler import build_cohesion_sampler


@pytest.fixture
def report(capsys):
    def _report(criterion: int, message: str) -> None:
        with capsys.disabled():
            print(f"\n[criterion {criterion:2d}] PASS - {message}")
    return _report


def synthetic_corpus(spec: SyntheticSpec):
    records, truth = generate(spec)
    corpus = ingest([(r["id"], r["text"], r["label"]) for r in records])
    return corpus, truth


def embedding_table(spec: SyntheticSpec, corpus) -> EmbeddingTable:
    vectors = block_embeddings(spec)
    table = {corpus.vocab.id_of(tok): vec for tok, vec in vectors.items()
             if tok in corpus.vocab}
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, table, len(corpus.vocab))


# --------------------------------------------------------------- criterion 1


def test_criterion_01_published_quality_arithmetic(report):
    """Diversity x cohesion reproduces each published overall score (+-0.01)."""
    rows = [
        (0.94, 0.54, 0.51),
        (0.93, 0.53, 0.49),
        (0.86, 0.49, 0.42),
        (0.71, 0.79, 0.56),
        (0.68, 0.79, 0.54),
        (0.74, 0.76, 0.56),
    ]
    for diversity, cohesion, overall in rows:
        assert abs(overall_quality(diversity, cohesion) - overall) <= 0.01
    report(1, "all 6 published diversity*cohesion rows match overall within 0.01")


# --------------------------------------------------------------- criterion 2


def oracle_fre(corpus, retrieved):
    scores = [0.0] * len(corpus.vocab)
    for idx, _ in retrieved.entries:
        for w in corpus.documents[idx].tokens:
            scores[w] += 1.0
    return scores


def oracle_kld(corpus, retrieved):
    V = len(corpus.vocab)
    r_counts = [0] * V
    r_total = 0
    for idx, _ in retrieved.entries:
        for w in corpus.documents[idx].tokens:
            r_counts[w] += 1
            r_total += 1
    c_counts = [0] * V
    c_total = 0
    for doc in corpus.documents:
        for w in doc.tokens:
            c_counts[w] += 1
            c_total += 1
    scores = [0.0] * V
    for w in range(V):
        if r_counts[w]:
            pr = r_counts[w] / r_total
            pc = c_counts[w] / c_total
            scores[w] = pr * math.log(pr / pc)
    return scores


def oracle_rel(corpus, query, retrieved, table, lam, top_k):
    V = len(corpus.vocab)
    log_scores = [s for _, s in retrieved.entries]
    m = max(log_scores)
    weights = [math.exp(s - m) for s in log_scores]
    total = sum(weights)
    weights = [x / total for x in weights]
    rm = [0.0] * V
    for (idx, _), wt in zip(retrieved.entries, weights):
        doc = corpus.documents[idx]
        inv = wt / len(doc)
        for wid, n in doc.counts.items():
            rm[wid] += n * inv

    vecs = [table.get(t) for t in query.terms if table.get(t) is not None]
    qv = np.mean(vecs, axis=0)
    qv = qv / np.linalg.norm(qv)
    sims = [0.0] * V
    for w in range(V):
        v = table.get(w)
        if v is not None:
            n = np.linalg.norm(v)
            if n > 0:
                sims[w] = float(np.dot(v, qv) / n)
    order = sorted(range(V), key=lambda w: (-sims[w], w))[:top_k]
    sim_total = sum(sims[w] for w in order)
    norm_sim = {w: sims[w] / sim_total for w in order}
    return [lam * rm[w] + (1 - lam) * norm_sim.get(w, 0.0) for w in range(V)]


def oracle_rank(scores, n):
    positive = [w for w in range(len(scores)) if scores[w] > 0]
    return sorted(positive, key=lambda w: (-scores[w], w))[:n]


def test_criterion_02_scorer_oracle_equivalence(report):
    """FRE/KLD/REL rankings match brute-force vocabulary scans exactly."""
    start = time.monotonic()
    spec = SyntheticSpec(n_docs=50, vocab_size=300, n_topics=4, doc_length=30,
                         rare_topic_prevalence=0.04, seed=17)
    corpus, truth = synthetic_corpus(spec)
    assert len(corpus.vocab) <= 500
    table = embedding_table(spec, corpus)
    phrase = " ".join(truth["topic_top_words"]["topic0"][:2])
    query = parse_query(phrase, corpus, "or")
    retrieved = retrieve(corpus, query, 25, 100.0)

    n = 20
    for method, oracle in (
            ("fre", oracle_fre(corpus, retrieved)),
            ("kld", oracle_kld(corpus, retrieved)),
            ("rel", oracle_rel(corpus, query, retrieved, table, 0.5, 100))):
        cs = extract_concept_words(corpus, query, retrieved, method, n,
                                   table=table, lam=0.5, top_k=100)
        assert cs.word_ids() == oracle_rank(oracle, n), method
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"FRE/KLD/REL ranks identical to brute-force oracles "
              f"({elapsed:.2f}s < 5s)")


# --------------------------------------------------------------- criterion 3


def recount(docs, t_assign, table_topics, n_parents=0):
    """Straight-line recount of CRF statistics from raw assignments."""
    nkw = defaultdict(Counter)
    nk = Counter()
    m_k = Counter({q: 1 for q in range(n_parents)})
    tmass = []
    for j, doc in enumerate(docs):
        masses = [0] * len(table_topics[j])
        for i, w in enumerate(doc):
            t = t_assign[j][i]
            k = table_topics[j][t]
            nkw[k][w] += 1
            nk[k] += 1
            masses[t] += 1
        tmass.append(masses)
        for k in table_topics[j]:
            if k >= 0:
                m_k[k] += 1
    return nkw, nk, m_k, sum(m_k.values()), tmass


def oracle_table_probs(docs, t_assign, table_topics, j, w, V, hp, base,
                       forced=None, n_parents=0):
    """Hand-normalized table-choice distribution (index -1 = new table)."""
    nkw, nk, m_k, m_total, tmass = recount(docs, t_assign, table_topics, n_parents)
    beta, alpha, gamma = hp.beta, hp.alpha, hp.gamma

    def f(k):
        return (nkw[k][w] + beta) / (nk[k] + V * beta)

    weights = {}
    for t, k in enumerate(table_topics[j]):
        if k < 0 or (forced is not None and k != forced):
            weights[t] = 0.0
        else:
            weights[t] = tmass[j][t] * f(k)
    mixture = sum(m_k[k] * f(k) for k in m_k)
    weights[-1] = alpha * (mixture + gamma * base) / (m_total + gamma)
    total = sum(weights.values())
    return {t: v / total for t, v in weights.items()}


def oracle_topic_probs(docs, t_assign, table_topics, w, V, hp, base,
                       n_parents=0):
    """Hand-normalized topic-choice distribution (key -1 = new topic)."""
    nkw, nk, m_k, _, _ = recount(docs, t_assign, table_topics, n_parents)
    beta, gamma = hp.beta, hp.gamma
    weights = {k: m_k[k] * (nkw[k][w] + beta) / (nk[k] + V * beta) for k in m_k}
    weights[-1] = gamma * base
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def frozen_sampler(docs, V, t_assign, table_topics, *, n_parents=0,
                   forced=None, base=None):
    hp = Hyperparameters(initial_topics=max(3, n_parents + 1))
    s = HDPSampler(docs, V, hp, seed=1234, forced_topic=forced or {},
                   n_parents=n_parents, base_density=base)
    s.set_state(t_assign, table_topics)
    return s, hp


def empirical(draws):
    counts = Counter(draws)
    n = len(draws)
    return {o: c / n for o, c in counts.items()}


def test_criterion_03_transition_weight_monte_carlo(report):
    """Sampled table/topic frequencies match hand-normalized weights (1%)."""
    start = time.monotonic()
    N = 100_000
    checked = 0

    # state 1: two docs, two tables each, three live topics
    docs1 = [[0, 1, 2, 0], [1, 2, 3]]
    t1 = [[0, 0, 1, 1], [0, 1, 1]]
    k1 = [[0, 1], [1, 2]]
    # state 2: single doc with three tables, skewed counts
    docs2 = [[0, 0, 1, 2, 3, 3], [1, 2]]
    t2 = [[0, 0, 1, 1, 2, 2], [0, 0]]
    k2 = [[0, 1, 2], [1]]
    # state 3: constrained word 4 pinned to parent topic 0
    docs3 = [[4, 4, 1], [2, 4]]
    t3 = [[0, 0, 1], [0, 1]]
    k3 = [[0, 1], [1, 0]]
    # state 4: phase-2 analogue, scope of 4 word types, base density 1/4
    docs4 = [[0, 1, 2], [3, 0]]
    t4 = [[0, 0, 1], [0, 1]]
    k4 = [[0, 1], [1, 0]]

    table_cases = [
        (docs1, t1, k1, 0, 2, 5, None, 0, None),         # unconstrained
        (docs1, t1, k1, 1, 3, 5, None, 0, None),         # rare word
        (docs2, t2, k2, 0, 1, 5, None, 0, None),         # three tables
        (docs3, t3, k3, 1, 4, 5, {4: 0}, 1, None),       # constrained word
        (docs4, t4, k4, 0, 3, 4, None, 0, 0.25),         # phase-2 base density
    ]
    for docs, t, k, j, w, V, forced, n_parents, base in table_cases:
        s, hp = frozen_sampler(docs, V, t, k, n_parents=n_parents,
                               forced=forced, base=base)
        expected = oracle_table_probs(docs, t, k, j, w, V, hp,
                                      s.base_density, forced=(forced or {}).get(w),
                                      n_parents=n_parents)
        got = empirical([s.draw_table(j, w) for _ in range(N)])
        for outcome, p in expected.items():
            assert abs(got.get(outcome, 0.0) - p) < 0.01, (docs, j, w, outcome)
            checked += 1

    topic_cases = [
        (docs1, t1, k1, 0, 3, 5, 0, None),
        (docs2, t2, k2, 0, 2, 5, 0, None),
        (docs4, t4, k4, 1, 2, 4, 0, 0.25),
    ]
    for docs, t, k, j, w, V, n_parents, base in topic_cases:
        s, hp = frozen_sampler(docs, V, t, k, n_parents=n_parents, base=base)
        expected = oracle_topic_probs(docs, t, k, w, V, hp, s.base_density,
                                      n_parents=n_parents)
        got = empirical([s.draw_topic(j, w) for _ in range(N)])
        for outcome, p in expected.items():
            assert abs(got.get(outcome, 0.0) - p) < 0.01, (docs, j, w, outcome)
            checked += 1

    # a constrained word's topic draw is a point mass on its parent
    s, _ = frozen_sampler(docs3, 5, t3, k3, n_parents=1, forced={4: 0})
    assert all(s.draw_topic(0, 4) == 0 for _ in range(1000))

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"{checked} outcome frequencies within 1% of hand-normalized "
              f"weights over 8 frozen states ({elapsed:.1f}s < 30s)")


# ------------------------------------------------------- criteria 4 and 5


@pytest.fixture(scope="module")
def audited_phase1_run():
    """A 200-iteration constrained phase-1 run with per-sweep auditing.

    `run(check_invariants=True)` re-derives every counter from the raw
    assignments after each sweep and raises on any violation, including a
    concept-word token sitting at a table of the wrong topic.
    """
    spec = SyntheticSpec(n_docs=200, vocab_size=300, n_topics=4, doc_length=30,
                         rare_topic_prevalence=0.05, seed=23)
    corpus, truth = synthetic_corpus(spec)
    table = embedding_table(spec, corpus)
    hp = Hyperparameters()

    phrase = " ".join(truth["topic_top_words"]["topic0"][:2])
    query = parse_query(phrase, corpus, "or")
    retrieved = retrieve(corpus, query, 200, 100.0)
    cs = extract_concept_words(corpus, query, retrieved, "kld", 10)
    forced = {w: 0 for w in cs.word_ids()}

    promotion = build_promotion(table, cs.word_ids(), hp.cosine_threshold,
                                hp.promotion_weight)

    sampler = HDPSampler([d.tokens for d in corpus.documents], len(corpus.vocab),
                         hp, seed=3, forced_topic=forced, n_parents=1,
                         promotion=promotion, embedding_norms=table.norm_matrix(),
                         parent_representatives={0: cs.word_ids()})
    sampler.initialize()
    start = time.monotonic()
    sampler.run(200, check_invariants=True)
    elapsed = time.monotonic() - start
    return sampler, forced, elapsed


def test_criterion_04_constraint_invariant(audited_phase1_run, report):
    """No concept-word token ever leaves its parent topic across 200 sweeps."""
    sampler, forced, elapsed = audited_phase1_run
    assert sampler.iterations_done == 200
    violations = 0
    for j, doc in enumerate(sampler.docs):
        for i, w in enumerate(doc):
            k = sampler.table_topic[j][sampler.t[j][i]]
            if w in forced and k != forced[w]:
                violations += 1
    assert violations == 0
    assert elapsed < 60.0
    report(4, f"0 constraint violations over 200 audited sweeps, 200 docs "
              f"({elapsed:.1f}s < 60s)")


def test_criterion_05_count_conservation_and_roundtrip(audited_phase1_run, report):
    """Counts stay conserved each sweep; remove/add restores state exactly."""
    sampler, _, _ = audited_phase1_run
    # conservation at the final state (checked per sweep during the run)
    for k in sampler.m_k:
        assert sum(sampler.nkw_units[k]) == sampler.nk_units[k]
        assert sum(sampler.nkw_promos[k]) == sampler.nk_promos[k]
        assert abs(sum(sampler.nkw(k, w) for w in range(sampler.V))
                   - sampler.nk(k)) < 1e-6
    assert sampler.m_total == sum(sampler.m_k.values())

    before = (
        {k: list(v) for k, v in sampler.nkw_units.items()},
        {k: list(v) for k, v in sampler.nkw_promos.items()},
        dict(sampler.nk_units), dict(sampler.nk_promos),
        [list(r) for r in sampler.table_units],
        [list(r) for r in sampler.table_promos],
        dict(sampler.m_k), sampler.m_total,
    )
    n_tokens = 0
    for j, doc in enumerate(sampler.docs):
        for i in range(len(doc)):
            t0 = sampler.t[j][i]
            k0 = sampler.table_topic[j][t0]
            local = (list(sampler.nkw_units[k0]), list(sampler.nkw_promos[k0]),
                     sampler.nk_units[k0], sampler.nk_promos[k0],
                     list(sampler.table_units[j]), list(sampler.table_promos[j]),
                     sampler.m_k.get(k0), sampler.m_total)
            t, k, flag = sampler._detach(j, i)
            sampler._ensure_table(j, t, k)
            sampler._attach(j, i, t, flag)
            after = (list(sampler.nkw_units[k0]), list(sampler.nkw_promos[k0]),
                     sampler.nk_units[k0], sampler.nk_promos[k0],
                     list(sampler.table_units[j]), list(sampler.table_promos[j]),
                     sampler.m_k.get(k0), sampler.m_total)
            assert after == local, f"round trip drifted at token ({j},{i})"
            n_tokens += 1
    after_all = (
        {k: list(v) for k, v in sampler.nkw_units.items()},
        {k: list(v) for k, v in sampler.nkw_promos.items()},
        dict(sampler.nk_units), dict(sampler.nk_promos),
        [list(r) for r in sampler.table_units],
        [list(r) for r in sampler.table_promos],
        dict(sampler.m_k), sampler.m_total,
    )
    assert after_all == before
    sampler.check_invariants()
    report(5, f"counts conserved every sweep; remove/add round trip exact on "
              f"all {n_tokens} tokens")


# --------------------------------------------------------------- criterion 6


def test_criterion_06_plain_hdp_reduction(report):
    """With no constraints and no promotion, weights equal a plain CRF-HDP."""
    rng = np.random.default_rng(99)
    V = 8
    for state in range(20):
        docs = [[int(rng.integers(V)) for _ in range(int(rng.integers(3, 7)))]
                for _ in range(2)]
        t_assign, table_topics = [], []
        for doc in docs:
            nt = int(rng.integers(1, min(3, len(doc)) + 1))
            t_assign.append([i % nt for i in range(len(doc))])
            table_topics.append([int(rng.integers(3)) for _ in range(nt)])
        s, hp = frozen_sampler(docs, V, t_assign, table_topics)

        for j in range(len(docs)):
            for w in range(V):
                weights, new_w = s.table_weights(j, w)
                probs = oracle_table_probs(docs, t_assign, table_topics, j, w,
                                           V, hp, s.base_density)
                # compare unnormalized weights via a shared normalizer
                total = sum(weights) + new_w
                for t, got in enumerate(weights):
                    assert math.isclose(got / total, probs[t],
                                        rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(new_w / total, probs[-1], rel_tol=1e-9)

                existing, new_k = s.topic_weights(j, w)
                tprobs = oracle_topic_probs(docs, t_assign, table_topics, w,
                                            V, hp, s.base_density)
                total = sum(wt for _, wt in existing) + new_k
                for k, got in existing:
                    assert math.isclose(got / total, tprobs[k], rel_tol=1e-9)
                assert math.isclose(new_k / total, tprobs[-1], rel_tol=1e-9)
    report(6, "table and topic weights match an independent plain CRF-HDP "
              "calculator on 20 random micro-states (rel 1e-9)")


# --------------------------------------------------------------- criterion 7


def test_criterion_07_planted_rare_topic_recovery(report):
    """A 2%-prevalence planted topic is recovered from its top-2 words."""
    start = time.monotonic()
    successes = 0
    for seed in range(5):
        spec = SyntheticSpec(n_topics=6, vocab_size=1000, n_docs=500,
                             doc_length=40, rare_topic_prevalence=0.02,
                             seed=100 + seed)
        corpus, truth = synthetic_corpus(spec)
        table = embedding_table(spec, corpus)
        rare = truth["rare_topic"]
        phrase = " ".join(truth["topic_top_words"][rare][:2])

        result = fit_topics(corpus, [phrase], "kld", hp=Hyperparameters(),
                            embeddings=table, seed=seed,
                            iterations_phase1=80, iterations_phase2=20,
                            mode="or", retrieval_cutoff=200)
        q = result.queries[0]
        planted = set(truth["topic_top_words"][rare][:10])
        got = {w for w, _ in q.parent_top_words[:10]}
        overlap = len(planted & got)

        relevant = {doc_id for doc_id, lab in truth["doc_topics"].items()
                    if lab == rare}
        k = truth["rare_doc_count"]
        ranked = sorted(q.parent_doc_scores,
                        key=lambda d: -q.parent_doc_scores[d])
        precision = precision_at_k(ranked, relevant, k)
        if overlap >= 7 and precision >= 0.7:
            successes += 1
    elapsed = time.monotonic() - start
    assert successes >= 4, f"only {successes}/5 seeds recovered the rare topic"
    assert elapsed < 300.0
    report(7, f"rare topic recovered (top-10 overlap >=7 and P@K >= 0.7) in "
              f"{successes}/5 seeds ({elapsed:.0f}s < 300s)")


# --------------------------------------------------------------- criterion 8


def test_criterion_08_subtopic_separation(report):
    """Two disjoint 20-word blocks inside a parent split into pure subtopics."""
    rng = np.random.default_rng(6)
    block_a = list(range(0, 20))
    block_b = list(range(20, 40))
    sub_docs = []
    for _ in range(40):
        block = block_a if rng.random() < 0.5 else block_b
        sub_docs.append([int(rng.choice(block)) for _ in range(20)])
    support = set(range(40))
    total_corpus_tokens = 20_000

    sampler, scope, counts = run_phase2(
        sub_docs, support, Hyperparameters(initial_topics=4), seed=11,
        iterations=80, check_invariants=True)
    survivors = prune_subtopics(counts, total_corpus_tokens, 0.005)

    # pruning drops exactly the under-floor topics
    for k in counts:
        assert (k in survivors) == (counts[k] / total_corpus_tokens >= 0.005)

    assert len(survivors) >= 2
    for k in survivors:
        top = [scope[w] for w, _ in sampler.top_words(k, 10)]
        in_a = sum(1 for w in top if w in set(block_a))
        assert max(in_a, 10 - in_a) >= 8, f"subtopic {k} mixes blocks: {top}"
        nonzero = {scope[w] for w in range(len(scope))
                   if sampler.nkw_units[k][w] or sampler.nkw_promos[k][w]}
        assert nonzero <= support
    report(8, f"{len(survivors)} surviving subtopics, each >=8/10 top words "
              f"from a single block, support within the parent word set")


# --------------------------------------------------------------- criterion 9


def test_criterion_09_cli_determinism(report, tmp_path):
    """Identical configuration and seed give byte-identical result JSON."""
    corpus = tmp_path / "corpus.jsonl"
    vec = tmp_path / "vec.txt"
    assert main(["synth", "--topics", "4", "--vocab", "160", "--docs", "90",
                 "--doc-length", "25", "--rare-prevalence", "0.05",
                 "--seed", "2", "--out", str(corpus),
                 "--embeddings-out", str(vec)]) == EXIT_OK

    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main(["fit", "--corpus", str(corpus), "--query", "w0000 w0001",
                   "--method", "kld", "--n", "8", "--seed", "21",
                   "--iters1", "20", "--iters2", "10",
                   "--embeddings", str(vec), "--full-posterior",
                   "--out", str(out)])
        assert rc == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    json.loads(outs[0])  # and it is valid JSON
    report(9, "two identical CLI fit invocations produced byte-identical "
              "result files")


# -------------------------------------------------------------- criterion 10


def test_criterion_10_promotion_flag_statistics(report):
    """Flag draws follow the rank-normalized gate; flagged adds move the
    exact promotion-row mass."""
    # middle-ranked topic -> gate probability exactly 0.5
    s = build_cohesion_sampler(np.array([0.2, 0.8, 0.5]))
    s.refresh_cohesion()
    draws = 10_000
    freq = sum(s.draw_flag(3, 2) for _ in range(draws)) / draws
    assert abs(freq - 0.5) <= 0.02
    # extreme ranks are deterministic
    assert all(s.draw_flag(3, 0) == 0 for _ in range(100))
    assert all(s.draw_flag(3, 1) == 1 for _ in range(100))

    # flagged add: one self-pair and two cross-pairs at u = 0.3
    promo = PromotionMatrix(0.3, {3: [(0, False), (3, True), (4, False)]})
    hp = Hyperparameters(initial_topics=2)
    s2 = HDPSampler([[1, 3]], 5, hp, seed=0, promotion=promo,
                    embedding_norms=np.zeros((5, 2)))
    s2.set_state([[0, 0]], [[0]])
    t, k, _ = s2._detach(0, 1)
    s2._ensure_table(0, t, k)
    units0, promos0 = s2.table_units[0][t], s2.table_promos[0][t]
    nk0 = s2.nk(k)
    s2._attach(0, 1, t, 1)
    assert s2.table_units[0][t] - units0 == 1       # the self-pair
    assert s2.table_promos[0][t] - promos0 == 2     # the two cross-pairs
    delta = (s2.table_units[0][t] + 0.3 * s2.table_promos[0][t]) - (units0 + 0.3 * promos0)
    assert delta == pytest.approx(1 + 0.3 + 0.3, abs=1e-12)
    assert s2.nk(k) - nk0 == pytest.approx(1 + 0.3 + 0.3, abs=1e-12)
    assert s2.nkw_units[k][3] == 1  # the self-pair lands on the word itself
    assert s2.nkw_promos[k][0] == 1 and s2.nkw_promos[k][4] == 1
    report(10, f"middle-rank flag frequency {freq:.3f} within 0.5+-0.02; "
               f"flagged add moved exactly {1 + 0.3 + 0.3:.1f} mass")
