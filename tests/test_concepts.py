import math

import numpy as np
import pytest

from qdtm.concepts import (ExtractionError, extract_concept_words,
                           normalized_query_similarity, relevance_model_distribution)
from qdtm.corpus import ingest
from qdtm.retrieval import RetrievedSet, parse_query, retrieve

from helpers import make_table


def all_scores(corpus, query, retrieved, method, **kwargs) -> dict[int, float]:
    """Every positive score the extractor assigns (n = whole vocabulary)."""
    cs = extract_concept_words(corpus, query, retrieved, method, len(corpus.vocab),
                               **kwargs)
    return dict(cs.words)


def test_score_fre_sums_term_frequencies():
    c = ingest([("a", "xx xx xx yy"), ("b", "xx xx zz"), ("c", "zz zz")])
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0), (1, -2.0)], 10)
    xx = c.vocab.id_of("xx")
    zz = c.vocab.id_of("zz")
    absent = c.vocab.id_of("yy")
    scores = all_scores(c, q, retrieved, "fre")
    assert scores[xx] == 5
    assert scores[zz] == 1
    assert zz not in all_scores(c, q, RetrievedSet([(0, -1.0)], 10), "fre")
    assert absent not in all_scores(c, q, RetrievedSet([(2, -1.0)], 10), "fre")


def test_score_fre_matches_recount(random_corpus):
    q = parse_query("w001", random_corpus)
    retrieved = retrieve(random_corpus, q, cutoff=50)
    scores = all_scores(random_corpus, q, retrieved, "fre")
    for w in range(0, len(random_corpus.vocab), 7):
        expected = sum(random_corpus.documents[i].tokens.count(w)
                       for i, _ in retrieved.entries)
        assert scores.get(w, 0) == expected


def test_score_kld_zero_when_distributions_match():
    # retrieved set == whole corpus, so P_R == P_C and no word scores above 0
    c = ingest([("a", "xx yy"), ("b", "xx zz")])
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0), (1, -1.0)], 10)
    assert all_scores(c, q, retrieved, "kld") == {}


def test_score_kld_hand_value():
    # P_R(xx) = 0.1 (1 of 10 retrieved tokens), P_C(xx) = 0.01 (1 of 100)
    docs = [("r", "xx " + " ".join(f"f{i}" for i in range(9)))]
    filler = " ".join(f"g{i}" for i in range(90))
    docs.append(("bg", filler))
    c = ingest(docs)
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0)], 10)
    xx = c.vocab.id_of("xx")
    scores = all_scores(c, q, retrieved, "kld")
    assert scores[xx] == pytest.approx(0.1 * math.log(10), abs=1e-12)


def test_score_kld_absent_word_is_zero():
    c = ingest([("a", "xx yy"), ("b", "zz ww")])
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0)], 10)
    assert c.vocab.id_of("zz") not in all_scores(c, q, retrieved, "kld")


def test_relevance_model_single_doc_collapses():
    c = ingest([("a", "xx xx yy"), ("b", "zz")])
    retrieved = RetrievedSet([(0, -0.5)], 10)
    xx = c.vocab.id_of("xx")
    assert relevance_model_distribution(c, retrieved)[xx] == pytest.approx(2 / 3)


def test_relevance_model_uniform_average():
    c = ingest([("a", "xx " + "aa " * 4), ("b", "xx xx " + "bb " * 3)])
    # equal log scores -> uniform weights; p(xx|d0)=0.2, p(xx|d1)=0.4
    retrieved = RetrievedSet([(0, -1.0), (1, -1.0)], 10)
    xx = c.vocab.id_of("xx")
    assert relevance_model_distribution(c, retrieved)[xx] == pytest.approx(0.3)


def test_relevance_model_sums_to_one_and_matches_double_loop(random_corpus):
    q = parse_query("w003 w005", random_corpus)
    retrieved = retrieve(random_corpus, q, cutoff=20)
    dist = relevance_model_distribution(random_corpus, retrieved)
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    # brute-force double loop
    weights = np.array([math.exp(s) for _, s in retrieved.entries])
    weights /= weights.sum()
    for w in range(0, len(random_corpus.vocab), 13):
        expected = sum(wt * random_corpus.documents[i].counts.get(w, 0)
                       / len(random_corpus.documents[i])
                       for (i, _), wt in zip(retrieved.entries, weights))
        assert dist[w] == pytest.approx(expected, abs=1e-12)


def test_relevance_model_degenerate_weights():
    c = ingest([("a", "xx yy"), ("b", "zz ww")])
    retrieved = RetrievedSet([(0, float("-inf"))], 10)
    with pytest.raises(ExtractionError):
        relevance_model_distribution(c, retrieved)


def test_rel_lambda_endpoints():
    c = ingest([("a", "xx yy"), ("b", "xx zz")])
    table = make_table({0: [1.0, 0.0], 1: [0.9, 0.1], 2: [0.0, 1.0]}, len(c.vocab))
    q = parse_query("xx", c)
    retrieved = retrieve(c, q, cutoff=2)
    xx = c.vocab.id_of("xx")
    rm_only = all_scores(c, q, retrieved, "rel", table=table, lam=1.0)
    assert rm_only[xx] == pytest.approx(relevance_model_distribution(c, retrieved)[xx])
    sim = normalized_query_similarity(q, table)
    sim_only = all_scores(c, q, retrieved, "rel", table=table, lam=0.0)
    assert sim_only[xx] == pytest.approx(sim[xx])


def test_rel_mixture_arithmetic():
    # lam=0.5, rm=0.2, sim=0.4 -> 0.3 checked through the raw mixture formula
    assert 0.5 * 0.2 + 0.5 * 0.4 == pytest.approx(0.3)


def test_rel_topk_cutoff_zeroes_tail():
    c = ingest([("a", "xx yy zz ww")])
    table = make_table({0: [1.0, 0.0], 1: [0.9, 0.1], 2: [0.5, 0.5], 3: [0.0, 1.0]},
                       len(c.vocab))
    q = parse_query("xx", c)
    sim = normalized_query_similarity(q, table, top_k=2)
    assert set(sim) == {0, 1}
    assert c.vocab.id_of("ww") not in sim


def test_rel_lambda_out_of_range():
    c = ingest([("a", "xx yy")])
    table = make_table({0: [1.0, 0.0]}, len(c.vocab))
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0)], 10)
    with pytest.raises(ExtractionError):
        extract_concept_words(c, q, retrieved, "rel", 1, table=table, lam=1.5)


def test_rel_missing_query_embedding_falls_back(caplog):
    c = ingest([("a", "xx yy"), ("b", "xx zz")])
    table = make_table({1: [1.0, 0.0]}, len(c.vocab))  # query word xx uncovered
    q = parse_query("xx", c)
    retrieved = retrieve(c, q, cutoff=2)
    cs = extract_concept_words(c, q, retrieved, "rel", 2, table=table, lam=0.5)
    rm = relevance_model_distribution(c, retrieved)
    for w, s in cs.words:
        assert s == pytest.approx(rm[w])


def test_extract_fre_dominant_token():
    c = ingest([("a", "xx xx xx yy"), ("b", "xx zz")])
    q = parse_query("xx", c)
    retrieved = retrieve(c, q, cutoff=2)
    cs = extract_concept_words(c, q, retrieved, "fre", 1)
    assert cs.word_ids() == [c.vocab.id_of("xx")]


def test_extract_kld_planted_exclusive_words(random_corpus):
    # words 0..19 occur (almost) only in the planted documents retrieved by w001
    q = parse_query("w001", random_corpus)
    retrieved = retrieve(random_corpus, q, cutoff=10)
    cs = extract_concept_words(random_corpus, q, retrieved, "kld", 10)
    # brute-force oracle over the whole vocabulary: P_R(w) ln(P_R(w) / P_C(w))
    retrieved_tokens = [w for i, _ in retrieved.entries
                        for w in random_corpus.documents[i].tokens]
    corpus_tokens = [w for d in random_corpus.documents for w in d.tokens]
    scores = {}
    for w in set(retrieved_tokens):
        pr = retrieved_tokens.count(w) / len(retrieved_tokens)
        pc = corpus_tokens.count(w) / len(corpus_tokens)
        scores[w] = pr * math.log(pr / pc)
    expected = sorted((w for w in scores if scores[w] > 0),
                      key=lambda w: (-scores[w], w))[:10]
    assert cs.word_ids() == expected


def test_extract_truncates_when_few_positive(caplog):
    c = ingest([("a", "xx yy"), ("b", "zz ww")])
    q = parse_query("xx", c)
    retrieved = RetrievedSet([(0, -1.0)], 10)
    import logging
    with caplog.at_level(logging.WARNING, logger="qdtm.concepts"):
        cs = extract_concept_words(c, q, retrieved, "fre", 10)
    assert len(cs.words) == 2  # only xx and yy occur in the retrieved doc
    assert "positive-scoring" in caplog.text


def test_extract_rejects_unknown_method(tiny_corpus):
    q = parse_query("cat", tiny_corpus)
    retrieved = RetrievedSet([(0, -1.0)], 10)
    with pytest.raises(ExtractionError):
        extract_concept_words(tiny_corpus, q, retrieved, "bm25", 5)
