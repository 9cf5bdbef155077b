import math

import numpy as np
import pytest

from qdtm.corpus import ingest
from qdtm.retrieval import (NEG_INF, EmptyResultError, Query, RetrievalError,
                            parse_query, precision_at_k, query_likelihood, retrieve)


@pytest.fixture
def abc_corpus():
    # d0 = [aa, bb, aa]; corpus arranged so P_C(cc) = 0.1
    return ingest([
        ("d0", "aa bb aa"),
        ("d1", "cc dd dd ee ee ff gg"),
    ])


def test_mle_single_term(abc_corpus):
    d0 = abc_corpus.documents[0]
    q = parse_query("aa", abc_corpus)
    assert query_likelihood(d0, q, abc_corpus, mu=0) == pytest.approx(math.log(2 / 3))


def test_mle_two_term_product(abc_corpus):
    d0 = abc_corpus.documents[0]
    q = parse_query("aa bb", abc_corpus)
    assert query_likelihood(d0, q, abc_corpus, mu=0) == pytest.approx(math.log(2 / 9))


def test_absent_term_mle_and_smoothed(abc_corpus):
    d0 = abc_corpus.documents[0]
    q = parse_query("cc", abc_corpus)
    assert query_likelihood(d0, q, abc_corpus, mu=0) == NEG_INF
    # P_C(cc) = 1/10; (0 + 10 * 0.1) / (3 + 10) = 1/13
    assert query_likelihood(d0, q, abc_corpus, mu=10) == pytest.approx(math.log(1 / 13))


def test_negative_mu_rejected(abc_corpus):
    q = parse_query("aa", abc_corpus)
    with pytest.raises(RetrievalError):
        query_likelihood(abc_corpus.documents[0], q, abc_corpus, mu=-1)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_non_finite_mu_rejected(abc_corpus, mu):
    q = parse_query("aa", abc_corpus)
    with pytest.raises(RetrievalError, match="mu"):
        retrieve(abc_corpus, q, mu=mu)
    with pytest.raises(RetrievalError, match="mu"):
        query_likelihood(abc_corpus.documents[0], q, abc_corpus, mu=mu)


def test_parse_query_records_oov(abc_corpus):
    q = parse_query("aa zz", abc_corpus)
    assert q.oov == ["zz"]
    with pytest.raises(RetrievalError):
        parse_query("zz yy", abc_corpus)


def test_or_mode_returns_exactly_matching_docs():
    c = ingest([("d0", "xx yy"), ("d1", "yy zz"), ("d2", "xx zz")])
    q = parse_query("xx", c, "or")
    res = retrieve(c, q, cutoff=10)
    assert [i for i, _ in res.entries] == [0, 2]


def test_and_mode_requires_all_terms():
    c = ingest([("d0", "xx aa"), ("d1", "xx yy bb"), ("d2", "yy cc")])
    q = parse_query("xx yy", c, "and")
    res = retrieve(c, q, cutoff=10)
    assert [i for i, _ in res.entries] == [1]


def test_and_subset_of_or():
    rng = np.random.default_rng(11)
    words = [f"t{i:02d}" for i in range(30)]
    c = ingest([(f"d{j}", " ".join(words[i] for i in rng.integers(30, size=12)))
                for j in range(60)])
    q_and = parse_query("t00 t01", c, "and")
    q_or = parse_query("t00 t01", c, "or")
    and_set = {i for i, _ in retrieve(c, q_and, 60).entries}
    or_set = {i for i, _ in retrieve(c, q_or, 60).entries}
    assert and_set <= or_set


def test_empty_result_names_mode():
    c = ingest([("d0", "xx aa"), ("d1", "yy bb")])
    q = parse_query("xx yy", c, "and")
    with pytest.raises(EmptyResultError, match="AND"):
        retrieve(c, q)


def test_ranking_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    words = [f"t{i:02d}" for i in range(50)]
    c = ingest([(f"d{j}", " ".join(words[i] for i in rng.integers(50, size=20)))
                for j in range(100)])
    q = parse_query("t00 t07", c, "or")
    got = retrieve(c, q, cutoff=100).entries
    # independent full rescoring
    expected = []
    for idx, doc in enumerate(c.documents):
        if not {w for w in q.terms} & set(doc.counts):
            continue
        s = 0.0
        for t in q.terms:
            s += math.log((doc.counts.get(t, 0) + 100.0 * c.background_prob(t))
                          / (len(doc) + 100.0))
        expected.append((idx, s))
    expected.sort(key=lambda e: (-e[1], e[0]))
    assert [i for i, _ in got] == [i for i, _ in expected]
    for (_, a), (_, b) in zip(got, expected):
        assert a == pytest.approx(b)


def test_monotonicity_on_constructed_pair():
    # same doc with one extra occurrence of the query term
    c = ingest([("d0", "qq aa bb"), ("d1", "qq qq aa bb")])
    q = parse_query("qq", c)
    s0 = query_likelihood(c.documents[0], q, c, mu=10)
    s1 = query_likelihood(c.documents[1], q, c, mu=10)
    assert s1 >= s0


def test_full_cutoff_returns_every_passing_doc():
    c = ingest([("d0", "xx yy"), ("d1", "xx zz"), ("d2", "ww zz")])
    q = parse_query("xx", c, "or")
    assert len(retrieve(c, q, cutoff=len(c)).entries) == 2


def test_precision_at_k():
    assert precision_at_k([1, 2, 3, 4], {1, 3}, 4) == 0.5
    assert precision_at_k([1, 2, 3], {1, 2, 3, 9}, 3) == 1.0
    with pytest.raises(RetrievalError):
        precision_at_k([1, 2], {1}, 3)


def test_precision_at_k_planted_category():
    rng = np.random.default_rng(2)
    relevant = set(rng.choice(200, size=40, replace=False).tolist())
    scores = {d: (1.0 if d in relevant else 0.0) + rng.random() * 0.5 for d in range(200)}
    ranked = sorted(scores, key=lambda d: -scores[d])
    k = len(relevant)
    expected = sum(1 for d in ranked[:k] if d in relevant) / k
    assert precision_at_k(ranked, relevant, k) == expected


def test_query_mode_validation():
    with pytest.raises(RetrievalError):
        Query([0], "x", "xor")
