"""The corpus index against per-document scans and loops.

`retrieve`, `extract_concept_words` and `npmi_coherence` read their
candidates and counts off `Corpus.index` with array passes. The scans and
loops below are the reference they must equal exactly: the same entries,
floats and errors.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm.concepts import (METHODS, ExtractionError, extract_concept_words,
                           normalized_query_similarity, relevance_model_distribution)
from qdtm.corpus import ingest
from qdtm.metrics import NPMI_TOP_N, npmi_coherence
from qdtm.retrieval import NEG_INF, EmptyResultError, Query, parse_query, retrieve

from helpers import make_table

WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]


def recount_background(corpus):
    """p_C(w) of every word, counted over the documents."""
    counts = Counter(w for doc in corpus.documents for w in doc.tokens)
    total = sum(len(doc) for doc in corpus.documents)
    return {wid: n / total for wid, n in counts.items()}


def scan_likelihood(doc, query, background, mu):
    """Log query likelihood of one document, one term at a time."""
    counts = Counter(doc.tokens)
    score = 0.0
    for wid in query.terms:
        p = (counts[wid] + mu * background[wid]) / (len(doc) + mu)
        if p <= 0.0:
            return NEG_INF
        score += math.log(p)
    return score


def scan_retrieve(corpus, query, cutoff, mu):
    """Every document tested against the mode filter, then scored."""
    term_set = set(query.terms)
    candidates = []
    for idx, doc in enumerate(corpus.documents):
        if query.mode == "and":
            if not term_set.issubset(doc.counts):
                continue
        elif term_set.isdisjoint(doc.counts):
            continue
        candidates.append(idx)
    if not candidates:
        raise EmptyResultError(query.mode)
    background = recount_background(corpus)
    scored = [(idx, scan_likelihood(corpus.documents[idx], query, background, mu))
              for idx in candidates]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:cutoff]


def scan_npmi(top_words, corpus):
    """Document frequencies and co-occurrences counted over every document."""
    ids = [corpus.vocab.id_of(w) for w in top_words[:NPMI_TOP_N]]
    n_docs = len(corpus.documents)
    doc_sets = [set(d.counts) for d in corpus.documents]
    df = {wid: sum(1 for s in doc_sets if wid in s) for wid in ids}
    scores = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            wa, wb = ids[a], ids[b]
            joint = sum(1 for s in doc_sets if wa in s and wb in s)
            if df[wa] == 0 and df[wb] == 0 and joint == 0:
                continue
            p_a = (df[wa] + 1) / (n_docs + 1)
            p_b = (df[wb] + 1) / (n_docs + 1)
            p_ab = (joint + 1) / (n_docs + 1)
            if p_ab == 1.0:   # both words in every document: NPMI 1 (Bouma)
                scores.append(1.0)
                continue
            pmi = math.log(p_ab / (p_a * p_b))
            scores.append(pmi / -math.log(p_ab))
    if not scores:
        return 0.0
    return sum(scores) / len(scores)


def incidence_npmi(top_words, corpus):
    """The joint document frequencies from a dense 0/1 incidence product."""
    ids = [corpus.vocab.id_of(w) for w in top_words[:NPMI_TOP_N]]
    n_docs = len(corpus.documents)
    incidence = np.zeros((len(ids), n_docs))
    for row, wid in zip(incidence, ids):
        row[corpus.index.posting(wid)[0]] = 1.0
    joint = (incidence @ incidence.T).astype(int).tolist()
    scores = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            p_a = (joint[a][a] + 1) / (n_docs + 1)
            p_b = (joint[b][b] + 1) / (n_docs + 1)
            p_ab = (joint[a][b] + 1) / (n_docs + 1)
            pmi = math.log(p_ab / (p_a * p_b))
            scores.append(pmi / -math.log(p_ab) if p_ab < 1.0 else 1.0)
    return sum(scores) / len(scores) if scores else 0.0


def loop_counts(corpus, retrieved):
    """Term counts and total token count over the retrieved documents."""
    counts = Counter()
    total = 0
    for idx, _ in retrieved.entries:
        doc = corpus.documents[idx]
        counts.update(doc.tokens)
        total += len(doc)
    return counts, total


def loop_relevance_model(corpus, retrieved):
    """p(w|RM), adding each retrieved document's p(w|d) * weight word by word."""
    log_scores = np.array([s for _, s in retrieved.entries])
    finite = log_scores > NEG_INF
    if not finite.any():
        raise ExtractionError("degenerate weights")
    m = log_scores[finite].max()
    weights = np.where(finite, np.exp(np.clip(log_scores - m, -700, 0)), 0.0)
    weights /= weights.sum()
    dist = np.zeros(len(corpus.vocab))
    for (idx, _), wt in zip(retrieved.entries, weights):
        if wt == 0.0:
            continue
        doc = corpus.documents[idx]
        inv = wt / len(doc)
        for wid, n in Counter(doc.tokens).items():
            dist[wid] += n * inv
    return dist


def loop_concept_words(corpus, query, retrieved, method, n, table, lam):
    """Every word scored one at a time, then ranked by (-score, id)."""
    scores = np.zeros(len(corpus.vocab))
    if method == "rel":
        rm = loop_relevance_model(corpus, retrieved)
        sim = normalized_query_similarity(query, table)
        if not sim:
            lam = 1.0
        scores = lam * rm
        for wid, s in sim.items():
            scores[wid] += (1 - lam) * s
    else:
        counts, total = loop_counts(corpus, retrieved)
        background = recount_background(corpus)
        for wid, c in counts.items():
            if method == "fre":
                scores[wid] = float(c)
            else:
                pr = c / total
                scores[wid] = pr * math.log(pr / background[wid])
    ranked = sorted(np.nonzero(scores > 0)[0], key=lambda w: (-scores[w], w))
    return [(int(w), float(scores[w])) for w in ranked[:n]]


documents = st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
                     min_size=1, max_size=20)


def _outcome(f, *args):
    """The value f returns, or the type of what it raises."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - the errors must match too
        return type(e)


def _corpus(docs):
    return ingest([(f"d{j}", " ".join(words)) for j, words in enumerate(docs)])


def _table(corpus):
    rng = np.random.default_rng(len(corpus.vocab))
    return make_table({w: rng.normal(size=3).tolist() for w in range(len(corpus.vocab))},
                      len(corpus.vocab))


def test_index_is_flat_narrow_integer_arrays(random_corpus):
    index = random_corpus.index
    for name in ("doc_ptr", "lengths", "corpus_freq", "word_ptr"):
        assert getattr(index, name).dtype == np.int32, name
    # 120 words and 50 documents fit uint8 ids, as do counts of at most 30
    for name in ("words", "counts", "docs", "tfs"):
        assert getattr(index, name).dtype == np.uint8, name
    for name in ("doc_ptr", "words", "counts", "lengths", "corpus_freq",
                 "word_ptr", "docs", "tfs"):
        assert getattr(index, name).ndim == 1, name
    assert len(index.doc_ptr) == len(random_corpus) + 1
    assert len(index.word_ptr) == len(random_corpus.vocab) + 1
    recount = Counter(w for doc in random_corpus.documents for w in doc.tokens)
    assert index.corpus_freq.tolist() == [recount[w] for w in range(len(random_corpus.vocab))]
    assert index.total_tokens == recount.total()


def test_forward_half_holds_each_document_counts(random_corpus):
    index = random_corpus.index
    for j, doc in enumerate(random_corpus.documents):
        lo, hi = index.doc_ptr[j], index.doc_ptr[j + 1]
        assert list(zip(index.words[lo:hi].tolist(), index.counts[lo:hi].tolist())) == \
            list(Counter(doc.tokens).items())
        assert index.lengths[j] == len(doc)


def test_postings_list_the_documents_containing_each_word(random_corpus):
    docs = random_corpus.documents
    index = random_corpus.index
    for w in range(len(random_corpus.vocab)):
        posting, tfs = index.posting(w)
        assert posting.dtype == tfs.dtype == np.uint8
        assert posting.tolist() == [j for j, d in enumerate(docs) if w in d.counts]
        assert tfs.tolist() == [docs[j].counts[w] for j in posting]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([30, 300, 3000]))
def test_inverted_half_is_the_int32_stable_sort(seed, vocab_size):
    """The inverted half sorts the narrowed ids (uint8 or uint16, numpy's radix
    sort); the permutation is the stable sort of the int32 ids."""
    rng = np.random.default_rng(seed)
    corpus = ingest([(f"d{j}", " ".join(f"w{i}" for i in rng.integers(0, vocab_size, n)))
                     for j, n in enumerate(rng.integers(1, 40, rng.integers(1, 120)))])
    index = corpus.index
    order = np.argsort(index.words.astype(np.int32), kind="stable")
    doc_of = np.repeat(np.arange(len(corpus)), np.diff(index.doc_ptr))
    assert index.docs.tolist() == doc_of[order].tolist()
    assert index.tfs.tolist() == index.counts[order].tolist()


@pytest.mark.parametrize("mode", ["or", "and"])
def test_query_path_builds_no_document_counter(random_corpus, mode):
    """The query path reads the index only; a per-document Counter would cost
    about 11 MB on a 500k-token corpus."""
    table = _table(random_corpus)
    query = parse_query("w003 w005", random_corpus, mode)
    retrieved = retrieve(random_corpus, query, cutoff=20)
    for method in METHODS:
        cs = extract_concept_words(random_corpus, query, retrieved, method, table=table)
        npmi_coherence([random_corpus.vocab.token_of(w) for w in cs.word_ids()],
                       random_corpus)
    assert not any("counts" in doc.__dict__ for doc in random_corpus.documents)


@settings(max_examples=200, deadline=None)
@given(docs=documents, data=st.data())
def test_retrieve_equals_the_document_scan(docs, data):
    corpus = _corpus(docs)
    vocab_size = len(corpus.vocab)
    # single terms, several terms and repeated terms
    terms = data.draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=4))
    mode = data.draw(st.sampled_from(["and", "or"]))
    cutoff = data.draw(st.integers(1, 25))
    mu = data.draw(st.sampled_from([0.0, 1.5, 100.0]))
    query = Query(terms, "q", mode)
    got = _outcome(lambda: retrieve(corpus, query, cutoff, mu).entries)
    assert got == _outcome(scan_retrieve, corpus, query, cutoff, mu)


@settings(max_examples=200, deadline=None)
@given(docs=documents, data=st.data())
def test_expansion_equals_the_document_loops(docs, data):
    corpus = _corpus(docs)
    vocab_size = len(corpus.vocab)
    terms = data.draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=3))
    mode = data.draw(st.sampled_from(["and", "or"]))
    mu = data.draw(st.sampled_from([0.0, 1.5, 100.0]))
    cutoff = data.draw(st.integers(1, 25))
    n = data.draw(st.integers(1, 12))
    lam = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    query = Query(terms, "q", mode)
    try:
        retrieved = retrieve(corpus, query, cutoff, mu)
    except EmptyResultError:
        return
    table = _table(corpus)
    got = _outcome(lambda: relevance_model_distribution(corpus, retrieved).tobytes())
    assert got == _outcome(lambda: loop_relevance_model(corpus, retrieved).tobytes())
    for method in METHODS:
        got = _outcome(lambda: extract_concept_words(corpus, query, retrieved, method, n,
                                                     table=table, lam=lam).words)
        assert got == _outcome(loop_concept_words, corpus, query, retrieved, method, n,
                               table, lam)


@settings(max_examples=200, deadline=None)
@given(docs=documents, data=st.data())
def test_npmi_equals_the_document_scan(docs, data):
    corpus = _corpus(docs)
    words = data.draw(st.lists(st.sampled_from(corpus.vocab.tokens), max_size=12))
    got = _outcome(npmi_coherence, words, corpus)
    assert got == _outcome(scan_npmi, words, corpus) == _outcome(incidence_npmi, words, corpus)


def test_npmi_equals_the_incidence_product():
    """The joint frequencies from the documents' bit masks against the dense
    product, on 600 documents: ten words, fewer than ten, repeated words, and a
    pair present in every document."""
    rng = np.random.default_rng(5)
    vocab = [f"w{i:02d}" for i in range(60)]
    corpus = ingest([(f"d{j}", " ".join(["all", "every", *rng.choice(vocab, rng.integers(1, 25))]))
                     for j in range(600)])
    lists = [rng.choice(corpus.vocab.tokens, size, replace=False).tolist()
             for size in (10, 12, 10, 9, 3, 2, 1)]
    lists += [["w01", "w02", "w01", "w03"], ["all", "every"], ["all", "every", "w05", "all"],
              ["w07"] * 10, []]
    for words in lists:
        got = npmi_coherence(words, corpus)
        assert got == incidence_npmi(words, corpus) == scan_npmi(words, corpus), words


def test_scorers_equal_the_loops_on_a_larger_corpus():
    """The corpora drawn above are tiny, and np.log differs from math.log in
    the last bit on only about one value in a thousand; many queries on one
    larger corpus pin the per-value math.log of every scorer."""
    rng = np.random.default_rng(3)
    words = [f"w{i:03d}" for i in range(400)]
    docs = [rng.zipf(1.2, rng.integers(10, 90)) % 400 for _ in range(300)]
    corpus = ingest([(f"d{j}", " ".join(words[i] for i in ids)) for j, ids in enumerate(docs)])
    table = _table(corpus)
    for k in range(120):
        terms = rng.choice(len(corpus.vocab), size=2, replace=False).tolist()
        for mode, mu in (("or", 100.0), ("and", 0.0), ("or", 1.5)):
            query = Query(terms, "q", mode)
            got = _outcome(lambda: retrieve(corpus, query, 50, mu).entries)
            assert got == _outcome(scan_retrieve, corpus, query, 50, mu)
            if not isinstance(got, list):
                continue
            retrieved = retrieve(corpus, query, 50, mu)
            method, n = METHODS[k % len(METHODS)], len(corpus.vocab)   # every word
            got = _outcome(lambda: extract_concept_words(corpus, query, retrieved, method, n,
                                                         table=table).words)
            assert got == _outcome(loop_concept_words, corpus, query, retrieved, method,
                                   n, table, 0.5)
