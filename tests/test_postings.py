"""The corpus's inverted file against per-document scans.

`retrieve` and `npmi_coherence` read their candidates and counts off
`Corpus.postings`. The scans below are the reference they must equal exactly:
the same entries, floats and errors.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm.corpus import ingest
from qdtm.metrics import NPMI_TOP_N, npmi_coherence
from qdtm.retrieval import EmptyResultError, Query, query_likelihood, retrieve

WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]


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
    scored = [(idx, query_likelihood(corpus.documents[idx], query, corpus, mu))
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
            pmi = math.log(p_ab / (p_a * p_b))
            scores.append(pmi / -math.log(p_ab))
    if not scores:
        return 0.0
    return sum(scores) / len(scores)


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


def test_postings_list_the_documents_containing_each_word(random_corpus):
    docs = random_corpus.documents
    assert len(random_corpus.postings) == len(random_corpus.vocab)
    for w, posting in enumerate(random_corpus.postings):
        assert posting.typecode == "i"
        assert list(posting) == [j for j, d in enumerate(docs) if w in d.counts]


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
def test_npmi_equals_the_document_scan(docs, data):
    corpus = _corpus(docs)
    words = data.draw(st.lists(st.sampled_from(corpus.vocab.tokens), max_size=12))
    assert _outcome(npmi_coherence, words, corpus) == _outcome(scan_npmi, words, corpus)
