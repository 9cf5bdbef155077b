import json

import numpy as np
import pytest

from qdtm import extract_concept_words, fit_topics, npmi_coherence, parse_query, retrieve
from qdtm.corpus import (EmptyCorpusError, IngestionError, PreprocessOptions,
                         UnknownTokenError, ingest, ingest_jsonl)


def test_stopword_and_mindf_filtering():
    docs = [("a", "the cat sat"), ("b", "the dog sat")]
    c = ingest(docs, PreprocessOptions(stopwords=frozenset({"the"})))
    assert set(c.vocab.tokens) == {"cat", "sat", "dog"}
    assert [[c.vocab.token_of(w) for w in d.tokens] for d in c.documents] == [
        ["cat", "sat"], ["dog", "sat"]]


def test_min_df_two_keeps_only_shared_words():
    docs = [("a", "the cat sat"), ("b", "the dog sat")]
    c = ingest(docs, PreprocessOptions(stopwords=frozenset({"the"}), min_df=2))
    assert c.vocab.tokens == ["sat"]
    assert [d.tokens for d in c.documents] == [[0], [0]]


@pytest.mark.parametrize("kw, message", [
    (dict(min_df=0), "^min_df must be >= 1, got 0$"),
    # a string raised a bare TypeError; True, "no" and "the" were accepted, and the
    # stopword string became the set {'t', 'h', 'e'}
    (dict(min_df="2"), "^min_df must be an integer, got '2'$"),
    (dict(min_df=True), "^min_df must be an integer, got True$"),
    (dict(lowercase="no"), "^lowercase must be a bool, got 'no'$"),
    (dict(stopwords="the"), "^stopwords must be a collection of strings, got 'the'$"),
    (dict(stopwords=frozenset({1})),
     r"^stopwords must be a collection of strings, got frozenset\(\{1\}\)$"),
], ids=repr)
def test_preprocess_options_are_checked(kw, message):
    with pytest.raises(ValueError, match=message):
        PreprocessOptions(**kw)


def test_tokenizer_drops_short_and_numeric():
    c = ingest([("a", "Cat 42 x CAT dog99 7seven")])
    assert set(c.vocab.tokens) == {"cat", "dog99", "7seven"}
    assert c.index.corpus_freq[c.vocab.id_of("cat")] == 2


def test_stopwords_are_lowercased_with_the_text():
    docs = [("a", "The aa bb"), ("b", "the aa cc")]
    stopwords = frozenset({"The", "AA"})
    assert ingest(docs, PreprocessOptions(stopwords=stopwords)).vocab.tokens == ["bb", "cc"]
    cased = ingest(docs, PreprocessOptions(lowercase=False, stopwords=stopwords))
    assert cased.vocab.tokens == ["aa", "bb", "the", "cc"]


def test_empty_documents_dropped_and_counted():
    c = ingest([("a", "cat sat"), ("b", "the"), ("c", "42 x")],
               PreprocessOptions(stopwords=frozenset({"the"})))
    assert len(c) == 1
    assert c.dropped_documents == 2


def test_all_dropped_is_fatal():
    with pytest.raises(EmptyCorpusError):
        ingest([("a", "the"), ("b", "a 1")], PreprocessOptions(stopwords=frozenset({"the"})))


def test_unreadable_record_names_offender():
    with pytest.raises(IngestionError, match="bad"):
        ingest([("bad", None)])


def test_duplicate_document_id_names_it():
    # a repeated id would let one document's score overwrite the other's
    with pytest.raises(IngestionError, match="duplicate document id: 'b'"):
        ingest([("a", "cat sat"), ("b", "dog sat"), ("b", "fish swim")])


@pytest.mark.parametrize("line", ["5", '"id text"', "[1, 2]", "null"])
def test_jsonl_line_that_is_not_an_object_names_the_line(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "cat sat"}) + "\n" + line + "\n")
    with pytest.raises(IngestionError, match=r"^line 2: expected a JSON object$"):
        ingest_jsonl(path)


def test_term_frequency(tiny_corpus):
    d0 = tiny_corpus.documents[0]
    cat = tiny_corpus.vocab.id_of("cat")
    dog = tiny_corpus.vocab.id_of("dog")
    assert d0.counts[cat] == 2
    assert d0.counts[dog] == 0
    with pytest.raises(UnknownTokenError):
        tiny_corpus.vocab.token_of(-1)


def test_term_frequency_planted_count():
    rng = np.random.default_rng(3)
    planted = 37
    filler = [f"f{i:02d}" for i in range(40)]
    toks = ["target"] * planted + [filler[rng.integers(40)] for _ in range(1000 - planted)]
    rng.shuffle(toks)
    c = ingest([("d", " ".join(toks))])
    assert c.documents[0].counts[c.vocab.id_of("target")] == planted


def test_background_prob(tiny_corpus):
    v, index = tiny_corpus.vocab, tiny_corpus.index
    fish = v.id_of("fish")
    assert index.total_tokens == 15
    assert index.background_prob(fish) == 4 / 15
    assert abs(sum(index.background_prob(w) for w in range(len(v))) - 1.0) < 1e-12
    for bad in (-1, len(v)):
        with pytest.raises(UnknownTokenError):
            index.background_prob(bad)


def test_background_prob_matches_recount(random_corpus):
    # brute-force recount oracle
    counts = {}
    total = 0
    for d in random_corpus.documents:
        for w in d.tokens:
            counts[w] = counts.get(w, 0) + 1
            total += 1
    for w, n in counts.items():
        assert random_corpus.index.background_prob(w) == n / total


def test_document_lengths_match_counts(random_corpus):
    for d in random_corpus.documents:
        assert sum(d.counts.values()) == len(d)


def test_reingestion_determinism(tmp_path, random_corpus):
    records = [{"id": d.doc_id, "text": " ".join(random_corpus.vocab.token_of(w)
                                                 for w in d.tokens)}
               for d in random_corpus.documents]
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")
    opts = PreprocessOptions(min_df=2)
    a, b = ingest_jsonl(path, opts), ingest_jsonl(path, opts)
    assert a.vocab.tokens == b.vocab.tokens
    assert np.array_equal(a.index.corpus_freq, b.index.corpus_freq)
    assert a.documents == b.documents   # same ids, token ids and labels, in order
    assert a.dropped_documents == b.dropped_documents


@pytest.mark.parametrize("label", [["x"], {"a": 1}, 3, True])
def test_label_that_is_not_a_string_names_the_document(label):
    records = [{"id": "d0", "text": "aa bb", "label": "x"},
               {"id": "d1", "text": "aa cc", "label": label}]
    with pytest.raises(IngestionError, match=r"document 'd1': label must be a string or null"):
        ingest(records)
    assert ingest(records[:1] + [{"id": "d1", "text": "aa cc", "label": None}]).documents[1].label \
        is None


def test_documents_are_built_once_and_only_on_demand():
    """Ingest, the query path and a fit read the flat token stream and the id
    and label lists; the per-document lists are built on first use and kept."""
    rng = np.random.default_rng(3)
    corpus = ingest([(f"d{j}", " ".join(f"w{w:02d}" for w in rng.integers(0, 40, 12)),
                      "a" if j % 4 else "b") for j in range(30)]
                    + [("empty", "x 7 !"), ("d30", "w00 w01 w00", None)])
    query = parse_query("w00 w01", corpus)
    retrieved = retrieve(corpus, query)
    words = extract_concept_words(corpus, query, retrieved, "fre").word_ids()
    npmi_coherence([corpus.vocab.token_of(w) for w in words], corpus)
    fit_topics(corpus, ["w00 w01"], "fre", iterations_phase1=2, iterations_phase2=1,
               target_labels=["b"])
    assert "documents" not in corpus.__dict__
    assert corpus.documents is corpus.documents
    assert len(corpus) == len(corpus.documents) == 31 and corpus.dropped_documents == 1
    assert [d.doc_id for d in corpus.documents] == corpus.doc_ids
    assert [d.label for d in corpus.documents] == corpus.labels
    assert corpus.token_ids.dtype == np.int32 and corpus.doc_ptr.dtype == np.int64
    assert corpus.token_ids.tolist() == [w for d in corpus.documents for w in d.tokens]
    assert np.diff(corpus.doc_ptr).tolist() == [len(d) for d in corpus.documents]
