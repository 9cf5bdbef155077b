import json

import numpy as np
import pytest

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


def test_tokenizer_drops_short_and_numeric():
    c = ingest([("a", "Cat 42 x CAT dog99 7seven")])
    assert set(c.vocab.tokens) == {"cat", "dog99", "7seven"}
    assert c.vocab.corpus_freq[c.vocab.id_of("cat")] == 2


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
    v = tiny_corpus.vocab
    fish = v.id_of("fish")
    assert v.background_prob(fish) == 4 / v.total_tokens
    assert abs(sum(v.background_prob(w) for w in range(len(v))) - 1.0) < 1e-12
    with pytest.raises(UnknownTokenError):
        v.background_prob(len(v))


def test_background_prob_matches_recount(random_corpus):
    # brute-force recount oracle
    counts = {}
    total = 0
    for d in random_corpus.documents:
        for w in d.tokens:
            counts[w] = counts.get(w, 0) + 1
            total += 1
    for w, n in counts.items():
        assert random_corpus.background_prob(w) == n / total


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
    assert a.vocab.corpus_freq == b.vocab.corpus_freq
    assert a.documents == b.documents   # same ids, token ids and labels, in order
    assert a.dropped_documents == b.dropped_documents
