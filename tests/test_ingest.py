"""`ingest` and `PreprocessOptions.tokenize` against the two-pass reference.

`ingest` tokenizes, filters and maps tokens to ids in C iterators, in one
pass over the records. The two-pass build below, with a Python step per
token, is the reference it must equal exactly: the same vocabulary, ids,
documents, index arrays and errors.
"""

import re
from array import array
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm.corpus import (MIN_TOKEN_LEN, CorpusIndex, Document, EmptyCorpusError,
                         IngestionError, PreprocessOptions, ingest)

_WORD = re.compile(r"[a-z0-9]+")
_WORD_CASED = re.compile(r"[A-Za-z0-9]+")


def filter_tokenize(text, lowercase):
    """Alphanumeric runs, then the length and all-digit filters one by one."""
    tokens = _WORD.findall(text.lower()) if lowercase else _WORD_CASED.findall(text)
    return [t for t in tokens if len(t) >= MIN_TOKEN_LEN and not t.isdigit()]


def two_pass_ingest(raw_documents, options):
    """Tokenize every record and count document frequencies, then assign ids
    to the kept tokens one token at a time.

    Returns the vocabulary tokens, the token -> id dict, the documents, the
    dropped count and the index built from the same forward arrays.
    """
    raw_documents = list(raw_documents)
    if not raw_documents:
        raise IngestionError("no input documents")
    tokenized, seen, df = [], set(), Counter()
    for rec in raw_documents:
        if isinstance(rec, dict):
            doc_id, text, label = rec.get("id"), rec.get("text"), rec.get("label")
        elif len(rec) == 3:
            doc_id, text, label = rec
        else:
            doc_id, text = rec
            label = None
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise IngestionError(f"unreadable record: {doc_id!r}")
        if label is not None and not isinstance(label, str):
            raise IngestionError(f"document {doc_id!r}: label must be a string or null, "
                                 f"got {label!r}")
        if doc_id in seen:
            raise IngestionError(f"duplicate document id: {doc_id!r}")
        seen.add(doc_id)
        toks = [t for t in filter_tokenize(text, options.lowercase)
                if t not in options.stopwords]
        tokenized.append((doc_id, toks, label))
        df.update(set(toks))
    kept = {t for t, n in df.items() if n >= options.min_df}

    tokens, index, documents, dropped = [], {}, [], 0
    doc_ptr, words, counts, lengths = array("i", [0]), array("i"), array("i"), array("i")
    for doc_id, toks, label in tokenized:
        ids = []
        for t in toks:
            if t not in kept:
                continue
            if t not in index:
                index[t] = len(tokens)
                tokens.append(t)
            ids.append(index[t])
        if not ids:
            dropped += 1
            continue
        documents.append(Document(doc_id, ids, label))
        tf = Counter(ids)
        words.fromlist(list(tf))
        counts.fromlist(list(tf.values()))
        doc_ptr.append(len(words))
        lengths.append(len(ids))
    if not documents:
        raise EmptyCorpusError("empty corpus: all documents dropped by preprocessing")
    return (tokens, index, documents, dropped,
            CorpusIndex.build(doc_ptr, words, counts, lengths, len(tokens)))


def outcome(build):
    try:
        return build(), None
    except IngestionError as e:
        return None, (type(e), str(e))


# Upper and lower case, digits, separators and non-ASCII letters, among them
# ones whose lowercase is ASCII (Kelvin sign) or longer than one character.
CHARS = "aAbBz019 .-éßİK"
TEXT = st.text(alphabet=CHARS, max_size=30)
STOPWORDS = st.frozensets(st.sampled_from(["ab", "AB", "Ab", "ba", "b1", "zz", "k0"]),
                          max_size=3)


@st.composite
def corpora(draw):
    texts = draw(st.lists(TEXT, max_size=8))
    records = []
    for i, text in enumerate(texts):
        label = draw(st.none() | st.sampled_from(["x", "y"]))
        form = draw(st.sampled_from(["pair", "triple", "dict"]))
        records.append((f"d{i}", text) if form == "pair" else
                       (f"d{i}", text, label) if form == "triple" else
                       {"id": f"d{i}", "text": text, "label": label})
    if records and draw(st.integers(0, 9)) == 0:   # one bad record
        at = draw(st.integers(0, len(records) - 1))
        records.insert(at, draw(st.sampled_from([("d0", "ab ab"), ("d9", None),
                                                 {"id": 3, "text": "ab"},
                                                 ("d8", "ab", 3),
                                                 {"id": "d7", "text": "ab", "label": ["x"]}])))
    options = PreprocessOptions(lowercase=draw(st.booleans()),
                                min_df=draw(st.integers(1, 3)),
                                stopwords=draw(STOPWORDS))
    return records, options


@settings(max_examples=400, deadline=None)
@given(corpora())
def test_ingest_equals_two_pass_reference(case):
    records, options = case
    corpus, error = outcome(lambda: ingest(records, options))
    expected, expected_error = outcome(lambda: two_pass_ingest(records, options))
    assert error == expected_error
    if error:
        return
    tokens, index, documents, dropped, expected_index = expected
    assert corpus.vocab.tokens == tokens
    assert type(corpus.vocab.index) is dict and corpus.vocab.index == index
    assert corpus.documents == documents
    assert corpus.dropped_documents == dropped
    assert corpus.index.total_tokens == sum(len(d) for d in documents)
    for name in CorpusIndex.__dataclass_fields__:
        got, want = getattr(corpus.index, name), getattr(expected_index, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=CHARS) | st.text(), st.booleans())
def test_tokenize_equals_filtered_runs(text, lowercase):
    tokens = PreprocessOptions(lowercase=lowercase).tokenize(text)
    assert tokens == filter_tokenize(text, lowercase)
