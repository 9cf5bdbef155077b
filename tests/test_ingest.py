"""`ingest`, `ingest_jsonl` and `PreprocessOptions.tokenize` against the
two-pass reference.

`ingest` cuts, numbers and counts every token in one compiled pass over the
documents' UTF-8 bytes (`sweep.c`'s `qd_ingest`), then drops stopwords and
rare words by renumbering its flat arrays. The two-pass build below, with a
Python step per token, is the reference it must equal exactly: the same
vocabulary, ids, documents, index arrays and errors.
"""

import os
import random
import re
import tempfile
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm import _native, synth
from qdtm.corpus import (MIN_TOKEN_LEN, CorpusIndex, Document, EmptyCorpusError,
                         IngestionError, PreprocessOptions, ingest, ingest_jsonl)

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
# ones whose lowercase is ASCII (Kelvin sign) or longer than one character,
# and what a scan of the UTF-8 bytes could get wrong: a lone surrogate, NUL,
# newline and tab, 3- and 4-byte characters, and runs of 40 characters.
CHARS = "aAbBz019 .-éßİK\ud800\x00\n\t€😀"
TEXT = (st.text(alphabet=CHARS, max_size=30)
        | st.tuples(st.text(alphabet=CHARS, max_size=6),
                    st.sampled_from(["a" * 40, "Zz9" * 13 + "y", "7" * 40]),
                    st.text(alphabet=CHARS, max_size=6)).map("".join))
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


def assert_same_outcome(got, expected):
    corpus, error = got
    expected, expected_error = expected
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


def write_jsonl(records, path):
    """`synth.write_jsonl`, a pair or triple written as its `id`, `text` and `label`."""
    synth.write_jsonl([rec if isinstance(rec, dict) else dict(zip(("id", "text", "label"), rec))
                       for rec in records], path)


@settings(max_examples=400, deadline=None)
@given(corpora())
def test_ingest_equals_two_pass_reference(case):
    records, options = case
    assert_same_outcome(outcome(lambda: ingest(records, options)),
                        outcome(lambda: two_pass_ingest(records, options)))


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_ingest_jsonl_of_a_written_file_equals_two_pass_reference(case):
    records, options = case
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "corpus.jsonl")
        write_jsonl(records, path)
        got = outcome(lambda: ingest_jsonl(path, options))
    assert_same_outcome(got, outcome(lambda: two_pass_ingest(records, options)))


@pytest.mark.parametrize("options", [PreprocessOptions(),
                                     PreprocessOptions(lowercase=False, min_df=2),
                                     PreprocessOptions(stopwords=frozenset({"ab1c", "t77x"}))],
                         ids=["default", "cased-min-df", "stopwords"])
@pytest.mark.parametrize("first", [-3, 5], ids=["second-doc", "first-doc"])
def test_a_vocabulary_past_the_first_intern_table_grows_it(options, first, monkeypatch):
    """More distinct tokens than the kernel's first table holds, so it grows
    twice, each time inside a document, which the kernel then reads again:
    the first document holds `first` ids more than the first table (so the
    first growth comes in it or in the next document) and then some of them
    again, and the ids of the rest of the corpus pass twice as many."""
    lib, calls = _native.library(), []
    kernel = lib.qd_ingest
    monkeypatch.setattr(lib, "qd_ingest", lambda s: calls.append(kernel(s)) or calls[-1])
    n0 = _native.FIRST_SLOTS // 2 + first
    rng = random.Random(3)
    spell = [f"{'Tt'[i % 2]}{i}x" for i in range(n0 + 139 * 120)]
    records = [("d0", " ".join(spell[:n0] + spell[:40]))]
    for j in range(1, 140):
        words = spell[n0 + (j - 1) * 120:n0 + j * 120]
        words += rng.choices(spell[:n0 + j * 120], k=len(words))
        rng.shuffle(words)
        records.append((f"d{j}", " ".join(words) + " ab1c 2024 é"))
    corpus, error = outcome(lambda: ingest(records, options))
    assert calls == [1, 1, 0]
    assert len(corpus.vocab) > _native.FIRST_SLOTS or options.min_df > 1
    assert_same_outcome((corpus, error), outcome(lambda: two_pass_ingest(records, options)))


def test_a_default_synth_corpus_ingests_equal_to_the_two_pass_reference(tmp_path):
    records, _ = synth.generate(synth.SyntheticSpec())
    expected = outcome(lambda: two_pass_ingest(records, PreprocessOptions()))
    assert_same_outcome(outcome(lambda: ingest(records)), expected)
    write_jsonl(records, tmp_path / "corpus.jsonl")
    assert_same_outcome(outcome(lambda: ingest_jsonl(tmp_path / "corpus.jsonl")), expected)


GOOD, BAD_RECORD = '{"id": "a", "text": "ab cd"}', '{"id": 7, "text": "ab"}'


@pytest.mark.parametrize("lines, message", [
    # the file's read errors come first, wherever they are: a bad JSON line
    ([GOOD, BAD_RECORD, GOOD.replace('"a"', '"b"'), "", '{"id": "c", "text": '],
     r"^line 5: invalid JSON \(Expecting value: line 1 column 20 \(char 19\)\)$"),
    ([GOOD, BAD_RECORD, "[1, 2]"], "^line 3: expected a JSON object$"),
    ([GOOD, BAD_RECORD, '{"id": "b"}'], "^line 3: missing 'id' or 'text'$"),
    # then the first bad record
    ([GOOD, BAD_RECORD, GOOD], "^unreadable record: 7$"),
    ([GOOD, GOOD, BAD_RECORD], "^duplicate document id: 'a'$"),
    ([], "^no input documents$"),
], ids=["json-after-record", "not-an-object", "no-text", "record", "duplicate", "empty"])
def test_a_file_reports_a_read_error_before_its_first_bad_record(tmp_path, lines, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(IngestionError, match=message):
        ingest_jsonl(path)


def test_a_file_reports_a_byte_that_is_not_utf8_before_its_first_bad_record(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(f"{GOOD}\n{BAD_RECORD}\n".encode() + b'{"id": "b", "text": "\xff"}\n')
    with pytest.raises(IngestionError, match=f"^{path} is not UTF-8 text: "):
        ingest_jsonl(path)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=CHARS) | st.text(), st.booleans())
def test_tokenize_equals_filtered_runs(text, lowercase):
    tokens = PreprocessOptions(lowercase=lowercase).tokenize(text)
    assert tokens == filter_tokenize(text, lowercase)
