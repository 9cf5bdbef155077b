"""Corpus ingestion: tokenization, vocabulary construction and term statistics."""

from __future__ import annotations

import json
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, filterfalse

import numpy as np

from .sampler import are_strings, check_fields

logger = logging.getLogger(__name__)

MIN_TOKEN_LEN = 2   # shorter tokens are dropped, as are all-digit ones

_TOKEN_RE = re.compile(rf"[a-z0-9]{{{MIN_TOKEN_LEN},}}")
_TOKEN_RE_CASED = re.compile(rf"[A-Za-z0-9]{{{MIN_TOKEN_LEN},}}")


class IngestionError(ValueError):
    """Raised when raw input cannot be turned into a corpus."""


class EmptyCorpusError(IngestionError):
    """Raised when every document is dropped during ingestion."""


class UnknownTokenError(KeyError):
    """Raised on lookups with an id outside the vocabulary."""


@dataclass(frozen=True)
class PreprocessOptions:
    """Manifest that fully determines the vocabulary built from raw text.

    Re-ingesting the same raw input with an equal manifest reproduces the
    corpus exactly (same ids, same order). Stopwords are matched against the
    tokens, so under `lowercase` they are lowercased too.
    """

    lowercase: bool = True
    min_df: int = 1
    stopwords: frozenset = frozenset()

    def __post_init__(self):
        check_fields(self, ValueError, (("min_df", ">= 1", lambda v: v >= 1),
                                        ("stopwords", "a collection of strings", are_strings)))
        stopwords = map(str.lower, self.stopwords) if self.lowercase else self.stopwords
        object.__setattr__(self, "stopwords", frozenset(stopwords))

    def tokenize(self, text: str) -> list[str]:
        """Maximal alphanumeric runs of at least MIN_TOKEN_LEN characters
        that are not all digits."""
        if self.lowercase:
            tokens = _TOKEN_RE.findall(text.lower())
        else:
            tokens = _TOKEN_RE_CASED.findall(text)
        return list(filterfalse(str.isdigit, tokens))


class Vocabulary:
    """Token <-> id bijection."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.index: dict[str, int] = dict(zip(tokens, range(len(tokens))))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def id_of(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise UnknownTokenError(token) from None

    def token_of(self, wid: int) -> str:
        if not 0 <= wid < len(self.tokens):
            raise UnknownTokenError(wid)
        return self.tokens[wid]


@dataclass
class Document:
    doc_id: str
    tokens: list[int]
    label: str | None = None

    @cached_property
    def counts(self) -> Counter:
        """Term frequencies, counted on first use; qdtm reads `Corpus.index`."""
        return Counter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CorpusIndex:
    """The corpus as flat integer arrays in CSR layout.

    Forward half: document j's distinct word ids are
    `words[doc_ptr[j]:doc_ptr[j + 1]]`, in first-occurrence order, with their
    term frequencies at the same positions of `counts`; `lengths[j]` is its
    token count and `corpus_freq[w]` the count of word w in the corpus.
    Inverted half: word w's documents are `docs[word_ptr[w]:word_ptr[w + 1]]`,
    ascending, with w's term frequency in each at the same positions of `tfs`.

    Pointers, lengths and corpus frequencies are int32. Word ids, document
    indices and term frequencies take the narrowest unsigned type that holds
    them (uint16 ids and uint8 counts on a 500k-token corpus of 5000
    documents, 1.8 MB against 4.7 MB in int32), so widen them before any
    arithmetic that could leave their range.
    """

    doc_ptr: np.ndarray
    words: np.ndarray
    counts: np.ndarray
    lengths: np.ndarray
    corpus_freq: np.ndarray
    word_ptr: np.ndarray
    docs: np.ndarray
    tfs: np.ndarray

    @classmethod
    def build(cls, doc_ptr, words, counts, lengths, vocab_size: int) -> CorpusIndex:
        """Index the forward half, given as int32 buffers; the inverted half is
        its stable sort by word, of the narrowed ids (numpy's radix sort for
        8- and 16-bit keys, the same permutation)."""
        doc_ptr, words, counts, lengths = (np.frombuffer(a, np.int32)
                                           for a in (doc_ptr, words, counts, lengths))
        narrow_words = _narrow(words)
        order = np.argsort(narrow_words, kind="stable")
        doc_of = np.repeat(np.arange(len(lengths), dtype=np.int32), np.diff(doc_ptr))
        word_ptr = np.zeros(vocab_size + 1, np.int32)
        word_ptr[1:] = np.cumsum(np.bincount(words, minlength=vocab_size))
        corpus_freq = np.bincount(words, counts, vocab_size).astype(np.int32)
        return cls(doc_ptr, narrow_words, _narrow(counts), lengths, corpus_freq,
                   word_ptr, _narrow(doc_of[order]), _narrow(counts[order]))

    @cached_property
    def total_tokens(self) -> int:
        return int(self.lengths.sum())

    def background_prob(self, wid: int) -> float:
        """Probability of the word in the whole corpus (corpus freq / total)."""
        if not 0 <= wid < len(self.corpus_freq):
            raise UnknownTokenError(wid)
        return int(self.corpus_freq[wid]) / self.total_tokens

    def posting(self, wid: int) -> tuple[np.ndarray, np.ndarray]:
        """The ascending documents that contain word `wid`, and its term
        frequency in each."""
        if not 0 <= wid < len(self.corpus_freq):
            raise UnknownTokenError(wid)
        lo, hi = self.word_ptr[wid], self.word_ptr[wid + 1]
        return self.docs[lo:hi], self.tfs[lo:hi]

    def rows(self, docs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The forward entries of `docs` (an intp array), document by document
        in the order given: word ids, term frequencies, and each document's
        entry count."""
        starts = self.doc_ptr[docs]
        sizes = self.doc_ptr[docs + 1] - starts
        at = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        return self.words[at], self.counts[at], sizes


def _narrow(a: np.ndarray) -> np.ndarray:
    """`a` in the narrowest unsigned integer type that holds its values."""
    return a.astype(np.min_scalar_type(a.max(initial=0)))


@dataclass
class Corpus:
    """Document j is `token_ids[doc_ptr[j]:doc_ptr[j + 1]]`, with `doc_ids[j]`
    and `labels[j]`: ingest's int32 word ids, end to end, and int64 offsets (both read-only)."""
    token_ids: np.ndarray = field(repr=False, compare=False)
    doc_ptr: np.ndarray = field(repr=False, compare=False)
    doc_ids: list[str]
    labels: list[str | None]
    vocab: Vocabulary
    options: PreprocessOptions
    index: CorpusIndex = field(repr=False, compare=False)
    dropped_documents: int = 0

    def __len__(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def documents(self) -> list[Document]:
        """One `Document` per document, built on first use and kept."""
        ptr = self.doc_ptr.tolist()
        return [Document(doc_id, self.token_ids[a:b].tolist(), label)
                for doc_id, a, b, label in zip(self.doc_ids, ptr, ptr[1:], self.labels)]


def ingest(raw_documents, options: PreprocessOptions | None = None) -> Corpus:
    """Build a Corpus from (id, text[, label]) records.

    The vocabulary contains only tokens that survive the stopword and
    min-df filters; ids are assigned in first-occurrence order. Documents
    emptied by filtering are dropped and counted.
    """
    return _ingest(list(raw_documents), options)


def _fields(rec, seen: set[str]) -> tuple[str, str, str | None]:
    """The id, text and label of one record, checked; the id joins `seen`."""
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
    return doc_id, text, label


def _ingest(records, options: PreprocessOptions | None) -> Corpus:
    """`ingest` of an iterable of records, read once.

    Each record's text, lowercased by `str.lower` under `lowercase`, is
    appended to one buffer as UTF-8 (`surrogatepass`, so a lone surrogate
    passes too), and `_native.intern_runs` cuts, numbers and counts its
    tokens in one compiled pass. A token is ASCII, and every byte of a
    non-ASCII character is at least 0x80, so no token takes part of one. The
    first bad record is raised only once every record has been read, so an
    error the iterable raises later (a JSON line that does not parse) wins.
    """
    from . import _native   # built and loaded on first use, never at import
    options = options or PreprocessOptions()
    text, text_ptr, doc_ids, labels, seen = bytearray(), array("q", [0]), [], [], set()
    error = None
    for rec in records:
        if error is not None:
            continue
        try:
            doc_id, raw, label = _fields(rec, seen)
        except IngestionError as e:
            error = e
            continue
        doc_ids.append(doc_id)
        labels.append(label)
        text += (raw.lower() if options.lowercase else raw).encode("utf-8", "surrogatepass")
        text_ptr.append(len(text))
    if error is not None:
        raise error
    if not doc_ids:
        raise IngestionError("no input documents")

    first, length, tokens, tok_ptr, words, counts, word_ptr = _native.intern_runs(
        text, np.frombuffer(text_ptr, np.int64), not options.lowercase, MIN_TOKEN_LEN)
    spelled = [text[a:a + n].decode() for a, n in zip(first.tolist(), length.tolist())]
    keep = np.ones(len(spelled), bool)
    if options.stopwords:
        keep[[w for w, t in enumerate(spelled) if t in options.stopwords]] = False
    if options.min_df > 1:   # a document's forward entries are distinct ids
        keep &= np.bincount(words, minlength=len(spelled)) >= options.min_df
    if not keep.all():   # order-preserving, so the kept ids still follow first occurrence
        renumber = np.cumsum(keep, dtype=np.int32) - 1
        kept_tokens, kept_words = keep[tokens], keep[words]
        tok_ptr = np.concatenate(([0], np.cumsum(kept_tokens)))[tok_ptr]
        word_ptr = np.concatenate(([0], np.cumsum(kept_words)))[word_ptr]
        tokens, words = renumber[tokens[kept_tokens]], renumber[words[kept_words]]
        counts = counts[kept_words]
        spelled = list(compress(spelled, keep.tolist()))

    lengths = np.diff(tok_ptr)
    kept_docs = np.flatnonzero(lengths)
    dropped = len(doc_ids) - len(kept_docs)
    if dropped:
        logger.warning("dropped %d documents emptied by preprocessing", dropped)
    if not kept_docs.size:
        raise EmptyCorpusError("empty corpus: all documents dropped by preprocessing")
    doc_ptr = np.concatenate(([0], word_ptr[kept_docs + 1])).astype(np.int32)
    index = CorpusIndex.build(doc_ptr, words, counts,
                              lengths[kept_docs].astype(np.int32), len(spelled))
    nonempty = lengths.tolist()
    token_ptr = np.concatenate(([0], tok_ptr[kept_docs + 1]))
    tokens.flags.writeable = token_ptr.flags.writeable = False   # so a sampler shares them
    return Corpus(tokens, token_ptr,
                  list(compress(doc_ids, nonempty)), list(compress(labels, nonempty)),
                  Vocabulary(spelled), options, index, dropped)


def text_lines(path, error: type[ValueError], what: str = ""):
    """The lines of UTF-8 text file `path`, numbered from 1; a byte that is not
    UTF-8 raises `error` naming `what` and the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as e:
            raise error(f"{what}{path} is not UTF-8 text: {e}") from None


def _read_jsonl(path):
    """The records of a JSON-lines corpus file with `id`, `text` and optional
    `label`, one at a time."""
    for lineno, line in text_lines(path, IngestionError):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise IngestionError(f"line {lineno}: invalid JSON ({e})") from None
        if not isinstance(obj, dict):
            raise IngestionError(f"line {lineno}: expected a JSON object")
        if "id" not in obj or "text" not in obj:
            raise IngestionError(f"line {lineno}: missing 'id' or 'text'")
        yield obj


def ingest_jsonl(path, options: PreprocessOptions | None = None) -> Corpus:
    """`ingest` of a JSON-lines corpus file, streamed: a line's record is
    dropped once its text is in the buffer."""
    return _ingest(_read_jsonl(path), options)
