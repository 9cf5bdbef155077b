"""Corpus ingestion: tokenization, vocabulary construction and term statistics."""

from __future__ import annotations

import json
import logging
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

logger = logging.getLogger(__name__)

MIN_TOKEN_LEN = 2   # shorter tokens are dropped, as are all-digit ones

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TOKEN_RE_CASED = re.compile(r"[A-Za-z0-9]+")


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
    corpus exactly (same ids, same order).
    """

    lowercase: bool = True
    min_df: int = 1
    stopwords: frozenset = frozenset()

    def __post_init__(self):
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        object.__setattr__(self, "stopwords", frozenset(self.stopwords))

    def tokenize(self, text: str) -> list[str]:
        if self.lowercase:
            tokens = _TOKEN_RE.findall(text.lower())
        else:
            tokens = _TOKEN_RE_CASED.findall(text)
        return [t for t in tokens if len(t) >= MIN_TOKEN_LEN and not t.isdigit()]


class Vocabulary:
    """Token <-> id bijection with corpus frequency statistics."""

    def __init__(self):
        self.tokens: list[str] = []
        self.index: dict[str, int] = {}
        self.corpus_freq: list[int] = []
        self.total_tokens: int = 0

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def add(self, token: str) -> int:
        wid = self.index.get(token)
        if wid is None:
            wid = len(self.tokens)
            self.index[token] = wid
            self.tokens.append(token)
            self.corpus_freq.append(0)
        return wid

    def id_of(self, token: str) -> int:
        try:
            return self.index[token]
        except KeyError:
            raise UnknownTokenError(token) from None

    def token_of(self, wid: int) -> str:
        if not 0 <= wid < len(self.tokens):
            raise UnknownTokenError(wid)
        return self.tokens[wid]

    def background_prob(self, wid: int) -> float:
        """Probability of the word in the whole corpus (corpus freq / total)."""
        if not 0 <= wid < len(self.tokens):
            raise UnknownTokenError(wid)
        return self.corpus_freq[wid] / self.total_tokens


@dataclass
class Document:
    doc_id: str
    tokens: list[int]
    label: str | None = None
    counts: Counter = field(default_factory=Counter, repr=False, compare=False)

    def __post_init__(self):
        if not self.counts:
            self.counts = Counter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Corpus:
    documents: list[Document]
    vocab: Vocabulary
    options: PreprocessOptions
    dropped_documents: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def postings(self) -> list[array]:
        """Inverted file: `postings[w]` holds the ascending indices of the
        documents that contain word `w`. Built from `documents` on first use."""
        postings = [array("i") for _ in range(len(self.vocab))]
        for j, doc in enumerate(self.documents):
            for wid in doc.counts:
                postings[wid].append(j)
        return postings


def ingest(raw_documents, options: PreprocessOptions | None = None) -> Corpus:
    """Build a Corpus from (id, text[, label]) records.

    The vocabulary contains only tokens that survive the stopword and
    min-df filters; ids are assigned in first-occurrence order. Documents
    emptied by filtering are dropped and counted.
    """
    options = options or PreprocessOptions()
    raw_documents = list(raw_documents)
    if not raw_documents:
        raise IngestionError("no input documents")

    tokenized: list[tuple[str, list[str], str | None]] = []
    seen: set[str] = set()
    canon: dict[str, str] = {}   # one str object per distinct token until ids replace them
    df: Counter = Counter()
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
        if doc_id in seen:
            raise IngestionError(f"duplicate document id: {doc_id!r}")
        seen.add(doc_id)
        toks = [canon.setdefault(t, t) for t in options.tokenize(text)
                if t not in options.stopwords]
        tokenized.append((doc_id, toks, label))
        df.update(set(toks))

    kept = {t for t, n in df.items() if n >= options.min_df}

    vocab = Vocabulary()
    documents: list[Document] = []
    dropped = 0
    for doc_id, toks, label in tokenized:
        ids = [vocab.add(t) for t in toks if t in kept]
        if not ids:
            dropped += 1
            continue
        doc = Document(doc_id, ids, label)
        documents.append(doc)
        for wid, n in doc.counts.items():
            vocab.corpus_freq[wid] += n
        vocab.total_tokens += len(ids)

    if dropped:
        logger.warning("dropped %d documents emptied by preprocessing", dropped)
    if not documents:
        raise EmptyCorpusError("empty corpus: all documents dropped by preprocessing")
    return Corpus(documents, vocab, options, dropped)


def read_jsonl(path) -> list[dict]:
    """Read a JSON-lines corpus file with `id`, `text` and optional `label`."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise IngestionError(f"line {lineno}: invalid JSON ({e})") from None
            if "id" not in obj or "text" not in obj:
                raise IngestionError(f"line {lineno}: missing 'id' or 'text'")
            records.append(obj)
    return records


def ingest_jsonl(path, options: PreprocessOptions | None = None) -> Corpus:
    return ingest(read_jsonl(path), options)
