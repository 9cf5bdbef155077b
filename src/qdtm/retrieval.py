"""Query-likelihood document retrieval with AND/OR constraint rules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import Corpus, Document

DEFAULT_MU = 100.0
DEFAULT_CUTOFF = 200

NEG_INF = float("-inf")


class RetrievalError(ValueError):
    pass


class EmptyResultError(RetrievalError):
    """No document passes the query's mode filter."""


@dataclass
class Query:
    terms: list[int]
    raw: str
    mode: str = "or"
    oov: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("and", "or"):
            raise RetrievalError(f"unknown query mode: {self.mode!r}")


@dataclass
class RetrievedSet:
    entries: list[tuple[int, float]]  # (document index, log score), descending
    cutoff: int


def parse_query(phrase: str, corpus: Corpus, mode: str = "or") -> Query:
    """Tokenize a query phrase with the corpus manifest and map to ids.

    Out-of-vocabulary terms are recorded but excluded from scoring; a query
    with no in-vocabulary term is an error.
    """
    terms, oov = [], []
    for tok in corpus.options.tokenize(phrase):
        if tok in corpus.vocab:
            terms.append(corpus.vocab.id_of(tok))
        else:
            oov.append(tok)
    if not terms:
        raise RetrievalError(f"no query term found in vocabulary: {phrase!r}")
    return Query(terms, phrase, mode, oov)


def _check_mu(mu: float) -> None:
    if not 0 <= mu < math.inf:
        raise RetrievalError(f"mu must be finite and >= 0, got {mu}")


def query_likelihood(doc: Document, query: Query, corpus: Corpus, mu: float = DEFAULT_MU) -> float:
    """Log query likelihood under a Dirichlet-smoothed document language model.

    p(q_i|d) = (tf(q_i,d) + mu * P_C(q_i)) / (|d| + mu); mu=0 is the MLE and
    yields -inf for documents missing a query term.
    """
    _check_mu(mu)
    n = len(doc)
    score = 0.0
    for wid in query.terms:
        tf = doc.counts.get(wid, 0)
        p = (tf + mu * corpus.background_prob(wid)) / (n + mu)
        if p <= 0.0:
            return NEG_INF
        score += math.log(p)
    return score


def retrieve(corpus: Corpus, query: Query, cutoff: int = DEFAULT_CUTOFF,
             mu: float = DEFAULT_MU) -> RetrievedSet:
    """Top-`cutoff` documents by query likelihood after the mode filter.

    AND keeps documents containing every in-vocabulary query term, OR keeps
    documents containing at least one. Ties break by ascending document index.
    """
    if cutoff < 1:
        raise RetrievalError("cutoff must be >= 1")
    _check_mu(mu)
    term_set = set(query.terms)
    candidates = []
    for idx, doc in enumerate(corpus.documents):
        if query.mode == "and":
            if not term_set.issubset(doc.counts):
                continue
        else:
            if term_set.isdisjoint(doc.counts):
                continue
        candidates.append(idx)
    if not candidates:
        raise EmptyResultError(f"no document passes the {query.mode.upper()} filter for {query.raw!r}")
    scored = [(idx, query_likelihood(corpus.documents[idx], query, corpus, mu))
              for idx in candidates]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return RetrievedSet(scored[:cutoff], cutoff)


def precision_at_k(ranked_docs, relevant, k: int) -> float:
    """|top-K intersect relevant| / K."""
    ranked_docs = list(ranked_docs)
    if k < 1 or k > len(ranked_docs):
        raise RetrievalError(f"K={k} outside [1, {len(ranked_docs)}]")
    hits = sum(1 for d in ranked_docs[:k] if d in relevant)
    return hits / k
