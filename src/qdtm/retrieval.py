"""Query-likelihood document retrieval with AND/OR constraint rules."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus

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
        if not self.terms:
            raise RetrievalError(f"no query term found in vocabulary: {self.raw!r}")
        if self.mode not in ("and", "or"):
            raise RetrievalError(f"unknown query mode: {self.mode!r}")


@dataclass
class RetrievedSet:
    entries: list[tuple[int, float]]  # (document index, log score), descending


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
    return Query(terms, phrase, mode, oov)


def retrieve(corpus: Corpus, query: Query, cutoff: int = DEFAULT_CUTOFF,
             mu: float = DEFAULT_MU) -> RetrievedSet:
    """Top-`cutoff` documents by query likelihood after the mode filter.

    A document's score is its log query likelihood under a Dirichlet-smoothed
    language model, p(q_i|d) = (tf(q_i,d) + mu * P_C(q_i)) / (|d| + mu). AND
    keeps documents containing every in-vocabulary query term, OR keeps
    documents containing at least one; both read the candidates and their
    term frequencies off the inverted half of `corpus.index`. Ties break by
    ascending document index.
    """
    if cutoff < 1:
        raise RetrievalError("cutoff must be >= 1")
    if not 0 <= mu < math.inf:
        raise RetrievalError(f"mu must be finite and >= 0, got {mu}")
    index = corpus.index
    postings = {wid: index.posting(wid) for wid in query.terms}
    docs = [d for d, _ in postings.values()]
    if query.mode == "and":
        candidates = functools.reduce(
            lambda a, b: np.intersect1d(a, b, assume_unique=True), docs)
    else:
        # sorted and deduplicated by hand: np.unique imports numpy.ma (0.7 MB)
        merged = np.sort(np.concatenate(docs))
        candidates = merged[np.append(True, merged[1:] != merged[:-1])]
    if not candidates.size:
        raise EmptyResultError(f"no document passes the {query.mode.upper()} filter for {query.raw!r}")
    from . import _native   # built and loaded on first use, never at import
    tf = {}
    for wid, (d, n) in postings.items():
        pos = np.minimum(np.searchsorted(d, candidates), len(d) - 1)
        tf[wid] = np.where(d[pos] == candidates, n[pos], 0).astype(float)
    # log p(q_i|d) term by term, each array through libm `log`, the function
    # math.log calls (np.log can differ in the last bit); mu=0 is the MLE and
    # gives -inf to a document missing a query term
    denominator = index.lengths[candidates] + mu
    scores = np.zeros(len(candidates))
    for wid in query.terms:
        scores += _native.log((tf[wid] + mu * index.background_prob(wid)) / denominator)
    top = _native.top_n(scores, cutoff)
    return RetrievedSet(list(zip(candidates[top].tolist(), scores[top].tolist())))


def precision_at_k(ranked_docs, relevant, k: int) -> float:
    """|top-K intersect relevant| / K."""
    ranked_docs = list(ranked_docs)
    if k < 1 or k > len(ranked_docs):
        raise RetrievalError(f"K={k} outside [1, {len(ranked_docs)}]")
    hits = sum(1 for d in ranked_docs[:k] if d in relevant)
    return hits / k
