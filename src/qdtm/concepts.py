"""Concept-word extraction: frequency, KL-divergence and relevance-model scorers."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, dots
from .retrieval import NEG_INF, Query, RetrievedSet

logger = logging.getLogger(__name__)

METHODS = ("fre", "kld", "rel")

DEFAULT_N = 10
DEFAULT_LAMBDA = 0.5
DEFAULT_SIM_TOP_K = 100


class ExtractionError(ValueError):
    pass


@dataclass
class ConceptWordSet:
    query: Query
    words: list[tuple[int, float]]  # (token id, score), non-increasing score

    def word_ids(self) -> list[int]:
        return [w for w, _ in self.words]


def _doc_indices(retrieved: RetrievedSet) -> np.ndarray:
    return np.array([idx for idx, _ in retrieved.entries], dtype=np.intp)


def relevance_model_distribution(corpus: Corpus, retrieved: RetrievedSet) -> np.ndarray:
    """p(w|RM) over the vocabulary: sum_d p(w|d) * p_hat(d|q).

    Document weights are the query likelihoods renormalized to sum to 1 over
    the retrieved set (log-sum-exp in log space). Documents of weight 0 are
    skipped; each word's terms are added in retrieval order.
    """
    log_scores = np.array([s for _, s in retrieved.entries])
    finite = log_scores > NEG_INF
    if not finite.any():
        raise ExtractionError("all retrieval scores are -inf; degenerate weights")
    m = log_scores[finite].max()
    weights = np.where(finite, np.exp(np.clip(log_scores - m, -700, 0)), 0.0)
    weights /= weights.sum()

    kept = np.flatnonzero(weights != 0.0)
    docs = _doc_indices(retrieved)[kept]
    inv = weights[kept] / corpus.index.lengths[docs]
    words, counts, sizes = corpus.index.rows(docs)
    return np.bincount(words, counts * np.repeat(inv, sizes), len(corpus.vocab))


def normalized_query_similarity(query: Query, table: EmbeddingTable,
                                top_k: int = DEFAULT_SIM_TOP_K) -> dict[int, float]:
    """sim(w, q) renormalized over the top-k terms most similar to the query.

    The query vector is the mean of its tokens' embeddings; words outside the
    top-k get 0. Returns an empty map when no query token has an embedding.
    """
    terms = np.array(query.terms)
    vecs = table.matrix[terms[table.embedded[terms]]]
    if not len(vecs):
        return {}
    qv = np.mean(vecs, axis=0)
    nq = math.sqrt(dots(qv, qv))
    if nq == 0:
        return {}
    sims = dots(table.norms, qv / nq)
    from . import _native   # built and loaded on first use, never at import
    order = _native.top_n(sims, top_k)
    total = float(sims[order].sum())
    if total <= 0:
        return {}
    return {int(w): float(sims[w]) / total for w in order}


def extract_concept_words(corpus: Corpus, query: Query, retrieved: RetrievedSet,
                          method: str, n: int = DEFAULT_N, *,
                          table: EmbeddingTable | None = None,
                          lam: float = DEFAULT_LAMBDA,
                          top_k: int = DEFAULT_SIM_TOP_K) -> ConceptWordSet:
    """Top-n vocabulary words by the chosen scorer; ties break by token id.

    Only positive-scoring words are eligible; when fewer than n exist, all of
    them are returned with a warning.
    """
    from . import _native   # built and loaded on first use, never at import
    method = method.lower()
    if method not in METHODS:
        raise ExtractionError(f"unknown extraction method: {method!r}")
    if n < 1:
        raise ExtractionError("n must be >= 1")

    if method == "rel":
        if table is None:
            raise ExtractionError("REL extraction requires embeddings")
        if not 0 <= lam <= 1:
            raise ExtractionError(f"lambda must be in [0,1], got {lam}")
        if top_k < 1:
            raise ExtractionError(f"top_k must be >= 1, got {top_k}")
        rm = relevance_model_distribution(corpus, retrieved)
        sim = normalized_query_similarity(query, table, top_k)
        if not sim and lam < 1:
            logger.warning("query %r has no embedding; falling back to lambda=1", query.raw)
            lam = 1.0
        scores = lam * rm
        for wid, s in sim.items():
            scores[wid] += (1 - lam) * s
    else:
        docs = _doc_indices(retrieved)
        words, counts, _ = corpus.index.rows(docs)
        scores = np.bincount(words, counts, len(corpus.vocab))   # exact integer counts
        if method == "kld":
            # P_R(w) * ln(P_R(w)/P_C(w)) over the words the retrieved set contains
            present = np.flatnonzero(scores)
            pr = scores[present] / corpus.index.lengths[docs].sum()
            ratio = pr / (corpus.index.corpus_freq[present] / corpus.index.total_tokens)
            scores[present] = pr * _native.log(ratio)

    positive = np.flatnonzero(scores > 0)
    if len(positive) < n:
        logger.warning("only %d positive-scoring words for query %r (requested %d)",
                       len(positive), query.raw, n)
    chosen = positive[_native.top_n(scores[positive], n)]
    return ConceptWordSet(query, list(zip(chosen.tolist(), scores[chosen].tolist())))
