"""Concept-word extraction: frequency, KL-divergence and relevance-model scorers."""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable
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
    method: str
    words: list[tuple[int, float]]  # (token id, score), non-increasing score

    def word_ids(self) -> list[int]:
        return [w for w, _ in self.words]


def retrieved_counts(corpus: Corpus, retrieved: RetrievedSet) -> tuple[Counter, int]:
    """Term counts and total token count over the retrieved sub-corpus."""
    counts: Counter = Counter()
    total = 0
    for idx, _ in retrieved.entries:
        doc = corpus.documents[idx]
        counts.update(doc.counts)
        total += len(doc)
    return counts, total


def relevance_model_distribution(corpus: Corpus, retrieved: RetrievedSet) -> np.ndarray:
    """p(w|RM) over the vocabulary: sum_d p(w|d) * p_hat(d|q).

    Document weights are the query likelihoods renormalized to sum to 1 over
    the retrieved set (log-sum-exp in log space).
    """
    log_scores = np.array([s for _, s in retrieved.entries])
    finite = log_scores > NEG_INF
    if not finite.any():
        raise ExtractionError("all retrieval scores are -inf; degenerate weights")
    m = log_scores[finite].max()
    weights = np.where(finite, np.exp(np.clip(log_scores - m, -700, 0)), 0.0)
    weights /= weights.sum()

    dist = np.zeros(len(corpus.vocab))
    for (idx, _), wt in zip(retrieved.entries, weights):
        if wt == 0.0:
            continue
        doc = corpus.documents[idx]
        inv = wt / len(doc)
        for wid, n in doc.counts.items():
            dist[wid] += n * inv
    return dist


def normalized_query_similarity(query: Query, table: EmbeddingTable,
                                top_k: int = DEFAULT_SIM_TOP_K) -> dict[int, float]:
    """sim(w, q) renormalized over the top-k terms most similar to the query.

    The query vector is the mean of its tokens' embeddings; words outside the
    top-k get 0. Returns an empty map when no query token has an embedding.
    """
    vecs = [table.get(t) for t in query.terms]
    vecs = [v for v in vecs if v is not None]
    if not vecs:
        return {}
    qv = np.mean(vecs, axis=0)
    nq = np.linalg.norm(qv)
    if nq == 0:
        return {}
    sims = table.norm_matrix() @ (qv / nq)
    order = np.argsort(-sims, kind="stable")[:top_k]
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
    method = method.lower()
    if method not in METHODS:
        raise ExtractionError(f"unknown extraction method: {method!r}")
    if n < 1:
        raise ExtractionError("n must be >= 1")

    vocab_size = len(corpus.vocab)
    scores = np.zeros(vocab_size)
    if method == "fre":
        counts, _ = retrieved_counts(corpus, retrieved)
        for wid, c in counts.items():
            scores[wid] = float(c)
    elif method == "kld":
        # P_R(w) * ln(P_R(w)/P_C(w)) over the words the retrieved set contains
        counts, total = retrieved_counts(corpus, retrieved)
        for wid, c in counts.items():
            pr = c / total
            scores[wid] = pr * math.log(pr / corpus.background_prob(wid))
    else:
        if table is None:
            raise ExtractionError("REL extraction requires embeddings")
        if not 0 <= lam <= 1:
            raise ExtractionError(f"lambda must be in [0,1], got {lam}")
        rm = relevance_model_distribution(corpus, retrieved)
        sim = normalized_query_similarity(query, table, top_k)
        if not sim and lam < 1:
            logger.warning("query %r has no embedding; falling back to lambda=1", query.raw)
            lam = 1.0
        scores = lam * rm
        for wid, s in sim.items():
            scores[wid] += (1 - lam) * s

    positive = np.nonzero(scores > 0)[0]
    ranked = sorted(positive, key=lambda w: (-scores[w], w))
    if len(ranked) < n:
        logger.warning("only %d positive-scoring words for query %r (requested %d)",
                       len(ranked), query.raw, n)
    chosen = ranked[:n]
    return ConceptWordSet(query, method, [(int(w), float(scores[w])) for w in chosen])
