"""Evaluation battery: subtopic diversity/cohesion/overall and NPMI diagnostic."""

from __future__ import annotations

import logging
import math

import numpy as np

from .corpus import Corpus
from .embeddings import EmbeddingTable, cosine

logger = logging.getLogger(__name__)

DIVERSITY_TOP_N = 25
EMBEDDING_TOP_N = 10
NPMI_TOP_N = 10


class MetricError(ValueError):
    pass


def topic_diversity(top_word_lists: list[list[str]]) -> float:
    """Fraction of unique words across the subtopics' top-word lists."""
    if not top_word_lists:
        raise MetricError("diversity undefined for empty subtopic list")
    total = sum(len(lst) for lst in top_word_lists)
    if total == 0:
        raise MetricError("diversity undefined for empty word lists")
    unique = len({w for lst in top_word_lists for w in lst})
    return unique / total


def topic_embedding(weighted_words: list[tuple[str, float]], table: EmbeddingTable,
                    vocab_index: dict[str, int]) -> np.ndarray | None:
    """Weighted sum of the top words' vectors, weights renormalized over the
    words that actually have an embedding. None when no word is covered."""
    pairs = [(wid, weight) for word, weight in weighted_words[:EMBEDDING_TOP_N]
             if (wid := vocab_index.get(word)) is not None and table.embedded[wid]]
    total = sum(w for _, w in pairs)
    if total <= 0:   # also when no word is covered
        return None
    return sum(table.matrix[wid] * (w / total) for wid, w in pairs)


def topic_cohesion(parent_vec: np.ndarray, sub_vec: np.ndarray) -> float:
    """Cosine similarity of parent and subtopic embeddings."""
    return cosine(parent_vec, sub_vec)


def overall_quality(diversity: float, cohesion: float) -> float:
    return diversity * cohesion


def npmi_coherence(top_words: list[str], corpus: Corpus) -> float:
    """Mean pairwise NPMI of the top words over document co-occurrence.

    Add-one smoothed document frequencies. Each document gets one mask with
    bit i set when word i's posting in `corpus.index` holds it; the exact
    integer counts of the occupied masks give every pair's joint document
    frequency. A pair that occurs in every document has p(a,b) = 1 and gets
    NPMI 1 (Bouma's convention). This is an internal diagnostic, not
    comparable to external C_V coherence numbers.
    """
    ids = [corpus.vocab.id_of(w) for w in top_words[:NPMI_TOP_N]]
    if len(ids) < 2:
        return 0.0
    n_docs = len(corpus)
    postings = [corpus.index.posting(wid)[0] for wid in ids]
    # a posting lists a document once and each word has its own bit, so the
    # sum of a document's bits is their OR, exact in float64
    masks = np.bincount(np.concatenate(postings),
                        np.repeat(1 << np.arange(len(ids)), list(map(len, postings))), n_docs)
    docs_with = np.bincount(masks.astype(np.intp))   # documents per mask
    patterns = np.flatnonzero(docs_with)
    bits = (patterns[:, None] >> np.arange(len(ids))) & 1
    joint = ((bits * docs_with[patterns, None]).T @ bits).tolist()

    scores = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            p_a = (joint[a][a] + 1) / (n_docs + 1)
            p_b = (joint[b][b] + 1) / (n_docs + 1)
            p_ab = (joint[a][b] + 1) / (n_docs + 1)
            pmi = math.log(p_ab / (p_a * p_b))
            scores.append(pmi / -math.log(p_ab) if p_ab < 1.0 else 1.0)
    return sum(scores) / len(scores)


def subtopic_report(parent_top_words: list[tuple[str, float]],
                    subtopics: list[list[tuple[str, float]]],
                    table: EmbeddingTable | None,
                    vocab_index: dict[str, int]) -> dict:
    """Aggregate diversity, mean cohesion and their product for one parent.

    Diversity uses each subtopic's top `DIVERSITY_TOP_N` words (shorter lists
    allowed); cohesion averages over subtopics with a defined embedding.
    """
    lists = [[w for w, _ in st[:DIVERSITY_TOP_N]] for st in subtopics]
    diversity = topic_diversity(lists)

    cohesion = None
    if table is not None:
        parent_vec = topic_embedding(parent_top_words, table, vocab_index)
        sims = []
        if parent_vec is not None:
            for st in subtopics:
                sub_vec = topic_embedding(st, table, vocab_index)
                if sub_vec is None:
                    logger.warning("subtopic without embedded words; cohesion skipped")
                    continue
                sims.append(topic_cohesion(parent_vec, sub_vec))
        if sims:
            cohesion = sum(sims) / len(sims)

    return {
        "diversity": diversity,
        "cohesion": cohesion,
        "overall": overall_quality(diversity, cohesion) if cohesion is not None else None,
    }
