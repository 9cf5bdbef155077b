"""Pre-trained word vectors, semantic relatedness and promotion structures."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary

logger = logging.getLogger(__name__)


class EmbeddingError(ValueError):
    pass


class EmbeddingFormatError(EmbeddingError):
    pass


class EmbeddingTable:
    """Dense word vectors for the subset of the vocabulary covered by a file."""

    def __init__(self, dim: int, vectors: dict[int, np.ndarray], vocab_size: int):
        if dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        self.dim = dim
        self.vectors = vectors
        self.vocab_size = vocab_size
        self._norm_matrix: np.ndarray | None = None

    @property
    def coverage(self) -> float:
        return len(self.vectors) / self.vocab_size if self.vocab_size else 0.0

    def __contains__(self, wid: int) -> bool:
        return wid in self.vectors

    def get(self, wid: int) -> np.ndarray | None:
        return self.vectors.get(wid)

    def norm_matrix(self) -> np.ndarray:
        """Row-normalized (vocab_size, dim) matrix; zero rows for missing words.

        Dot products of rows are cosine similarities, with missing words
        contributing 0.
        """
        if self._norm_matrix is None:
            m = np.zeros((self.vocab_size, self.dim))
            for wid, vec in self.vectors.items():
                n = np.linalg.norm(vec)
                if n > 0:
                    m[wid] = vec / n
            self._norm_matrix = m
        return self._norm_matrix


def load_embeddings(path, vocab: Vocabulary) -> EmbeddingTable:
    """Load whitespace-separated text vectors for in-vocabulary tokens.

    An optional "count dim" header line is auto-detected. Inconsistent
    dimensions or malformed floats are format errors naming the line.
    """
    vectors: dict[int, np.ndarray] = {}
    dim = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            token, values = parts[0], parts[1:]
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise EmbeddingFormatError(f"line {lineno}: malformed float") from None
            if dim is None:
                if len(vec) == 0:
                    raise EmbeddingFormatError(f"line {lineno}: no vector values")
                dim = len(vec)
            elif len(vec) != dim:
                raise EmbeddingFormatError(
                    f"line {lineno}: dimension {len(vec)} != expected {dim}")
            if token in vocab:
                vectors[vocab.id_of(token)] = vec
    if not vectors:
        raise EmbeddingError(f"no in-vocabulary vectors found in {path}")
    table = EmbeddingTable(dim, vectors, len(vocab))
    logger.info("loaded %d vectors (dim %d), coverage %.1f%%",
                len(vectors), dim, 100 * table.coverage)
    return table


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero-norm inputs are undefined."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise EmbeddingError("cosine undefined for zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


@dataclass
class PromotionMatrix:
    """Promotion rows over the (vocab word, concept word) pairs with cosine >= tau.

    `rows` groups pairs by the sampled word: rows[w] is a list of
    (target word, is_self) entries; the promotion amount is 1 for self
    entries and u otherwise.
    """

    u: float
    rows: dict[int, list[tuple[int, bool]]] = field(default_factory=dict)


def build_promotion(table: EmbeddingTable, concept_words, tau: float,
                    u: float) -> PromotionMatrix:
    """Rows for all (w_i, w_q) pairs over vocabulary x concept words with cosine >= tau.

    Concept words without an embedding are excluded with a warning; self-pairs
    for embedded concept words are always present (cosine 1 >= tau).
    """
    if not 0 < u < 1:
        raise EmbeddingError(f"promotion weight u must be in (0,1), got {u}")
    pairs: set[tuple[int, int]] = set()
    norms = table.norm_matrix()
    embedded = np.zeros(table.vocab_size, dtype=bool)
    embedded[list(table.vectors)] = True
    for wq in concept_words:
        qv = table.get(wq)
        if qv is None:
            logger.warning("concept word id %d has no embedding; excluded from relatedness", wq)
            continue
        nq = np.linalg.norm(qv)
        sims = norms @ (qv / nq)
        pairs.update((int(wi), wq) for wi in np.nonzero((sims >= tau) & embedded)[0])
        pairs.add((wq, wq))
    promo = PromotionMatrix(u)
    for (wi, wq) in sorted(pairs):
        promo.rows.setdefault(wi, []).append((wq, wi == wq))
    return promo
