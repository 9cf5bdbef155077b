"""Pre-trained word vectors, semantic relatedness and promotion structures."""

from __future__ import annotations

import logging
import math

import numpy as np

from .corpus import Vocabulary, text_lines

logger = logging.getLogger(__name__)
NORMAL_MIN = float(np.finfo(np.float64).tiny)   # the smallest normal float64


class EmbeddingError(ValueError):
    pass


class EmbeddingFormatError(EmbeddingError):
    pass


class EmbeddingLengthError(EmbeddingFormatError):
    """Nonzero vectors whose squared length overflows or falls below the
    normal floats: their unit rows would be zeros, or off unit length."""

    def __init__(self, where: str, words: list[int]):
        super().__init__(f"{where}: the vector's length is too large or too small for a "
                         f"float64 to hold its square, so it has no unit direction")
        self.words = words


def dots(a, b) -> np.ndarray:
    """Dot products over the last axis of `a` and `b`, broadcast over the other
    axes: each summed d ascending from +0.0, one rounding per product and per
    sum, with no BLAS, by the kernel's `qd_dots`. Every dot product of
    embedding data goes through here, and the kernel's `qd_cohesion` sums in
    the same order, so their bits are the same whatever machine or BLAS build
    runs them."""
    from . import _native   # built and loaded on first use, never at import
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != b.shape[-1:]:
        raise EmbeddingError(f"dimension mismatch: {a.shape} vs {b.shape}")
    shape, dim = np.broadcast_shapes(a.shape[:-1], b.shape[:-1]), a.shape[-1]
    if a.ndim == 1:   # a product is the same either way round
        a, b = b, a
    # b, if a vector, is read in place with a row step of 0; the rest as rows
    a, b = (np.ascontiguousarray(x if x.ndim == 1 else np.broadcast_to(x, shape + (dim,)))
            for x in (a, b))
    out = np.empty(shape)
    _native.library().qd_dots(a.ctypes.data, b.ctypes.data, dim * (b.ndim > 1), out.size, dim,
                              out.ctypes.data)
    return out[()]


class EmbeddingTable:
    """Dense word vectors for the subset of the vocabulary covered by a file.

    `matrix` holds the vectors as (vocab_size, dim) rows, zero for a word
    without one; `embedded` marks the words that have one; `norms` is
    `matrix` with every nonzero row scaled to unit length, so dot products of
    its rows are cosine similarities.
    """

    def __init__(self, dim: int, vectors: dict[int, np.ndarray], vocab_size: int):
        if dim <= 0:
            raise EmbeddingError("embedding dimension must be positive")
        self.matrix = np.zeros((vocab_size, dim))
        self.embedded = np.zeros(vocab_size, dtype=bool)
        for wid, vec in vectors.items():
            self.matrix[wid] = vec
            self.embedded[wid] = True
        with np.errstate(over="ignore"):
            squared = dots(self.matrix, self.matrix)
        lost = np.flatnonzero(self.matrix.any(axis=1)
                              & ~((squared >= NORMAL_MIN) & (squared < math.inf)))
        if lost.size:
            raise EmbeddingLengthError(f"word id {lost[0]}", lost.tolist())
        lengths = np.sqrt(squared)[:, None]
        self.norms = np.divide(self.matrix, lengths, where=lengths > 0,
                               out=np.zeros(self.matrix.shape))

    def get(self, wid: int) -> np.ndarray | None:
        return self.matrix[wid] if 0 <= wid < len(self.embedded) and self.embedded[wid] else None

    def norm_matrix(self) -> np.ndarray:
        """`norms`, the matrix whose row dot products are cosines."""
        return self.norms


def load_embeddings(path, vocab: Vocabulary) -> EmbeddingTable:
    """Load whitespace-separated text vectors for in-vocabulary tokens.

    An optional "count dim" header line is auto-detected. Inconsistent
    dimensions, malformed floats, non-finite values and an in-vocabulary
    vector with no unit direction (`EmbeddingLengthError`) are format errors
    naming the line.
    """
    vectors: dict[int, np.ndarray] = {}
    line_of: dict[int, int] = {}
    dim = None
    for lineno, line in text_lines(path, EmbeddingFormatError):
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
            floats = [float(v) for v in values]
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno}: malformed float") from None
        if not all(map(math.isfinite, floats)):
            raise EmbeddingFormatError(f"line {lineno}: non-finite value")
        vec = np.array(floats)
        if dim is None:
            if len(vec) == 0:
                raise EmbeddingFormatError(f"line {lineno}: no vector values")
            dim = len(vec)
        elif len(vec) != dim:
            raise EmbeddingFormatError(f"line {lineno}: dimension {len(vec)} != expected {dim}")
        if token in vocab:
            wid = vocab.id_of(token)
            vectors[wid], line_of[wid] = vec, lineno
    if not vectors:
        raise EmbeddingError(f"no in-vocabulary vectors found in {path}")
    logger.info("loaded %d vectors (dim %d), coverage %.1f%%",
                len(vectors), dim, 100 * len(vectors) / len(vocab))
    try:
        return EmbeddingTable(dim, vectors, len(vocab))
    except EmbeddingLengthError as e:
        raise EmbeddingLengthError(f"line {min(line_of[w] for w in e.words)}",
                                   e.words) from None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero-norm inputs are undefined."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise EmbeddingError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = math.sqrt(dots(a, a)), math.sqrt(dots(b, b))
    if na == 0 or nb == 0:
        raise EmbeddingError("cosine undefined for zero-norm vector")
    return float(dots(a, b) / (na * nb))


def build_promotion(table: EmbeddingTable, concept_words,
                    tau: float) -> dict[int, list[int]]:
    """Promotion rows for all (w_i, w_q) pairs over vocabulary x concept words
    with cosine >= tau.

    rows[w] lists the target words of the sampled word w, ascending; a flagged
    token adds 1 to the target w itself (its self pair) and u to every other.
    Concept words without an embedding are excluded with a warning; self-pairs
    for embedded concept words are always present (cosine 1 >= tau), and a
    concept word whose vector is all zeros gets only its self-pair.
    """
    pairs: set[tuple[int, int]] = set()
    norms = table.norms
    for wq in concept_words:
        if table.get(wq) is None:
            logger.warning("concept word id %d has no embedding; excluded from relatedness", wq)
            continue
        if norms[wq].any():   # a zero vector has no cosine, so only its self pair
            sims = dots(norms, norms[wq])
            pairs.update((int(wi), wq) for wi in np.nonzero((sims >= tau) & table.embedded)[0])
        pairs.add((wq, wq))
    rows: dict[int, list[int]] = {}
    for (wi, wq) in sorted(pairs):
        rows.setdefault(wi, []).append(wq)
    return rows
