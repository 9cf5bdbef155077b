"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import numpy as np

from qdtm.embeddings import EmbeddingTable


def make_table(vectors: dict[int, list[float]], vocab_size: int) -> EmbeddingTable:
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, {k: np.array(v, dtype=float) for k, v in vectors.items()},
                          vocab_size)
