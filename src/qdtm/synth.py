"""Synthetic corpus generator with planted topics, for tests and demos."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .embeddings import dots
from .pipeline import atomic_write
from .sampler import check_fields


class SynthError(ValueError):
    pass


@dataclass
class SyntheticSpec:
    n_topics: int = 6
    vocab_size: int = 1000
    n_docs: int = 500
    doc_length: int = 40
    rare_topic_prevalence: float = 0.02  # share of documents on the rare topic
    background_mass: float = 0.1         # per-token probability of a uniform draw
    seed: int = 0

    def validate(self) -> None:
        check_fields(self, SynthError, (
            ("n_topics", ">= 2", lambda v: v >= 2),
            ("vocab_size", ">= 10 per topic", lambda v: v >= 10 * self.n_topics),
            ("n_docs", ">= 1", lambda v: v >= 1), ("doc_length", ">= 1", lambda v: v >= 1),
            ("rare_topic_prevalence", "in (0, 1)", lambda v: 0 < v < 1),
            ("background_mass", "in [0, 1)", lambda v: 0 <= v < 1),
            ("seed", ">= 0", lambda v: v >= 0)))
        expected = self.rare_topic_prevalence * self.n_docs
        if expected < 1:
            raise SynthError(f"rare topic prevalence {self.rare_topic_prevalence} expects "
                             f"{expected:g} of {self.n_docs} documents; need at least 1")


def _word(i: int) -> str:
    return f"w{i:04d}"


def topic_distributions(spec: SyntheticSpec) -> np.ndarray:
    """Block-structured topic-word distributions with Zipf weights per block."""
    V, K = spec.vocab_size, spec.n_topics
    block = V // K
    dists = np.zeros((K, V))
    for k in range(K):
        lo = k * block
        hi = V if k == K - 1 else lo + block
        ranks = np.arange(1, hi - lo + 1, dtype=float)
        weights = 1.0 / ranks
        dists[k, lo:hi] = weights / weights.sum()
    # mix in a uniform background so words co-occur across topics
    uniform = np.full(V, 1.0 / V)
    return (1 - spec.background_mass) * dists + spec.background_mass * uniform


def generate(spec: SyntheticSpec) -> tuple[list[dict], dict]:
    """Draw documents and ground truth.

    The last topic index is the rare one: it owns `rare_topic_prevalence` of
    the documents (at least one, by `validate`), the rest are uniform over the other topics.
    Returns (jsonl-ready records, ground truth dict).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    dists = topic_distributions(spec)
    K = spec.n_topics
    rare = K - 1

    n_rare = round(spec.rare_topic_prevalence * spec.n_docs)
    doc_topics = [rare] * n_rare + [
        int(rng.integers(K - 1)) for _ in range(spec.n_docs - n_rare)]
    rng.shuffle(doc_topics)

    records = []
    for j, k in enumerate(doc_topics):
        ids = rng.choice(spec.vocab_size, size=spec.doc_length, p=dists[k])
        text = " ".join(_word(i) for i in ids)
        records.append({"id": f"doc{j:05d}", "text": text, "label": f"topic{k}"})

    top_words = {
        f"topic{k}": [_word(i) for i in np.argsort(-dists[k], kind="stable")[:25]]
        for k in range(K)
    }
    truth = {
        "seed": spec.seed,
        "n_topics": K,
        "rare_topic": f"topic{rare}",
        "rare_doc_count": int(n_rare),
        "doc_topics": {r["id"]: r["label"] for r in records},
        "topic_top_words": top_words,
    }
    return records, truth


def write_jsonl(records: list[dict], path) -> None:
    with atomic_write(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def block_embeddings(spec: SyntheticSpec, dim: int = 16, noise: float = 0.25) -> dict[str, np.ndarray]:
    """Synthetic vectors where words of the same topic block cluster together."""
    rng = np.random.default_rng(spec.seed + 1)
    V, K = spec.vocab_size, spec.n_topics
    block = V // K
    centers = rng.normal(size=(K, dim))
    centers /= np.sqrt(dots(centers, centers))[:, None]
    vectors = {}
    for i in range(V):
        k = min(i // block, K - 1)
        vec = centers[k] + noise * rng.normal(size=dim)
        vectors[_word(i)] = vec
    return vectors


def write_embeddings(vectors: dict[str, np.ndarray], path) -> None:
    with atomic_write(path) as fh:
        first = next(iter(vectors.values()))
        fh.write(f"{len(vectors)} {len(first)}\n")
        for token, vec in vectors.items():
            fh.write(token + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
