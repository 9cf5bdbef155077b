"""End-to-end fit: query expansion -> constrained phase 1 -> subtopic phase 2."""

from __future__ import annotations

import contextlib
import json
import logging
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .concepts import DEFAULT_LAMBDA, DEFAULT_N, DEFAULT_SIM_TOP_K, extract_concept_words
from .corpus import Corpus
from .embeddings import EmbeddingTable, build_promotion
from .retrieval import DEFAULT_CUTOFF, DEFAULT_MU, parse_query, retrieve
from .sampler import HDPSampler, Hyperparameters, SamplerError, are_strings, check_fields

logger = logging.getLogger(__name__)

RESULT_FORMAT_TAG = "qdtm-result-v1"
N_TOP_WORDS = 10   # words reported per parent topic and subtopic


class ParentTopicError(SamplerError):
    """The parent topic claimed no tokens after phase 1."""


@dataclass(frozen=True)
class FitConfig:
    """Every fit setting and its default: the keywords of `fit_topics` and the
    metadata of its result. Corpus, queries, embeddings and checkpoint are inputs."""
    method: str = "kld"
    hp: Hyperparameters = field(default_factory=Hyperparameters)
    seed: int = 42
    iterations_phase1: int = 1000
    iterations_phase2: int = 500
    mode: str = "or"
    retrieval_cutoff: int = DEFAULT_CUTOFF
    mu: float = DEFAULT_MU
    n_concepts: int = DEFAULT_N
    lam: float = DEFAULT_LAMBDA
    sim_top_k: int = DEFAULT_SIM_TOP_K
    target_labels: list[str] | None = None
    full_posterior: bool = False

    def validate(self, n_queries: int) -> None:
        """The checks that need no corpus; `fit_topics` makes them before any work."""
        if not isinstance(self.hp, Hyperparameters):
            raise SamplerError(f"hp must be a Hyperparameters, got {self.hp!r}")
        self.hp.validate(n_queries=n_queries)
        if not n_queries:
            raise SamplerError("at least one query is required")
        check_fields(self, SamplerError, (
            ("iterations_phase1", ">= 1", lambda v: v >= 1),
            ("iterations_phase2", ">= 1", lambda v: v >= 1), ("seed", ">= 0", lambda v: v >= 0),
            ("target_labels", "None or a sequence of strings",
             lambda v: v is None or are_strings(v, Sequence))))
        if self.target_labels and len(self.target_labels) != n_queries:
            raise SamplerError(f"{len(self.target_labels)} target labels for {n_queries} queries")


@dataclass
class Subtopic:
    top_words: list[tuple[str, float]]
    prevalence: float
    support: list[str] = field(default_factory=list)


@dataclass
class QueryResult:
    query: str
    parent_topic: int
    concept_words: list[tuple[str, float]]
    parent_top_words: list[tuple[str, float]]
    parent_doc_scores: dict[str, float]   # doc id -> theta of parent topic
    subtopics: list[Subtopic]
    target_label: str | None = None


@dataclass
class TopicModelResult:
    queries: list[QueryResult]
    metadata: dict
    phi: dict[int, list[float]] | None = None
    theta: dict[str, list[float]] | None = None
    topic_order: list[int] | None = None

    def to_dict(self) -> dict:
        out = {
            "format": RESULT_FORMAT_TAG,
            "metadata": self.metadata,
            "queries": [
                {
                    "query": q.query,
                    "parent_topic": q.parent_topic,
                    "target_label": q.target_label,
                    "concept_words": [[w, s] for w, s in q.concept_words],
                    "parent": {"top_words": [[w, s] for w, s in q.parent_top_words]},
                    "parent_doc_scores": q.parent_doc_scores,
                    "subtopics": [{"top_words": [[w, s] for w, s in st.top_words],
                                   "prevalence": st.prevalence, "support": st.support}
                                  for st in q.subtopics],
                }
                for q in self.queries
            ],
        }
        if self.phi is not None:
            out["phi"] = {str(k): v for k, v in self.phi.items()}
            out["theta"] = self.theta
            out["topic_order"] = self.topic_order
        return out


@contextlib.contextmanager
def atomic_write(path: str):
    """Open a temp file for writing and `os.replace` it onto `path` on success.

    A failed write leaves any existing file at `path` untouched and no
    partial file behind. The temp file is synced before the rename, so a
    crash of the machine cannot leave a renamed but empty file. A symlink is
    followed: its target is replaced and the link kept. An existing path that
    is not a regular file (a FIFO, a device) is written in place, because
    replacing it would destroy it.
    """
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            yield fh
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def extract_parent_subcorpus(sampler: HDPSampler, parent: int) -> tuple[np.ndarray, np.ndarray]:
    """The tokens the parent topic claimed in phase 1, as a token stream:
    their word ids in corpus order, and the offsets of the documents that
    hold any of them."""
    words, doc_ptr = sampler.tokens_of(parent)
    if not len(words):
        raise ParentTopicError(
            f"parent topic {parent} claimed no tokens; try more iterations or "
            "a different query")
    return words, doc_ptr


def run_phase2(words: np.ndarray, doc_ptr: np.ndarray, hp: Hyperparameters, seed: int, *,
               iterations: int, promotion: dict[int, list[int]] | None = None,
               embedding_norms: np.ndarray | None = None,
               check_invariants: bool = False) -> tuple[HDPSampler, np.ndarray, dict[int, int]]:
    """Fresh unconstrained HDP over the parent's sub-corpus.

    The scope vocabulary is the set of words in the sub-corpus (base density
    1/|scope|); word ids are remapped to a compact range internally. Returns
    the converged sampler, the scope id order (local -> global, ascending),
    and raw token counts per surviving subtopic. Subtopics with corpus-level
    prevalence below the floor are dropped by the caller via `prune_subtopics`.
    """
    scope, local_words = np.unique(words, return_inverse=True)

    if len(scope) == 1:
        # a single word type cannot be split; sampling would only shuffle
        # interchangeable point-mass topics around
        sampler = HDPSampler(local_words, doc_ptr, 1, hp, seed)
        n_docs = len(doc_ptr) - 1   # each document's tokens at one table, of topic 0
        sampler.set_state(np.zeros_like(local_words), np.ones(n_docs, int), np.zeros(n_docs, int))
        return sampler, scope, sampler.topic_token_counts()

    local_promotion, local_norms = {}, None
    if promotion and embedding_norms is not None:
        local = dict(zip(scope.tolist(), range(len(scope))))
        rows = ((local[w], [local[tgt] for tgt in row if tgt in local])
                for w, row in promotion.items() if w in local)
        local_promotion = {w: row for w, row in rows if row}
        if local_promotion:
            local_norms = embedding_norms[scope]

    sampler = HDPSampler(local_words, doc_ptr, len(scope), hp, seed,
                         promotion=local_promotion, embedding_norms=local_norms)
    sampler.initialize()
    sampler.run(iterations, check_invariants=check_invariants)
    return sampler, scope, sampler.topic_token_counts()


def prune_subtopics(counts: dict[int, int], total_corpus_tokens: int,
                    floor: float) -> list[int]:
    """Topics whose corpus-level token prevalence reaches the floor."""
    return sorted(k for k, n in counts.items()
                  if n / total_corpus_tokens >= floor)


def fit_topics(corpus: Corpus, query_phrases: list[str], method: str = FitConfig.method, *,
               embeddings: EmbeddingTable | None = None,
               checkpoint_path: str | None = None, **settings) -> TopicModelResult:
    """Run the whole query-driven pipeline for one or more queries, with the
    other `FitConfig` fields as keyword settings. An existing checkpoint at
    `checkpoint_path` (of the same inputs) resumes phase 1 instead of
    initializing it, and one that is not a regular file is an error; the final
    state is written back."""
    config = FitConfig(method=method, **settings)
    config.validate(len(query_phrases))
    hp, seed, target_labels = config.hp, config.seed, config.target_labels
    if (checkpoint_path is not None and os.path.exists(checkpoint_path)
            and not os.path.isfile(checkpoint_path)):   # opening a FIFO would block for ever
        raise SamplerError(f"checkpoint {checkpoint_path} is not a regular file")
    missing = set(target_labels or ()) - set(corpus.labels)
    if missing:
        raise SamplerError(f"target label {min(missing)!r} is carried by no document")
    vocab = corpus.vocab

    concept_sets = []
    for phrase in query_phrases:
        query = parse_query(phrase, corpus, config.mode)
        retrieved = retrieve(corpus, query, config.retrieval_cutoff, config.mu)
        cs = extract_concept_words(corpus, query, retrieved, method, config.n_concepts,
                                   table=embeddings, lam=config.lam, top_k=config.sim_top_k)
        if not cs.words:
            raise SamplerError(f"no concept words extracted for query {phrase!r}")
        concept_sets.append(cs)

    parents = [cs.word_ids() for cs in concept_sets]
    promotion = norms = None
    if embeddings is not None:
        promotion = build_promotion(embeddings, sorted(set().union(*parents)),
                                    hp.cosine_threshold)
        norms = embeddings.norm_matrix()

    sampler = HDPSampler(corpus.token_ids, corpus.doc_ptr, len(vocab), hp, seed,
                         parents=parents, promotion=promotion, embedding_norms=norms)
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        try:
            with open(checkpoint_path) as fh:
                sampler.load_state_dict(json.load(fh))
        except ValueError as e:   # a SamplerError or malformed JSON
            raise SamplerError(f"cannot resume from checkpoint {checkpoint_path}: {e}") from None
        if sampler.iterations_done > config.iterations_phase1:
            raise SamplerError(f"cannot resume from checkpoint {checkpoint_path}: it holds "
                               f"{sampler.iterations_done} phase-1 sweeps, more than "
                               f"iterations_phase1 = {config.iterations_phase1}")
        logger.info("resumed checkpoint at iteration %d", sampler.iterations_done)
    else:
        sampler.initialize()
    remaining = config.iterations_phase1 - sampler.iterations_done
    if remaining:
        sampler.run(remaining)
    if checkpoint_path is not None:
        with atomic_write(checkpoint_path) as fh:
            json.dump(sampler.state_dict(), fh, allow_nan=False)

    topics, theta = sampler.theta()
    col = {k: c for c, k in enumerate(topics)}
    total_tokens = corpus.index.total_tokens

    query_results = []
    for q_idx, cs in enumerate(concept_sets):
        sub_words, sub_ptr = extract_parent_subcorpus(sampler, q_idx)
        sub_sampler, scope, counts = run_phase2(
            sub_words, sub_ptr, hp, seed + 1 + q_idx,
            iterations=config.iterations_phase2, promotion=promotion, embedding_norms=norms)
        parent_top = [(vocab.token_of(w), p)
                      for w, p in sampler.top_words(q_idx, N_TOP_WORDS)]
        subtopics = []
        for k in prune_subtopics(counts, total_tokens, hp.prevalence_floor):
            tops = [(vocab.token_of(scope[w]), p)
                    for w, p in sub_sampler.top_words(k, N_TOP_WORDS)]
            subtopics.append(Subtopic(
                top_words=tops,
                prevalence=counts[k] / total_tokens,
                support=[vocab.token_of(scope[w])
                         for w in np.flatnonzero(sub_sampler.counts(k))],
            ))
        if not subtopics:
            logger.warning("all subtopics pruned for query %r; "
                           "reporting the parent topic as its own subtopic",
                           cs.query.raw)
            subtopics.append(Subtopic(
                top_words=parent_top,
                prevalence=len(sub_words) / total_tokens,
                support=[vocab.token_of(w) for w in scope],
            ))

        query_results.append(QueryResult(
            query=cs.query.raw,
            parent_topic=q_idx,
            concept_words=[(vocab.token_of(w), s) for w, s in cs.words],
            parent_top_words=parent_top,
            parent_doc_scores=dict(zip(corpus.doc_ids, theta[:, col[q_idx]].tolist())),
            subtopics=subtopics,
            target_label=(target_labels[q_idx] if target_labels else None),
        ))

    metadata = asdict(config)
    metadata.update(hyperparameters=metadata.pop("hp"), embeddings=embeddings is not None,
                    live_topics_phase1=len(topics))
    result = TopicModelResult(query_results, metadata)
    if config.full_posterior:
        result.topic_order = topics
        result.phi = {k: sampler.phi(k).tolist() for k in topics}
        result.theta = dict(zip(corpus.doc_ids, theta.tolist()))
    return result
