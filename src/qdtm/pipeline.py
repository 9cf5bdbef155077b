"""End-to-end fit: query expansion -> constrained phase 1 -> subtopic phase 2."""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .concepts import ConceptWordSet, extract_concept_words
from .corpus import Corpus
from .embeddings import EmbeddingTable, PromotionMatrix, build_promotion
from .retrieval import parse_query, retrieve
from .sampler import HDPSampler, Hyperparameters, SamplerError

logger = logging.getLogger(__name__)

RESULT_FORMAT_TAG = "qdtm-result-v1"
N_TOP_WORDS = 10   # words reported per parent topic and subtopic


class ParentTopicError(SamplerError):
    """The parent topic claimed no tokens after phase 1."""


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
                    "subtopics": [
                        {
                            "top_words": [[w, s] for w, s in st.top_words],
                            "prevalence": st.prevalence,
                            "support": st.support,
                        }
                        for st in q.subtopics
                    ],
                }
                for q in self.queries
            ],
        }
        if self.phi is not None:
            out["phi"] = {str(k): v for k, v in self.phi.items()}
            out["theta"] = self.theta
            out["topic_order"] = self.topic_order
        return out


def extract_parent_subcorpus(sampler: HDPSampler, parent: int,
                             doc_ids: list[str]) -> tuple[list[list[int]], list[str], set[int]]:
    """Tokens the parent topic claimed in phase 1, grouped per document.

    Returns (sub-documents, their doc ids, the parent's word-type set).
    """
    sub_docs, sub_ids = [], []
    support: set[int] = set()
    for j, doc in enumerate(sampler.docs):
        toks = [w for i, w in enumerate(doc)
                if sampler.table_topic[j][sampler.t[j][i]] == parent]
        if toks:
            sub_docs.append(toks)
            sub_ids.append(doc_ids[j])
            support.update(toks)
    if not sub_docs:
        raise ParentTopicError(
            f"parent topic {parent} claimed no tokens; try more iterations or "
            "a different query")
    return sub_docs, sub_ids, support


def run_phase2(sub_docs: list[list[int]], support: set[int], hp: Hyperparameters,
               seed: int, *,
               iterations: int = 500,
               promotion: PromotionMatrix | None = None,
               embedding_norms: np.ndarray | None = None,
               check_invariants: bool = False) -> tuple[HDPSampler, list[int], dict[int, int]]:
    """Fresh unconstrained HDP over the parent's sub-corpus.

    The scope vocabulary is the parent's word-type set (base density
    1/|scope|); word ids are remapped to a compact range internally. Returns
    the converged sampler, the scope id order (local -> global), and raw token
    counts per surviving subtopic. Subtopics with corpus-level prevalence
    below the floor are dropped by the caller via `prune_subtopics`.
    """
    scope = sorted(support)
    local = {w: i for i, w in enumerate(scope)}
    docs = [[local[w] for w in d] for d in sub_docs]

    if len(scope) == 1:
        # a single word type cannot be split; sampling would only shuffle
        # interchangeable point-mass topics around
        sampler = HDPSampler(docs, 1, hp, seed, base_density=1.0)
        sampler.set_state([[0] * len(d) for d in docs], [[0] for _ in docs])
        return sampler, scope, sampler.topic_token_counts()

    local_promotion = None
    local_norms = None
    if promotion is not None and embedding_norms is not None:
        rows = {}
        for w, row in promotion.rows.items():
            if w in local:
                entries = [(local[tgt], is_self) for tgt, is_self in row if tgt in local]
                if entries:
                    rows[local[w]] = entries
        if rows:
            local_promotion = PromotionMatrix(promotion.u, rows)
            local_norms = embedding_norms[scope]

    sampler = HDPSampler(docs, len(scope), hp, seed,
                         promotion=local_promotion,
                         embedding_norms=local_norms,
                         base_density=1.0 / len(scope))
    sampler.initialize()
    sampler.run(iterations, check_invariants=check_invariants)
    counts = sampler.topic_token_counts()
    return sampler, scope, counts


def prune_subtopics(counts: dict[int, int], total_corpus_tokens: int,
                    floor: float) -> list[int]:
    """Topics whose corpus-level token prevalence reaches the floor."""
    return sorted(k for k, n in counts.items()
                  if n / total_corpus_tokens >= floor)


def fit_topics(corpus: Corpus, query_phrases: list[str], method: str = "kld", *,
               hp: Hyperparameters | None = None,
               embeddings: EmbeddingTable | None = None,
               seed: int = 42,
               iterations_phase1: int = 1000,
               iterations_phase2: int = 500,
               mode: str = "or",
               retrieval_cutoff: int = 200,
               mu: float = 100.0,
               n_concepts: int = 10,
               lam: float = 0.5,
               sim_top_k: int = 100,
               target_labels: list[str] | None = None,
               full_posterior: bool = False,
               check_invariants: bool = False,
               checkpoint_path: str | None = None) -> TopicModelResult:
    """Run the whole query-driven pipeline for one or more queries.

    When `checkpoint_path` is given, an existing checkpoint resumes phase 1
    from the recorded iteration; the final phase-1 state is written back.
    """
    hp = hp or Hyperparameters()
    hp.validate(n_queries=len(query_phrases))
    if not query_phrases:
        raise SamplerError("at least one query is required")
    vocab = corpus.vocab

    concept_sets: list[ConceptWordSet] = []
    for phrase in query_phrases:
        query = parse_query(phrase, corpus, mode)
        retrieved = retrieve(corpus, query, retrieval_cutoff, mu)
        cs = extract_concept_words(corpus, query, retrieved, method, n_concepts,
                                   table=embeddings, lam=lam, top_k=sim_top_k)
        if not cs.words:
            raise SamplerError(f"no concept words extracted for query {phrase!r}")
        concept_sets.append(cs)

    # first query wins when a word belongs to several concept sets
    forced: dict[int, int] = {}
    for q_idx, cs in enumerate(concept_sets):
        for wid in cs.word_ids():
            forced.setdefault(wid, q_idx)

    promotion = None
    norms = None
    if embeddings is not None:
        all_concepts = sorted({w for cs in concept_sets for w in cs.word_ids()})
        promotion = build_promotion(embeddings, all_concepts, hp.cosine_threshold,
                                    hp.promotion_weight)
        norms = embeddings.norm_matrix()

    parent_reps = {q_idx: cs.word_ids() for q_idx, cs in enumerate(concept_sets)}
    docs = [d.tokens for d in corpus.documents]
    doc_ids = [d.doc_id for d in corpus.documents]

    sampler = HDPSampler(docs, len(vocab), hp, seed,
                         forced_topic=forced,
                         n_parents=len(query_phrases),
                         promotion=promotion,
                         embedding_norms=norms,
                         parent_representatives=parent_reps)
    sampler.initialize()
    remaining = iterations_phase1
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        with open(checkpoint_path) as fh:
            sampler.load_state_dict(json.load(fh))
        remaining = max(0, iterations_phase1 - sampler.iterations_done)
        logger.info("resumed checkpoint at iteration %d (%d remaining)",
                    sampler.iterations_done, remaining)
    if remaining:
        sampler.run(remaining, check_invariants=check_invariants)
    if checkpoint_path is not None:
        with open(checkpoint_path, "w") as fh:
            json.dump(sampler.state_dict(), fh)

    topics, theta = sampler.theta()
    col = {k: c for c, k in enumerate(topics)}
    total_tokens = vocab.total_tokens

    query_results = []
    for q_idx, cs in enumerate(concept_sets):
        sub_docs, _, support = extract_parent_subcorpus(sampler, q_idx, doc_ids)
        sub_sampler, scope, counts = run_phase2(
            sub_docs, support, hp, seed + 1 + q_idx,
            iterations=iterations_phase2, promotion=promotion,
            embedding_norms=norms, check_invariants=check_invariants)
        survivors = prune_subtopics(counts, total_tokens, hp.prevalence_floor)

        subtopics = []
        if survivors:
            for k in survivors:
                tops = [(vocab.token_of(scope[w]), p)
                        for w, p in sub_sampler.top_words(k, N_TOP_WORDS)]
                sub_support = sorted(
                    w for w in range(len(scope))
                    if sub_sampler.nkw_units[k][w] or sub_sampler.nkw_promos[k][w])
                subtopics.append(Subtopic(
                    top_words=tops,
                    prevalence=counts[k] / total_tokens,
                    support=[vocab.token_of(scope[w]) for w in sub_support],
                ))
        else:
            logger.warning("all subtopics pruned for query %r; "
                           "reporting the parent topic as its own subtopic",
                           cs.query.raw)
            parent_mass = sum(len(d) for d in sub_docs)
            subtopics.append(Subtopic(
                top_words=[(vocab.token_of(w), p)
                           for w, p in sampler.top_words(q_idx, N_TOP_WORDS)],
                prevalence=parent_mass / total_tokens,
                support=[vocab.token_of(w) for w in sorted(support)],
            ))

        query_results.append(QueryResult(
            query=cs.query.raw,
            parent_topic=q_idx,
            concept_words=[(vocab.token_of(w), s) for w, s in cs.words],
            parent_top_words=[(vocab.token_of(w), p)
                              for w, p in sampler.top_words(q_idx, N_TOP_WORDS)],
            parent_doc_scores={doc_ids[j]: float(theta[j, col[q_idx]])
                               for j in range(len(docs))},
            subtopics=subtopics,
            target_label=(target_labels[q_idx] if target_labels else None),
        ))

    metadata = {
        "seed": seed,
        "method": method,
        "mode": mode,
        "iterations_phase1": iterations_phase1,
        "iterations_phase2": iterations_phase2,
        "retrieval_cutoff": retrieval_cutoff,
        "mu": mu,
        "n_concepts": n_concepts,
        "hyperparameters": asdict(hp),
        "live_topics_phase1": len(topics),
    }
    result = TopicModelResult(query_results, metadata)
    if full_posterior:
        result.topic_order = topics
        result.phi = {k: [float(x) for x in sampler.phi(k)] for k in topics}
        result.theta = {doc_ids[j]: [float(x) for x in theta[j]]
                        for j in range(len(docs))}
    return result
