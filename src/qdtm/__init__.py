"""Query-driven topic modeling: expansion, constrained HDP sampling, subtopics."""

__version__ = "0.1.0"

from .concepts import ConceptWordSet, extract_concept_words
from .corpus import Corpus, Document, PreprocessOptions, Vocabulary, ingest, ingest_jsonl
from .embeddings import EmbeddingTable, build_promotion, cosine, load_embeddings
from .metrics import npmi_coherence, overall_quality, topic_cohesion, topic_diversity
from .pipeline import TopicModelResult, fit_topics
from .retrieval import Query, RetrievedSet, parse_query, precision_at_k, retrieve
from .sampler import HDPSampler, Hyperparameters
from .synth import SyntheticSpec, generate

__all__ = [
    "ConceptWordSet", "Corpus", "Document", "EmbeddingTable", "HDPSampler",
    "Hyperparameters", "PreprocessOptions", "Query",
    "RetrievedSet", "SyntheticSpec", "TopicModelResult", "Vocabulary",
    "build_promotion", "cosine",
    "extract_concept_words", "fit_topics", "generate", "ingest", "ingest_jsonl",
    "load_embeddings", "npmi_coherence", "overall_quality", "parse_query",
    "precision_at_k", "retrieve", "topic_cohesion",
    "topic_diversity",
]
