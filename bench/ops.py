"""One benchmark operation per workload kind, and the checks on its output.

Every call into qdtm goes through a module attribute (`pipeline.fit_topics`,
not a name imported once), so a traced run sees the wrappers the tracer put
in place.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

from qdtm import concepts, metrics, pipeline, retrieval

from .workloads import input_paths

RETRIEVAL_CUTOFF = 200
RETRIEVAL_MU = 100.0
OVERLAP_TOP_N = 10


@dataclass
class OpResult:
    seconds: float
    text: str                  # serialized output, compared across repeats
    problems: list[str]
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class FitOps:
    """fit_topics -> serialize as the CLI does -> evaluate, with one fit seed.

    Every fit resumes phase 1 from the warm-up checkpoint, runs the timed
    phase-1 sweeps and writes its final state back, as `checkpoint_path` does.
    """

    def __init__(self, workload, plan, corpus, table, workdir):
        self.workload = workload
        self.plan = plan
        self.corpus = corpus
        self.table = table
        self.hp = workload.hyperparameters()
        self.warm = input_paths(workdir)["checkpoint"]
        self.checkpoint = os.path.join(workdir, "resume.json")

    def key(self, i: int):
        return self.plan["fit_seed"]

    def run(self, i: int, tracer) -> OpResult:
        shutil.copyfile(self.warm, self.checkpoint)   # the previous fit overwrote it
        p1, p2 = self.workload.iterations
        start = time.perf_counter()
        with tracer.span("bench.op", key=self.key(i)):
            result = pipeline.fit_topics(
                self.corpus, self.plan["queries"], self.workload.method,
                hp=self.hp, embeddings=self.table, seed=self.key(i),
                iterations_phase1=self.workload.warmup + p1, iterations_phase2=p2,
                target_labels=self.plan["target_labels"],
                checkpoint_path=self.checkpoint)
            with tracer.span("pipeline.serialize"):
                payload = result.to_dict()
                text = json.dumps(payload, indent=2, sort_keys=True)
            with tracer.span("metrics.eval"):
                evaluation = evaluate(payload, self.corpus, self.table)
        seconds = time.perf_counter() - start
        counts = {"result_bytes": len(text.encode()),
                  "checkpoint_bytes": os.path.getsize(self.checkpoint)}
        return OpResult(seconds, text,
                        check_fit(payload, evaluation, self.corpus,
                                  self.hp.prevalence_floor),
                        quality=self.quality(payload, evaluation), counts=counts)

    def quality(self, payload: dict, evaluation: list[dict]) -> dict:
        top = self.plan["topic_top_words"]
        overlaps = []
        for q in payload["queries"]:
            planted = set(top[q["target_label"]][:OVERLAP_TOP_N])
            found = {w for w, _ in q["parent"]["top_words"][:OVERLAP_TOP_N]}
            overlaps.append(len(planted & found) / OVERLAP_TOP_N)
        return {"rare_p_at_k": _mean(e["precision_at_k"] for e in evaluation),
                "parent_overlap": _mean(overlaps)}


class QueryOps:
    """parse_query -> retrieve -> extract_concept_words -> NPMI of the words."""

    def __init__(self, workload, plan, corpus, table, workdir):
        self.plan = plan
        self.corpus = corpus
        self.table = table

    def key(self, i: int):
        return i % len(self.plan["query_ops"])

    def run(self, i: int, tracer) -> OpResult:
        phrase, method = self.plan["query_ops"][self.key(i)]
        corpus = self.corpus
        start = time.perf_counter()
        with tracer.span("bench.op", key=self.key(i)):
            query = retrieval.parse_query(phrase, corpus)
            retrieved = retrieval.retrieve(corpus, query, RETRIEVAL_CUTOFF, RETRIEVAL_MU)
            cs = concepts.extract_concept_words(corpus, query, retrieved, method,
                                                table=self.table)
            words = [corpus.vocab.token_of(w) for w in cs.word_ids()]
            npmi = metrics.npmi_coherence(words, corpus)
        seconds = time.perf_counter() - start
        text = json.dumps({"documents": retrieved.entries, "words": cs.words,
                           "npmi": npmi})
        return OpResult(seconds, text, check_query(retrieved, cs, npmi))


OPS = {"fit": FitOps, "query": QueryOps}


def evaluate(payload: dict, corpus, table) -> list[dict]:
    """Per query: P@K of the parent's document ranking, subtopic report, NPMI.

    K is the number of documents carrying the query's target label, as in
    `qdtm eval`.
    """
    doc_order = {d.doc_id: j for j, d in enumerate(corpus.documents)}
    out = []
    for q in payload["queries"]:
        relevant = {d.doc_id for d in corpus.documents if d.label == q["target_label"]}
        scores = q["parent_doc_scores"]
        ranked = sorted(scores, key=lambda d: (-scores[d], doc_order[d]))
        k = min(len(relevant), len(ranked))
        parent = [(w, s) for w, s in q["parent"]["top_words"]]
        report = metrics.subtopic_report(
            parent, [[(w, s) for w, s in st["top_words"]] for st in q["subtopics"]],
            table, corpus.vocab.index)
        out.append({"precision_at_k": retrieval.precision_at_k(ranked, relevant, k),
                    **report,
                    "npmi": metrics.npmi_coherence([w for w, _ in parent], corpus)})
    return out


def check_fit(payload: dict, evaluation: list[dict], corpus, floor: float) -> list[str]:
    problems = []
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError as e:
        problems.append(f"result is not strict JSON: {e}")
    doc_ids = {d.doc_id for d in corpus.documents}
    for q in payload["queries"]:
        name = q["query"]
        scores = q["parent_doc_scores"]
        if set(scores) != doc_ids:
            problems.append(f"{name}: parent_doc_scores do not cover every document")
        if not all(_finite(s) and 0.0 <= s <= 1.0 for s in scores.values()):
            problems.append(f"{name}: parent_doc_scores outside [0,1] or not finite")
        subtopics = q["subtopics"]
        if not subtopics:
            problems.append(f"{name}: no subtopics")
        fallback = (len(subtopics) == 1
                    and subtopics[0]["top_words"] == q["parent"]["top_words"])
        if not fallback and any(st["prevalence"] < floor for st in subtopics):
            problems.append(f"{name}: kept subtopic below the prevalence floor")
    for e in evaluation:
        if not -1.0 <= e["npmi"] <= 1.0:
            problems.append(f"NPMI {e['npmi']} outside [-1,1]")
        if not 0.0 <= e["precision_at_k"] <= 1.0:
            problems.append(f"P@K {e['precision_at_k']} outside [0,1]")
    return problems


def check_query(retrieved, cs, npmi: float) -> list[str]:
    problems = []
    entries = retrieved.entries
    if not entries:
        problems.append("no documents retrieved")
    if not all(_finite(s) for _, s in entries):
        problems.append("non-finite retrieval score")
    if entries != sorted(entries, key=lambda e: (-e[1], e[0])):
        problems.append("retrieved documents are not ranked")
    scores = [s for _, s in cs.words]
    if not scores:
        problems.append("no concept words")
    if not all(_finite(s) and s > 0 for s in scores):
        problems.append("concept word score not positive and finite")
    if scores != sorted(scores, reverse=True):
        problems.append("concept words are not ranked")
    if not (_finite(npmi) and -1.0 <= npmi <= 1.0):
        problems.append(f"NPMI {npmi} outside [-1,1]")
    return problems


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)
