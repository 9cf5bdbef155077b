"""The pinned workloads and the seeded generation of their inputs.

Every input comes from `qdtm.synth` and the workload seed. The program only
ever sees the files written here: a JSON-lines corpus, optional text
embeddings, a plan of query phrases and the fit seed, and for a fit workload
the phase-1 checkpoint of a warm-up fit, from which every timed fit resumes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from qdtm import corpus as corpus_mod
from qdtm import embeddings, pipeline, synth
from qdtm.sampler import Hyperparameters

QUERY_METHODS = ("fre", "kld", "rel")
QUERY_PLAN_LENGTH = 4000   # more query operations than any run completes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                         # "fit" or "query"
    spec: dict = field(default_factory=dict)   # SyntheticSpec fields, seed aside
    embeddings: bool = True
    method: str = "kld"               # fit workloads: concept scorer
    n_queries: int = 1                # fit workloads: the rare topic + others
    hp: dict = field(default_factory=dict)     # fit workloads: Hyperparameters fields
    warmup: int = 0                   # fit workloads: phase-1 sweeps to the checkpoint
    iterations: tuple[int, int] = (0, 0)   # fit workloads: timed phase 1, phase 2

    def hyperparameters(self) -> Hyperparameters:
        return Hyperparameters(**self.hp)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rare-kld",
        why="paper headline case: default synth corpus, one kld query on the "
            "2% planted topic, embeddings on; the phase-1 sweep with promotion "
            "and the cohesion gate does almost all the work",
        kind="fit", embeddings=True, method="kld", n_queries=1,
        warmup=15, iterations=(5, 10)),
    Workload(
        name="multi-fre-wide",
        why="3x the tokens, 5x the vocabulary, four fre queries, 24 live topics "
            "against about 10 on rare-kld, no embeddings; promotion and cohesion "
            "are bypassed",
        kind="fit", spec={"n_docs": 1500, "vocab_size": 5000, "n_topics": 20},
        embeddings=False, method="fre", n_queries=4,
        hp={"initial_topics": 24}, warmup=10, iterations=(1, 2)),
    Workload(
        name="query-explore",
        why="500k-token corpus, closed loop of retrieve, expand (fre/kld/rel) "
            "and NPMI per query; the sampler is idle and ingest dominates set-up",
        kind="query",
        spec={"n_docs": 5000, "doc_length": 100, "vocab_size": 5000, "n_topics": 20},
        embeddings=True),
)}


def synthetic_spec(workload: Workload, seed: int) -> synth.SyntheticSpec:
    return synth.SyntheticSpec(seed=seed, **workload.spec)


def make_plan(workload: Workload, seed: int, truth: dict) -> dict:
    """Queries and the fit seed (fit workloads) or query operations (query-explore).

    A fit workload repeats one fit seed, so that every fit in a run does the
    same work and the run's median is not a draw from a mix of seeds.
    """
    rng = np.random.default_rng([seed, 1])
    top = truth["topic_top_words"]
    n_topics = truth["n_topics"]
    plan = {"workload": workload.name, "seed": seed, "topic_top_words": top}
    if workload.kind == "fit":
        rare = n_topics - 1
        others = rng.choice(rare, size=workload.n_queries - 1, replace=False)
        targets = [rare] + [int(k) for k in others]
        plan["queries"] = [" ".join(top[f"topic{k}"][:2]) for k in targets]
        plan["target_labels"] = [f"topic{k}" for k in targets]
        plan["fit_seed"] = seed
    else:
        ops = []
        for i in range(QUERY_PLAN_LENGTH):
            k = int(rng.integers(n_topics))
            a, b = rng.choice(15, size=2, replace=False)
            words = top[f"topic{k}"]
            ops.append([f"{words[a]} {words[b]}", QUERY_METHODS[i % len(QUERY_METHODS)]])
        plan["query_ops"] = ops
    return plan


def input_paths(directory: str) -> dict:
    return {name: os.path.join(directory, filename) for name, filename in
            (("corpus", "corpus.jsonl"), ("embeddings", "vectors.txt"),
             ("plan", "plan.json"), ("checkpoint", "checkpoint.json"))}


def write_inputs(workload: Workload, seed: int, outdir: str) -> dict:
    """Generate a workload's inputs into `outdir`; returns `input_paths(outdir)`."""
    spec = synthetic_spec(workload, seed)
    records, truth = synth.generate(spec)
    paths = input_paths(outdir)
    synth.write_jsonl(records, paths["corpus"])
    if workload.embeddings:
        synth.write_embeddings(synth.block_embeddings(spec), paths["embeddings"])
    with open(paths["plan"], "w") as fh:
        json.dump(make_plan(workload, seed, truth), fh, sort_keys=True)
    return paths


def write_checkpoint(workload: Workload, paths: dict) -> None:
    """Run a fit workload's untimed warm-up fit and keep its phase-1 state.

    The fit runs `warmup` phase-1 sweeps with the workload's queries,
    hyperparameters and fit seed, and writes its final phase-1 state to
    `paths["checkpoint"]`. A timed fit resumes from there, so it sweeps a
    settled state instead of the one-table-per-token start.
    """
    with open(paths["plan"]) as fh:
        plan = json.load(fh)
    corpus = corpus_mod.ingest_jsonl(paths["corpus"])
    table = (embeddings.load_embeddings(paths["embeddings"], corpus.vocab)
             if workload.embeddings else None)
    pipeline.fit_topics(corpus, plan["queries"], workload.method,
                        hp=workload.hyperparameters(), embeddings=table,
                        seed=plan["fit_seed"], iterations_phase1=workload.warmup,
                        iterations_phase2=1, checkpoint_path=paths["checkpoint"])
