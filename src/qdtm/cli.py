"""Command-line surface: retrieve, expand, fit, eval, synth."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import __version__
from .concepts import extract_concept_words
from .corpus import PreprocessOptions, ingest_jsonl
from .embeddings import load_embeddings
from .metrics import npmi_coherence, subtopic_report
from .pipeline import fit_topics
from .retrieval import parse_query, precision_at_k, retrieve
from .sampler import Hyperparameters
from .synth import SyntheticSpec, block_embeddings, generate, write_embeddings, write_jsonl

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class ValidationError(ValueError):
    pass


def _corpus_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--corpus", required=True, help="JSON-lines corpus file")
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--stopwords", default=None, help="file with one stopword per line")
    p.add_argument("--keep-case", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qdtm",
                                     description="Query-driven topic modeling")
    parser.add_argument("--config", default=None,
                        help="JSON config file; command-line flags override it")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("retrieve", help="rank documents by query likelihood")
    _corpus_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("--mode", choices=["and", "or"], default="or")
    p.add_argument("--top", type=int, default=200)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("expand", help="extract concept words for a query")
    _corpus_args(p)
    p.add_argument("--query", required=True)
    p.add_argument("--method", choices=["fre", "kld", "rel"], default="kld")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--mode", choices=["and", "or"], default="or")
    p.add_argument("--top", type=int, default=200)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--topk", type=int, default=100)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", help="run the full two-phase topic model")
    _corpus_args(p)
    p.add_argument("--query", action="append", default=None,
                   help="query phrase (repeatable)")
    p.add_argument("--queries", default=None, help="file with one query per line")
    p.add_argument("--method", choices=["fre", "kld", "rel"], default="kld")
    p.add_argument("--mode", choices=["and", "or"], default="or")
    p.add_argument("--top", type=int, default=200)
    p.add_argument("--mu", type=float, default=100.0)
    p.add_argument("--n", type=int, default=10, help="concept words per query")
    p.add_argument("--iters1", type=int, default=1000)
    p.add_argument("--iters2", type=int, default=500)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.5)
    p.add_argument("--u", type=float, default=0.3)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--floor", type=float, default=0.005)
    p.add_argument("--k-init", type=int, default=8)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--topk", type=int, default=100)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--target-label", action="append", default=None)
    p.add_argument("--full-posterior", action="store_true")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a fit result")
    _corpus_args(p)
    p.add_argument("--result", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--labels", default=None,
                   help="JSON mapping doc id -> label; defaults to corpus labels")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate a synthetic corpus + ground truth")
    p.add_argument("--topics", type=int, default=6)
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--docs", type=int, default=500)
    p.add_argument("--doc-length", type=int, default=40)
    p.add_argument("--rare-prevalence", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--embeddings-out", default=None)
    p.add_argument("--out", required=True, help="output JSONL corpus path")
    p.add_argument("--truth-out", default=None,
                   help="ground-truth JSON path (default: <out>.truth.json)")

    return parser


def apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> argparse.Namespace:
    """Overlay config-file values under explicitly passed flags.

    A config key is the dest (`lam`) or the flag name (`lambda`) of one of
    the command's options; other keys are rejected. A flag present on the
    command line always wins; otherwise the config value replaces the default.
    """
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    option_dests = {opt: a.dest for a in sub.choices[args.command]._actions
                    for opt in a.option_strings if a.dest != "help"}
    explicit = set()
    for a in argv:
        if a.startswith("--"):
            flag = a.split("=", 1)[0]
            # argparse also accepts an unambiguous prefix of a long option
            matches = [o for o in option_dests if o == flag] or [
                o for o in option_dests if o.startswith(flag)]
            if len(matches) == 1:
                explicit.add(option_dests[matches[0]])
    for key, value in cfg.items():
        dest = key if key in option_dests.values() else option_dests.get(f"--{key}")
        if dest is None:
            raise ValidationError(f"unknown config key: {key!r}")
        if dest not in explicit:
            setattr(args, dest, value)
    return args


def _load_corpus(args):
    stopwords = frozenset()
    if args.stopwords:
        if not os.path.exists(args.stopwords):
            raise ValidationError(f"stopword file not found: {args.stopwords}")
        with open(args.stopwords) as fh:
            stopwords = frozenset(w.strip() for w in fh if w.strip())
    options = PreprocessOptions(lowercase=not args.keep_case, min_df=args.min_df,
                                stopwords=stopwords)
    if not os.path.exists(args.corpus):
        raise ValidationError(f"corpus file not found: {args.corpus}")
    return ingest_jsonl(args.corpus, options)


def _load_embeddings(args, corpus):
    if not args.embeddings:
        return None
    if not os.path.exists(args.embeddings):
        raise ValidationError(f"embeddings file not found: {args.embeddings}")
    return load_embeddings(args.embeddings, corpus.vocab)


def _write_atomic(path: str, text: str) -> None:
    """Write through a temp file and `os.replace`.

    A failed write leaves any existing file at `path` untouched and no
    partial file behind.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_manifest(args: argparse.Namespace) -> None:
    manifest = {k: v for k, v in vars(args).items() if k != "command"}
    manifest["command"] = args.command
    manifest["qdtm_version"] = __version__
    _write_atomic(args.out + ".manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True))


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Print the payload, or write it to `--out` together with its manifest."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write_atomic(args.out, text + "\n")
        _write_manifest(args)
    else:
        print(text)


def cmd_retrieve(args) -> None:
    corpus = _load_corpus(args)
    query = parse_query(args.query, corpus, args.mode)
    result = retrieve(corpus, query, args.top, args.mu)
    payload = {
        "query": args.query,
        "mode": args.mode,
        "documents": [
            {"doc_id": corpus.documents[i].doc_id, "log_score": s}
            for i, s in result.entries
        ],
    }
    _emit(payload, args)


def cmd_expand(args) -> None:
    corpus = _load_corpus(args)
    table = _load_embeddings(args, corpus)
    if args.method == "rel" and table is None:
        raise ValidationError("--method rel requires --embeddings")
    query = parse_query(args.query, corpus, args.mode)
    retrieved = retrieve(corpus, query, args.top, args.mu)
    cs = extract_concept_words(corpus, query, retrieved, args.method, args.n,
                               table=table, lam=args.lam, top_k=args.topk)
    payload = {
        "query": args.query,
        "method": args.method,
        "words": [{"token": corpus.vocab.token_of(w), "score": s}
                  for w, s in cs.words],
    }
    _emit(payload, args)


def _fit_queries(args) -> list[str]:
    queries = list(args.query or [])
    if args.queries:
        if not os.path.exists(args.queries):
            raise ValidationError(f"queries file not found: {args.queries}")
        with open(args.queries) as fh:
            queries.extend(q.strip() for q in fh if q.strip())
    if not queries:
        raise ValidationError("at least one --query (or --queries file) is required")
    return queries


def cmd_fit(args) -> None:
    queries = _fit_queries(args)
    if args.method == "rel" and not args.embeddings:
        raise ValidationError("--method rel requires --embeddings")
    if args.target_label and len(args.target_label) != len(queries):
        raise ValidationError("--target-label count must match query count")
    hp = Hyperparameters(alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                         initial_topics=max(args.k_init, len(queries) + 1),
                         cosine_threshold=args.tau, promotion_weight=args.u,
                         n_representatives=args.m, prevalence_floor=args.floor)
    hp.validate(n_queries=len(queries))
    corpus = _load_corpus(args)
    table = _load_embeddings(args, corpus)
    result = fit_topics(
        corpus, queries, args.method, hp=hp, embeddings=table, seed=args.seed,
        iterations_phase1=args.iters1, iterations_phase2=args.iters2,
        mode=args.mode, retrieval_cutoff=args.top, mu=args.mu,
        n_concepts=args.n, lam=args.lam, sim_top_k=args.topk,
        target_labels=args.target_label, full_posterior=args.full_posterior,
        checkpoint_path=args.checkpoint)
    _emit(result.to_dict(), args)


def cmd_eval(args) -> None:
    corpus = _load_corpus(args)
    table = _load_embeddings(args, corpus)
    if not os.path.exists(args.result):
        raise ValidationError(f"result file not found: {args.result}")
    with open(args.result) as fh:
        result = json.load(fh)
    if result.get("format") != "qdtm-result-v1":
        raise ValidationError(f"unsupported result format: {result.get('format')!r}")

    if args.labels:
        if not os.path.exists(args.labels):
            raise ValidationError(f"labels file not found: {args.labels}")
        with open(args.labels) as fh:
            labels = json.load(fh)
    else:
        labels = {d.doc_id: d.label for d in corpus.documents if d.label}

    doc_order = {d.doc_id: j for j, d in enumerate(corpus.documents)}
    vocab_index = corpus.vocab.index
    report = {"queries": []}
    for q in result["queries"]:
        target = q.get("target_label") or q["query"]
        relevant = {doc_id for doc_id, lab in labels.items() if lab == target}
        entry = {"query": q["query"], "target_label": target}
        scores = q.get("parent_doc_scores", {})
        if relevant and scores:
            ranked = sorted(scores, key=lambda d: (-scores[d], doc_order.get(d, 0)))
            k = min(len(relevant), len(ranked))
            entry["precision_at_k"] = precision_at_k(ranked, relevant, k)
            entry["k"] = k
        else:
            entry["precision_at_k"] = None
        parent_words = [(w, s) for w, s in q["parent"]["top_words"]]
        sub_lists = [[(w, s) for w, s in st["top_words"]] for st in q["subtopics"]]
        entry.update(subtopic_report(parent_words, sub_lists, table, vocab_index))
        entry["npmi"] = npmi_coherence([w for w, _ in parent_words], corpus)
        report["queries"].append(entry)
    _emit(report, args)


def cmd_synth(args) -> None:
    spec = SyntheticSpec(n_topics=args.topics, vocab_size=args.vocab,
                         n_docs=args.docs, doc_length=args.doc_length,
                         rare_topic_prevalence=args.rare_prevalence,
                         seed=args.seed)
    records, truth = generate(spec)
    write_jsonl(records, args.out)
    truth_path = args.truth_out or args.out + ".truth.json"
    with open(truth_path, "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
    if args.embeddings_out:
        write_embeddings(block_embeddings(spec), args.embeddings_out)
    _write_manifest(args)


COMMANDS = {
    "retrieve": cmd_retrieve,
    "expand": cmd_expand,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "synth": cmd_synth,
}

def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = apply_config(parser, args, argv)
        COMMANDS[args.command](args)
    except ValueError as e:   # every qdtm validation error is a ValueError
        print(json.dumps({"error": "validation", "message": str(e)}), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # noqa: BLE001 - map anything else to a runtime failure
        print(json.dumps({"error": "runtime", "message": str(e)}), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
