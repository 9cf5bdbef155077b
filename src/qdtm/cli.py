"""Command-line surface: retrieve, expand, fit, eval, synth."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import __version__
from .concepts import METHODS, extract_concept_words
from .corpus import PreprocessOptions, ingest_jsonl, text_lines
from .embeddings import load_embeddings
from .metrics import npmi_coherence, subtopic_report
from .pipeline import RESULT_FORMAT_TAG, FitConfig, atomic_write, fit_topics
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


def _retrieval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["and", "or"], default=FitConfig.mode)
    p.add_argument("--top", type=int, default=FitConfig.retrieval_cutoff)
    p.add_argument("--mu", type=float, default=FitConfig.mu)


def _expansion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default=FitConfig.method)
    p.add_argument("--n", type=int, default=FitConfig.n_concepts, help="concept words per query")
    p.add_argument("--lambda", dest="lam", type=float, default=FitConfig.lam)
    p.add_argument("--topk", type=int, default=FitConfig.sim_top_k)
    p.add_argument("--embeddings", default=None)


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
    _retrieval_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("expand", help="extract concept words for a query")
    _corpus_args(p)
    p.add_argument("--query", required=True)
    _retrieval_args(p)
    _expansion_args(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("fit", help="run the full two-phase topic model")
    _corpus_args(p)
    p.add_argument("--query", action="append", default=None,
                   help="query phrase (repeatable)")
    p.add_argument("--queries", default=None, help="file with one query per line")
    _retrieval_args(p)
    _expansion_args(p)
    p.add_argument("--iters1", type=int, default=FitConfig.iterations_phase1)
    p.add_argument("--iters2", type=int, default=FitConfig.iterations_phase2)
    p.add_argument("--seed", type=int, default=FitConfig.seed)
    p.add_argument("--alpha", type=float, default=Hyperparameters.alpha)
    p.add_argument("--beta", type=float, default=Hyperparameters.beta)
    p.add_argument("--gamma", type=float, default=Hyperparameters.gamma)
    p.add_argument("--u", type=float, default=Hyperparameters.promotion_weight)
    p.add_argument("--tau", type=float, default=Hyperparameters.cosine_threshold)
    p.add_argument("--m", type=int, default=Hyperparameters.n_representatives)
    p.add_argument("--floor", type=float, default=Hyperparameters.prevalence_floor)
    p.add_argument("--k-init", type=int, default=Hyperparameters.initial_topics)
    p.add_argument("--target-label", action="append", default=None)
    p.add_argument("--full-posterior", action="store_true")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate a fit result")
    _corpus_args(p)
    p.add_argument("--result", required=True)
    p.add_argument("--embeddings", default=None, help="word vectors for subtopic cohesion")
    p.add_argument("--labels", default=None,
                   help="JSON mapping doc id -> label; defaults to corpus labels")
    p.add_argument("--out", default=None)

    p = sub.add_parser("synth", help="generate a synthetic corpus + ground truth")
    p.add_argument("--topics", type=int, default=SyntheticSpec.n_topics)
    p.add_argument("--vocab", type=int, default=SyntheticSpec.vocab_size)
    p.add_argument("--docs", type=int, default=SyntheticSpec.n_docs)
    p.add_argument("--doc-length", type=int, default=SyntheticSpec.doc_length)
    p.add_argument("--rare-prevalence", type=float, default=SyntheticSpec.rare_topic_prevalence)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--embeddings-out", default=None)
    p.add_argument("--out", required=True, help="output JSONL corpus path")
    p.add_argument("--truth-out", default=None,
                   help="ground-truth JSON path (default: <out>.truth.json)")

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """Convert a config value as argparse converts the flag's arguments."""
    if isinstance(action, argparse._StoreTrueAction) and isinstance(value, bool):
        return value
    if value is None and action.default is None:
        return None
    append = isinstance(action, argparse._AppendAction)
    items = value if append and isinstance(value, list) else [value]
    if action.nargs != 0 and all(type(v) in (str, int, float) for v in items):
        try:
            items = [action.type(str(v)) if action.type else str(v) for v in items]
        except ValueError:
            pass
        else:
            if action.choices is None or all(v in action.choices for v in items):
                return items if append else items[0]
    raise ValidationError(f"config key {key!r}: invalid value {value!r}")


def apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                 argv: list[str]) -> argparse.Namespace:
    """Overlay config-file values under explicitly passed flags.

    A config key is the dest (`lam`) or the flag name (`lambda`) of one of
    the command's options; other keys are rejected. Values are converted and
    checked like the flag's arguments. A flag present on the command line
    always wins; otherwise the config value replaces the default.
    """
    if not args.config:
        return args
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt: a for a in sub.choices[args.command]._actions
               for opt in a.option_strings if a.dest != "help"}
    by_dest = {a.dest: a for a in options.values()}
    explicit = set()
    for a in argv:
        if a.startswith("--"):
            flag = a.split("=", 1)[0]
            # argparse also accepts an unambiguous prefix of a long option
            matches = [o for o in options if o == flag] or [
                o for o in options if o.startswith(flag)]
            if len(matches) == 1:
                explicit.add(options[matches[0]].dest)
    for key, value in cfg.items():
        action = by_dest.get(key) or options.get(f"--{key}")
        if action is None:
            raise ValidationError(f"unknown config key: {key!r}")
        value = _config_value(action, key, value)
        if action.dest not in explicit:
            setattr(args, action.dest, value)
    return args


# The options that name a file some command reads, and a file it writes.
INPUT_DESTS = ("config", "corpus", "stopwords", "queries", "embeddings", "result", "labels")
OUTPUT_DESTS = ("out", "truth_out", "embeddings_out", "checkpoint")


def _truth_path(args) -> str:
    return args.truth_out or args.out + ".truth.json"


def _check_paths(args) -> None:
    """Before any work: every input exists, no path is a directory, an existing
    checkpoint is a regular file, and no output lies in a missing directory or is
    (after `realpath`) another output or an input."""
    def named(dests):
        return [(f"--{d.replace('_', '-')}", getattr(args, d)) for d in dests
                if getattr(args, d, None)]
    inputs, outputs = named(INPUT_DESTS), named(OUTPUT_DESTS)
    if args.out:
        outputs.append(("the manifest of --out", args.out + ".manifest.json"))
    if args.command == "synth" and not args.truth_out:
        outputs.append(("the default --truth-out", _truth_path(args)))
    for flag, path in inputs:
        if not os.path.exists(path):
            raise ValidationError(f"{flag} file not found: {path}")
    for flag, path in inputs + outputs:
        if os.path.isdir(path):
            raise ValidationError(f"{flag} path is a directory: {path}")
        if flag == "--checkpoint" and os.path.exists(path) and not os.path.isfile(path):
            raise ValidationError(f"{flag} is not a regular file: {path}")   # read, then replaced
    taken = {os.path.realpath(path): flag for flag, path in inputs}
    for flag, path in outputs:
        real = os.path.realpath(path)
        if not os.path.isdir(os.path.dirname(real)):
            raise ValidationError(f"{flag} directory not found: {path}")
        if real in taken:
            raise ValidationError(f"{flag} and {taken[real]} name the same file: {path}")
        taken[real] = flag


def _lines(args, dest: str) -> list[str]:
    """The stripped, non-blank lines of the file that option `dest` names, if any."""
    path = getattr(args, dest)
    lines = text_lines(path, ValidationError, f"--{dest} file ") if path else ()
    return [s for _, line in lines if (s := line.strip())]


def _load_corpus(args):
    options = PreprocessOptions(lowercase=not args.keep_case, min_df=args.min_df,
                                stopwords=frozenset(_lines(args, "stopwords")))
    return ingest_jsonl(args.corpus, options)


def _load_embeddings(args, corpus):
    return load_embeddings(args.embeddings, corpus.vocab) if args.embeddings else None


def _write_manifest(args: argparse.Namespace) -> None:
    manifest = {**vars(args), "qdtm_version": __version__}
    with atomic_write(args.out + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, allow_nan=False)


def _emit(payload: dict, args: argparse.Namespace) -> None:
    """Print the payload, or write it to `--out` together with its manifest
    (none beside a FIFO or a device)."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(text + "\n")
        if os.path.isfile(args.out):
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
            {"doc_id": corpus.doc_ids[i], "log_score": s}
            for i, s in result.entries
        ],
    }
    _emit(payload, args)


def cmd_expand(args) -> None:
    corpus = _load_corpus(args)
    table = _load_embeddings(args, corpus)
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
    queries = [*(args.query or []), *_lines(args, "queries")]
    if not queries:
        raise ValidationError("at least one --query (or --queries file) is required")
    return queries


def cmd_fit(args) -> None:
    queries = _fit_queries(args)
    hp = Hyperparameters(alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                         initial_topics=max(args.k_init, len(queries) + 1),
                         cosine_threshold=args.tau, promotion_weight=args.u,
                         n_representatives=args.m, prevalence_floor=args.floor)
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


def _read_json(path: str, what: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{what} file {path}: invalid JSON ({e})") from None


def _doc_scores(q: dict) -> dict:
    """The parent_doc_scores of a result's query, by which eval ranks documents."""
    scores = q.get("parent_doc_scores", {})
    if not isinstance(scores, dict) or not all(
            type(v) in (int, float) and math.isfinite(v) for v in scores.values()):
        raise ValueError(f"parent_doc_scores of query {q['query']!r} must map doc ids "
                         "to finite numbers")
    return scores


def _top_words(q: dict, field: str, entries) -> list[tuple[str, float]]:
    """The [word, weight] pairs of a result's top-word list `field`: each a
    string and a probability, a finite number in [0, 1] that is not a bool."""
    pairs = [(w, s) for w, s in entries]
    for w, s in pairs:
        if not (isinstance(w, str) and type(s) in (int, float) and 0 <= s <= 1):
            raise ValueError(f"{field} of query {q['query']!r} must hold [word, weight] "
                             f"pairs of a string and a number in [0, 1], got {[w, s]!r}")
    return pairs


def _result_queries(path: str) -> list[dict]:
    """The query entries of a fit result file, reduced to what eval reads."""
    result = _read_json(path, "result")
    fmt = result.get("format") if isinstance(result, dict) else None
    if fmt != RESULT_FORMAT_TAG:
        raise ValidationError(f"unsupported result format: {fmt!r}")
    try:
        return [{"query": q["query"],
                 "target_label": q.get("target_label"),
                 "scores": _doc_scores(q),
                 "parent": _top_words(q, "parent.top_words", q["parent"]["top_words"]),
                 "subtopics": [_top_words(q, f"subtopics[{i}].top_words", st["top_words"])
                               for i, st in enumerate(q["subtopics"])]}
                for q in result["queries"]]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        problem = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ValidationError(f"result file {path}: malformed result, {problem}") from None


def cmd_eval(args) -> None:
    corpus = _load_corpus(args)
    table = _load_embeddings(args, corpus)
    queries = _result_queries(args.result)
    if args.labels:
        labels = _read_json(args.labels, "labels")
        if not isinstance(labels, dict):
            raise ValidationError(f"labels file {args.labels}: expected a JSON object "
                                  f"mapping doc id to label, got {type(labels).__name__}")
    else:
        labels = {i: label for i, label in zip(corpus.doc_ids, corpus.labels) if label}

    doc_order = {doc_id: j for j, doc_id in enumerate(corpus.doc_ids)}
    vocab = corpus.vocab
    report = {"queries": []}
    for q in queries:
        target, scores, parent_words = q["target_label"] or q["query"], q["scores"], q["parent"]
        unknown = [w for w, _ in parent_words if w not in vocab]
        if unknown:
            raise ValidationError(f"result file {args.result}: word {unknown[0]!r} is not "
                                  f"in the vocabulary of {args.corpus}; was the result "
                                  "fitted on another corpus?")
        relevant = {doc_id for doc_id, lab in labels.items() if lab == target}
        if q["target_label"] and not relevant:
            raise ValidationError(f"target label {target!r} of query {q['query']!r} is "
                                  "carried by no document")
        entry = {"query": q["query"], "target_label": target}
        if relevant and scores:
            ranked = sorted(scores, key=lambda d: (-scores[d], doc_order.get(d, 0)))
            k = min(len(relevant), len(ranked))
            entry["precision_at_k"] = precision_at_k(ranked, relevant, k)
            entry["k"] = k
        else:
            entry["precision_at_k"] = None
        entry.update(subtopic_report(parent_words, q["subtopics"], table, vocab.index))
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
    with atomic_write(_truth_path(args)) as fh:
        json.dump(truth, fh, indent=2, sort_keys=True, allow_nan=False)
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
        _check_paths(args)
        COMMANDS[args.command](args)
    except ValueError as e:   # every qdtm validation error is a ValueError
        print(json.dumps({"error": "validation", "message": str(e)}), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:  # noqa: BLE001 - map anything else to a runtime failure
        message = str(e) or type(e).__name__   # str(MemoryError()) is empty
        print(json.dumps({"error": "runtime", "message": message}), file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
