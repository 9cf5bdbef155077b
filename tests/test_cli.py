import base64
import copy
import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qdtm
from qdtm.cli import (COMMANDS, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, INPUT_DESTS,
                      build_parser, main)
from qdtm.corpus import ingest_jsonl
from qdtm.pipeline import RESULT_FORMAT_TAG, FitConfig
from qdtm.sampler import HDPSampler, Hyperparameters
from qdtm.synth import SyntheticSpec

from helpers import CHECKPOINT_ARRAYS, checkpoint_array, edit_checkpoint_array

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qdtm.__file__)))


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main(["synth", "--topics", "4", "--vocab", "120", "--docs", "80",
                 "--doc-length", "25", "--rare-prevalence", "0.05",
                 "--seed", "1", "--out", str(path),
                 "--embeddings-out", str(tmp_path / "vec.txt")]) == EXIT_OK
    return path


def test_synth_writes_corpus_truth_manifest(small_corpus, tmp_path):
    assert small_corpus.exists()
    truth = json.loads((tmp_path / "corpus.jsonl.truth.json").read_text())
    assert truth["rare_topic"] == "topic3"
    manifest = json.loads((tmp_path / "corpus.jsonl.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert "qdtm_version" in manifest
    assert (tmp_path / "vec.txt").exists()


def test_synth_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["synth", "--topics", "4", "--vocab", "100", "--docs", "60",
            "--seed", "9", "--rare-prevalence", "0.05"]
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_retrieve_to_stdout(small_corpus, capsys):
    assert main(["retrieve", "--corpus", str(small_corpus),
                 "--query", "w0000 w0001", "--top", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == "w0000 w0001"
    assert 0 < len(payload["documents"]) <= 5
    scores = [d["log_score"] for d in payload["documents"]]
    assert scores == sorted(scores, reverse=True)


def test_expand_kld(small_corpus, capsys):
    assert main(["expand", "--corpus", str(small_corpus),
                 "--query", "w0000", "--method", "kld", "--n", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["words"]) == 5
    assert all(w["score"] > 0 for w in payload["words"])


def test_missing_corpus_is_validation_error(tmp_path, capsys):
    rc = main(["retrieve", "--corpus", str(tmp_path / "nope.jsonl"),
               "--query", "x"])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"


def test_oov_and_query_is_validation_error(small_corpus, capsys):
    rc = main(["retrieve", "--corpus", str(small_corpus),
               "--query", "zzz qqq", "--mode", "and"])
    assert rc == EXIT_VALIDATION


def test_fit_rel_without_embeddings_rejected(small_corpus, tmp_path, capsys):
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--method", "rel", "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_VALIDATION
    assert not (tmp_path / "r.json").exists()


def test_fit_target_label_count_mismatch(small_corpus, tmp_path):
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--target-label", "a", "--target-label", "b",
               "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_VALIDATION


@pytest.mark.parametrize("flag", ["--iters1", "--iters2"])
@pytest.mark.parametrize("value", ["-5", "0"])
def test_fit_iterations_below_one_rejected(small_corpus, tmp_path, capsys, flag, value):
    out = tmp_path / "r.json"
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--iters1", "5", "--iters2", "5", flag, value, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert "iterations_phase" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_config_overlay_and_unknown_key(small_corpus, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"top": 3}))
    assert main(["--config", str(cfg), "retrieve", "--corpus",
                 str(small_corpus), "--query", "w0000"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["documents"]) <= 3

    # explicit flag wins over config
    assert main(["--config", str(cfg), "retrieve", "--corpus",
                 str(small_corpus), "--query", "w0000", "--top", "1"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["documents"]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert main(["--config", str(bad), "retrieve", "--corpus",
                 str(small_corpus), "--query", "w0000"]) == EXIT_VALIDATION


def test_fit_then_eval_smoke(small_corpus, tmp_path, capsys):
    out = tmp_path / "result.json"
    rc = main(["fit", "--corpus", str(small_corpus),
               "--query", "w0090 w0091", "--mode", "and",
               "--method", "kld", "--n", "5",
               "--iters1", "25", "--iters2", "15", "--seed", "3",
               "--target-label", "topic3",
               "--embeddings", str(tmp_path / "vec.txt"),
               "--out", str(out)])
    capsys.readouterr()
    assert rc == EXIT_OK
    result = json.loads(out.read_text())
    assert result["format"] == "qdtm-result-v1"
    assert result["queries"][0]["subtopics"]
    assert (tmp_path / "result.json.manifest.json").exists()

    rc = main(["eval", "--corpus", str(small_corpus),
               "--result", str(out),
               "--embeddings", str(tmp_path / "vec.txt")])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    entry = report["queries"][0]
    assert entry["target_label"] == "topic3"
    assert entry["precision_at_k"] is not None
    assert entry["diversity"] is not None
    assert "npmi" in entry


def test_eval_with_top_words_in_every_document_has_finite_npmi(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{j:02d}", "text": f"alpha beta w{j % 7} v{j % 5} u{j % 3}"}) + "\n"
        for j in range(30)))
    out = tmp_path / "result.json"
    assert main(["fit", "--corpus", str(corpus), "--query", "alpha beta",
                 "--method", "fre", "--iters1", "5", "--iters2", "3",
                 "--out", str(out)]) == EXIT_OK
    parent = json.loads(out.read_text())["queries"][0]["parent"]["top_words"]
    assert {w for w, _ in parent[:2]} == {"alpha", "beta"}
    capsys.readouterr()
    assert main(["eval", "--corpus", str(corpus), "--result", str(out)]) == EXIT_OK
    npmi = json.loads(capsys.readouterr().out)["queries"][0]["npmi"]
    assert math.isfinite(npmi) and -1.0 <= npmi <= 1.0


def test_failed_run_keeps_existing_out_file(small_corpus, tmp_path, capsys):
    out = tmp_path / "r.json"
    out.write_bytes(b"x\n")
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "zzzz",
               "--out", str(out)])
    assert rc == EXIT_VALIDATION
    assert out.read_bytes() == b"x\n"
    assert not (tmp_path / "r.json.manifest.json").exists()
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("r.json")) == [
        "r.json"]   # no temp file left behind


def _retrieve_to(small_corpus, out) -> int:
    return main(["retrieve", "--corpus", str(small_corpus), "--query", "w0000",
                 "--top", "3", "--out", str(out)])


def test_out_symlink_keeps_the_link_and_replaces_its_target(small_corpus, tmp_path):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert _retrieve_to(small_corpus, link) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["query"] == "w0000"
    assert (tmp_path / "link.json.manifest.json").exists()


def test_out_fifo_is_written_in_place_without_a_manifest(small_corpus, tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    assert _retrieve_to(small_corpus, fifo) == EXIT_OK
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received and json.loads(received[0])["query"] == "w0000"
    assert not (tmp_path / "out.fifo.manifest.json").exists()


def _expand_manifest(small_corpus, tmp_path, cfg: dict, flags: list[str]) -> dict:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "words.json"
    assert main(["--config", str(path), "expand", "--corpus", str(small_corpus),
                 "--query", "w0000", "--out", str(out), *flags]) == EXIT_OK
    return json.loads((tmp_path / "words.json.manifest.json").read_text())


def test_config_key_resolves_by_dest_and_flag_name(small_corpus, tmp_path):
    # the dest `lam` must not override the explicit flag `--lambda`
    manifest = _expand_manifest(small_corpus, tmp_path, {"lam": 0.9}, ["--lambda", "0.1"])
    assert manifest["lam"] == 0.1
    # the flag name `lambda` is a valid key for the dest `lam`
    assert _expand_manifest(small_corpus, tmp_path, {"lambda": 0.9}, [])["lam"] == 0.9
    manifest = _expand_manifest(small_corpus, tmp_path, {"lambda": 0.9}, ["--lambda=0.2"])
    assert manifest["lam"] == 0.2
    # keys that are not options of the command are rejected, not applied
    bad = tmp_path / "bad.json"
    for key in ("command", "help", "config"):
        bad.write_text(json.dumps({key: "synth"}))
        assert main(["--config", str(bad), "expand", "--corpus", str(small_corpus),
                     "--query", "w0000"]) == EXIT_VALIDATION


@pytest.mark.parametrize("flag, name", [("--alpha", "alpha"), ("--beta", "beta"),
                                        ("--gamma", "gamma"),
                                        ("--tau", "cosine_threshold"), ("--mu", "mu")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_fit_non_finite_value_is_validation_error(small_corpus, tmp_path, capsys,
                                                  flag, name, value):
    out = tmp_path / "r.json"
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--iters1", "1", "--iters2", "1", flag, value, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert name in err["message"]
    assert not out.exists()


def _fit_with_checkpoint(corpus, tmp_path, *flags):
    return main(["fit", "--corpus", str(corpus), "--query", "w0000",
                 "--iters1", "2", "--iters2", "1", "--checkpoint", str(tmp_path / "ck.json"),
                 "--out", str(tmp_path / "r.json"), *flags])


@pytest.mark.parametrize("change", ["corpus", "query", "alpha", "v1", "v2"])
def test_mismatched_checkpoint_is_validation_error(small_corpus, tmp_path, capsys, change):
    assert _fit_with_checkpoint(small_corpus, tmp_path) == EXIT_OK
    ckpt = tmp_path / "ck.json"
    corpus, flags = small_corpus, []
    if change == "corpus":
        corpus = tmp_path / "other.jsonl"
        assert main(["synth", "--topics", "4", "--vocab", "120", "--docs", "60",
                     "--seed", "2", "--out", str(corpus)]) == EXIT_OK
    elif change == "query":
        flags = ["--query", "w0001"]
    elif change == "alpha":
        flags = ["--alpha", "2.0"]
    else:
        state = json.loads(ckpt.read_text())
        state["format"] = f"qdtm-checkpoint-{change}"
        if change == "v1":
            del state["fingerprint"]
        ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert _fit_with_checkpoint(corpus, tmp_path, *flags) == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and str(ckpt) in err["message"]
    assert ckpt.read_bytes() == before


def _pinned_token(corpus_path, result_path):
    """(document, position in the token stream) of the first token of a
    concept word of the result."""
    corpus = ingest_jsonl(str(corpus_path))
    result = json.loads(result_path.read_text())
    pinned = {corpus.vocab.id_of(w) for w, _ in result["queries"][0]["concept_words"]}
    tokens = [(j, w) for j, doc in enumerate(corpus.documents) for w in doc.tokens]
    return next((j, p) for p, (j, w) in enumerate(tokens) if w in pinned)


@pytest.mark.parametrize("case, message", [
    ("negative_table", "t[0][0] = -2 is not a table of document 0"),
    ("table_past_the_last", "t[0][0] = 999 is not a table of document 0"),
    ("table_past_the_stream", "t[0][0] = 2147483647 is not a table of document 0"),
    ("token_at_a_dead_table", "t[0][0] = 0 is a dead table"),
    ("topic_below_minus_one", "table_topic[0][0] = -5 is neither a topic id nor -1"),
    ("live_table_without_a_token", "is live but seats no token"),
    ("flag_without_a_promotion_row", "flags[0][0] = 1 on word"),
    ("flag_neither_0_nor_1", "flags[0][0] = 2 is neither 0 nor 1"),
    ("pinned_word_off_its_parent", "is pinned to a parent topic but its table serves"),
    ("next_topic_not_above_the_live_ids", "is not an int64 above every live topic id"),
    ("next_topic_past_int64", "next_topic = 18446744073709551616 is not an int64"),
    ("next_topic_no_sweep_reaches", "next_topic = 9223372036854775807 is above "),
    ("rng_not_a_dict", "rng is not a PCG64 generator state: 'x'"),
    ("rng_without_its_state", "rng is not a PCG64 generator state: {'bit_generator': 'PCG64'}"),
    ("rng_with_an_empty_state", "generator state: {'bit_generator': 'PCG64', 'state': {}, "),
    ("rng_state_a_string", "generator state: {'bit_generator': 'PCG64', 'state': {'state': '12'"),
    ("rng_state_negative", "rng is not a PCG64 generator state: "),
    ("rng_has_uint32_a_string", "'has_uint32': 'x'"),
    ("rng_of_another_generator", "rng is not a PCG64 generator state: "),
    ("flags_null", "flags must be base64 text"),
    ("t_not_base64", "t must be base64 text"),
    ("t_not_ascii", "t must be base64 text"),
    ("flags_one_entry_short", "flags holds 1999 bytes, not 2000"),
    ("table_topic_not_whole_entries", "table_topic holds"),
    ("n_tab_negative", "n_tab[0] = -1 is not a table count of document 0, which has 25"),
    ("n_tab_above_the_document_length", "n_tab[0] = 26 is not a table count of document 0"),
    ("n_tab_disagreeing_with_table_topic", "tables of n_tab"),
    ("n_tab_missing", "the checkpoint has no n_tab"),
])
def test_corrupt_checkpoint_is_validation_error_naming_the_field(
        small_corpus, tmp_path, capsys, case, message):
    assert _fit_with_checkpoint(small_corpus, tmp_path) == EXIT_OK
    state = json.loads((tmp_path / "ck.json").read_text())
    t, n_tab, topics = (checkpoint_array(state, key) for key in ("t", "n_tab", "table_topic"))

    def put(key, index, value):
        edit_checkpoint_array(state, key, lambda a: np.put(a, index, value))
    if case == "negative_table":
        put("t", 0, -2)
    elif case == "table_past_the_last":
        put("t", 0, 999)
    elif case == "table_past_the_stream":   # was an IndexError, exit 3
        put("t", 0, 2**31 - 1)
    elif case == "token_at_a_dead_table":
        put("t", 0, 0)
        put("table_topic", 0, -1)
    elif case == "topic_below_minus_one":
        put("table_topic", 0, -5)
    elif case == "live_table_without_a_token":   # a copy of document 0's first table
        put("n_tab", 0, n_tab[0] + 1)
        edit_checkpoint_array(state, "table_topic", lambda a: np.insert(a, n_tab[0], a[0]))
    elif case == "flag_without_a_promotion_row":   # no embeddings, so no word has a row
        put("flags", 0, 1)
    elif case == "flag_neither_0_nor_1":
        put("flags", 0, 2)
    elif case == "pinned_word_off_its_parent":
        j, p = _pinned_token(small_corpus, tmp_path / "r.json")
        put("table_topic", n_tab[:j].sum() + t[p], topics.max())
    elif case == "next_topic_not_above_the_live_ids":
        state["next_topic"] = int(topics.max())
    elif case == "next_topic_past_int64":
        state["next_topic"] = 2**64
    elif case == "next_topic_no_sweep_reaches":   # resumed with exit 0, then overflowed
        state["next_topic"] = 2**63 - 1
    elif case == "rng_not_a_dict":
        state["rng"] = "x"
    elif case == "rng_without_its_state":
        state["rng"] = {"bit_generator": "PCG64"}
    elif case == "rng_with_an_empty_state":
        state["rng"]["state"] = {}
    elif case == "rng_state_a_string":
        state["rng"]["state"]["state"] = "12"
    elif case == "rng_state_negative":
        state["rng"]["state"]["state"] = -1
    elif case == "rng_has_uint32_a_string":
        state["rng"]["has_uint32"] = "x"
    elif case == "rng_of_another_generator":
        state["rng"]["bit_generator"] = "MT19937"
    elif case == "flags_null":   # v2 read this as "no flags": every flag 0
        state["flags"] = None
    elif case == "t_not_base64":
        state["t"] = state["t"][:-4] + "!!!!"
    elif case == "t_not_ascii":
        state["t"] = state["t"][:-4] + "éé=="
    elif case == "flags_one_entry_short":
        edit_checkpoint_array(state, "flags", lambda a: a[:-1])
    elif case == "table_topic_not_whole_entries":
        raw = base64.b64decode(state["table_topic"]) + b"\0"
        state["table_topic"] = base64.b64encode(raw).decode()
    elif case == "n_tab_negative":
        put("n_tab", 0, -1)
    elif case == "n_tab_above_the_document_length":
        put("n_tab", 0, 26)
    elif case == "n_tab_disagreeing_with_table_topic":
        put("n_tab", 0, n_tab[0] + 1)
    else:
        del state["n_tab"]
    _assert_resume_rejected(small_corpus, tmp_path, capsys, state, message)


def _assert_resume_rejected(corpus, tmp_path, capsys, state, message):
    """Resuming from `state` exits 2 naming the checkpoint and `message`,
    and leaves the checkpoint as it was."""
    ckpt = tmp_path / "ck.json"
    ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()
    capsys.readouterr()
    assert _fit_with_checkpoint(corpus, tmp_path, "--iters1", "3") == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert str(ckpt) in err["message"] and message in err["message"], err["message"]
    assert ckpt.read_bytes() == before


@pytest.mark.parametrize("field", ["t", "table_topic", "flags", "n_tab"])
@pytest.mark.parametrize("value", [1.5, 0.0, "0", [0], None, 2**70])
def test_checkpoint_entry_that_is_not_an_int_is_validation_error(
        small_corpus, tmp_path, capsys, field, value):
    """An array field's entry in the checkpoint is base64 text of its ints;
    a number, a list, null or text that is not base64 in its place is
    rejected naming the field."""
    assert _fit_with_checkpoint(small_corpus, tmp_path) == EXIT_OK
    state = json.loads((tmp_path / "ck.json").read_text())
    state[field] = value
    _assert_resume_rejected(small_corpus, tmp_path, capsys, state,
                            f"{field} must be base64 text")


@pytest.fixture(scope="module")
def resumable(tmp_path_factory):
    """A small corpus and the checkpoint of a 2-sweep fit on it."""
    d = tmp_path_factory.mktemp("resumable")
    assert main(["synth", "--topics", "4", "--vocab", "120", "--docs", "80",
                 "--doc-length", "25", "--seed", "1", "--out", str(d / "corpus.jsonl")]) == EXIT_OK
    assert _fit_with_checkpoint(d / "corpus.jsonl", d) == EXIT_OK
    return d, json.loads((d / "ck.json").read_text())


ODD_VALUES = [None, True, 0, -1, 1.5, 2**64, "", "x", "AAAA", [], [[0]], {}]


def _corrupt(state: dict, key: str, how: str, draw) -> None:
    """Corrupt one field of a checkpoint: drop it, give it another JSON type,
    truncate or edit its text, or set one of its values out of range."""
    value = state[key]
    if how == "drop":
        del state[key]
    elif how == "truncate" and isinstance(value, str):
        state[key] = value[:draw(st.integers(0, len(value) - 1))]
    elif how == "edit" and isinstance(value, str):
        i = draw(st.integers(0, len(value) - 1))
        state[key] = value[:i] + draw(st.sampled_from("A/+=!é")) + value[i + 1:]
    elif how == "range" and key in CHECKPOINT_ARRAYS:
        info = np.iinfo(CHECKPOINT_ARRAYS[key])
        i = draw(st.integers(0, len(checkpoint_array(state, key)) - 1))
        v = draw(st.sampled_from([v for v in (info.min, -2, -1, 0, 1, 2, 25, 26, 999, info.max)
                                  if info.min <= v <= info.max]))
        edit_checkpoint_array(state, key, lambda a: np.put(a, i, v))
    elif how == "range" and key == "rng":
        state[key]["state"]["state"] = draw(st.sampled_from([-1, 0, 2**128 - 1, 2**128]))
    elif how == "range" and isinstance(value, int):
        state[key] = draw(st.sampled_from([-2**63 - 1, -1, 0, 1, 2**63 - 1, 2**63]))
    else:
        state[key] = draw(st.sampled_from(ODD_VALUES))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_corrupt_checkpoint_exits_0_or_2_and_is_kept_on_2(resumable, capsys, data):
    d, good = resumable
    state = copy.deepcopy(good)
    key = data.draw(st.sampled_from(sorted(good)), label="field")
    how = data.draw(st.sampled_from(["type", "truncate", "edit", "range", "drop"]), label="how")
    _corrupt(state, key, how, data.draw)
    ckpt = d / "ck.json"
    ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()
    capsys.readouterr()
    rc = _fit_with_checkpoint(d / "corpus.jsonl", d, "--iters1", "3")
    assert rc in (EXIT_OK, EXIT_VALIDATION)
    if rc == EXIT_VALIDATION:
        assert str(ckpt) in json.loads(capsys.readouterr().err)["message"]
        assert ckpt.read_bytes() == before


def test_checkpoint_ahead_of_iters1_is_validation_error(small_corpus, tmp_path, capsys):
    assert _fit_with_checkpoint(small_corpus, tmp_path, "--iters1", "8") == EXIT_OK
    state = json.loads((tmp_path / "ck.json").read_text())
    _assert_resume_rejected(small_corpus, tmp_path, capsys, state,
                            "it holds 8 phase-1 sweeps, more than iterations_phase1 = 3")
    assert _fit_with_checkpoint(small_corpus, tmp_path, "--iters1", "8") == EXIT_OK
    assert json.loads((tmp_path / "ck.json").read_text())["iterations_done"] == 8


def test_checkpoint_resumes_with_more_iterations_and_another_floor(small_corpus, tmp_path):
    assert _fit_with_checkpoint(small_corpus, tmp_path) == EXIT_OK
    assert _fit_with_checkpoint(small_corpus, tmp_path, "--iters1", "4",
                                "--floor", "0.01") == EXIT_OK
    assert json.loads((tmp_path / "ck.json").read_text())["iterations_done"] == 4


@pytest.mark.parametrize("cfg", [{"alpha": "abc"}, {"iters1": 2.5}, {"iters1": True},
                                 {"full_posterior": "no"}, {"method": "xyz"},
                                 {"query": [{"a": 1}]}, {"seed": None}])
def test_config_value_checked_like_its_flag(small_corpus, tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["--config", str(path), "fit", "--corpus", str(small_corpus),
               "--query", "w0000", "--iters1", "1", "--iters2", "1",
               "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and repr(next(iter(cfg))) in err["message"]


def test_config_values_converted_like_flag_arguments(small_corpus, tmp_path):
    manifest = _expand_manifest(small_corpus, tmp_path, {"n": "4", "lambda": 1, "mode": "and"},
                                [])
    assert (manifest["n"], manifest["lam"], manifest["mode"]) == (4, 1.0, "and")
    assert isinstance(manifest["lam"], float)


@pytest.mark.parametrize("command", ["fit", "eval"])
def test_non_finite_embedding_value_is_validation_error(small_corpus, tmp_path, capsys,
                                                        command):
    result = tmp_path / "r.json"
    assert main(["fit", "--corpus", str(small_corpus), "--query", "w0090 w0091",
                 "--iters1", "2", "--iters2", "1", "--embeddings", str(tmp_path / "vec.txt"),
                 "--out", str(result)]) == EXIT_OK
    before = result.read_bytes()
    lines = (tmp_path / "vec.txt").read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.startswith("w0090 "))
    token, _, *rest = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join([token, "inf", *rest])   # w0090's first value
    bad = tmp_path / "vec_inf.txt"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.json"
    args = (["--query", "w0090 w0091", "--iters1", "2", "--iters2", "1"] if command == "fit"
            else ["--result", str(result)])
    capsys.readouterr()
    rc = main([command, "--corpus", str(small_corpus), *args, "--embeddings", str(bad),
               "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    assert f"line {lineno}: non-finite" in err["message"]
    assert not out.exists() and result.read_bytes() == before


def test_embedding_with_no_unit_direction_is_validation_error(small_corpus, tmp_path, capsys):
    lines = (tmp_path / "vec.txt").read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if line.startswith("w0090 "))
    token, *values = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join([token] + ["1e200"] * len(values))   # its square overflows
    bad = tmp_path / "vec_huge.txt"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    rc = main(["expand", "--corpus", str(small_corpus), "--query", "w0090", "--method", "rel",
               "--embeddings", str(bad)])
    assert rc == EXIT_VALIDATION
    assert f"line {lineno}: the vector's length" in json.loads(capsys.readouterr().err)["message"]


def test_duplicate_document_id_is_validation_error(small_corpus, tmp_path, capsys):
    corpus = tmp_path / "dup.jsonl"
    lines = small_corpus.read_text().splitlines()
    first = json.loads(lines[0])
    lines.append(json.dumps({"id": first["id"], "text": "w0001 w0002"}))
    corpus.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    rc = main(["fit", "--corpus", str(corpus), "--query", "w0000",
               "--iters1", "1", "--iters2", "1", "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert f"duplicate document id: {first['id']!r}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("line", ["5", '"id text"'])
def test_corpus_line_that_is_not_an_object_is_validation_error(small_corpus, tmp_path,
                                                               capsys, line):
    corpus = tmp_path / "bad.jsonl"
    lines = small_corpus.read_text().splitlines()
    corpus.write_text("\n".join(lines[:2] + [line] + lines[2:]) + "\n")
    rc = main(["retrieve", "--corpus", str(corpus), "--query", "w0000"])
    assert rc == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["message"] == "line 3: expected a JSON object"


def test_uppercase_stopwords_match_lowercased_text(tmp_path, capsys):
    corpus, stopwords = tmp_path / "corpus.jsonl", tmp_path / "stop.txt"
    corpus.write_text(json.dumps({"id": "a", "text": "The aa bb"}) + "\n"
                      + json.dumps({"id": "b", "text": "the aa cc"}) + "\n")
    stopwords.write_text("The\nAA\n")
    assert main(["expand", "--corpus", str(corpus), "--stopwords", str(stopwords),
                 "--method", "fre", "--query", "bb"]) == EXIT_OK
    words = {w["token"] for w in json.loads(capsys.readouterr().out)["words"]}
    assert words == {"bb"}


@pytest.mark.parametrize("command, flag, value, message", [
    ("synth", "--docs", "0", "n_docs must be >= 1, got 0"),
    ("synth", "--doc-length", "0", "doc_length must be >= 1, got 0"),
    ("fit", "--tau", "2", "cosine_threshold must be in [-1, 1], got 2.0"),
    ("fit", "--tau", "-1.5", "cosine_threshold must be in [-1, 1], got -1.5"),
    ("fit", "--seed", "-1", "seed must be >= 0, got -1"),
    ("synth", "--seed", "-1", "seed must be >= 0, got -1"),
], ids=["docs", "doc-length", "tau-above", "tau-below", "fit-seed", "synth-seed"])
def test_out_of_range_value_is_validation_error(small_corpus, tmp_path, capsys,
                                                command, flag, value, message):
    out = tmp_path / "r.json"
    args = (["--corpus", str(small_corpus), "--query", "w0000", "--iters1", "1",
             "--iters2", "1"] if command == "fit" else [])
    rc = main([command, *args, flag, value, "--out", str(out)])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation" and message in err["message"]
    assert not out.exists()


def test_non_finite_json_output_is_an_error_that_keeps_existing_files(
        small_corpus, tmp_path, capsys, monkeypatch):
    assert _fit_with_checkpoint(small_corpus, tmp_path) == EXIT_OK
    ckpt, out = tmp_path / "ck.json", tmp_path / "r.json"
    ckpt_before, out_before = ckpt.read_bytes(), out.read_bytes()
    state_dict = HDPSampler.state_dict
    monkeypatch.setattr(HDPSampler, "state_dict",
                        lambda self: {**state_dict(self), "bad": float("nan")})
    capsys.readouterr()
    assert _fit_with_checkpoint(small_corpus, tmp_path, "--iters1", "3") == EXIT_VALIDATION
    assert "not JSON compliant" in json.loads(capsys.readouterr().err)["message"]
    assert ckpt.read_bytes() == ckpt_before and out.read_bytes() == out_before
    # a NaN in a payload fails before `--out` is touched
    monkeypatch.setattr("qdtm.cli.npmi_coherence", lambda words, corpus: float("nan"))
    report = tmp_path / "report.json"
    report.write_bytes(b"old\n")
    assert main(["eval", "--corpus", str(small_corpus), "--result", str(out),
                 "--out", str(report)]) == EXIT_VALIDATION
    assert report.read_bytes() == b"old\n"
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


# `vars(args)` of a minimal argv per subcommand, as the manifest records it;
# regrouping the option declarations must not drop, rename or re-default any.
PARSED = {
    "retrieve": (["--corpus", "c.jsonl", "--query", "q"], {
        "command": "retrieve", "config": None, "corpus": "c.jsonl", "keep_case": False,
        "min_df": 1, "mode": "or", "mu": 100.0, "out": None, "query": "q",
        "stopwords": None, "top": 200, "verbose": False}),
    "expand": (["--corpus", "c.jsonl", "--query", "q"], {
        "command": "expand", "config": None, "corpus": "c.jsonl", "embeddings": None,
        "keep_case": False, "lam": 0.5, "method": "kld", "min_df": 1, "mode": "or",
        "mu": 100.0, "n": 10, "out": None, "query": "q", "stopwords": None, "top": 200,
        "topk": 100, "verbose": False}),
    "fit": (["--corpus", "c.jsonl", "--query", "q", "--out", "r.json"], {
        "alpha": 1.0, "beta": 0.5, "checkpoint": None, "command": "fit", "config": None,
        "corpus": "c.jsonl", "embeddings": None, "floor": 0.005, "full_posterior": False,
        "gamma": 1.5, "iters1": 1000, "iters2": 500, "k_init": 8, "keep_case": False,
        "lam": 0.5, "m": 10, "method": "kld", "min_df": 1, "mode": "or", "mu": 100.0,
        "n": 10, "out": "r.json", "queries": None, "query": ["q"], "seed": 42,
        "stopwords": None, "target_label": None, "tau": 0.5, "top": 200, "topk": 100,
        "u": 0.3, "verbose": False}),
    "eval": (["--corpus", "c.jsonl", "--result", "r.json"], {
        "command": "eval", "config": None, "corpus": "c.jsonl", "embeddings": None,
        "keep_case": False, "labels": None, "min_df": 1, "out": None, "result": "r.json",
        "stopwords": None, "verbose": False}),
    "synth": (["--out", "c.jsonl"], {
        "command": "synth", "config": None, "doc_length": 40, "docs": 500,
        "embeddings_out": None, "out": "c.jsonl", "rare_prevalence": 0.02, "seed": 0,
        "topics": 6, "truth_out": None, "verbose": False, "vocab": 1000}),
}


@pytest.mark.parametrize("command", sorted(PARSED))
def test_parsed_options_are_pinned(command):
    argv, expected = PARSED[command]
    args = build_parser().parse_args([command, *argv])
    # JSON text, so that 1 and 1.0 differ as they do in the manifest
    assert json.dumps(vars(args), sort_keys=True) == json.dumps(expected, sort_keys=True)


# the `fit` flag of each `FitConfig` field and each `Hyperparameters` field
FIT_FLAGS = {"method": "method", "seed": "seed", "iters1": "iterations_phase1",
             "iters2": "iterations_phase2", "mode": "mode", "top": "retrieval_cutoff",
             "mu": "mu", "n": "n_concepts", "lam": "lam", "topk": "sim_top_k",
             "target_label": "target_labels", "full_posterior": "full_posterior"}
HP_FLAGS = {"alpha": "alpha", "beta": "beta", "gamma": "gamma", "k_init": "initial_topics",
            "tau": "cosine_threshold", "u": "promotion_weight", "m": "n_representatives",
            "floor": "prevalence_floor"}
# the `synth` flag of each `SyntheticSpec` field but `background_mass`
SYNTH_FLAGS = {"topics": "n_topics", "vocab": "vocab_size", "docs": "n_docs",
               "doc_length": "doc_length", "rare_prevalence": "rare_topic_prevalence",
               "seed": "seed"}


def test_fit_flag_defaults_are_the_fit_config_defaults():
    args = build_parser().parse_args(["fit", "--corpus", "c.jsonl", "--out", "r.json"])
    synth_args = build_parser().parse_args(["synth", "--out", "c.jsonl"])
    config = FitConfig()
    assert sorted(FIT_FLAGS.values()) == sorted(
        f.name for f in dataclasses.fields(FitConfig) if f.name != "hp")
    assert sorted(HP_FLAGS.values()) == sorted(f.name for f in dataclasses.fields(Hyperparameters))
    assert sorted(SYNTH_FLAGS.values()) == sorted(
        f.name for f in dataclasses.fields(SyntheticSpec) if f.name != "background_mass")
    for parsed, flags, defaults in ((args, FIT_FLAGS, config), (args, HP_FLAGS, config.hp),
                                    (synth_args, SYNTH_FLAGS, SyntheticSpec())):
        for dest, name in flags.items():
            assert getattr(parsed, dest) == getattr(defaults, name), dest


def test_every_fit_and_synth_flag_reaches_its_field(small_corpus, tmp_path, monkeypatch):
    """Each flag is set to a value that is neither its default nor any other
    flag's value, so a mapping that drops or swaps two fields fails here."""
    fit_values = {"method": "fre", "seed": 7, "iters1": 3, "iters2": 2, "mode": "and",
                  "top": 50, "mu": 80.0, "n": 6, "lam": 0.25, "topk": 20,
                  "target_label": ["topic3"], "full_posterior": True, "alpha": 0.9,
                  "beta": 0.4, "gamma": 1.2, "k_init": 9, "tau": 0.45, "u": 0.2, "m": 5,
                  "floor": 0.01}
    synth_values = {"topics": 3, "vocab": 90, "docs": 40, "doc_length": 12,
                    "rare_prevalence": 0.1, "seed": 4}
    parser = build_parser()
    for command, values, required in (("fit", fit_values, ["--corpus", "c", "--out", "r"]),
                                      ("synth", synth_values, ["--out", "c"])):
        defaults = vars(parser.parse_args([command, *required]))
        assert sorted(values) == sorted(FIT_FLAGS | HP_FLAGS if command == "fit"
                                        else SYNTH_FLAGS)
        assert all(defaults[dest] != value for dest, value in values.items())
        assert len({repr(value) for value in values.values()}) == len(values)

    def argv(values):
        flags = []
        for dest, value in values.items():
            flag = "--" + {"lam": "lambda"}.get(dest, dest).replace("_", "-")
            if value is True:
                flags.append(flag)
            else:
                for item in value if isinstance(value, list) else [value]:
                    flags += [flag, str(item)]
        return flags
    out = tmp_path / "r.json"
    assert main(["fit", "--corpus", str(small_corpus), "--query", "w0090",
                 "--embeddings", str(tmp_path / "vec.txt"), *argv(fit_values),
                 "--out", str(out)]) == EXIT_OK
    meta = json.loads(out.read_text())["metadata"]
    assert meta["embeddings"] is True
    for dest, name in FIT_FLAGS.items():
        assert meta[name] == fit_values[dest], dest
    for dest, name in HP_FLAGS.items():
        assert meta["hyperparameters"][name] == fit_values[dest], dest

    specs = []
    monkeypatch.setattr("qdtm.cli.generate", lambda spec: specs.append(spec) or ([], {}))
    assert main(["synth", *argv(synth_values), "--out", str(tmp_path / "c.jsonl")]) == EXIT_OK
    assert specs == [SyntheticSpec(**{name: synth_values[dest]
                                      for dest, name in SYNTH_FLAGS.items()})]


@pytest.mark.parametrize("topk", ["0", "-1"])
def test_expand_topk_below_one_is_validation_error(small_corpus, tmp_path, capsys, topk):
    rc = main(["expand", "--corpus", str(small_corpus), "--query", "w0001",
               "--method", "rel", "--embeddings", str(tmp_path / "vec.txt"), "--topk", topk])
    assert rc == EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert f"top_k must be >= 1, got {topk}" in err["message"]


def test_expand_rel_without_embeddings_is_validation_error(small_corpus, capsys):
    rc = main(["expand", "--corpus", str(small_corpus), "--query", "w0001",
               "--method", "rel"])
    assert rc == EXIT_VALIDATION
    assert "requires embeddings" in json.loads(capsys.readouterr().err)["message"]


def _fit_result(small_corpus, tmp_path):
    result = tmp_path / "r.json"
    assert main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
                 "--iters1", "2", "--iters2", "1", "--out", str(result)]) == EXIT_OK
    return result


def _eval_error(small_corpus, result, capsys, *flags) -> str:
    capsys.readouterr()
    out = result.parent / "report.json"
    rc = main(["eval", "--corpus", str(small_corpus), "--result", str(result), *flags,
               "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "validation"
    return err["message"]


def test_eval_labels_not_a_mapping_is_validation_error(small_corpus, tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(["doc00000", "topic3"]))
    message = _eval_error(small_corpus, _fit_result(small_corpus, tmp_path), capsys,
                          "--labels", str(labels))
    assert f"labels file {labels}: expected a JSON object" in message


def test_eval_malformed_labels_json_names_the_file(small_corpus, tmp_path, capsys):
    labels = tmp_path / "labels.json"
    labels.write_text('{"doc00000": ')
    message = _eval_error(small_corpus, _fit_result(small_corpus, tmp_path), capsys,
                          "--labels", str(labels))
    assert f"labels file {labels}: invalid JSON" in message


def test_eval_truncated_result_json_names_the_file(small_corpus, tmp_path, capsys):
    result = _fit_result(small_corpus, tmp_path)
    result.write_bytes(result.read_bytes()[:50])
    message = _eval_error(small_corpus, result, capsys)
    assert f"result file {result}: invalid JSON" in message


def test_eval_result_without_queries_is_validation_error(small_corpus, tmp_path, capsys):
    result = tmp_path / "r.json"
    result.write_text(json.dumps({"format": "qdtm-result-v1", "metadata": {}}))
    message = _eval_error(small_corpus, result, capsys)
    assert f"result file {result}: malformed result, missing key 'queries'" in message


def test_eval_result_of_another_corpus_is_validation_error(small_corpus, tmp_path, capsys):
    result = _fit_result(small_corpus, tmp_path)
    payload = json.loads(result.read_text())
    payload["queries"][0]["parent"]["top_words"][0][0] = "w9999"   # not in the corpus
    result.write_text(json.dumps(payload))
    message = _eval_error(small_corpus, result, capsys)
    assert f"result file {result}: word 'w9999' is not in the vocabulary" in message


@pytest.mark.parametrize("bad", ["list", "0.5", None, float("nan"), float("inf"), True, False])
def test_eval_parent_doc_scores_that_are_not_finite_numbers_are_validation_error(
        small_corpus, tmp_path, capsys, bad):
    result = _fit_result(small_corpus, tmp_path)
    payload = json.loads(result.read_text())
    query = payload["queries"][0]
    query["target_label"] = "topic3"   # carried in the corpus, so eval ranks the scores
    scores = query["parent_doc_scores"]
    if bad == "list":
        query["parent_doc_scores"] = list(scores)
    else:
        scores[next(iter(scores))] = bad
    result.write_text(json.dumps(payload))
    message = _eval_error(small_corpus, result, capsys)
    assert (f"result file {result}: malformed result, parent_doc_scores of query 'w0000' "
            "must map doc ids to finite numbers") in message


@pytest.mark.parametrize("where", ["parent", "subtopic"])
@pytest.mark.parametrize("bad", ["abc", None, float("nan"), True, -1.0], ids=repr)
def test_eval_top_word_weight_that_is_not_a_probability_is_validation_error(
        small_corpus, tmp_path, capsys, monkeypatch, where, bad):
    """"abc" and null exited 3 with a bare TypeError, NaN exited 2 only after the
    scoring with a message naming no field, true was read as 1, and -1.0 gave a
    null cohesion with exit 0."""
    def no_scoring(*args, **kwargs):
        raise AssertionError("eval scored a result it should have rejected")
    monkeypatch.setattr("qdtm.cli.subtopic_report", no_scoring)
    monkeypatch.setattr("qdtm.cli.npmi_coherence", no_scoring)
    result = _fit_result(small_corpus, tmp_path)
    payload = json.loads(result.read_text())
    query = payload["queries"][0]
    field, entries = (("parent.top_words", query["parent"]["top_words"]) if where == "parent"
                      else ("subtopics[0].top_words", query["subtopics"][0]["top_words"]))
    entries[0][1] = bad
    result.write_text(json.dumps(payload))
    message = _eval_error(small_corpus, result, capsys, "--embeddings", str(tmp_path / "vec.txt"))
    assert message.startswith(f"result file {result}: malformed result, {field} of query "
                              "'w0000' must hold [word, weight] pairs of a string and a "
                              f"number in [0, 1], got [{entries[0][0]!r}, {bad!r}]")


@pytest.mark.parametrize("flag, bad, message", [
    ("--out", "missing/r.json", "directory not found"),
    ("--checkpoint", "missing/ck.json", "directory not found"),
    ("--out", "", "path is a directory"),
])
def test_fit_unwritable_output_fails_before_any_work(small_corpus, tmp_path, capsys,
                                                     monkeypatch, flag, bad, message):
    def no_work(*args, **kwargs):
        raise AssertionError("fit loaded the corpus before checking its outputs")
    monkeypatch.setattr("qdtm.cli.ingest_jsonl", no_work)
    bad = str(tmp_path / bad)
    paths = {"--out": str(tmp_path / "r.json"), "--checkpoint": str(tmp_path / "ck.json"),
             flag: bad}
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--out", paths["--out"], "--checkpoint", paths["--checkpoint"]])
    assert rc == EXIT_VALIDATION
    assert f"{message}: {bad}" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "ck.json").exists()


@pytest.mark.parametrize("flag", ["--truth-out", "--embeddings-out"])
def test_synth_output_in_missing_directory_writes_nothing(tmp_path, capsys, flag):
    out, missing = tmp_path / "c.jsonl", tmp_path / "missing" / "file"
    assert main(["synth", "--docs", "50", "--out", str(out), flag, str(missing)]) == \
        EXIT_VALIDATION
    assert f"directory not found: {missing}" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_label_that_is_not_a_string_is_validation_error(tmp_path, capsys):
    corpus = tmp_path / "labelled.jsonl"
    corpus.write_text("".join(json.dumps({"id": f"d{j}", "text": f"aa bb w{j % 3}x",
                                          "label": ["x"]}) + "\n" for j in range(30)))
    out = tmp_path / "r.json"
    rc = main(["fit", "--corpus", str(corpus), "--query", "aa", "--target-label", "x",
               "--iters1", "2", "--iters2", "1", "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    assert "document 'd0': label must be a string or null, got ['x']" in \
        json.loads(capsys.readouterr().err)["message"]


def test_fit_target_label_no_document_carries_is_validation_error(small_corpus, tmp_path,
                                                                  capsys):
    out = tmp_path / "r.json"
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000",
               "--target-label", "topic9", "--iters1", "2", "--iters2", "1",
               "--out", str(out)])
    assert rc == EXIT_VALIDATION and not out.exists()
    assert "target label 'topic9' is carried by no document" in \
        json.loads(capsys.readouterr().err)["message"]


def test_eval_target_label_no_document_carries_is_validation_error(small_corpus, tmp_path,
                                                                   capsys):
    result = _fit_result(small_corpus, tmp_path)
    payload = json.loads(result.read_text())
    payload["queries"][0]["target_label"] = "topic9"
    result.write_text(json.dumps(payload))
    message = _eval_error(small_corpus, result, capsys)
    assert "target label 'topic9' of query 'w0000' is carried by no document" in message

    payload["queries"][0]["target_label"] = "topic3"   # carried in the corpus ...
    result.write_text(json.dumps(payload))
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"doc00000": "topic0"}))   # ... but not in --labels
    message = _eval_error(small_corpus, result, capsys, "--labels", str(labels))
    assert "target label 'topic3' of query 'w0000' is carried by no document" in message


def test_eval_fallback_target_label_keeps_null_precision(small_corpus, tmp_path, capsys):
    result = _fit_result(small_corpus, tmp_path)
    capsys.readouterr()
    assert main(["eval", "--corpus", str(small_corpus), "--result", str(result)]) == EXIT_OK
    entry = json.loads(capsys.readouterr().out)["queries"][0]
    assert entry["target_label"] == "w0000" and entry["precision_at_k"] is None


@pytest.mark.parametrize("argv, first, second", [
    (["synth", "--out", "{s}", "--truth-out", "{s}"], "--truth-out", "--out"),
    (["synth", "--out", "{s}", "--embeddings-out", "{s}"], "--embeddings-out", "--out"),
    (["synth", "--out", "{s}", "--truth-out", "{s}.manifest.json"],
     "the manifest of --out", "--truth-out"),
    (["synth", "--out", "{s}", "--embeddings-out", "{s}.truth.json"],
     "the default --truth-out", "--embeddings-out"),
    (["fit", "--corpus", "{c}", "--query", "w0000", "--out", "{c}"], "--out", "--corpus"),
    (["fit", "--corpus", "{link}", "--query", "w0000", "--out", "{c}"], "--out", "--corpus"),
    (["fit", "--corpus", "{c}", "--query", "w0000", "--out", "{r}", "--checkpoint", "{r}"],
     "--checkpoint", "--out"),
    (["fit", "--corpus", "{c}", "--query", "w0000", "--out", "{r}",
      "--checkpoint", "{r}.manifest.json"], "the manifest of --out", "--checkpoint"),
    (["fit", "--corpus", "{c}", "--query", "w0000", "--embeddings", "{v}", "--out", "{v}"],
     "--out", "--embeddings"),
    (["eval", "--corpus", "{c}", "--result", "{v}", "--out", "{v}"], "--out", "--result"),
])
def test_colliding_paths_fail_before_any_work(small_corpus, tmp_path, capsys, argv, first,
                                              second):
    (tmp_path / "link.jsonl").symlink_to(small_corpus)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    names = {"s": tmp_path / "s.jsonl", "c": small_corpus, "r": tmp_path / "r.json",
             "v": tmp_path / "vec.txt", "link": tmp_path / "link.jsonl"}
    rc = main([a.format(**names) for a in argv])
    assert rc == EXIT_VALIDATION
    assert f"{first} and {second} name the same file" in \
        json.loads(capsys.readouterr().err)["message"]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_synth_failed_write_keeps_the_previous_corpus(tmp_path, monkeypatch):
    out = tmp_path / "s.jsonl"
    out.write_text("previous\n")
    def no_sync(fd):
        raise OSError("disk full")
    monkeypatch.setattr(os, "fsync", no_sync)
    assert main(["synth", "--docs", "50", "--out", str(out)]) == EXIT_RUNTIME
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.jsonl"]


def test_a_checkpoint_that_is_not_a_regular_file_fails_before_any_work(small_corpus, tmp_path):
    """Bug ay: a FIFO named by --checkpoint exists, so fit opened it to resume
    and blocked for ever waiting for a writer. A subprocess with a timeout, so
    that the hang fails the test instead of stopping the suite."""
    fifo = tmp_path / "ck.fifo"
    os.mkfifo(fifo)
    out = subprocess.run([sys.executable, "-m", "qdtm.cli", "fit", "--corpus", str(small_corpus),
                          "--query", "w0000", "--iters1", "1", "--iters2", "1",
                          "--out", str(tmp_path / "r.json"), "--checkpoint", str(fifo)],
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == EXIT_VALIDATION
    assert json.loads(out.stderr)["message"] == f"--checkpoint is not a regular file: {fifo}"
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert not (tmp_path / "r.json").exists()


def test_a_runtime_failure_without_a_message_names_its_exception(tmp_path, monkeypatch, capsys):
    """Bug az: `synth --docs 99999999999999999999` printed an empty message,
    since str(MemoryError()) is empty."""
    def out_of_memory(args):
        raise MemoryError()
    monkeypatch.setitem(COMMANDS, "synth", out_of_memory)
    assert main(["synth", "--docs", "5", "--out", str(tmp_path / "s.jsonl")]) == EXIT_RUNTIME
    assert json.loads(capsys.readouterr().err) == {"error": "runtime",
                                                   "message": "MemoryError"}


@pytest.mark.parametrize("flag", ["--stopwords", "--queries", "--embeddings"])
def test_missing_input_fails_before_any_work(small_corpus, tmp_path, capsys, monkeypatch,
                                             flag):
    def no_work(*args, **kwargs):
        raise AssertionError("fit loaded the corpus before checking its inputs")
    monkeypatch.setattr("qdtm.cli.ingest_jsonl", no_work)
    missing = tmp_path / "missing.txt"
    rc = main(["fit", "--corpus", str(small_corpus), "--query", "w0000", flag, str(missing),
               "--out", str(tmp_path / "r.json")])
    assert rc == EXIT_VALIDATION
    assert f"{flag} file not found: {missing}" in json.loads(capsys.readouterr().err)["message"]


FIT_ARGV = ["fit", "--corpus", "{c}", "--query", "w0000", "--out", "{r}"]
# a command line that reads file {f} through each option in INPUT_DESTS
INPUT_ARGV = {
    "config": ["--config", "{f}", *FIT_ARGV],
    "corpus": ["fit", "--corpus", "{f}", "--query", "w0000", "--out", "{r}"],
    "stopwords": [*FIT_ARGV, "--stopwords", "{f}"],
    "queries": [*FIT_ARGV, "--queries", "{f}"],
    "embeddings": [*FIT_ARGV, "--embeddings", "{f}"],
    "result": ["eval", "--corpus", "{c}", "--result", "{f}"],
    "labels": ["eval", "--corpus", "{c}", "--result", "{e}", "--labels", "{f}"],
}


def _input_error(dest, path, small_corpus, tmp_path, capsys) -> str:
    """The message of the command line that reads `path` through option `dest`;
    {e} is a result of no queries."""
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format": RESULT_FORMAT_TAG, "queries": []}))
    argv = [a.format(f=path, c=small_corpus, e=empty, r=tmp_path / "r.json")
            for a in INPUT_ARGV[dest]]
    assert main(argv) == EXIT_VALIDATION
    assert not (tmp_path / "r.json").exists()
    return json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("dest", INPUT_DESTS)
def test_an_input_that_is_a_directory_fails_before_any_work(small_corpus, tmp_path, capsys,
                                                            monkeypatch, dest):
    """Every input but --config exited 3, "[Errno 21] Is a directory", once
    the command opened it; the config is read, and named, before the paths
    are checked."""
    def no_work(*args, **kwargs):
        raise AssertionError("the command loaded the corpus before checking its inputs")
    monkeypatch.setattr("qdtm.cli.ingest_jsonl", no_work)
    folder = tmp_path / "folder"
    folder.mkdir()
    message = _input_error(dest, folder, small_corpus, tmp_path, capsys)
    assert message.startswith(f"cannot read config {folder}: " if dest == "config"
                              else f"--{dest} path is a directory: {folder}")


@pytest.mark.parametrize("dest", INPUT_DESTS)
def test_an_input_that_is_not_utf8_names_its_file(small_corpus, tmp_path, capsys, dest):
    """--corpus, --stopwords, --queries, --embeddings and --config gave only
    "'utf-8' codec can't decode byte 0xff ...", naming no file."""
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("w0000 caf\xe9\n".encode("latin-1"))
    message = _input_error(dest, bad, small_corpus, tmp_path, capsys)
    assert str(bad) in message and "can't decode byte 0xe9" in message
