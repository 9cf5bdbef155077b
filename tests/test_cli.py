import json

import pytest

from qdtm.cli import EXIT_OK, EXIT_VALIDATION, main


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
