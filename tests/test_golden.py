"""Pinned SHA-256 digests of the files small CLI runs write.

A change that claims byte-identical results must keep every digest below; a
change that alters results on purpose updates them and says why. Manifests
are not pinned, because they hold paths.

The runs: `synth` with embeddings; a checkpointed `kld` fit with embeddings
and the full posterior, resumed to more phase-1 sweeps; a two-query `fre`
fit with target labels; `eval` of the resumed fit; `retrieve` in both modes
and `expand` with every method, for the rare topic's query. Three more pin the
edge cases of the array scorers: `retrieve --mode and` with a repeated query
term, and `kld`/`rel` expansion at mu = 0, where documents missing a query
term score -inf (the top 4 of the 6 candidates hold one such document, which
`rel` gives zero weight). Four pin the ingest options, on a copy of the corpus
whose every text starts with a capital letter: `retrieve` with `--stopwords`,
with `--min-df 2` and with `--keep-case`, and `expand --method kld` with all
three.
Three pin a partial-coverage vector file made from the synth vectors: it
keeps the header, has no vector for every third word (one query word among
them), an all-zero vector for one rare-topic word, a rare-topic word repeated
later with another topic's vector (the last line wins) and an
out-of-vocabulary word: `expand --method rel` and a checkpointed `kld` fit on
it. They pin the zero rows of the normalized matrix, which the full synth
vectors never reach.

The digests hold whatever kernel numpy's OpenBLAS picks at run time
(`OPENBLAS_CORETYPE` forces one for a process): every embedding dot product
is summed by `embeddings.dots` or its copy in the compiled sweep, never by
BLAS. Run as a script, this file writes the golden files into a directory.
"""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import qdtm
from qdtm.cli import EXIT_OK, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qdtm.__file__)))
SYNTH = ["synth", "--topics", "4", "--vocab", "150", "--docs", "80", "--doc-length", "25",
         "--rare-prevalence", "0.05", "--seed", "2"]

GOLDEN = {
    "corpus.jsonl": "8dea4d049afcf40bf1a4360da61e554ec42cac1c673efe6bf4cd490e05096e2b",
    "corpus.jsonl.truth.json": "6fe1b920dfee5bd3ce9e109953ac8288bf978735477a24a9574489fa3b46c3a0",
    "vectors.txt": "c40b2490b4ae90a4851446c5effbc117d8a024e58a57c282a69970bda948c719",
    "kld.json": "4bceca777bad3c4e3b40fece1451bf098affaccdde13a646f9409ed58a4f0a68",
    "checkpoint.first.json": "bc99a961c8facb6ce21c5168403bc3a2989a4d35a7b215d726662c0a069f10b1",
    "kld.resumed.json": "fd351f1a813922697fed3545be314d6e84bed31fe435cc6a7560d2dbcab283c7",
    "checkpoint.json": "d98c855085446c36f5cffc1b9a10fc8b4c9475ab49631b5a545936362d979438",
    "fre.json": "2945c9a30d52ce57c8f47af0b3b397dffa37e795b26879b1f6ec53eea83d6df7",
    "eval.json": "19b3ad60f6ac86d575a6f6dc56ad3c84555e906875e56e8ab45e4f462fa44484",
    "retrieve.or.json": "91f7bb768e73ba346aed627cdff820f546c1d5cdcb4ec3913ae4cd6e20b1fde0",
    "retrieve.and.json": "1c9688f822404c86981df5d9158373aacad74a42725bb12015be0d4aa5e4b591",
    "expand.fre.json": "320d44d9a058dcb523e5854c51796ebda7d0b5492c22e0235499ac718c77f0d4",
    "expand.kld.json": "6b637f358b7610bd71d71a4ea465563489e6475816109907fe49720a7018a05c",
    "expand.rel.json": "208b3edb03cdce7923bd05fa74dd5eb495b4d3e923fe9a9f5214153e8b32c34e",
    "retrieve.and.repeated.json": "27b8960178a42f3234c92a04ea92232de4f4e3bf4a9879b13a7badd7cd0dc654",
    "expand.kld.mu0.json": "2c00a3c271eaffaeff3efb52e4c5fd216d02122ced30ee9edb3ff0e06cebce4c",
    "expand.rel.mu0.json": "aef5c69435b6e4143285d88e02d8036100b16cdb067dbb69f5da53fe13e4ff6d",
    "retrieve.stopwords.json": "10dd841ea41c49c00e8b10da3e8f0624f55710804caeebe5065ea3c2b24d23f9",
    "retrieve.min-df.json": "faa8a072d83fc52741c107a9492ac7a9315393db0287e0dad99898d22d4e378a",
    "retrieve.keep-case.json": "015d82caf8497f8df62ea627fa8a93ebd6d7d066efc8211731f41b9aa658263d",
    "expand.kld.options.json": "cbb77c39401c9eced370efaa95e0e82c9832e65c6d563ed7c68ab327acabc2c7",
    "expand.rel.partial.json": "7c223626b356e5729d4e91d7f4de1cd2e408f2c5cbb701d52f2b5dd2a0a99332",
    "kld.partial.json": "b5d29b7fd8eb1dbbaf9a7c89389fa5139933705a22af5f8ad8851241999d17ed",
    "checkpoint.partial.json": "0e33bfbb5ec5c2ab0ffb2d73f1005c9e5c1472551cd0a976e34bc9db68e288a2",
}


def write_golden(d):
    """Write every file in GOLDEN into directory `d`, a `pathlib.Path`."""
    corpus, vectors, ck = str(d / "corpus.jsonl"), str(d / "vectors.txt"), str(d / "checkpoint.json")
    assert main(SYNTH + ["--out", corpus, "--embeddings-out", vectors]) == EXIT_OK
    truth = json.loads((d / "corpus.jsonl.truth.json").read_text())
    rare_words = truth["topic_top_words"][truth["rare_topic"]][:2]
    rare = " ".join(rare_words)
    common = " ".join(truth["topic_top_words"]["topic0"][:2])

    kld = ["fit", "--corpus", corpus, "--query", rare, "--method", "kld",
           "--embeddings", vectors, "--full-posterior", "--checkpoint", ck,
           "--iters2", "5"]
    assert main(kld + ["--iters1", "6", "--out", str(d / "kld.json")]) == EXIT_OK
    shutil.copyfile(ck, d / "checkpoint.first.json")
    assert main(kld + ["--iters1", "12", "--out", str(d / "kld.resumed.json")]) == EXIT_OK
    assert main(["fit", "--corpus", corpus, "--query", rare, "--query", common,
                 "--method", "fre", "--iters1", "10", "--iters2", "5",
                 "--target-label", truth["rare_topic"], "--target-label", "topic0",
                 "--out", str(d / "fre.json")]) == EXIT_OK
    assert main(["eval", "--corpus", corpus, "--result", str(d / "kld.resumed.json"),
                 "--embeddings", vectors, "--out", str(d / "eval.json")]) == EXIT_OK
    for mode in ("or", "and"):
        assert main(["retrieve", "--corpus", corpus, "--query", rare, "--mode", mode,
                     "--out", str(d / f"retrieve.{mode}.json")]) == EXIT_OK
    for method in ("fre", "kld", "rel"):
        assert main(["expand", "--corpus", corpus, "--query", rare, "--method", method,
                     "--embeddings", vectors,
                     "--out", str(d / f"expand.{method}.json")]) == EXIT_OK
    repeated = " ".join(rare_words + rare_words[:1])
    assert main(["retrieve", "--corpus", corpus, "--query", repeated, "--mode", "and",
                 "--out", str(d / "retrieve.and.repeated.json")]) == EXIT_OK
    for method in ("kld", "rel"):
        assert main(["expand", "--corpus", corpus, "--query", rare, "--method", method,
                     "--embeddings", vectors, "--mu", "0", "--top", "4",
                     "--out", str(d / f"expand.{method}.mu0.json")]) == EXIT_OK
    cased = str(d / "corpus.cased.jsonl")
    with open(corpus) as src, open(cased, "w") as dst:
        for line in src:
            rec = json.loads(line)
            rec["text"] = rec["text"][0].upper() + rec["text"][1:]
            dst.write(json.dumps(rec) + "\n")
    stopwords = d / "stopwords.txt"
    stopwords.write_text("\n".join(truth["topic_top_words"][truth["rare_topic"]][2:4]
                                   + truth["topic_top_words"]["topic0"][:1]) + "\n")
    options = {"stopwords": ["--stopwords", str(stopwords)], "min-df": ["--min-df", "2"],
               "keep-case": ["--keep-case"]}
    for name, flags in options.items():
        assert main(["retrieve", "--corpus", cased, "--query", rare, *flags,
                     "--out", str(d / f"retrieve.{name}.json")]) == EXIT_OK
    assert main(["expand", "--corpus", cased, "--query", rare, "--method", "kld",
                 *(f for flags in options.values() for f in flags),
                 "--out", str(d / "expand.kld.options.json")]) == EXIT_OK
    header, *rows = (d / "vectors.txt").read_text().splitlines()
    vec = dict(line.split(" ", 1) for line in rows)
    zero_word, moved_word = truth["topic_top_words"][truth["rare_topic"]][2:6:3]
    vec[zero_word] = " ".join(["0.000000"] * int(header.split()[1]))
    partial = str(d / "vectors.partial.txt")
    with open(partial, "w") as fh:
        fh.write(header + "\n")
        for i, (word, values) in enumerate(vec.items()):
            if i % 3:
                fh.write(f"{word} {values}\n")
        other = vec[truth["topic_top_words"]["topic0"][1]]
        fh.write(f"zzoov {vec[moved_word]}\n{moved_word} {other}\n")
    assert main(["expand", "--corpus", corpus, "--query", rare, "--method", "rel",
                 "--embeddings", partial, "--out", str(d / "expand.rel.partial.json")]) == EXIT_OK
    assert main(["fit", "--corpus", corpus, "--query", rare, "--method", "kld",
                 "--embeddings", partial, "--iters1", "6", "--iters2", "5",
                 "--checkpoint", str(d / "checkpoint.partial.json"),
                 "--out", str(d / "kld.partial.json")]) == EXIT_OK


def digests_of(d):
    return {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name in GOLDEN}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_golden(d)
    return digests_of(d)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical(digests, name):
    assert digests[name] == GOLDEN[name]


def under_blas_kernel(coretype, args):
    """Run `python *args` with OpenBLAS forced to `coretype`. Where numpy's
    BLAS is not a DYNAMIC_ARCH OpenBLAS the variable does nothing."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_CORETYPE": coretype}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env)


def test_output_is_byte_identical_under_another_blas_kernel(tmp_path):
    """Bug ae: under OpenBLAS's AVX2 and older kernels six digests moved,
    because the embedding row lengths and cosines were BLAS dot products."""
    out = under_blas_kernel("Prescott", [__file__, str(tmp_path)])
    assert out.returncode == 0, out.stderr
    assert digests_of(tmp_path) == GOLDEN


def test_a_checkpoint_resumes_under_another_blas_kernel(tmp_path):
    """Bug ae: a checkpoint written with embeddings under one BLAS kernel was
    refused under another as a "fingerprint mismatch", since the fingerprint
    hashes the normalized embedding matrix."""
    corpus, vectors = str(tmp_path / "corpus.jsonl"), str(tmp_path / "vectors.txt")
    assert main(SYNTH + ["--out", corpus, "--embeddings-out", vectors]) == EXIT_OK
    truth = json.loads((tmp_path / "corpus.jsonl.truth.json").read_text())
    rare = " ".join(truth["topic_top_words"][truth["rare_topic"]][:2])
    fit = ["fit", "--corpus", corpus, "--query", rare, "--method", "kld",
           "--embeddings", vectors, "--iters2", "5"]
    ck = str(tmp_path / "checkpoint.json")
    assert main(fit + ["--iters1", "6", "--checkpoint", ck,
                       "--out", str(tmp_path / "first.json")]) == EXIT_OK
    out = under_blas_kernel("Haswell", ["-m", "qdtm.cli", *fit, "--iters1", "12",
                                        "--checkpoint", ck,
                                        "--out", str(tmp_path / "resumed.json")])
    assert out.returncode == EXIT_OK, out.stderr
    assert main(fit + ["--iters1", "12", "--out", str(tmp_path / "straight.json")]) == EXIT_OK
    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "straight.json").read_bytes()


if __name__ == "__main__":
    write_golden(pathlib.Path(sys.argv[1]))
