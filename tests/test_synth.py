import numpy as np
import pytest

from qdtm.corpus import ingest
from qdtm.synth import (SynthError, SyntheticSpec, block_embeddings, generate,
                        topic_distributions, write_embeddings, write_jsonl)


def test_spec_validation():
    with pytest.raises(SynthError):
        SyntheticSpec(n_topics=1).validate()
    with pytest.raises(SynthError):
        SyntheticSpec(vocab_size=30, n_topics=6).validate()
    with pytest.raises(SynthError):
        SyntheticSpec(rare_topic_prevalence=0.001).validate()
    for name, low in (("n_docs", 1), ("doc_length", 1), ("seed", 0)):
        for bad in (low - 1, -3):
            with pytest.raises(SynthError, match=f"{name} must be >= {low}, got {bad}"):
                SyntheticSpec(**{name: bad}).validate()
    # a string raised a bare TypeError, 2.5 failed inside numpy and True was taken for 1
    for name, bad, kind in (("seed", "1", "an integer"), ("n_topics", "3", "an integer"),
                            ("doc_length", 2.5, "an integer"), ("n_docs", True, "an integer"),
                            ("background_mass", None, "a number")):
        with pytest.raises(SynthError, match=f"^{name} must be {kind}, got {bad!r}$"):
            SyntheticSpec(**{name: bad}).validate()
    SyntheticSpec().validate()


@pytest.mark.parametrize("prevalence, n_rare", [(0.005, 2), (0.01, 5)])
def test_low_prevalence_with_one_expected_rare_document_generates(prevalence, n_rare):
    records, truth = generate(SyntheticSpec(n_docs=500, rare_topic_prevalence=prevalence,
                                            seed=1))
    assert len(records) == 500
    rare = [r for r in records if r["label"] == truth["rare_topic"]]
    assert len(rare) == truth["rare_doc_count"] == n_rare
    with pytest.raises(SynthError, match="prevalence 0.001 expects 0.5 of 500 documents"):
        SyntheticSpec(n_docs=500, rare_topic_prevalence=0.001).validate()


def test_topic_distributions_normalize():
    dists = topic_distributions(SyntheticSpec(vocab_size=100, n_topics=4))
    assert dists.shape == (4, 100)
    assert np.allclose(dists.sum(axis=1), 1.0)
    # with background mass, every word has some probability under every topic
    assert dists.min() > 0


def test_generate_rare_topic_count_and_shapes():
    spec = SyntheticSpec(n_docs=200, vocab_size=300, n_topics=6, seed=3)
    records, truth = generate(spec)
    assert len(records) == 200
    assert all(len(r["text"].split()) == spec.doc_length for r in records)
    rare = truth["rare_topic"]
    assert rare == "topic5"
    n_rare = sum(1 for r in records if r["label"] == rare)
    assert n_rare == truth["rare_doc_count"] == 4  # 2% of 200
    assert len(truth["topic_top_words"][rare]) == 25


def test_generate_deterministic():
    spec = SyntheticSpec(n_docs=100, vocab_size=200, n_topics=4, seed=11)
    r1, t1 = generate(spec)
    r2, t2 = generate(spec)
    assert r1 == r2 and t1 == t2
    r3, _ = generate(SyntheticSpec(n_docs=100, vocab_size=200, n_topics=4, seed=12))
    assert r3 != r1


def test_generate_labels_match_block_words():
    spec = SyntheticSpec(n_docs=150, vocab_size=300, n_topics=6,
                         background_mass=0.0, seed=5)
    records, _ = generate(spec)
    block = spec.vocab_size // spec.n_topics
    for r in records:
        k = int(r["label"].removeprefix("topic"))
        lo = k * block
        hi = spec.vocab_size if k == spec.n_topics - 1 else lo + block
        for tok in r["text"].split():
            assert lo <= int(tok[1:]) < hi


def test_write_jsonl_roundtrip(tmp_path):
    spec = SyntheticSpec(n_docs=100, vocab_size=200, n_topics=4, seed=1)
    records, _ = generate(spec)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(records, path)
    corpus = ingest([(r["id"], r["text"], r["label"]) for r in records])
    assert len(corpus.documents) == 100
    lines = path.read_text().splitlines()
    assert len(lines) == 100


def test_block_embeddings_cluster(tmp_path):
    spec = SyntheticSpec(n_docs=100, vocab_size=120, n_topics=4, seed=2)
    vectors = block_embeddings(spec, noise=0.1)
    assert len(vectors) == 120

    def cos(a, b):
        return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

    # same-block words are closer than cross-block words on average
    within = cos(vectors["w0000"], vectors["w0001"])
    across = cos(vectors["w0000"], vectors["w0031"])
    assert within > across

    path = tmp_path / "vec.txt"
    write_embeddings(vectors, path)
    header = path.read_text().splitlines()[0]
    assert header == "120 16"
