import math

import numpy as np
import pytest

from qdtm.corpus import ingest
from qdtm.metrics import (MetricError, npmi_coherence, overall_quality,
                          subtopic_report, topic_cohesion, topic_diversity,
                          topic_embedding)

from helpers import make_table


def test_diversity_disjoint_lists():
    a = [f"a{i}" for i in range(25)]
    b = [f"b{i}" for i in range(25)]
    assert topic_diversity([a, b]) == 1.0


def test_diversity_identical_lists():
    a = [f"a{i}" for i in range(25)]
    assert topic_diversity([a, list(a)]) == 0.5


def test_diversity_matches_set_union_oracle():
    rng = np.random.default_rng(0)
    pool = [f"w{i}" for i in range(40)]
    lists = [list(rng.choice(pool, size=25, replace=False)) for _ in range(3)]
    expected = len(set().union(*lists)) / 75
    assert topic_diversity(lists) == expected


def test_diversity_empty_is_error():
    with pytest.raises(MetricError):
        topic_diversity([])


def test_diversity_permutation_invariant():
    a = ["x", "y", "z"]
    b = ["x", "q", "r"]
    assert topic_diversity([a, b]) == topic_diversity([b, a])


def test_duplicate_subtopic_never_increases_diversity():
    a = ["x", "y", "z"]
    b = ["p", "q", "r"]
    assert topic_diversity([a, b, b]) <= topic_diversity([a, b])


def test_cohesion_identical_and_orthogonal():
    assert topic_cohesion(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert topic_cohesion(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_cohesion_sixty_degrees():
    a = np.array([1.0, 0.0])
    b = np.array([math.cos(math.pi / 3), math.sin(math.pi / 3)])
    assert topic_cohesion(a, b) == pytest.approx(0.5, abs=1e-6)


def test_cohesion_symmetric():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=4), rng.normal(size=4)
    assert topic_cohesion(a, b) == pytest.approx(topic_cohesion(b, a), abs=1e-12)


def test_overall_quality_is_product():
    assert overall_quality(0.71, 0.79) == pytest.approx(0.5609)
    assert overall_quality(1.0, 0.0) == 0.0


def test_topic_embedding_renormalizes_over_covered_words():
    table = make_table({0: [1.0, 0.0], 1: [0.0, 1.0]}, 3)
    index = {"a": 0, "b": 1, "c": 2}
    vec = topic_embedding([("a", 0.3), ("c", 0.5), ("b", 0.1)], table, index)
    # c is uncovered: weights renormalize over {a: 0.3, b: 0.1}
    assert vec == pytest.approx([0.75, 0.25])
    assert topic_embedding([("c", 1.0)], table, index) is None


def test_npmi_always_cooccurring_words():
    # two words in the same half of the documents, always together
    docs = []
    for j in range(1000):
        if j % 2 == 0:
            docs.append((f"d{j}", "xx yy filler"))
        else:
            docs.append((f"d{j}", "aa bb filler"))
    c = ingest(docs)
    score = npmi_coherence(["xx", "yy"], c)
    assert score > 0.9


def test_npmi_independent_words_near_zero():
    rng = np.random.default_rng(2)
    docs = []
    for j in range(10_000):
        words = ["filler"]
        if rng.random() < 0.5:
            words.append("xx")
        if rng.random() < 0.5:
            words.append("yy")
        docs.append((f"d{j}", " ".join(words)))
    c = ingest(docs)
    assert abs(npmi_coherence(["xx", "yy"], c)) < 0.05


def test_npmi_disjoint_words_negative():
    docs = [(f"d{j}", "xx filler" if j % 2 == 0 else "yy filler")
            for j in range(500)]
    c = ingest(docs)
    assert npmi_coherence(["xx", "yy"], c) < 0


def test_subtopic_report_aggregates():
    table = make_table({0: [1.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0]}, 4)
    index = {"p": 0, "s1": 1, "s2": 2, "zz": 3}
    report = subtopic_report([("p", 1.0)], [[("s1", 1.0)], [("s2", 1.0)]],
                             table, index)
    assert report["diversity"] == 1.0
    # cohesions are 1.0 and 0.0, mean 0.5
    assert report["cohesion"] == pytest.approx(0.5)
    assert report["overall"] == pytest.approx(0.5)


def test_subtopic_report_without_embeddings():
    report = subtopic_report([("p", 1.0)], [[("a", 1.0)], [("a", 1.0)]], None, {})
    assert report["diversity"] == 0.5
    assert report["cohesion"] is None and report["overall"] is None
