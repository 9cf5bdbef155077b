import numpy as np
import pytest

from qdtm.corpus import ingest
from qdtm.embeddings import (EmbeddingError, EmbeddingFormatError, build_promotion,
                             cosine, load_embeddings)


@pytest.fixture
def vocab4():
    return ingest([("a", "aa bb cc dd aa bb cc dd")]).vocab


def test_load_plain_and_headered(tmp_path, vocab4):
    body = "aa 1.0 0.0 0.0 0.5\nbb 0.0 1.0 0.0 0.5\nzz 9 9 9 9\ncc 0.0 0.0 1.0 0.5\n"
    plain = tmp_path / "plain.txt"
    plain.write_text(body)
    headered = tmp_path / "header.txt"
    headered.write_text("4 4\n" + body)
    t1 = load_embeddings(plain, vocab4)
    t2 = load_embeddings(headered, vocab4)
    assert t1.dim == t2.dim == 4
    assert set(t1.vectors) == set(t2.vectors) == {0, 1, 2}  # zz skipped
    for w in t1.vectors:
        assert np.array_equal(t1.vectors[w], t2.vectors[w])
    assert t1.coverage == pytest.approx(3 / 4)


def test_load_malformed_float_names_line(tmp_path, vocab4):
    path = tmp_path / "bad.txt"
    path.write_text("aa 1.0 2.0\nbb 1.0 oops\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path, vocab4)


def test_load_dimension_mismatch_names_line(tmp_path, vocab4):
    path = tmp_path / "bad.txt"
    path.write_text("aa 1.0 2.0\nbb 1.0 2.0 3.0\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path, vocab4)


def test_load_zero_coverage_fatal(tmp_path, vocab4):
    path = tmp_path / "none.txt"
    path.write_text("zz 1.0 2.0\n")
    with pytest.raises(EmbeddingError):
        load_embeddings(path, vocab4)


def test_cosine_values():
    assert cosine([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)
    assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70711, abs=1e-5)


def test_cosine_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert abs(cosine(a, b) - cosine(b, a)) < 1e-12


def test_cosine_errors():
    with pytest.raises(EmbeddingError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EmbeddingError):
        cosine([1.0], [1.0, 0.0])


def pairs_of(promo) -> set[tuple[int, int]]:
    """The (sampled word, concept word) pairs a promotion matrix holds."""
    return {(wi, wq) for wi, row in promo.rows.items() for wq, _ in row}


def test_relatedness_tau_extremes(geometry_table):
    concepts = [0]
    high = build_promotion(geometry_table, concepts, 1.0 + 1e-9, 0.3)
    assert pairs_of(high) == {(0, 0)}  # only the forced self-pair survives
    low = build_promotion(geometry_table, concepts, -1.0, 0.3)
    assert pairs_of(low) == {(w, 0) for w in geometry_table.vectors}


def test_relatedness_matches_bruteforce(geometry_table):
    tau = 0.5
    concepts = [0, 1]
    promo = build_promotion(geometry_table, concepts, tau, 0.3)
    expected = set()
    for wq in concepts:
        for wi in geometry_table.vectors:
            c = cosine(geometry_table.get(wi), geometry_table.get(wq))
            if c >= tau:
                expected.add((wi, wq))
        expected.add((wq, wq))
    assert pairs_of(promo) == expected


def test_relatedness_skips_unembedded_concepts(geometry_table, caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="qdtm.embeddings"):
        promo = build_promotion(geometry_table, [0, 5], 0.5, 0.3)
    assert {wq for _, wq in pairs_of(promo)} == {0}
    assert "no embedding" in caplog.text


def test_promotion_values(geometry_table):
    a = build_promotion(geometry_table, [0], 0.5, 0.3)
    assert (0, True) in a.rows[0]         # matched self-pair: amount 1
    assert (0, False) in a.rows[2]        # matched cross-pair (45 degrees): amount u
    assert 3 not in a.rows                # cosine -1, no promotion
    assert a.u == 0.3
    # every row holds at most one self entry, and only for the word itself
    for wi, row in a.rows.items():
        assert [wq for wq, is_self in row if is_self] in ([], [wi])


def test_promotion_u_range(geometry_table):
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(EmbeddingError):
            build_promotion(geometry_table, [0], 0.5, bad)


def test_promotion_entries_back_relatedness(geometry_table):
    tau = 0.4
    a = build_promotion(geometry_table, [0, 1], tau, 0.3)
    for wi, row in a.rows.items():
        for wq, _ in row:
            assert cosine(geometry_table.get(wi), geometry_table.get(wq)) >= tau


def test_idempotent_construction(geometry_table):
    a1 = build_promotion(geometry_table, [0, 1], 0.5, 0.3)
    a2 = build_promotion(geometry_table, [0, 1], 0.5, 0.3)
    assert a1.rows == a2.rows
