import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdtm.corpus import ingest
from qdtm.embeddings import (EmbeddingError, EmbeddingFormatError, EmbeddingLengthError,
                             EmbeddingTable, build_promotion, cosine, dots, load_embeddings)
from qdtm.sampler import Hyperparameters, SamplerError


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
    assert t1.matrix.shape == t2.matrix.shape == (4, 4)
    assert t1.embedded.tolist() == t2.embedded.tolist() == [True, True, True, False]  # zz skipped
    assert np.array_equal(t1.matrix, t2.matrix)
    assert t1.matrix[:3].tolist() == [[1.0, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.5],
                                      [0.0, 0.0, 1.0, 0.5]]
    assert t1.get(3) is None and not t1.matrix[3].any()


def test_load_malformed_float_names_line(tmp_path, vocab4):
    path = tmp_path / "bad.txt"
    path.write_text("aa 1.0 2.0\nbb 1.0 oops\n")
    with pytest.raises(EmbeddingFormatError, match="line 2"):
        load_embeddings(path, vocab4)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "NaN"])
def test_load_non_finite_value_names_line(tmp_path, vocab4, value):
    path = tmp_path / "bad.txt"
    path.write_text(f"aa 1.0 2.0\nbb 1.0 {value}\n")
    with pytest.raises(EmbeddingFormatError, match="line 2: non-finite"):
        load_embeddings(path, vocab4)


@pytest.mark.parametrize("values", ["1e200 1e200", "1e-200 2e-200", "0 -1e-170"])
def test_load_vector_whose_length_overflows_or_underflows_names_line(tmp_path, vocab4, values):
    """Its squared length is inf or below the smallest normal float, so its
    unit row would be all zeros, or off unit length, with `embedded` True."""
    path = tmp_path / "bad.txt"
    path.write_text(f"aa 1.0 2.0\nbb {values}\n")
    with pytest.raises(EmbeddingFormatError, match="line 2: the vector's length"):
        load_embeddings(path, vocab4)


def test_table_refuses_a_vector_with_no_unit_direction():
    with pytest.raises(EmbeddingLengthError, match="word id 2: the vector's length"):
        EmbeddingTable(2, {0: np.array([1.0, 0.0]), 2: np.array([1e-170, 0.0]),
                           3: np.array([1e170, 1e170])}, 4)


def test_load_keeps_extreme_but_representable_vectors_and_zero_vectors(tmp_path, vocab4):
    path = tmp_path / "ok.txt"
    path.write_text("aa 1e150 1e150\nbb 1e-150 -1e-150\ncc 0 0\n")
    table = load_embeddings(path, vocab4)
    assert np.allclose(table.norms[:2], [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -2 ** -0.5]])
    assert table.embedded[2] and not table.norms[2].any()


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


def pairs_of(rows) -> set[tuple[int, int]]:
    """The (sampled word, concept word) pairs the promotion rows hold."""
    return {(wi, wq) for wi, row in rows.items() for wq in row}


def test_relatedness_tau_extremes(geometry_table):
    concepts = [0]
    high = build_promotion(geometry_table, concepts, 1.0 + 1e-9)
    assert pairs_of(high) == {(0, 0)}  # only the forced self-pair survives
    low = build_promotion(geometry_table, concepts, -1.0)
    assert pairs_of(low) == {(w, 0) for w in np.flatnonzero(geometry_table.embedded)}


def test_relatedness_matches_bruteforce(geometry_table):
    tau = 0.5
    concepts = [0, 1]
    promo = build_promotion(geometry_table, concepts, tau)
    expected = set()
    for wq in concepts:
        for wi in np.flatnonzero(geometry_table.embedded):
            c = cosine(geometry_table.get(wi), geometry_table.get(wq))
            if c >= tau:
                expected.add((wi, wq))
        expected.add((wq, wq))
    assert pairs_of(promo) == expected


def test_relatedness_skips_unembedded_concepts(geometry_table, caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="qdtm.embeddings"):
        promo = build_promotion(geometry_table, [0, 5], 0.5)
    assert {wq for _, wq in pairs_of(promo)} == {0}
    assert "no embedding" in caplog.text


def test_promotion_values(geometry_table):
    a = build_promotion(geometry_table, [0], 0.5)
    assert 0 in a[0]                 # matched self-pair: amount 1
    assert 0 in a[2]                 # matched cross-pair (45 degrees): amount u
    assert 3 not in a                # cosine -1, no promotion
    # every row lists distinct targets, ascending
    for row in a.values():
        assert row == sorted(set(row))


def test_promotion_u_range(geometry_table):
    """Promotion rows carry only target ids; u's (0, 1) range is checked where u lives."""
    rows = build_promotion(geometry_table, [0], 0.5)
    assert all(type(wq) is int for row in rows.values() for wq in row)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(SamplerError, match="promotion weight"):
            Hyperparameters(promotion_weight=bad).validate()


def test_promotion_entries_back_relatedness(geometry_table):
    tau = 0.4
    a = build_promotion(geometry_table, [0, 1], tau)
    for wi, row in a.items():
        for wq in row:
            assert cosine(geometry_table.get(wi), geometry_table.get(wq)) >= tau


def test_idempotent_construction(geometry_table):
    a1 = build_promotion(geometry_table, [0, 1], 0.5)
    a2 = build_promotion(geometry_table, [0, 1], 0.5)
    assert a1 == a2


def ordered_dot(x, y) -> float:
    """A dot product of Python floats: d ascending from +0.0, one rounding per
    product and per sum."""
    total = 0.0
    for p, q in zip(x.tolist(), y.tolist()):
        total += p * q
    return total


def assert_ordered_dots(a, b):
    got = dots(a, b)
    x, y = np.broadcast_arrays(a, b)
    want = np.array([ordered_dot(x[i], y[i]) for i in np.ndindex(x.shape[:-1])])
    assert np.shape(got) == x.shape[:-1]
    assert np.asarray(got).tobytes() == want.tobytes()
    assert type(got) is (np.float64 if x.ndim == 1 else np.ndarray)


FLOATS = st.floats(allow_nan=False, width=64) | st.sampled_from([0.0, -0.0, 1e-310, 1e300])
SHAPES = ["matrix-vector", "vector-matrix", "rows", "vectors", "3-d", "strided"]


def operands(shape, matrix, vector, cube, wide):
    a, b = {"matrix-vector": (matrix, vector), "vector-matrix": (vector, matrix),
            "rows": (matrix, matrix[::-1]), "vectors": (vector, vector[::-1]),
            "3-d": (cube, matrix), "strided": (np.asfortranarray(wide[:, ::2]), matrix)}[shape]
    return a, b


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 5), st.integers(0, 7), st.sampled_from(SHAPES))
def test_dots_sums_each_pair_in_order_from_zero(data, n, dim, shape):
    """Every product and running sum as Python floats do them, bit for bit,
    whatever the operands' layout; signed zeros, subnormals and overflow
    (infinities and NaNs) included."""
    def draw(*size):
        return data.draw(hnp.arrays(np.float64, size, elements=FLOATS))
    assert_ordered_dots(*operands(shape, draw(n, dim), draw(dim), draw(2, n, dim),
                                  draw(n, 2 * dim)))


@pytest.mark.parametrize("shape", SHAPES)
def test_dots_of_random_vectors_sums_in_order(shape):
    """Normal draws, where another order of the sum almost surely rounds
    differently somewhere."""
    rng = np.random.default_rng(11)
    assert_ordered_dots(*operands(shape, rng.normal(size=(300, 16)), rng.normal(size=16),
                                  rng.normal(size=(2, 300, 16)), rng.normal(size=(300, 32))))


def test_dots_refuses_operands_of_two_lengths():
    with pytest.raises(EmbeddingError, match=r"dimension mismatch: \(2, 3\) vs \(2,\)"):
        dots(np.ones((2, 3)), np.ones(2))
