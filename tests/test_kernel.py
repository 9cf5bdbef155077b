"""The compiled sweep against the pure-Python oracle, and how it is built and loaded."""

import ctypes
import math
import os
import re
import subprocess
import sys
import sysconfig
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdtm
from qdtm import _native
from qdtm.concepts import extract_concept_words
from qdtm.embeddings import build_promotion
from qdtm.retrieval import parse_query, retrieve
from qdtm.sampler import (COLUMN_HEADROOM, KERNEL_INPUTS, ConsistencyError, HDPSampler,
                          Hyperparameters)
from qdtm.synth import SyntheticSpec

from helpers import flat_state, sampler_cases, stream
from sampler_oracle import OracleSampler, quarters
from test_acceptance import embedding_table, synthetic_corpus

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qdtm.__file__)))


def generator_state(rng):
    return (rng.gen if hasattr(rng, "gen") else rng).bit_generator.state


def assert_same_state(kernel: HDPSampler, oracle: OracleSampler) -> None:
    assert list(kernel.t) == oracle.t and list(kernel.flags) == oracle.flags
    assert list(kernel.table_topic) == oracle.table_topic
    assert list(kernel.table_units) == oracle.table_units
    assert list(kernel.table_promos) == oracle.table_promos
    assert dict(kernel.m_k) == oracle.m_k and list(kernel.m_k) == sorted(kernel.m_k)
    assert (kernel.m_total, kernel.next_topic) == (oracle.m_total, oracle.next_topic)
    assert dict(kernel.nkw_units) == oracle.nkw_units
    assert dict(kernel.nkw_promos) == oracle.nkw_promos
    assert (kernel.nk_units, kernel.nk_promos) == (oracle.nk_units, oracle.nk_promos)
    for k, c in oracle._col.items():   # phi from the counts, against the oracle's cache
        assert kernel.phi(k).tolist() == [n / oracle._den[c] for n in oracle._num[c]]
    assert generator_state(kernel.rng) == generator_state(oracle.rng)
    assert_same_cohesion(kernel, oracle)
    # the weights hold what no state does: the mixture sum and the topic order
    for j, doc in enumerate(oracle.docs):
        for w in sorted(set(doc)):
            assert kernel.table_weights(j, w) == oracle.table_weights(j, w)
            assert kernel.topic_weights(j, w) == oracle.topic_weights(j, w)


def assert_same_cohesion(kernel: HDPSampler, oracle: OracleSampler) -> None:
    """The cohesion cache bit for bit: a `cv` change that moves no rank would
    leave every draw alone."""
    assert (kernel.tilde is None) == (oracle.tilde is None)
    if oracle.tilde is not None:
        assert kernel.cv.shape == oracle.cv.shape and kernel.tilde.shape == oracle.tilde.shape
        assert kernel.cv.tobytes() == oracle.cv.tobytes()
        assert kernel.tilde.tobytes() == oracle.tilde.tobytes()
        assert kernel.topic_row == oracle.topic_row


@settings(max_examples=150, deadline=None)
@given(sampler_cases(), st.sampled_from(["numpy", "quarters"]))
def test_kernel_equals_the_python_oracle(case, uniforms):
    docs, V, hp, seed, kwargs, sweeps = case
    kernel = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    oracle = OracleSampler(docs, V, hp, seed, **kwargs)
    kernel.initialize()
    oracle.initialize()
    if uniforms == "quarters":
        kernel.rng, oracle.rng = quarters(seed), quarters(seed)
    kernel.run(sweeps, check_invariants=True)
    oracle.run(sweeps)
    assert_same_state(kernel, oracle)


def test_kernel_equals_the_oracle_on_a_larger_corpus():
    """A last-bit difference rarely moves a draw on a small corpus: the
    default synth corpus (20k tokens, V = 1000) with embeddings and one kld
    query, 3 sweeps on numpy's stream, then one on a stream of quarters."""
    spec = SyntheticSpec(seed=1)
    corpus, truth = synthetic_corpus(spec)
    table = embedding_table(spec, corpus)
    hp = Hyperparameters()
    rare = truth["rare_topic"]
    query = parse_query(" ".join(truth["topic_top_words"][rare][:2]), corpus, "or")
    cs = extract_concept_words(corpus, query, retrieve(corpus, query, 200, 100.0), "kld", 10)
    kwargs = dict(forced_topic={w: 0 for w in cs.word_ids()}, n_parents=1,
                  promotion=build_promotion(table, cs.word_ids(), hp.cosine_threshold),
                  embedding_norms=table.norm_matrix(),
                  parent_representatives={0: cs.word_ids()})
    docs = [d.tokens for d in corpus.documents]
    kernel = HDPSampler(*stream(docs), len(corpus.vocab), hp, 3, **kwargs)
    oracle = OracleSampler(docs, len(corpus.vocab), hp, 3, **kwargs)
    kernel.initialize()
    oracle.initialize()
    kernel.run(3)
    oracle.run(3)
    assert sum(map(sum, kernel.flags)) > 0 and len(kernel.m_k) > 2
    assert_same_state(kernel, oracle)
    kernel.rng, oracle.rng = quarters(7), quarters(7)
    kernel.run(1)
    oracle.run(1)
    assert_same_state(kernel, oracle)


def test_kernel_weights_equal_the_oracle_on_a_state_with_promotion_counts():
    """Every word's weights in every document, on a state built with flagged
    tokens. At u = 0.3 and beta = 0.13 the predictive of a cell with one unit
    and one promotion depends on the order of its sum, so a reordered sum in
    the kernel shows on every run, not only when a drawn state holds such a cell."""
    docs = [[0, 1, 2, 3, 0, 4], [1, 3, 0, 0, 2], [4, 4, 1, 5]]
    hp = Hyperparameters(initial_topics=3, beta=0.13, promotion_weight=0.3)
    kwargs = dict(promotion={0: [0, 1, 2], 1: [3], 4: [4, 0, 5]})
    state = ([[0, 0, 1, 1, 2, 0], [0, 1, 2, 2, 0], [0, 1, 0, 1]],
             [[1, 2, 3], [2, 1, 3], [1, 3]],
             [[1, 1, 0, 0, 1, 1], [1, 0, 1, 0, 0], [1, 0, 0, 0]])
    kernel = HDPSampler(*stream(docs), 6, hp, 0, **kwargs)
    oracle = OracleSampler(docs, 6, hp, 0, **kwargs)
    kernel.set_state(*flat_state(*state))
    oracle.set_state(*state)
    u, beta = hp.promotion_weight, hp.beta
    units, promos = kernel.nkw_units[1][1], kernel.nkw_promos[1][1]
    assert units + u * promos + beta != units + (u * promos + beta)
    for j in range(len(docs)):
        for w in range(6):
            assert kernel.table_weights(j, w) == oracle.table_weights(j, w)
            assert kernel.topic_weights(j, w) == oracle.topic_weights(j, w)


def unit_rows(V: int, dim: int, seed: int) -> np.ndarray:
    norms = np.random.default_rng(seed).normal(size=(V, dim))
    return norms / np.linalg.norm(norms, axis=1, keepdims=True)


# docs, V, hp, state (t, table_topic[, flags]), embedding norms, sampler keywords
COHESION_CASES = {
    "fewer words than M": (
        [[0, 1, 2, 3, 1], [2, 2, 3]], 4, Hyperparameters(initial_topics=2, beta=0.13),
        ([[0, 0, 1, 1, 0], [0, 0, 1]], [[0, 1], [1, 0]]), unit_rows(4, 3, 0), {}),
    "one live topic": (
        [[0, 1, 1], [2]], 3, Hyperparameters(initial_topics=1),
        ([[0, 0, 0], [0]], [[5], [5]]), unit_rows(3, 2, 1), {}),
    "tied counts": (   # topic 0 holds words 1, 2, 3 once and word 4 twice
        [[3, 1, 2, 4, 4], [0, 0, 2]], 5, Hyperparameters(initial_topics=2, n_representatives=2),
        ([[0, 0, 0, 0, 0], [0, 0, 0]], [[0], [1]]), np.eye(5), {}),
    "promotion mass": (
        [[0, 1, 0, 2], [1, 2, 2]], 3,
        Hyperparameters(initial_topics=2, n_representatives=2, promotion_weight=0.3),
        ([[0, 1, 0, 1], [0, 1, 1]], [[0, 1], [0, 1]], [[1, 0, 1, 0], [0, 0, 0]]),
        unit_rows(3, 4, 2), dict(promotion={0: [0, 2]})),
    "empty parent list": (
        [[2, 0, 1], [2, 1]], 3, Hyperparameters(initial_topics=2),
        ([[0, 1, 1], [0, 1]], [[0, 1], [0, 1]]), unit_rows(3, 2, 3),
        dict(forced_topic={2: 0}, n_parents=1, parent_representatives={0: []})),
    "parent list longer than M": (
        [[2, 0, 1, 3], [2, 1, 3]], 4, Hyperparameters(initial_topics=3, n_representatives=1),
        ([[0, 1, 2, 0], [0, 1, 0]], [[0, 1, 2], [0, 2]]), unit_rows(4, 3, 4),
        dict(forced_topic={2: 0, 3: 0}, n_parents=1, parent_representatives={0: [3, 0, 2]})),
    "zero embedding row": (
        [[1, 1, 0], [2, 1, 3]], 4, Hyperparameters(initial_topics=2),
        ([[0, 0, 1], [0, 1, 1]], [[0, 1], [1, 0]]),
        np.vstack([unit_rows(1, 3, 5), np.zeros(3), unit_rows(2, 3, 6)]), {}),
    # finite rows whose products overflow: topics 1 and 3 have the big rows 0 and 3 as
    # their one representative, so their CV is inf at words 0 and 3 and NaN at word 4
    "overflowing embedding rows": (
        [[0, 1, 2], [3, 4, 3]], 5, Hyperparameters(initial_topics=2, n_representatives=1),
        ([[0, 1, 1], [0, 0, 0]], [[1, 2], [3]]),
        np.vstack([[1e308, -1e308, 0.0], unit_rows(2, 3, 8), [1e308, -1e308, 0.0],
                   [1e308, 1e308, 1.0]]), {}),
}


@pytest.mark.parametrize("case", list(COHESION_CASES))
def test_cohesion_cache_equals_the_oracle(case):
    docs, V, hp, state, norms, kwargs = COHESION_CASES[case]
    kernel = HDPSampler(*stream(docs), V, hp, 0, embedding_norms=norms, **kwargs)
    oracle = OracleSampler(docs, V, hp, 0, embedding_norms=norms, **kwargs)
    kernel.set_state(*flat_state(*state))
    oracle.set_state(*state)
    kernel.refresh_cohesion()
    with np.errstate(over="ignore", invalid="ignore"):   # the overflowing case's products
        oracle.refresh_cohesion()
    assert_same_cohesion(kernel, oracle)
    cv = kernel.cv
    if case == "one live topic":
        assert kernel.tilde.tolist() == [[1.0, 1.0, 1.0]]
    elif case == "tied counts":   # unit rows: a topic's CV is nonzero at its reps only
        assert np.flatnonzero(cv[kernel.topic_row[0]]).tolist() == [1, 4]
        assert np.flatnonzero(cv[kernel.topic_row[1]]).tolist() == [0, 2]
    elif case == "empty parent list":
        assert not cv[kernel.topic_row[0]].any() and cv[kernel.topic_row[1]].all()
    elif case == "zero embedding row":
        assert not cv[:, 1].any() and cv[:, [0, 2, 3]].all()
    elif case == "overflowing embedding rows":   # numpy sorts NaN last, ties in row order
        big = [kernel.topic_row[1], kernel.topic_row[3]]
        assert (cv[big][:, [0, 3]] == np.inf).all() and np.isnan(cv[big, 4]).all()
        assert kernel.tilde[:, 4].tolist() == [0.5, 0.0, 1.0]


@st.composite
def cohesion_states(draw):
    """A state for `set_state` with embeddings: rows drawn from a small pool
    with a zero row, so CV ties across topics and the stable rank shows; M
    below and above V; one to a few live topics; parent lists that are empty,
    longer than M or repeat a word; flagged tokens. With `retire`, document 0
    is one token of its own topic, which the test retires after `_grow` and
    replaces by a birth in the freed column, so columns leave id order."""
    V = draw(st.integers(1, 7))
    words = st.integers(0, V - 1)
    n_parents = draw(st.integers(0, 2))
    M = draw(st.integers(1, V + 2))
    forced = (draw(st.dictionaries(words, st.integers(0, n_parents - 1), max_size=2))
              if n_parents else {})
    rows = draw(st.dictionaries(words, st.sets(words, min_size=1, max_size=3), max_size=3))
    promotion = {w: sorted(ts) for w, ts in rows.items()}
    plain = draw(st.lists(st.integers(n_parents, n_parents + 6), min_size=1, max_size=3,
                          unique=True))
    docs, t, topics, flags = [], [], [], []
    for _ in range(draw(st.integers(1, 4))):
        doc = draw(st.lists(words, min_size=1, max_size=6))
        docs.append(doc)
        t.append(list(range(len(doc))))   # one table per token
        topics.append([forced[w] if w in forced
                       else draw(st.sampled_from(plain + list(range(n_parents))))
                       for w in doc])
        flags.append([int(w in promotion and draw(st.booleans())) for w in doc])
    free = [w for w in range(V) if w not in forced]
    retire = bool(free) and draw(st.booleans())
    if retire:   # a topic id above every other, alone in document 0
        docs.insert(0, [draw(st.sampled_from(free))])
        t.insert(0, [0])
        topics.insert(0, [max(plain) + 1])
        flags.insert(0, [0])
    seed = draw(st.integers(0, 2**32 - 1))
    pool = np.vstack([np.zeros(3), np.random.default_rng(seed).normal(size=(2, 3))])
    norms = pool[draw(st.lists(st.integers(0, 2), min_size=V, max_size=V))]
    kwargs = dict(forced_topic=forced, n_parents=n_parents, promotion=promotion,
                  embedding_norms=norms,
                  parent_representatives={q: draw(st.lists(words, max_size=M + 2))
                                          for q in range(n_parents)})
    hp = Hyperparameters(initial_topics=n_parents + 1, n_representatives=M,
                         beta=draw(st.sampled_from([0.01, 0.13, 0.5])),
                         promotion_weight=draw(st.sampled_from([0.1, 0.3, 0.77])))
    return docs, V, hp, (t, topics, flags), kwargs, retire


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cohesion_states())
def test_cohesion_cache_of_a_drawn_state_equals_the_oracle(case):
    docs, V, hp, state, kwargs, retire = case
    kernel = HDPSampler(*stream(docs), V, hp, 0, **kwargs)
    oracle = OracleSampler(docs, V, hp, 0, **kwargs)
    kernel.set_state(*flat_state(*state))
    oracle.set_state(*state)
    if retire:
        kernel._grow()
        born, freed = kernel.next_topic, kernel._columns()[state[1][0][0]]
        for s in (kernel, oracle):
            s._detach(0, 0)   # its topic retires and frees a column
            s._ensure_table(0, 0, born)
            s._attach(0, 0, 0, 0)
        assert kernel._columns()[born] == freed   # below the columns of older topics
    kernel.refresh_cohesion()
    oracle.refresh_cohesion()
    assert_same_cohesion(kernel, oracle)
    assert kernel._tilde_row[kernel._by_id[:len(kernel.topic_row)]].tolist() == list(
        range(len(kernel.topic_row)))


def test_norms_of_any_layout_or_float_type_give_the_same_cache():
    """The kernel reads the norms through one pointer as C-ordered float64, so
    the sampler converts them once; the fingerprint hashes them as given."""
    docs, V, hp, state, _, kwargs = COHESION_CASES["promotion mass"]
    single = unit_rows(V, 4, 7).astype(np.float32)
    double = single.astype(np.float64)

    def cache(norms):
        s = HDPSampler(*stream(docs), V, hp, 0, embedding_norms=norms, **kwargs)
        s.set_state(*flat_state(*state))
        s.refresh_cohesion()
        return s.cv.tobytes(), s.tilde.tobytes(), s.topic_row
    expected = cache(double)
    for norms in (np.asfortranarray(double), single, np.repeat(double, 2, axis=1)[:, ::2]):
        assert cache(norms) == expected


def test_single_steps_reject_arguments_outside_the_state():
    s = HDPSampler(*stream([[0, 1, 2], [2]]), 3, Hyperparameters(initial_topics=2), seed=0,
                   promotion={0: [0]})
    s.set_state(*flat_state([[0, 0, 1], [0]], [[1, 1], [1]]))
    for step, args in ((s._detach, (2, 0)), (s._detach, (0, 3)), (s.draw_table, (0, 3)),
                       (s.draw_table, (-1, 0)), (s.draw_topic, (0, -1)), (s.draw_flag, (3, 1)),
                       (s.table_weights, (0, 3)), (s._ensure_table, (0, 2, 1))):
        with pytest.raises(IndexError, match="out of range"):
            step(*args)
    t, _, _ = s._detach(0, 1)   # table 0 keeps token 0
    with pytest.raises(IndexError, match="out of range"):
        s._attach(0, 1, t, 1)   # word 1 has no promotion row to add
    s._attach(0, 1, t, 0)
    t, k, _ = s._detach(0, 2)   # table 1 seated token 2 only, so it is dead now
    with pytest.raises(ConsistencyError, match="not a live table"):
        s._attach(0, 2, t, 0)
    s._ensure_table(0, t, k)
    s._attach(0, 2, t, 0)
    s.check_invariants()


# ------------------------------------------------------------- compaction


COMPACTION_DOCS = [[0, 1, 2], [1, 2, 3], [2, 3, 0], [0, 1], [3, 3, 1, 0]]
COMPACTION_STATE = (   # dead slots first, in the middle and last; none; all but one
    [[1, 2, 2], [0, 2, 0], [0, 1, 1], [0, 1], [1, 1, 1, 1]],
    [[-1, 3, 4], [3, -1, 4], [3, 4, -1], [3, 4], [-1, 4, -1]],
    [[1, 0, 0], [0, 0, 0], [0, 0, 1], [1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize("grow", [False, True])
def test_compaction_equals_the_oracle(grow):
    hp = Hyperparameters(initial_topics=2, promotion_weight=0.3)
    kwargs = dict(promotion={0: [0, 1], 2: [3]})
    kernel = HDPSampler(*stream(COMPACTION_DOCS), 4, hp, 5, **kwargs)
    oracle = OracleSampler(COMPACTION_DOCS, 4, hp, 5, **kwargs)
    kernel.set_state(*flat_state(*COMPACTION_STATE))
    oracle.set_state(*COMPACTION_STATE)
    if grow:
        kernel._grow()
    kernel.compact_tables()
    oracle.compact_tables()
    assert oracle.table_topic == [[3, 4], [3, 4], [3, 4], [3, 4], [4]]
    assert_same_state(kernel, oracle)
    slot = np.arange(len(kernel._tab_col)) - kernel._tok_base   # index in its document
    past = slot >= np.repeat(kernel._n_tab, kernel._lengths)
    assert (kernel._tab_col[past] == -1).all()
    assert not kernel._tab_units[past].any() and not kernel._tab_promos[past].any()
    kernel.check_invariants()
    kernel.run(2, check_invariants=True)
    oracle.run(2)
    assert_same_state(kernel, oracle)


def test_the_kernel_never_writes_its_input_arrays():
    """The fingerprint is the digest of `KERNEL_INPUTS`, so they must hold
    their bytes through refreshes, sweeps with promotion, a growth of the topic
    columns and compactions."""
    rng = np.random.default_rng(0)
    norms = rng.normal(size=(12, 4))
    s = HDPSampler(*stream([rng.integers(12, size=8).tolist() for _ in range(10)]), 12,
                   Hyperparameters(initial_topics=3, n_representatives=3, gamma=6.0), 1,
                   forced_topic={0: 0, 1: 0}, n_parents=1, parent_representatives={0: [0, 1]},
                   promotion={0: [0, 2], 5: [5, 1, 7]},
                   embedding_norms=norms / np.linalg.norm(norms, axis=1, keepdims=True))
    before = {name: getattr(s, "_" + name).tobytes() for name in KERNEL_INPUTS}
    s.initialize()
    cap = s._cap
    s.run(8)
    assert s._cap > cap and sum(map(sum, s.flags)) > 0
    assert {name: getattr(s, "_" + name).tobytes() for name in KERNEL_INPUTS} == before


def test_every_exported_kernel_function_has_a_signature():
    """ctypes passes the arguments of a function it has no argtypes for as C
    ints, which truncate 64-bit pointers."""
    with open(_native.SOURCE) as fh:
        prototypes = re.findall(r"^int64_t (qd_\w+)\(([^)]*)\)", fh.read(), re.M)
    assert len(prototypes) > 10
    arity = {name: 0 if params.strip() in ("", "void") else params.count(",") + 1
             for name, params in prototypes}
    assert arity == {name: len(args) for name, args in _native.SIGNATURES.items()}


# ------------------------------------------------- the query path's array passes


def argsort_top(values: np.ndarray, n: int) -> list[int]:
    """`top_n`'s oracle: one full stable sort."""
    return np.argsort(-values, kind="stable")[:n].tolist()


# few distinct values, so most draws hold ties, signed zeros and both infinities
entries = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf, -math.inf, math.nan]),
                    st.floats())


@settings(max_examples=400, deadline=None)
@given(st.lists(entries, max_size=30), st.integers(0, 35))
def test_top_n_equals_the_full_stable_sort(values, n):
    values = np.array(values, dtype=np.float64)
    assert _native.top_n(values, n).tolist() == argsort_top(values, n)


@pytest.mark.parametrize("n", [1, 2, 99, 100, 4999, 5000, 5001])
def test_top_n_equals_the_full_stable_sort_on_many_ties(n):
    rng = np.random.default_rng(n)
    for values in (rng.integers(0, 4, 5000).astype(float), rng.random(5000),
                   np.where(rng.random(5000) < 0.3, math.nan, rng.integers(0, 3, 5000))):
        assert _native.top_n(values, n).tolist() == argsort_top(values, n)


def test_log_has_the_bits_of_math_log():
    """libm `log` is what `math.log` calls for a positive float: subnormals,
    1.0 and its neighbours, the largest double and inf, and random bit
    patterns over every positive finite double. An entry not above 0, or
    NaN, gives -inf (the query path's rule, where math.log would raise)."""
    edges = [5e-324, 1e-310, 2.2250738585072014e-308, np.nextafter(1.0, 0.0), 1.0,
             np.nextafter(1.0, 2.0), 1.7976931348623157e308, math.inf,
             0.0, -0.0, -5e-324, -1.0, -math.inf, math.nan]
    bits = np.random.default_rng(0).integers(1, 0x7FF0000000000000, 20000, dtype=np.uint64)
    x = np.concatenate([edges, bits.view(np.float64)])
    expected = np.array([math.log(v) if v > 0 else -math.inf for v in x.tolist()])
    assert _native.log(x).tobytes() == expected.tobytes()
    assert _native.log(np.array([])).shape == (0,)


# ------------------------------------------------------------------- build


def test_the_kernel_compiles_without_warnings(tmp_path):
    out = subprocess.run([*_native.compiler(), *_native.FLAGS, "-Wall", "-Wextra",
                          "-Wconversion", "-Werror", "-o", str(tmp_path / "sweep.so"),
                          _native.SOURCE], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_the_ctypes_state_has_the_c_layout(tmp_path):
    """`qd_state` is declared in sweep.c and again in `_native.State`, and
    `qd_ingest_state` again in `_native.Ingest`. Their sizes alone, which
    `library()` checks, miss two fields of one size that trade places; the
    offset of every field does not."""
    structs = {"qd_state": _native.State, "qd_ingest_state": _native.Ingest}
    probe = tmp_path / "probe.c"
    probe.write_text('#include <stddef.h>\n#include <stdio.h>\n#include "sweep.c"\n'
                     'int main(void) {\n'
                     + "".join(f'    printf("{c} size %zu\\n", sizeof({c}));\n'
                               + "".join(f'    printf("{c} {n} %zu\\n", offsetof({c}, {n}));\n'
                                         for n, _ in struct._fields_)
                               for c, struct in structs.items())
                     + "    return 0;\n}\n")
    exe = tmp_path / "probe"
    build = subprocess.run([*_native.compiler(), "-std=c99", "-I", os.path.dirname(_native.SOURCE),
                            "-o", str(exe), str(probe), *_native.LIBS], capture_output=True,
                           text=True, timeout=120)
    assert build.returncode == 0, build.stderr
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True, timeout=60)
    layout = {(c, name): int(offset) for c, name, offset in map(str.split, out.stdout.splitlines())}
    assert layout == {key: value for c, struct in structs.items()
                      for key, value in [((c, "size"), ctypes.sizeof(struct)),
                                         *(((c, n), getattr(struct, n).offset)
                                           for n, _ in struct._fields_)]}


def small_run() -> HDPSampler:
    s = HDPSampler(*stream([[0, 1, 2, 1], [2, 0]]), 3, Hyperparameters(initial_topics=2), seed=4)
    s.initialize()
    s.run(2)
    return s


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no library loaded in this process."""
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path / "cache"))
    _native.library.cache_clear()
    yield tmp_path / "cache"
    _native.library.cache_clear()


UBSAN = ("-fsanitize=undefined", "-fno-sanitize-recover=all")
UBSAN_RUN = """
import sys
import numpy as np
from qdtm import _native
_native.CACHE_DIR, _native.FLAGS = sys.argv[1], _native.FLAGS + tuple(sys.argv[2:])
from qdtm.sampler import ConsistencyError, HDPSampler, Hyperparameters
rng = np.random.default_rng(0)
norms = rng.normal(size=(12, 4))
s = HDPSampler(rng.integers(12, size=80), np.arange(0, 81, 8), 12,
               Hyperparameters(initial_topics=3, n_representatives=3, gamma=6.0), 1,
               forced_topic={0: 0, 1: 0}, n_parents=1, parent_representatives={0: [0, 1, 0]},
               promotion={0: [0, 2], 5: [5, 1, 7]},
               embedding_norms=norms / np.linalg.norm(norms, axis=1, keepdims=True))
s.initialize()
s.run(8, check_invariants=True)   # a refresh, a sweep and a compaction each
s.load_state_dict(s.state_dict())
s.run(2, check_invariants=True)
s.next_topic = 2**63 - 1
try:
    for _ in range(20):
        s.run(1)
except ConsistencyError as e:
    print(e)
print(len(s.m_k), s._cap, sum(map(sum, s.flags)), _native.library_path())
print(_native.log(np.array([5e-324, 1.0, 1.7976931348623157e308, np.inf, 0.0, -1.0,
                            np.nan])).tolist())
from qdtm import ingest
from qdtm.embeddings import dots
corpus = ingest([(f"d{j}", " ".join(f"T{j * 60 + i}x 42 \\u00e9\\U0001f600" for i in range(60)))
                 for j in range(300)])   # 18000 distinct tokens: the intern table grows twice
print(len(corpus.vocab), corpus.index.total_tokens, dots(norms, norms[0]).shape,
      dots(norms[:, :3], norms[:, :3]).shape, dots(norms[0], norms[1]).shape)
"""


def test_the_kernel_runs_clean_under_the_undefined_behaviour_sanitizer(tmp_path, monkeypatch):
    """A fit with embeddings and promotion, compactions, a growth of the topic
    columns, a resume, a birth past the largest topic id, the query path's
    logarithm, an ingest that grows the intern table and the dot products, on
    a build that aborts at any undefined behaviour (a signed overflow, an
    out-of-range shift, a misaligned read)."""
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_native, "FLAGS", _native.FLAGS + UBSAN)
    try:
        _native.build(_native.library_path())
    except _native.BuildError as e:
        if "sanitize" in str(e) or "ubsan" in str(e):
            pytest.skip(f"the compiler has no undefined-behaviour sanitizer: {e}")
        raise
    out = subprocess.run([sys.executable, "-c", UBSAN_RUN, str(tmp_path), *UBSAN],
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert "runtime error" not in out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("no topic id is left")
    live, cap, flagged, path = lines[1].split()
    assert int(live) > 3 and int(cap) > 3 + COLUMN_HEADROOM and int(flagged) > 0
    assert path == _native.library_path()
    assert lines[2] == repr([math.log(5e-324), 0.0, math.log(1.7976931348623157e308), math.inf,
                             -math.inf, -math.inf, -math.inf])
    assert lines[3] == "18000 18000 (12,) (12,) ()"


def test_import_qdtm_neither_builds_nor_loads_the_kernel():
    code = ("import sys; import numpy; before = 'ctypes' in sys.modules; "
            "import qdtm, qdtm.cli, qdtm.pipeline, qdtm.sampler; "
            "print('qdtm._native' in sys.modules, 'ctypes' in sys.modules and not before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]


COLD_CACHE = """
import random, sys
import numpy as np
from qdtm import _native
_native.CACHE_DIR = sys.argv[1]   # the library is built here too
"""
# numpy.random is not loaded: it imports hashlib itself, through `secrets`
QUERY_PATH = COLD_CACHE + """
from qdtm import (EmbeddingTable, extract_concept_words, ingest, npmi_coherence, parse_query,
                  retrieve)
rng = random.Random(1)
corpus = ingest([(f"d{j}", " ".join(f"w{rng.randrange(40 if j % 3 else 10):02d}"
                                    for _ in range(30))) for j in range(60)])
table = EmbeddingTable(4, {w: np.array([rng.gauss(0, 1) for _ in range(4)])
                           for w in range(len(corpus.vocab))}, len(corpus.vocab))
query = parse_query("w00 w01", corpus)
retrieved = retrieve(corpus, query)
for method in ("kld", "rel"):
    words = extract_concept_words(corpus, query, retrieved, method, table=table).word_ids()
    npmi_coherence([corpus.vocab.token_of(w) for w in words], corpus)
"""
# the sampler's generator does load numpy.random; whatever imports them after that is qdtm
FIT = COLD_CACHE + """
import numpy.random
from qdtm import EmbeddingTable, SyntheticSpec, fit_topics, generate, ingest
from qdtm.synth import block_embeddings
spec = SyntheticSpec(seed=1)
records, truth = generate(spec)
corpus = ingest([(r["id"], r["text"]) for r in records])
table = EmbeddingTable(16, {corpus.vocab.id_of(tok): v for tok, v in block_embeddings(spec).items()
                            if tok in corpus.vocab}, len(corpus.vocab))
for name in ("base64", "hashlib", "_hashlib"):
    sys.modules.pop(name, None)
fit_topics(corpus, [" ".join(truth["topic_top_words"][truth["rare_topic"]][:2])], "kld",
           embeddings=table, iterations_phase1=3, iterations_phase2=1)
"""
LOADED = "\nprint('base64' in sys.modules, 'hashlib' in sys.modules, '_hashlib' in sys.modules)"


def test_import_qdtm_loads_neither_base64_nor_hashlib(tmp_path):
    """Only checkpoints need them; hashlib loads OpenSSL (3.5 MB resident). Not
    at import, nor on the query path (retrieve, kld and rel expansion, NPMI)
    or in a fit without a checkpoint, both of which build and load the library."""
    code = ("import sys; import qdtm, qdtm.cli, qdtm.pipeline, qdtm.sampler; "
            "print('base64' in sys.modules, 'hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "False"]
    for name, run in (("query", QUERY_PATH), ("fit", FIT)):
        out = subprocess.run([sys.executable, "-c", run + LOADED, str(tmp_path / name)],
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "False", "False"], name
        assert len(list((tmp_path / name).iterdir())) == 1, name


def test_a_second_sampler_loads_the_cache_without_the_compiler(cold_cache, monkeypatch):
    first = small_run()
    assert [p.name for p in cold_cache.iterdir()] == [os.path.basename(_native.library_path())]
    _native.library.cache_clear()   # as in a new process

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached library was compiled again")
    monkeypatch.setattr(_native.subprocess, "run", no_compiler)
    assert list(small_run().t) == list(first.t)


def test_a_missing_compiler_is_an_error_that_names_it(cold_cache, monkeypatch):
    config_var = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: (
        "qdtm-no-such-cc -pthread" if name == "CC" else config_var(name)))
    with pytest.raises(_native.BuildError, match="needs a C compiler.*'qdtm-no-such-cc'"):
        small_run()
    assert list(cold_cache.iterdir()) == []   # no partial library left behind


def test_an_unwritable_cache_is_an_error_that_names_it(cold_cache, monkeypatch):
    cold_cache.write_text("a file where the cache directory should be")
    monkeypatch.setattr(_native, "CACHE_DIR", str(cold_cache / "sub"))
    with pytest.raises(_native.BuildError, match=f"cannot write the compiled-sweep cache "
                                                 f"{cold_cache / 'sub'}"):
        small_run()


def test_two_processes_building_on_a_cold_cache_both_succeed(tmp_path):
    code = ("import sys; from qdtm import _native; _native.CACHE_DIR = sys.argv[1]; "
            "from qdtm.sampler import HDPSampler, Hyperparameters; "
            "import numpy as np; "
            "s = HDPSampler(np.array([0, 1, 2, 1, 2, 0]), np.array([0, 4, 6]), 3, "
            "Hyperparameters(initial_topics=2)); "
            "s.initialize(); s.run(2); print(list(s.t))")
    start = time.monotonic()
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": SRC}) for _ in range(2)]
    try:
        outs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait(timeout=10)
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(_native.library_path())]
    assert time.monotonic() - start < 120
