import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm.corpus import ingest
from qdtm.pipeline import run_phase2
from qdtm.sampler import M_TOTAL, ConsistencyError, HDPSampler, Hyperparameters, SamplerError

from helpers import (checkpoint_array, flat_state, sampler_cases, start_topics_oracle,
                     stream)
from sampler_oracle import UniformStream, _sum


def snapshot(s):
    return (copy.deepcopy(s.nkw_units), copy.deepcopy(s.nkw_promos),
            dict(s.nk_units), dict(s.nk_promos),
            copy.deepcopy(s.table_units), copy.deepcopy(s.table_promos),
            copy.deepcopy(s.table_topic), dict(s.m_k), s.m_total)


def small_hp(**kw):
    defaults = dict(initial_topics=3)
    defaults.update(kw)
    return Hyperparameters(**defaults)


def test_hyperparameter_validation():
    with pytest.raises(SamplerError):
        Hyperparameters(alpha=0).validate()
    for bad_u in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(SamplerError, match="promotion weight"):
            Hyperparameters(promotion_weight=bad_u).validate()
    with pytest.raises(SamplerError):
        Hyperparameters(initial_topics=1).validate(n_queries=1)
    for bad_tau in (2.0, 1.0001, -1.5):
        with pytest.raises(SamplerError, match=f"cosine_threshold .* got {bad_tau}"):
            Hyperparameters(cosine_threshold=bad_tau).validate()
    for tau in (-1.0, 1.0):
        Hyperparameters(cosine_threshold=tau).validate()
    Hyperparameters().validate(n_queries=2)


@pytest.mark.parametrize("k", [2**63, 10**20])
def test_initial_topics_must_be_an_int64_topic_id(k):
    """Bug bc: `initialize` failed at 10**20 in numpy ("high is out of bounds
    for int64") and at 2**63 with an `OverflowError`, neither naming a field.
    The largest int64 is a valid K."""
    with pytest.raises(SamplerError, match=rf"^initial_topics must be below 2\*\*63, as an "
                                           rf"int64 topic id, got {k}$"):
        Hyperparameters(initial_topics=k).validate()
    s = HDPSampler(*stream([[0, 1], [1]]), 2, small_hp(initial_topics=2**63 - 1), seed=0,
                   parents=[[0]])
    s.initialize()
    assert s.next_topic == 2**63 - 1 and min(s.m_k) == 0 and max(s.m_k) > 0


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "cosine_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_hyperparameter_rejected(name, value):
    with pytest.raises(SamplerError, match=name):
        Hyperparameters(**{name: value}).validate()


ONE_DOC = stream([[0, 1]])


@pytest.mark.parametrize("docs, kwargs, message", [
    (stream([[-1, 0, 1], [2, 2]]), {}, r"words\[0\] = -1 is not a word id in \[0, 3\)"),
    (stream([[0, 1], [2, 3]]), {}, r"words\[3\] = 3 is not a word id in \[0, 3\)"),
    ((np.array([0, 1.5]), ONE_DOC[1]), {},
     "words must be a 1-D integer array, got 1-D float64"),
    (ONE_DOC, {"promotion": {0: [0, 3]}}, "word 0 targets 3"),
    (ONE_DOC, {"promotion": {0: [-1]}}, "word 0 targets -1"),
    (ONE_DOC, {"promotion": {4: [0]}}, "promotion row of word 4"),
    (ONE_DOC, {"promotion": {0: []}}, "promotion row of word 0 is empty"),
    # the one container of the parents' concept words, one list of word ids per parent
    (ONE_DOC, {"parents": {0: [1]}}, "^parents must be a list of word-id lists, got dict$"),
    (ONE_DOC, {"parents": 5}, "^parents must be a list of word-id lists, got int$"),
    (ONE_DOC, {"parents": [[0], [3]]}, r"parents\[1\] holds 3, not a word id in \[0, 3\)"),
    (ONE_DOC, {"embedding_norms": np.eye(2)}, "embedding_norms has 2 rows for 3 words"),
    (ONE_DOC, {"embedding_norms": np.ones(3)}, "embedding_norms must be a matrix, got 1 axes"),
    (ONE_DOC, {"parents": [[1, 3]]}, r"parents\[0\] holds 3, not a word id in \[0, 3\)"),
    (ONE_DOC, {"parents": [[-1]]}, r"parents\[0\] holds -1"),
    (ONE_DOC, {"parents": "01"}, "^parents must be a list of word-id lists, got str$"),
    *((ONE_DOC, {"parents": [row]}, rf"^parents\[0\] must be a list of word ids, got {got}$")
      for row, got in (("12", "'12'"), (b"1", r"b'1'"), ({1}, r"\{1\}"), (None, "None"),
                       (np.array([1]), r"array\(\[1\]\)"))),
    # the token stream's rules; a bool array was read as word ids 1 and 0
    ((np.array([True, False]), ONE_DOC[1]), {},
     "words must be a 1-D integer array, got 1-D bool"),
    ((np.array([[0, 1]]), ONE_DOC[1]), {}, "words must be a 1-D integer array, got 2-D int64"),
    (([0, 1], ONE_DOC[1]), {}, "words must be a 1-D integer array, got list"),
    ((ONE_DOC[0], np.array([0.0, 2.0])), {},
     "doc_ptr must be a 1-D integer array, got 1-D float64"),
    ((ONE_DOC[0], np.array([False, True])), {},
     "doc_ptr must be a 1-D integer array, got 1-D bool"),
    ((ONE_DOC[0], np.array([[0, 2]])), {}, "doc_ptr must be a 1-D integer array, got 2-D int64"),
    ((np.array([], np.int64), np.array([0])), {}, "doc_ptr must have at least 2 entries, got 1"),
    ((ONE_DOC[0], np.array([], np.int64)), {}, "doc_ptr must have at least 2 entries, got 0"),
    ((ONE_DOC[0], np.array([1, 2])), {}, r"doc_ptr\[0\] = 1 must be 0"),
    ((ONE_DOC[0], np.array([0, 3])), {}, r"doc_ptr\[1\] = 3 must be len\(words\) = 2"),
    ((ONE_DOC[0], np.array([0, 1])), {}, r"doc_ptr\[1\] = 1 must be len\(words\) = 2"),
    # empty documents, and offsets that step back (unsigned ones would wrap if subtracted)
    (stream([[0, 1], []]), {},
     r"doc_ptr\[2\] = 2 is not above doc_ptr\[1\] = 2; every document must hold a token"),
    (stream([[], [0, 1]]), {}, r"doc_ptr\[1\] = 0 is not above doc_ptr\[0\] = 0"),
    ((np.array([0]), np.array([0, 2, 1], np.uint64)), {},
     r"doc_ptr\[2\] = 1 is not above doc_ptr\[1\] = 2"),
    # a string vocab_size raised UFuncTypeError, 2.5 and None a bare TypeError, True
    # reported "[0, True)"; seed 2.5 raised a numpy TypeError, None seeded from the OS
    *((ONE_DOC, {name: value}, f"^{name} must be >= {least} and an integer, got {value!r}$")
      for name, least, values in (("vocab_size", 1, ("3", 2.5, None, True, 0)),
                                  ("seed", 0, (2.5, None, True, -1)))
      for value in values),
    # bug av: an id that is not an integer truncated (1.7 -> 1), read True as 1, or
    # failed with a numpy IndexError or a bare TypeError
    (ONE_DOC, {"promotion": {0: [1.7]}}, r"promotion row of word 0 targets 1\.7, not a word id"),
    (ONE_DOC, {"promotion": {0: [True]}}, "promotion row of word 0 targets True"),
    (ONE_DOC, {"promotion": {"a": [1]}}, r"promotion row of word 'a': not a word id in \[0, 3\)"),
    (ONE_DOC, {"parents": [[0.0]]}, r"^parents\[0\] holds 0\.0, not a word id in \[0, 3\)$"),
    (ONE_DOC, {"parents": [[0], [1.5]]}, r"parents\[1\] holds 1\.5, not a word id in \[0, 3\)"),
    (ONE_DOC, {"parents": [[True]]}, r"parents\[0\] holds True, not a word id in \[0, 3\)"),
    (ONE_DOC, {"parents": [[1.5]]}, r"parents\[0\] holds 1\.5, not a word id"),
    (ONE_DOC, {"parents": [[1], (np.bool_(False),)]}, r"^parents\[1\] holds np\.False_, not"),
    # bug aw: NaN norms ran to a NaN cache, a string matrix failed in numpy and a
    # matrix without columns was accepted
    *((ONE_DOC, {"promotion": {0: [0, 1]}, "embedding_norms": norms}, message)
      for norms, message in (
          (np.full((3, 2), np.nan), r"embedding_norms\[0\]\[0\] = nan is not finite"),
          (np.where(np.eye(3) > 0, np.inf, 0.0), r"embedding_norms\[0\]\[0\] = inf"),
          (np.diag([1.0, -np.inf, 1.0]), r"embedding_norms\[1\]\[1\] = -inf is not finite"),
          (np.full((3, 2), "a"), "embedding_norms must hold numbers in at least one column, "
                                 "got 2 columns of <U1"),
          (np.ones((3, 2), bool), "embedding_norms must hold numbers .* of bool"),
          (np.empty((3, 0)), "embedding_norms must hold numbers in at least one column, "
                             "got 0 columns of float64"))),
    # bug ax: the containers went unchecked: a bare TypeError, an AttributeError, numpy's
    # ValueError, and a string row read as its characters ("targets '1'")
    (ONE_DOC, {"promotion": {0: 5}}, r"^promotion\[0\] must be a list of word ids, got 5$"),
    (ONE_DOC, {"parents": [5]}, r"^parents\[0\] must be a list of word ids, got 5$"),
    (ONE_DOC, {"parents": None}, "^parents must be a list of word-id lists, got NoneType$"),
    (ONE_DOC, {"embedding_norms": [[1.0, 0.0], [1.0], [0.0, 1.0]]},
     "^embedding_norms must be a matrix: setting an array element with a sequence"),
    (ONE_DOC, {"promotion": {0: "12"}}, r"^promotion\[0\] must be a list of word ids, got '12'$"),
    (ONE_DOC, {"parents": b"\x01"}, "^parents must be a list of word-id lists, got bytes$"),
    (ONE_DOC, {"parents": np.array([[0, 1]])}, "^parents must be a list of .* got ndarray$"),
    (ONE_DOC, {"parents": [[np.float64(1)]]}, r"^parents\[0\] holds np\.float64\(1\.0\), not"),
])
def test_constructor_rejects_ids_outside_the_vocabulary_or_parents(docs, kwargs, message):
    with pytest.raises(SamplerError, match=message):
        HDPSampler(*docs, **{"vocab_size": 3, "hp": small_hp(), "seed": 0, **kwargs})


def test_the_sampler_keeps_its_own_copy_of_the_token_stream():
    """The kernel reads the stream through pointers: a strided view is read by
    its values, and a later write to the caller's arrays changes nothing."""
    words, doc_ptr = stream([[0, 1, 2], [2, 1]])
    twice = np.repeat(words, 2)
    s = HDPSampler(twice[::2], doc_ptr, 3, small_hp(), seed=0)
    twice[:], doc_ptr[:] = 0, 0
    assert s.docs == [[0, 1, 2], [2, 1]]
    s.initialize()
    s.run(2, check_invariants=True)


def test_a_read_only_token_stream_of_the_kernel_dtypes_is_not_copied():
    """Ingest's arrays are read-only, int32 ids and int64 offsets: a second
    copy of the token stream cost 4 MB per million tokens. Neither a read-only
    array of another dtype nor a read-only strided view is kept as it is."""
    corpus = ingest([("a", "xx yy zz yy"), ("b", "zz xx")])
    shared = HDPSampler(corpus.token_ids, corpus.doc_ptr, len(corpus.vocab), small_hp(), seed=0)
    assert np.shares_memory(shared._words, corpus.token_ids)
    assert np.shares_memory(shared._doc_ptr, corpus.doc_ptr)
    words, doc_ptr = (a.astype(np.int64) for a in (corpus.token_ids, corpus.doc_ptr))
    twice = np.repeat(corpus.token_ids, 2)
    for a in (words, twice):
        a.flags.writeable = False
    for w in (words, twice[::2]):
        s = HDPSampler(w, doc_ptr, len(corpus.vocab), small_hp(), seed=0)
        assert not np.shares_memory(s._words, w) and s._words.dtype == np.int32
    shared.initialize()
    shared.run(2, check_invariants=True)
    assert shared.docs == [[0, 1, 2, 1], [2, 0]]


def test_counts_may_be_numpy_integers():
    s = HDPSampler(*ONE_DOC, np.int64(3), small_hp(), np.uint32(5))
    s.initialize()
    s.run(np.int16(1))
    assert s.iterations_done == 1


@pytest.mark.parametrize("iterations", [0, -1, 2.5, True, "1", None], ids=repr)
def test_run_takes_a_count_of_sweeps(iterations):
    """2.5 raised a bare TypeError, and True ran one sweep."""
    s = HDPSampler(*ONE_DOC, 2, small_hp(), seed=0)
    s.initialize()
    with pytest.raises(SamplerError,
                       match=f"^iterations must be >= 1 and an integer, got {iterations!r}$"):
        s.run(iterations)
    assert s.iterations_done == 0


@pytest.mark.parametrize("name, value", [
    ("alpha", float("nan")), ("alpha", -1), ("alpha", 0), ("beta", -0.5), ("gamma", 0),
    ("promotion_weight", 0), ("promotion_weight", 1), ("promotion_weight", 2),
    ("n_representatives", 0)], ids=repr)
def test_a_hyperparameter_out_of_range_is_rejected_by_the_sampler(name, value):
    """The sampler and phase 2 used to fit with these: beta = -0.5 left dozens
    of live topics on ten short documents. The message names the field and
    its value."""
    hp = small_hp(**{name: value})
    message = rf"{name}\b.* got {re.escape(str(value))}$"
    with pytest.raises(SamplerError, match=message):
        HDPSampler(*stream([[0, 1], [1, 2]]), 3, hp, seed=0)
    with pytest.raises(SamplerError, match=message):
        run_phase2(*stream([[0, 1], [1, 2]]), hp, seed=0, iterations=1)


@pytest.mark.parametrize("start", ["initialize", "set_state"])
def test_initial_topics_must_leave_a_topic_beyond_the_parents(start):
    """`set_state` never reaches `initialize`, so the rule is checked when the
    sampler is built."""
    with pytest.raises(SamplerError, match="initial_topics must be >= 2 and an integer, got 1"):
        s = HDPSampler(*stream([[0, 1]]), 2, small_hp(initial_topics=1), seed=0, parents=[[0]])
        if start == "initialize":
            s.initialize()
        else:
            s.set_state(*flat_state([[0, 0]], [[0]]))


HYPERPARAMETER_FIELDS = [f.name for f in dataclasses.fields(Hyperparameters)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(HYPERPARAMETER_FIELDS),
       st.sampled_from([0, -1, float("nan"), float("inf"), float("-inf"), 1e308,
                        "1", None, True]))
def test_the_sampler_is_built_exactly_when_its_hyperparameters_validate(name, value):
    hp = Hyperparameters(**{name: value})

    def build():
        return HDPSampler(*stream([[0, 1], [2]]), 3, hp, seed=0, parents=[[0]])
    try:
        hp.validate(n_queries=1)
    except SamplerError:
        with pytest.raises(SamplerError, match=name):
            build()
    else:
        build()


@pytest.mark.parametrize("name", HYPERPARAMETER_FIELDS)
@pytest.mark.parametrize("value", ["1", None, True], ids=repr)
def test_a_hyperparameter_that_is_not_a_number_is_rejected(name, value):
    """A string or None raised a bare TypeError naming no field, and True was
    taken for 1 in alpha, initial_topics and n_representatives."""
    kind = "an integer" if name in ("initial_topics", "n_representatives") else "a number"
    with pytest.raises(SamplerError, match=f"^{name} must be {kind}, got {value!r}$"):
        Hyperparameters(**{name: value}).validate()


@pytest.mark.parametrize("m", [0, -1])
def test_constructor_rejects_fewer_than_one_representative(m):
    """The kernel keeps a topic's top M words in a buffer of M entries."""
    with pytest.raises(SamplerError, match="n_representatives must be >= 1"):
        HDPSampler(*stream([[0, 1]]), 3, small_hp(n_representatives=m), seed=0)


def test_initialize_one_table_per_token():
    docs = [[0, 1, 2, 3, 4]]
    s = HDPSampler(*stream(docs), 5, small_hp(), seed=0)
    s.initialize()
    assert len(s.table_topic[0]) == 5
    # all tables of a concept-free document share one topic
    assert len(set(s.table_topic[0])) == 1
    s.check_invariants()


def test_initialize_pins_concept_words():
    docs = [[0, 1, 2], [2, 0, 2]]
    s = HDPSampler(*stream(docs), 3, small_hp(), seed=1, parents=[[2]])
    s.initialize()
    for j, doc in enumerate(docs):
        for i, w in enumerate(doc):
            k = s.table_topic[j][s.t[j][i]]
            if w == 2:
                assert k == 0
            else:
                assert k != 0  # base topic drawn among non-parents
    assert s.nkw_units[0][2] == 3
    s.check_invariants()


@pytest.mark.parametrize("n_free", [1, 2, 3, 7, 19, 1000])
def test_initialize_draws_the_start_topics_of_the_per_document_loop(n_free):
    docs = [[0, 1], [1], [2, 0, 1]] * 13
    for seed in range(20):
        s = HDPSampler(*stream(docs), 3, small_hp(initial_topics=n_free + 1), seed=seed,
                       parents=[[]])
        s.initialize()
        rng = np.random.default_rng(seed)
        assert ([row[0] for row in s.table_topic]
                == start_topics_oracle(rng, list(range(1, n_free + 1)), len(docs)))
        assert s.rng.bit_generator.state == rng.bit_generator.state


def test_predictive_prob_symmetric_prior():
    docs = [[0, 1]]
    s = HDPSampler(*stream(docs), 100, Hyperparameters(beta=0.5, initial_topics=2), seed=0)
    s.set_state(*flat_state([[0, 0]], [[3, -1]]))
    s._ensure_table(0, 1, 5)   # topic 5 is born at an empty table
    assert s.phi(5)[7] == pytest.approx(0.5 / 50)  # == 1/|V|
    assert s.base_density == pytest.approx(1 / 100)


def test_phase2_base_density():
    docs = [[0]]
    s = HDPSampler(*stream(docs), 40, small_hp(), seed=0)
    assert s.base_density == pytest.approx(0.025)


def test_plain_round_trip_restores_state():
    docs = [[0, 1, 0, 2], [2, 2, 1]]
    s = HDPSampler(*stream(docs), 3, small_hp(), seed=2)
    s.initialize()
    s.run(3)
    before = snapshot(s)
    for j in range(len(docs)):
        for i in range(len(docs[j])):
            t, k, flag = s._detach(j, i)
            s._ensure_table(j, t, k)
            s._attach(j, i, t, flag)
    assert snapshot(s) == before


def test_gpu_round_trip_restores_state():
    # word 0 has a self-pair and two cross-pairs
    promo = {0: [0, 1, 2]}
    norms = np.eye(3)
    docs = [[0, 1, 2, 0]]
    s = HDPSampler(*stream(docs), 3, small_hp(), seed=3, promotion=promo,
                   embedding_norms=norms)
    s.initialize()
    s.run(5)
    before = snapshot(s)
    for i in range(len(docs[0])):
        t, k, flag = s._detach(0, i)
        s._ensure_table(0, t, k)
        s._attach(0, i, t, flag)
    assert snapshot(s) == before


def test_gpu_add_inflates_table_mass_by_row_sum():
    promo = {0: [0, 1, 2]}
    docs = [[0]]
    s = HDPSampler(*stream(docs), 3, small_hp(), seed=0, promotion=promo,
                   embedding_norms=np.eye(3))
    s.initialize()  # flag 0 at init
    t, k, _ = s._detach(0, 0)
    s._ensure_table(0, t, k)
    base = s.table_units[0][t] + 0.3 * s.table_promos[0][t]
    s._attach(0, 0, t, 1)
    mass = s.table_units[0][t] + 0.3 * s.table_promos[0][t]
    assert mass - base == pytest.approx(1 + 0.3 + 0.3)
    assert s.nkw_units[k][0] == 1       # self-pair promotes the word itself
    assert s.nkw_promos[k][1] == 1      # cross-pairs promote the concept words
    assert s.nkw_promos[k][2] == 1


def test_removing_last_token_retires_table_and_topic():
    docs = [[0, 1]]
    s = HDPSampler(*stream(docs), 2, small_hp(), seed=4)
    s.initialize()
    k0 = s.table_topic[0][s.t[0][0]]
    m_before = s.m_k[k0]
    s._detach(0, 0)
    assert s.table_topic[0][0] == -1
    assert s.m_k.get(k0, 0) == m_before - 1 or k0 not in s.m_k
    assert s.m_total == sum(s.m_k.values())


def test_parent_topic_never_retires():
    docs = [[0]]
    s = HDPSampler(*stream(docs), 2, small_hp(), seed=5, parents=[[0]])
    s.initialize()
    s._detach(0, 0)  # parent loses its only real table
    assert s.m_k[0] >= 1  # phantom table keeps the anchor alive


def test_constrained_word_forces_parent_topic():
    # document whose only table serves a non-parent topic; concept word must
    # open a new table bound to the parent
    docs = [[1, 1, 0]]
    s = HDPSampler(*stream(docs), 2, small_hp(), seed=6, parents=[[0]])
    s.initialize()
    s._detach(0, 2)
    # make the existing landscape hostile: all live tables non-parent
    weights, new_w = s.table_weights(0, 0)
    for t, k in enumerate(s.table_topic[0]):
        if k != 0:
            assert weights[t] == 0.0
    assert s.draw_topic(0, 0) == 0  # new-topic branch masked for concept words


def test_degenerate_alpha_selects_only_table():
    docs = [[1, 1]]
    s = HDPSampler(*stream(docs), 2, Hyperparameters(alpha=1e-300, initial_topics=2), seed=7)
    s.set_state(*flat_state([[0, 0]], [[1]]))
    s._detach(0, 1)
    for _ in range(50):
        assert s.draw_table(0, 1) == 0


def test_gamma_to_zero_picks_compatible_topic():
    docs = [[1, 1, 1]]
    s = HDPSampler(*stream(docs), 2, Hyperparameters(gamma=1e-300, initial_topics=2), seed=8)
    s.set_state(*flat_state([[0, 0, 0]], [[1]]))
    s._detach(0, 2)
    for _ in range(50):
        assert s.draw_topic(0, 1) == 1


def test_set_state_rebuilds_counts_exactly():
    docs = [[0, 1, 2], [2, 1]]
    s = HDPSampler(*stream(docs), 3, small_hp(), seed=9)
    s.set_state(*flat_state([[0, 0, 1], [0, 0]], [[2, 1], [1]]))
    s.check_invariants()
    assert s.nkw_units[2] == [1, 1, 0]
    assert s.nkw_units[1] == [0, 1, 2]
    assert s.m_k == {1: 2, 2: 1}
    assert s.m_total == 3


@pytest.mark.parametrize("key, edit, message", [
    ("t", list, "t must be a 1-D integer array, got list"),
    ("n_tab", lambda a: a[None, :], "n_tab must be a 1-D integer array, got 2-D int32"),
    ("table_topic", lambda a: a.astype(float),
     "table_topic must be a 1-D integer array, got 1-D float64"),
    ("flags", lambda a: a.astype(bool), "flags must be a 1-D integer array, got 1-D bool"),
    ("t", lambda a: a[:-1], "t has 4 entries, expected 5"),
    ("flags", lambda a: np.append(a, 0), "flags has 6 entries, expected 5"),
    ("n_tab", lambda a: a[:1], "n_tab has 1 entries, expected 2"),
    ("t", lambda a: np.full(len(a), 2**40), "t holds 1099511627776, which does not fit int32"),
    ("table_topic", lambda a: np.full(len(a), 2**63, np.uint64),
     "table_topic holds 9223372036854775808, which does not fit int64"),
], ids=["list", "2-D", "float", "bool", "short t", "long flags", "short n_tab", "t wraps",
        "table_topic wraps"])
def test_set_state_takes_only_integer_arrays_of_the_checkpoint_layout(key, edit, message):
    """Each array is checked before any is installed: a bad one names itself
    and leaves the sampler as it was."""
    s = HDPSampler(*stream([[0, 1, 2], [2, 1]]), 3, small_hp(), seed=4, promotion={1: [1]})
    s.initialize()
    s.run(2)
    state = s.state_dict()
    arrays = {k: checkpoint_array(state, k) for k in ("t", "n_tab", "table_topic", "flags")}
    arrays[key] = edit(arrays[key])
    with pytest.raises(SamplerError, match=f"^{re.escape(message)}$"):
        s.set_state(**arrays)
    assert s.state_dict() == state


@settings(max_examples=60, deadline=None)
@given(sampler_cases())
def test_set_state_installs_the_arrays_of_a_checkpoint(case):
    """The arrays of a run sampler's checkpoint, passed to a fresh sampler's
    `set_state`, give it the source's counts, and with the source's scalars its
    checkpoint and its next sweep."""
    docs, V, hp, seed, kwargs, sweeps = case
    source = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    source.initialize()
    source.run(sweeps)
    state = source.state_dict()
    fresh = HDPSampler(*stream(docs), V, hp, seed + 1, **kwargs)
    fresh.set_state(*(checkpoint_array(state, key) for key in ("t", "n_tab", "table_topic")),
                    flags=checkpoint_array(state, "flags"))
    fresh.check_invariants()
    assert snapshot(fresh) == snapshot(source)
    fresh.rng.bit_generator.state = source.rng.bit_generator.state
    fresh.next_topic, fresh.iterations_done = source.next_topic, source.iterations_done
    assert fresh.state_dict() == state
    source.run(1)
    fresh.run(1)
    assert fresh.state_dict() == source.state_dict()


def test_run_determinism():
    rng = np.random.default_rng(0)
    docs = [list(rng.integers(20, size=15)) for _ in range(10)]
    out = []
    for _ in range(2):
        s = HDPSampler(*stream(docs), 20, small_hp(), seed=42, parents=[[0]])
        s.initialize()
        s.run(20)
        out.append((s.t, s.table_topic, [s.phi(k).tolist() for k in s.live_topics()]))
    assert out[0] == out[1]


def test_constraint_holds_over_run():
    rng = np.random.default_rng(1)
    docs = [list(rng.integers(30, size=20)) for _ in range(15)]
    forced = [0, 1, 2]
    s = HDPSampler(*stream(docs), 30, small_hp(initial_topics=4), seed=10, parents=[forced])
    s.initialize()
    s.run(15, check_invariants=True)  # raises on any violation
    for j, doc in enumerate(s.docs):
        for i, w in enumerate(doc):
            if w in forced:
                assert s.table_topic[j][s.t[j][i]] == 0


def test_empty_concept_set_runs_plain_hdp():
    rng = np.random.default_rng(2)
    docs = [list(rng.integers(25, size=15)) for _ in range(12)]
    s = HDPSampler(*stream(docs), 25, small_hp(initial_topics=4), seed=11)
    s.initialize()
    s.run(15, check_invariants=True)
    assert s.live_topics()


def test_negative_iterations_rejected():
    s = HDPSampler(*stream([[0]]), 1, small_hp(), seed=0)
    s.initialize()
    with pytest.raises(SamplerError):
        s.run(0)


def test_check_invariants_catches_corruption():
    docs = [[0, 1]]
    s = HDPSampler(*stream(docs), 2, small_hp(), seed=12)
    s.initialize()
    s._nk_units[s._columns()[s.live_topics()[0]]] += 1
    with pytest.raises(ConsistencyError):
        s.check_invariants()


def test_check_invariants_catches_a_stale_view_after_a_topic_birth():
    s = HDPSampler(*stream([[0, 1]]), 2, small_hp(), seed=12)
    s.initialize()
    t, _, _ = s._detach(0, 1)   # one table per token, so table t dies
    stale = s._by_id.copy()   # the columns by topic id, before the birth
    s._ensure_table(0, t, s.next_topic)   # a topic birth
    s._attach(0, 1, t, 0)
    s.check_invariants()
    s._by_id[:] = stale
    with pytest.raises(ConsistencyError, match="column view"):
        s.check_invariants()


def test_a_birth_past_the_largest_topic_id_is_an_error():
    """At alpha = gamma = 1e6 the first token opens a table of a new topic;
    its id would overflow int64."""
    s = HDPSampler(*stream([[0, 1, 2]]), 3, small_hp(alpha=1e6, gamma=1e6), seed=0)
    s.initialize()
    s.next_topic = 2**63 - 1
    with pytest.raises(ConsistencyError, match="no topic id is left"):
        s.sweep()


def test_a_topic_id_that_leaves_no_next_topic_is_rejected():
    """next_topic is one above the highest live id and an int64 too."""
    s = HDPSampler(*stream([[0, 1]]), 2, small_hp(), seed=0)
    with pytest.raises(SamplerError, match=r"table_topic\[0\]\[0\] = 9223372036854775807 is "
                                           "neither a topic id nor -1"):
        s.set_state(*flat_state([[0, 0]], [[2**63 - 1]]))


def test_check_invariants_catches_a_table_count_without_a_table():
    s = HDPSampler(*stream([[0, 1]]), 2, small_hp(), seed=12)
    s.initialize()
    s._m[s._columns()[s.live_topics()[0]]] += 1
    s._scal[M_TOTAL] += 1
    with pytest.raises(ConsistencyError, match="m_k"):
        s.check_invariants()

def test_check_invariants_catches_a_fault_in_the_count_updates():
    # the footprint of a fault that acts alike for +1 and -1: a flagged add
    # that counts its cross-pair as a self-pair, leaving every total right
    promo = {0: [0, 1]}
    s = HDPSampler(*stream([[0, 1]]), 2, small_hp(), seed=0, promotion=promo,
                   embedding_norms=np.eye(2))
    s.set_state(*flat_state([[0, 0]], [[2]]))
    s._detach(0, 0)
    s._attach(0, 0, 0, flag=1)
    s.check_invariants()
    c = s._columns()[2]
    for units, promos, i in ((s._tab_units, s._tab_promos, 0),
                             (s._nkw_units[1], s._nkw_promos[1], c),
                             (s._nk_units, s._nk_promos, c)):
        units[i] += 1
        promos[i] -= 1
    with pytest.raises(ConsistencyError):
        s.check_invariants()


def test_check_invariants_reports_a_flag_without_a_promotion_row_as_inconsistent():
    """A corrupt flag is the sampler's fault, not bad input."""
    s = HDPSampler(*stream([[0, 1]]), 2, small_hp(), seed=0)
    s.initialize()
    s._tok_flag[1] = 1
    with pytest.raises(ConsistencyError, match=r"flags\[0\]\[1\] = 1 on word 1, which has no "
                                               "promotion row"):
        s.check_invariants()


@pytest.mark.parametrize("corrupt", ["live", "mass"])
def test_check_invariants_catches_a_slot_past_n_tab(corrupt):
    s = HDPSampler(*stream([[0, 1, 1]]), 2, small_hp(), seed=0)
    s.set_state(*flat_state([[0, 0, 0]], [[1]]))   # slots 1 and 2 are past n_tab[0] = 1
    s.check_invariants()
    if corrupt == "live":
        s._tab_col[2], s._tab_units[2] = s._tab_col[0], 1
    else:
        s._tab_promos[2] = 1
    with pytest.raises(ConsistencyError, match=r"table slot \(0,2\) past n_tab\[0\]"):
        s.check_invariants()


def test_set_state_builds_flagged_counts_without_the_incremental_updates(monkeypatch):
    def no_kernel(self, *args):
        raise AssertionError("set_state must not replay tokens through the kernel")

    promo = {0: [0, 1]}
    s = HDPSampler(*stream([[0, 1, 0]]), 2, small_hp(), seed=0, promotion=promo,
                   embedding_norms=np.eye(2))
    monkeypatch.setattr(HDPSampler, "_kernel", no_kernel)
    s.set_state(*flat_state([[0, 0, 1]], [[2, 1]], flag_rows=[[1, 0, 1]]))
    s.check_invariants()
    assert s.table_units == [[2, 1]] and s.table_promos == [[1, 1]]
    assert s.nkw_units == {2: [1, 1], 1: [1, 0]}
    assert s.nkw_promos == {2: [0, 1], 1: [0, 1]}
    assert (s.nk_units, s.nk_promos) == ({2: 2, 1: 1}, {2: 1, 1: 1})
    u, beta = s.u, s.hp.beta
    den = 1 + u * 1 + 2 * beta
    assert s.phi(1).tolist() == [(1 + u * 0 + beta) / den, (0 + u * 1 + beta) / den]


# -------------------------------------------------------------- table draws


class StubRng(UniformStream):
    """Returns the given uniforms in turn; any other draw sets `overdrawn`."""

    def __init__(self, *values):
        self.values = list(values)
        super().__init__(lambda: self.values.pop(0))


def test_sum_is_left_to_right():
    # sum() is compensated from Python 3.12 on and returns 1.0 there
    assert _sum([0.1] * 10) == 0.9999999999999999
    assert _sum([]) == 0.0


def test_table_draw_never_picks_dead_or_constraint_violating_slots():
    # slot 0 dead, slot 1 on parent topic 0, slot 2 on topic 2; word 4 is pinned to 0
    s = HDPSampler(*stream([[4, 4, 1, 1]]), 5, small_hp(), seed=0, parents=[[4]])
    s.set_state(*flat_state([[1, 1, 2, 2]], [[-1, 0, 2]]))
    s._detach(0, 0)
    uniforms = [i / 200 for i in range(200)] + [1.0]
    for w, allowed in ((4, {1, -1}), (1, {1, 2, -1})):
        s.rng = StubRng(*uniforms)
        draws = {s.draw_table(0, w) for _ in uniforms}
        assert draws == allowed and not s.rng.overdrawn


def test_table_draw_rounding_up_to_the_total_takes_the_last_positive_weight():
    # an alpha this small makes the new-table weight underflow to zero, so the
    # last positive weight is slot 0: slot 1 violates the constraint, slot 2 is dead
    s = HDPSampler(*stream([[4, 4, 1]]), 50, small_hp(alpha=5e-324), seed=0, parents=[[4]])
    s.set_state(*flat_state([[0, 0, 1]], [[0, 2, -1]]))
    s._detach(0, 0)
    weights, new_w = s.table_weights(0, 4)
    assert weights[0] > 0.0 and weights[1:] == [0.0, 0.0] and new_w == 0.0
    s.rng = StubRng(1.0)   # rng.random() * total == total
    assert s.draw_table(0, 4) == 0 and not s.rng.values


def test_table_draw_with_zero_total_forces_a_new_table():
    s = HDPSampler(*stream([[4, 1]]), 50, small_hp(alpha=5e-324), seed=0, parents=[[4]])
    s.set_state(*flat_state([[0, 1]], [[0, 2]]))
    s._detach(0, 0)   # slot 0 dies; slot 1 serves topic 2, which word 4 may not join
    weights, new_w = s.table_weights(0, 4)
    assert weights == [0.0, 0.0] and new_w == 0.0
    s.rng = StubRng()   # no uniform is drawn
    assert s.draw_table(0, 4) == -1 and not s.rng.overdrawn


# ------------------------------------------------------------------ cohesion


def build_cohesion_sampler(cv_targets):
    """Three topics whose representative geometry produces given CV ordering."""
    # vocabulary: 0,1,2 are representative anchors; 3 is the probed word
    dim = 3
    norms = np.zeros((4, dim))
    norms[0] = [1, 0, 0]
    norms[1] = [0, 1, 0]
    norms[2] = [0, 0, 1]
    norms[3] = cv_targets / np.linalg.norm(cv_targets)
    docs = [[0, 0], [1, 1], [2, 2], [3]]
    promo = {3: [0]}
    s = HDPSampler(*stream(docs), 4, Hyperparameters(initial_topics=3, n_representatives=1),
                   seed=13, promotion=promo, embedding_norms=norms)
    s.set_state(*flat_state([[0, 0], [0, 0], [0, 0], [0]], [[0], [1], [2], [0]]))
    return s


def test_cohesion_rank_mapping():
    s = build_cohesion_sampler(np.array([0.2, 0.8, 0.5]))
    s.refresh_cohesion()
    col = 3
    vals = {k: s.tilde[s.topic_row[k], col] for k in (0, 1, 2)}
    # CV ordering 0.2 < 0.5 < 0.8 maps to 0, 0.5, 1
    assert vals[0] == pytest.approx(0.0)
    assert vals[2] == pytest.approx(0.5)
    assert vals[1] == pytest.approx(1.0)


def test_cohesion_progression_spans_unit_interval():
    s = build_cohesion_sampler(np.array([0.3, 0.1, 0.9]))
    s.refresh_cohesion()
    for w in range(4):
        col = sorted(s.tilde[:, w])
        assert col[0] == pytest.approx(0.0)
        assert col[-1] == pytest.approx(1.0)


def test_cohesion_single_rep_identical_word():
    # M=1, p(k,1)=1 approached by making the rep dominate; identical embedding
    norms = np.eye(2)
    docs = [[0, 0, 0, 0]]
    s = HDPSampler(*stream(docs), 2, Hyperparameters(initial_topics=1, n_representatives=1),
                   seed=0, promotion={0: [0]},
                   embedding_norms=norms)
    s.set_state(*flat_state([[0, 0, 0, 0]], [[0]]))
    s.refresh_cohesion()
    # the rep is word 0, so CV = p * cos(w, rep) is p for the rep itself and 0
    # for the orthogonal word 1
    assert s.cv[s.topic_row[0]].tolist() == [s.phi(0)[0], 0.0]


def test_parent_representatives_are_concept_words():
    """Topic 0 holds word 0 twice and its concept word 2 once; with M = 1 a
    non-parent topic's rep would be word 0."""
    norms = np.eye(3)
    docs = [[0, 0, 1, 2]]
    s = HDPSampler(*stream(docs), 3, small_hp(initial_topics=2, n_representatives=1), seed=0,
                   parents=[[2]], promotion={2: [2]}, embedding_norms=norms)
    s.set_state(*flat_state([[0, 0, 1, 0]], [[0, 1]]))
    s.refresh_cohesion()
    assert s.cv[s.topic_row[0]].tolist() == [0.0, 0.0, s.phi(0)[2]]
    assert s.cv[s.topic_row[1]].tolist() == [0.0, s.phi(1)[1], 0.0]


def test_a_word_of_two_parents_pins_to_the_first_and_stays_in_both_lists():
    s = HDPSampler(*stream([[0, 1, 2, 3], [2, 3]]), 4, small_hp(), seed=0,
                   parents=[[1, 2], [3, 2, 3]])
    assert s._forced.tolist() == [-1, 0, 0, 1]
    assert s._rep_topic.tolist() == [0, 1]
    assert s._rep_ptr.tolist() == [0, 2, 5] and s._rep_words.tolist() == [1, 2, 3, 2, 3]
    s.initialize()
    s.run(3, check_invariants=True)
    assert [topics[t] for doc, tt, topics in zip(s.docs, s.t, s.table_topic)
            for w, t in zip(doc, tt) if w > 0] == [0, 0, 1, 0, 1]


def test_flag_extremes_and_frequency():
    s = build_cohesion_sampler(np.array([0.2, 0.8, 0.5]))
    s.refresh_cohesion()
    # topic 1 is the probed word's highest-cohesion topic, topic 0 the lowest
    assert all(s.draw_flag(3, 1) == 1 for _ in range(100))
    assert all(s.draw_flag(3, 0) == 0 for _ in range(100))
    draws = sum(s.draw_flag(3, 2) for _ in range(10000))
    assert abs(draws / 10000 - 0.5) < 0.02


def test_flag_zero_without_promotion_row():
    s = build_cohesion_sampler(np.array([0.2, 0.8, 0.5]))
    s.refresh_cohesion()
    assert s.draw_flag(1, 1) == 0  # word 1 has no promotion row


# -------------------------------------------------------------- checkpoints


def test_checkpoint_roundtrip():
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(15, size=10)) for _ in range(8)]
    s = HDPSampler(*stream(docs), 15, small_hp(), seed=21)
    s.initialize()
    s.run(5)
    state = s.state_dict()
    text = json.dumps(state)
    s2 = HDPSampler(*stream(docs), 15, small_hp(), seed=99)
    s2.load_state_dict(json.loads(text))
    s2.check_invariants()
    s.run(5)
    s2.run(5)
    assert s.t == s2.t and s.table_topic == s2.table_topic
    assert json.dumps(state) == text   # a snapshot, not a view of the live rows


def assert_arrays_are_the_rows(s: HDPSampler) -> None:
    state = s.state_dict()
    assert checkpoint_array(state, "t").tolist() == [v for row in s.t for v in row]
    assert checkpoint_array(state, "flags").tolist() == [v for row in s.flags for v in row]
    assert checkpoint_array(state, "n_tab").tolist() == [len(row) for row in s.table_topic]
    assert checkpoint_array(state, "table_topic").tolist() == [
        k for row in s.table_topic for k in row]


@settings(max_examples=50, deadline=None)
@given(sampler_cases())
def test_checkpoint_arrays_are_the_rows_flattened(case):
    docs, V, hp, seed, kwargs, sweeps = case
    s = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    s.initialize()
    s.run(sweeps)
    assert_arrays_are_the_rows(s)


def test_checkpoint_arrays_keep_a_dead_slot():
    s = HDPSampler(*stream([[0, 1], [1, 1, 2]]), 3, small_hp(), seed=0)
    s.set_state(*flat_state([[1, 1], [0, 0, 2]], [[-1, 3], [0, -1, 5]]))
    assert_arrays_are_the_rows(s)
    assert checkpoint_array(s.state_dict(), "table_topic").tolist() == [-1, 3, 0, -1, 5]
    resumed = HDPSampler(*stream([[0, 1], [1, 1, 2]]), 3, small_hp(), seed=1)
    resumed.load_state_dict(json.loads(json.dumps(s.state_dict())))
    assert resumed.table_topic == s.table_topic and resumed.next_topic == s.next_topic == 6


@st.composite
def respelled_cases(draw):
    """A sampler case, the same constraints spelled otherwise (numpy integers
    for ints, tuples for lists, the norms as a list of lists or in Fortran
    order) and a number of sweeps."""
    docs, V, hp, seed, kwargs, sweeps = draw(sampler_cases())
    ints = draw(st.sampled_from([int, np.int64, np.int32]))
    rows = draw(st.sampled_from([list, tuple]))
    norms = kwargs["embedding_norms"]
    if norms is not None:
        norms = draw(st.sampled_from([norms.tolist, lambda: np.asfortranarray(norms)]))()
    other = dict(kwargs, embedding_norms=norms,
                 parents=rows(rows(map(ints, r)) for r in kwargs["parents"]),
                 promotion={ints(w): rows(map(ints, r)) for w, r in kwargs["promotion"].items()})
    return docs, V, hp, seed, kwargs, other, sweeps


@settings(max_examples=100, deadline=None)
@given(respelled_cases())
def test_samplers_of_the_same_kernel_inputs_share_fingerprint_and_checkpoints(case):
    docs, V, hp, seed, kwargs, other, sweeps = case
    s, twin = (HDPSampler(*stream(docs), V, hp, seed, **kw) for kw in (kwargs, other))
    assert s.fingerprint == twin.fingerprint
    for a, b in ((s, twin), (twin, s)):
        a.initialize()
        a.run(sweeps)
        b.load_state_dict(json.loads(json.dumps(a.state_dict())))
        assert b.t == a.t and b.flags == a.flags and b.table_topic == a.table_topic


def test_a_checkpoint_loads_into_a_sampler_whose_constraints_are_numpy_integers():
    """The fingerprint hashed `repr` of the constraint dicts, in which
    np.int64(0) is not 0: "fingerprint mismatch"."""
    def sampler(ints):
        return HDPSampler(*stream([[0, 1, 2], [2, 1]]), 3, small_hp(), seed=0,
                          parents=[[ints(0)]], embedding_norms=np.eye(3))
    s = sampler(int)
    s.initialize()
    s.run(2)
    resumed = sampler(np.int64)
    resumed.load_state_dict(s.state_dict())
    assert resumed.t == s.t and resumed.table_topic == s.table_topic


def test_a_sampler_with_list_of_lists_norms_writes_its_checkpoint():
    """The fingerprint hashed `embedding_norms.tobytes()`, which a list has not."""
    s = HDPSampler(*stream([[0, 1, 2], [2, 1]]), 3, small_hp(), seed=0,
                   embedding_norms=np.eye(3).tolist())
    s.initialize()
    s.run(2)
    state = s.state_dict()
    resumed = HDPSampler(*stream([[0, 1, 2], [2, 1]]), 3, small_hp(), seed=0,
                         embedding_norms=np.eye(3))
    resumed.load_state_dict(state)
    assert resumed.t == s.t and resumed.table_topic == s.table_topic


def fingerprinted(docs=((0, 1, 2), (2, 3)), V=5, seed=0, parents=((2,),), promotion=None,
                  norm=0.5, **hp):
    norms = np.full((V, 2), 0.25)
    norms[1, 0] = norm
    return HDPSampler(*stream(docs), V, small_hp(**hp), seed, parents=parents,
                      promotion=promotion or {1: [1, 3]},
                      embedding_norms=norms).fingerprint


@pytest.mark.parametrize("change", [
    dict(docs=((0, 1), (2, 2, 3))), dict(docs=((0, 1, 2), (2, 4))), dict(V=6),
    dict(parents=[[3]]), dict(parents=[[2, 3]]), dict(parents=[[2], []]),
    dict(parents=[[], [2]]), dict(parents=[[2, 2]]), dict(promotion={1: [1]}),
    dict(promotion={1: [1, 3], 4: [0]}), dict(norm=0.5000001),
    dict(alpha=1.1), dict(beta=0.4), dict(gamma=1.6), dict(promotion_weight=0.31),
    dict(n_representatives=3)], ids=repr)
def test_fingerprint_changes_with_each_input(change):
    """The first change keeps the token stream and moves a document boundary."""
    assert fingerprinted(**change) != fingerprinted()


@pytest.mark.parametrize("change", [dict(seed=7), dict(initial_topics=5),
                                    dict(prevalence_floor=0.1), dict(n_representatives=11)],
                         ids=repr)
def test_fingerprint_ignores_what_phase_1_does_not_depend_on(change):
    """The kernel keeps min(M, V) representatives, so at V = 5 an M of 11
    samples as the default 10 does."""
    assert fingerprinted(**change) == fingerprinted()


@st.composite
def checkpoint_cases(draw):
    """A small corpus with parents and promotion rows, and a run split a+b."""
    V = draw(st.integers(4, 10))
    docs = draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=8),
                         min_size=1, max_size=6))
    words = st.integers(0, V - 1)
    parents = draw(st.lists(st.lists(words, max_size=3), max_size=2))
    rows = draw(st.dictionaries(words, st.sets(words, max_size=3), min_size=1, max_size=4))
    promotion = {w: [w] + sorted(ts - {w})
                 for w, ts in rows.items()}
    seed = draw(st.integers(0, 2**32 - 1))
    norms = np.random.default_rng(seed).normal(size=(V, 3))
    kwargs = dict(parents=parents, promotion=promotion,
                  embedding_norms=norms / np.linalg.norm(norms, axis=1, keepdims=True))
    hp = small_hp(initial_topics=len(parents) + draw(st.integers(1, 3)))
    return docs, V, hp, seed, kwargs, draw(st.integers(1, 4)), draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(checkpoint_cases())
def test_resume_equals_uninterrupted_run(case):
    docs, V, hp, seed, kwargs, a, b = case
    full = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    full.initialize()
    full.run(a + b, check_invariants=True)
    first = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    first.initialize()
    first.run(a)
    resumed = HDPSampler(*stream(docs), V, hp, seed + 1, **kwargs)
    resumed.load_state_dict(json.loads(json.dumps(first.state_dict())))
    resumed.run(b, check_invariants=True)
    assert resumed.t == full.t and resumed.flags == full.flags
    assert resumed.table_topic == full.table_topic
    assert resumed.next_topic == full.next_topic
    assert resumed.rng.bit_generator.state == full.rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(checkpoint_cases())
def test_a_resumed_sampler_weighs_tables_bit_for_bit_as_the_uninterrupted_one(case):
    """Equal draws are not enough: the new-table weight sums over the live
    topics in their order, and a uniform rarely falls inside a last-bit gap."""
    docs, V, hp, seed, kwargs, a, b = case
    full = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    full.initialize()
    full.run(a)
    resumed = HDPSampler(*stream(docs), V, hp, seed + 1, **kwargs)
    resumed.load_state_dict(json.loads(json.dumps(full.state_dict())))
    for sweeps in (0, b):   # after the load, then after b more sweeps
        if sweeps:
            full.run(sweeps)
            resumed.run(sweeps)
        assert list(resumed.m_k) == list(full.m_k)
        for j in range(len(docs)):
            for w in range(V):
                assert resumed.table_weights(j, w) == full.table_weights(j, w)


@settings(max_examples=40, deadline=None)
@given(checkpoint_cases())
def test_cached_predictive_equals_the_count_expression(case):
    docs, V, hp, seed, kwargs, a, _ = case
    s = HDPSampler(*stream(docs), V, hp, seed, **kwargs)
    s.initialize()
    s.run(a, check_invariants=True)
    u, beta = hp.promotion_weight, hp.beta
    for w in range(V):
        expected = [(s.nkw_units[k][w] + u * s.nkw_promos[k][w] + beta)
                    / (s.nk_units[k] + u * s.nk_promos[k] + V * beta) for k in s.m_k]
        assert [s.phi(k)[w] for k in s.m_k] == expected


@pytest.mark.parametrize("key, value", [("next_topic", -1), ("iterations_done", -3),
                                        ("rng", "x"), ("flags", None)])
def test_rejected_checkpoint_leaves_the_sampler_as_it_was(key, value):
    """Every field is checked before the state is installed."""
    rng = np.random.default_rng(5)
    docs = [list(rng.integers(12, size=9)) for _ in range(6)]

    def sampler(seed, sweeps):
        s = HDPSampler(*stream(docs), 12, small_hp(), seed=seed)
        s.initialize()
        s.run(sweeps)
        return s
    state = {**sampler(1, 1).state_dict(), key: value}
    s, twin = sampler(2, 4), sampler(2, 4)
    assert s.t != sampler(1, 1).t   # the checkpoint holds another state
    with pytest.raises(SamplerError, match=key):
        s.load_state_dict(state)
    assert s.iterations_done == twin.iterations_done and s.next_topic == twin.next_topic
    s.run(2, check_invariants=True)
    twin.run(2)
    assert s.t == twin.t and s.table_topic == twin.table_topic and s.flags == twin.flags
    assert s.rng.bit_generator.state == twin.rng.bit_generator.state


def test_checkpoint_of_another_stream_is_rejected():
    s = HDPSampler(*stream([[0, 1, 2]]), 3, small_hp(), seed=0)
    s.initialize()
    state = s.state_dict()
    for docs, V, hp in [([[0, 1, 1]], 3, small_hp()), ([[0, 1, 2]], 4, small_hp()),
                        ([[0, 1, 2]], 3, small_hp(beta=0.4))]:
        with pytest.raises(SamplerError, match="fingerprint mismatch: the checkpoint was "
                                               "written for other tokens"):
            HDPSampler(*stream(docs), V, hp, seed=0).load_state_dict(state)
    other_seed = HDPSampler(*stream([[0, 1, 2]]), 3, small_hp(prevalence_floor=0.1), seed=7)
    other_seed.load_state_dict(state)
    assert other_seed.t == s.t


def test_a_fingerprint_mismatch_also_names_another_fingerprint_recipe():
    """Bug as: the message blamed only the inputs, but a checkpoint of the same
    inputs written by a qdtm whose fingerprint hashes them differently (here,
    a digest of other bytes) is refused the same way."""
    s = HDPSampler(*stream([[0, 1, 2]]), 3, small_hp(), seed=0)
    s.initialize()
    state = dict(s.state_dict(), fingerprint="0" * 64)
    with pytest.raises(SamplerError, match=r"^fingerprint mismatch: the checkpoint was written "
                                           r"for other tokens, .*, or by a qdtm that computes "
                                           r"the fingerprint differently \(rerun such a fit "
                                           r"from the start\)$"):
        HDPSampler(*stream([[0, 1, 2]]), 3, small_hp(), seed=0).load_state_dict(state)
