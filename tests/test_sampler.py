import copy

import numpy as np
import pytest

from qdtm.embeddings import PromotionMatrix
from qdtm.sampler import ConsistencyError, HDPSampler, Hyperparameters, SamplerError


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
    with pytest.raises(SamplerError):
        Hyperparameters(promotion_weight=1.0).validate()
    with pytest.raises(SamplerError):
        Hyperparameters(initial_topics=1).validate(n_queries=1)
    Hyperparameters().validate(n_queries=2)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "cosine_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_hyperparameter_rejected(name, value):
    with pytest.raises(SamplerError, match=name):
        Hyperparameters(**{name: value}).validate()


def test_initialize_one_table_per_token():
    docs = [[0, 1, 2, 3, 4]]
    s = HDPSampler(docs, 5, small_hp(), seed=0)
    s.initialize()
    assert len(s.table_topic[0]) == 5
    # all tables of a concept-free document share one topic
    assert len(set(s.table_topic[0])) == 1
    s.check_invariants()


def test_initialize_pins_concept_words():
    docs = [[0, 1, 2], [2, 0, 2]]
    s = HDPSampler(docs, 3, small_hp(), seed=1, forced_topic={2: 0}, n_parents=1)
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


def test_predictive_prob_symmetric_prior():
    docs = [[0]]
    s = HDPSampler(docs, 100, Hyperparameters(beta=0.5, initial_topics=2), seed=0)
    s._register_topic(5)
    s.m_k[5] = 1
    s.m_total += 1
    assert s.f(5, 7) == pytest.approx(0.5 / 50)  # == 1/|V|
    assert s.base_density == pytest.approx(1 / 100)


def test_phase2_base_density():
    docs = [[0]]
    s = HDPSampler(docs, 40, small_hp(), seed=0, base_density=1 / 40)
    assert s.base_density == pytest.approx(0.025)


def test_plain_round_trip_restores_state():
    docs = [[0, 1, 0, 2], [2, 2, 1]]
    s = HDPSampler(docs, 3, small_hp(), seed=2)
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
    promo = PromotionMatrix(0.3, {0: [(0, True), (1, False), (2, False)]})
    norms = np.eye(3)
    docs = [[0, 1, 2, 0]]
    s = HDPSampler(docs, 3, small_hp(), seed=3, promotion=promo,
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
    promo = PromotionMatrix(0.3, {0: [(0, True), (1, False), (2, False)]})
    docs = [[0]]
    s = HDPSampler(docs, 3, small_hp(), seed=0, promotion=promo,
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
    s = HDPSampler(docs, 2, small_hp(), seed=4)
    s.initialize()
    k0 = s.table_topic[0][s.t[0][0]]
    m_before = s.m_k[k0]
    s._detach(0, 0)
    assert s.table_topic[0][0] == -1
    assert s.m_k.get(k0, 0) == m_before - 1 or k0 not in s.m_k
    assert s.m_total == sum(s.m_k.values())


def test_parent_topic_never_retires():
    docs = [[0]]
    s = HDPSampler(docs, 2, small_hp(), seed=5, forced_topic={0: 0}, n_parents=1)
    s.initialize()
    s._detach(0, 0)  # parent loses its only real table
    assert s.m_k[0] >= 1  # phantom table keeps the anchor alive


def test_constrained_word_forces_parent_topic():
    # document whose only table serves a non-parent topic; concept word must
    # open a new table bound to the parent
    docs = [[1, 1, 0]]
    s = HDPSampler(docs, 2, small_hp(), seed=6, forced_topic={0: 0}, n_parents=1)
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
    s = HDPSampler(docs, 2, Hyperparameters(alpha=1e-300, initial_topics=2), seed=7)
    s.set_state([[0, 0]], [[1]])
    s._detach(0, 1)
    for _ in range(50):
        assert s.draw_table(0, 1) == 0


def test_gamma_to_zero_picks_compatible_topic():
    docs = [[1, 1, 1]]
    s = HDPSampler(docs, 2, Hyperparameters(gamma=1e-300, initial_topics=2), seed=8)
    s.set_state([[0, 0, 0]], [[1]])
    s._detach(0, 2)
    for _ in range(50):
        assert s.draw_topic(0, 1) == 1


def test_set_state_rebuilds_counts_exactly():
    docs = [[0, 1, 2], [2, 1]]
    s = HDPSampler(docs, 3, small_hp(), seed=9)
    s.set_state([[0, 0, 1], [0, 0]], [[2, 1], [1]])
    s.check_invariants()
    assert s.nkw_units[2] == [1, 1, 0]
    assert s.nkw_units[1] == [0, 1, 2]
    assert s.m_k == {1: 2, 2: 1}
    assert s.m_total == 3


def test_run_determinism():
    rng = np.random.default_rng(0)
    docs = [list(rng.integers(20, size=15)) for _ in range(10)]
    out = []
    for _ in range(2):
        s = HDPSampler([list(d) for d in docs], 20, small_hp(), seed=42,
                       forced_topic={0: 0}, n_parents=1)
        s.initialize()
        s.run(20)
        out.append((s.t, s.table_topic, [s.phi(k).tolist() for k in s.live_topics()]))
    assert out[0] == out[1]


def test_constraint_holds_over_run():
    rng = np.random.default_rng(1)
    docs = [list(rng.integers(30, size=20)) for _ in range(15)]
    forced = {0: 0, 1: 0, 2: 0}
    s = HDPSampler(docs, 30, small_hp(initial_topics=4), seed=10,
                   forced_topic=forced, n_parents=1)
    s.initialize()
    s.run(15, check_invariants=True)  # raises on any violation
    for j, doc in enumerate(s.docs):
        for i, w in enumerate(doc):
            if w in forced:
                assert s.table_topic[j][s.t[j][i]] == 0


def test_empty_concept_set_runs_plain_hdp():
    rng = np.random.default_rng(2)
    docs = [list(rng.integers(25, size=15)) for _ in range(12)]
    s = HDPSampler(docs, 25, small_hp(initial_topics=4), seed=11)
    s.initialize()
    s.run(15, check_invariants=True)
    assert s.live_topics()


def test_negative_iterations_rejected():
    s = HDPSampler([[0]], 1, small_hp(), seed=0)
    s.initialize()
    with pytest.raises(SamplerError):
        s.run(0)


def test_check_invariants_catches_corruption():
    docs = [[0, 1]]
    s = HDPSampler(docs, 2, small_hp(), seed=12)
    s.initialize()
    s.nk_units[s.live_topics()[0]] += 1
    with pytest.raises(ConsistencyError):
        s.check_invariants()


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
    promo = PromotionMatrix(0.3, {3: [(0, False)]})
    s = HDPSampler(docs, 4, Hyperparameters(initial_topics=3, n_representatives=1),
                   seed=13, promotion=promo, embedding_norms=norms)
    s.set_state([[0, 0], [0, 0], [0, 0], [0]],
                [[0], [1], [2], [0]])
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
    s = HDPSampler(docs, 2, Hyperparameters(initial_topics=1, n_representatives=1),
                   seed=0, promotion=PromotionMatrix(0.3, {0: [(0, True)]}),
                   embedding_norms=norms)
    s.set_state([[0, 0, 0, 0]], [[0]])
    s.refresh_cohesion()
    reps, probs = s.representatives(0)
    assert reps == [0]
    # CV = p * cos(w, w) = p for the rep itself
    assert s.cv[s.topic_row[0], 0] == pytest.approx(probs[0])


def test_parent_representatives_are_concept_words():
    norms = np.eye(3)
    docs = [[0, 1, 2]]
    s = HDPSampler(docs, 3, small_hp(), seed=0, forced_topic={2: 0}, n_parents=1,
                   parent_representatives={0: [2]},
                   promotion=PromotionMatrix(0.3, {2: [(2, True)]}),
                   embedding_norms=norms)
    s.initialize()
    reps, _ = s.representatives(0)
    assert reps == [2]  # concept words regardless of topic-word probabilities


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
    import json
    rng = np.random.default_rng(3)
    docs = [list(rng.integers(15, size=10)) for _ in range(8)]
    s = HDPSampler([list(d) for d in docs], 15, small_hp(), seed=21)
    s.initialize()
    s.run(5)
    state = json.loads(json.dumps(s.state_dict()))
    s2 = HDPSampler([list(d) for d in docs], 15, small_hp(), seed=99)
    s2.load_state_dict(state)
    s2.check_invariants()
    s.run(5)
    s2.run(5)
    assert s.t == s2.t and s.table_topic == s2.table_topic
