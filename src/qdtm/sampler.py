"""Constrained HDP Gibbs sampler with Polya-urn promotion and word filtering.

Counts are kept as integer pairs (units, promotions): the real-valued count is
units + u * promotions, where u is the promotion weight. All count updates are
integer arithmetic, so remove/add round-trips restore state exactly and
emptiness checks are exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import PromotionMatrix

logger = logging.getLogger(__name__)


class SamplerError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """Internal count structures disagree; indicates a sampler bug."""


@dataclass
class Hyperparameters:
    alpha: float = 1.0           # table concentration
    beta: float = 0.5            # topic-word symmetric smoothing
    gamma: float = 1.5           # topic concentration
    initial_topics: int = 8      # K at initialization
    cosine_threshold: float = 0.5   # tau, relatedness cutoff
    promotion_weight: float = 0.3   # u
    n_representatives: int = 10     # M, words per topic in the cohesion cache
    prevalence_floor: float = 0.005  # subtopics below this corpus share are pruned

    def validate(self, n_queries: int = 0) -> None:
        for name in ("alpha", "beta", "gamma", "cosine_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise SamplerError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise SamplerError("alpha, beta and gamma must be positive")
        if self.initial_topics < n_queries + 1:
            raise SamplerError(
                f"initial_topics must be >= n_queries + 1 ({n_queries + 1})")
        if not 0 < self.promotion_weight < 1:
            raise SamplerError("promotion weight u must be in (0,1)")
        if self.n_representatives < 1:
            raise SamplerError("n_representatives must be >= 1")
        if not 0 <= self.prevalence_floor < 1:
            raise SamplerError("prevalence floor must be in [0,1)")


class HDPSampler:
    """Chinese-restaurant-franchise Gibbs sampler over one token stream.

    Phase 1 uses `forced_topic` to pin concept words to their reserved parent
    topics (ids 0..n_parents-1); phase 2 runs the same machinery over a
    remapped sub-corpus with no constraints and base density 1/|scope vocab|.
    """

    def __init__(self, docs: list[list[int]], vocab_size: int, hp: Hyperparameters,
                 seed: int = 0, *, forced_topic: dict[int, int] | None = None,
                 n_parents: int = 0, promotion: PromotionMatrix | None = None,
                 embedding_norms: np.ndarray | None = None,
                 parent_representatives: dict[int, list[int]] | None = None,
                 base_density: float | None = None):
        if not docs or any(len(d) == 0 for d in docs):
            raise SamplerError("documents must be non-empty")
        self.docs = docs
        self.V = vocab_size
        self.hp = hp
        self.u = hp.promotion_weight
        self.rng = np.random.default_rng(seed)
        self.forced_topic = dict(forced_topic or {})
        self.n_parents = n_parents
        self.promo_rows = promotion.rows if promotion is not None else {}
        self.embedding_norms = embedding_norms
        self.parent_representatives = parent_representatives or {}
        self.base_density = base_density if base_density is not None else 1.0 / vocab_size
        self.gpu_enabled = bool(self.promo_rows) and embedding_norms is not None

        # per-token state
        self.t = [[-1] * len(d) for d in docs]
        self.flags = [[0] * len(d) for d in docs]
        # per-document tables (slot may be dead: topic -1, zero mass)
        self.table_topic: list[list[int]] = [[] for _ in docs]
        self.table_units: list[list[int]] = [[] for _ in docs]
        self.table_promos: list[list[int]] = [[] for _ in docs]
        # global topic state
        self.nkw_units: dict[int, list[int]] = {}
        self.nkw_promos: dict[int, list[int]] = {}
        self.nk_units: dict[int, int] = {}
        self.nk_promos: dict[int, int] = {}
        self.m_k: dict[int, int] = {}
        self.m_total = 0
        self.next_topic = max(n_parents, hp.initial_topics)
        # parents get a phantom table so they can never retire during phase 1
        for q in range(n_parents):
            self._register_topic(q)
            self.m_k[q] = 1
            self.m_total += 1
        # cohesion cache (refreshed once per iteration)
        self.tilde: np.ndarray | None = None
        self.topic_row: dict[int, int] = {}
        self.iterations_done = 0

    # ------------------------------------------------------------------ state

    def _register_topic(self, k: int) -> None:
        if k not in self.nk_units:
            self.nkw_units[k] = [0] * self.V
            self.nkw_promos[k] = [0] * self.V
            self.nk_units[k] = 0
            self.nk_promos[k] = 0

    def nkw(self, k: int, w: int) -> float:
        return self.nkw_units[k][w] + self.u * self.nkw_promos[k][w]

    def nk(self, k: int) -> float:
        return self.nk_units[k] + self.u * self.nk_promos[k]

    def live_topics(self) -> list[int]:
        return sorted(self.m_k)

    def initialize(self) -> None:
        """Seed the state: one fresh table per token position.

        Each document draws one non-parent topic uniformly from the K initial
        topics; tokens matching a concept set are pinned to that parent topic
        instead. All promotion flags start at 0.
        """
        K = self.hp.initial_topics
        free = [k for k in range(K) if k >= self.n_parents]
        if not free:
            raise SamplerError("no non-parent topic available at initialization")
        for j, doc in enumerate(self.docs):
            base = free[int(self.rng.integers(len(free)))]
            for i, w in enumerate(doc):
                k = self.forced_topic.get(w, base)
                t = self._open_table(j, k)
                self._attach(j, i, t, 0)

    def set_state(self, t_assignments: list[list[int]],
                  table_topics: list[list[int]],
                  flags: list[list[int]] | None = None) -> None:
        """Install an explicit frozen state (test harness hook).

        `t_assignments[j][i]` is the table of token i in document j and
        `table_topics[j][t]` the topic of each table. Counts are rebuilt from
        scratch.
        """
        self.t = [list(r) for r in t_assignments]
        self.flags = [list(r) for r in (flags or [[0] * len(d) for d in self.docs])]
        self.table_topic = [list(r) for r in table_topics]
        self.table_units = [[0] * len(r) for r in table_topics]
        self.table_promos = [[0] * len(r) for r in table_topics]
        self.nkw_units = {}
        self.nkw_promos = {}
        self.nk_units = {}
        self.nk_promos = {}
        self.m_k = {q: 1 for q in range(self.n_parents)}
        for q in range(self.n_parents):
            self._register_topic(q)
        for topics in table_topics:
            for k in topics:
                if k >= 0:
                    self._register_topic(k)
                    self.m_k[k] = self.m_k.get(k, 0) + 1
        self.m_total = sum(self.m_k.values())
        self.next_topic = max(self.m_k, default=-1) + 1
        for j, doc in enumerate(self.docs):
            for i in range(len(doc)):
                self._apply_counts(j, self.t[j][i], doc[i], self.flags[j][i], +1)

    # --------------------------------------------------------------- counters

    def _apply_counts(self, j: int, t: int, w: int, flag: int, sign: int) -> None:
        """UpdateCounter core: plain +-1, or the word's promotion row when
        the flag is set (self-pairs move unit counts, cross-pairs move
        promotion counts of the target concept word)."""
        k = self.table_topic[j][t]
        ku, kp = self.nkw_units[k], self.nkw_promos[k]
        if flag:
            for target, is_self in self.promo_rows[w]:
                if is_self:
                    self.table_units[j][t] += sign
                    ku[target] += sign
                    self.nk_units[k] += sign
                else:
                    self.table_promos[j][t] += sign
                    kp[target] += sign
                    self.nk_promos[k] += sign
        else:
            self.table_units[j][t] += sign
            ku[w] += sign
            self.nk_units[k] += sign

    def _open_table(self, j: int, k: int) -> int:
        """Create (or revive a dead slot as) a table serving topic k."""
        self._register_topic(k)
        topics = self.table_topic[j]
        try:
            t = topics.index(-1)
            topics[t] = k
        except ValueError:
            t = len(topics)
            topics.append(k)
            self.table_units[j].append(0)
            self.table_promos[j].append(0)
        self.m_k[k] = self.m_k.get(k, 0) + 1
        self.m_total += 1
        return t

    def _attach(self, j: int, i: int, t: int, flag: int) -> None:
        self.t[j][i] = t
        self.flags[j][i] = flag
        self._apply_counts(j, t, self.docs[j][i], flag, +1)

    def _detach(self, j: int, i: int) -> tuple[int, int, int]:
        """Remove a token's counts; returns (table, topic, flag used at add).

        A table emptied by the removal is retired (m_k decremented); a
        non-parent topic with no tables left is dropped entirely.
        """
        t = self.t[j][i]
        k = self.table_topic[j][t]
        flag = self.flags[j][i]
        self._apply_counts(j, t, self.docs[j][i], flag, -1)
        if self.table_units[j][t] < 0 or self.table_promos[j][t] < 0:
            raise ConsistencyError(f"negative table mass at doc {j} table {t}")
        if self.table_units[j][t] == 0 and self.table_promos[j][t] == 0:
            self.table_topic[j][t] = -1
            self.m_k[k] -= 1
            self.m_total -= 1
            if self.m_k[k] == 0:
                if self.nk_units[k] != 0 or self.nk_promos[k] != 0:
                    raise ConsistencyError(f"retiring topic {k} with mass left")
                del self.m_k[k]
                del self.nkw_units[k], self.nkw_promos[k]
                del self.nk_units[k], self.nk_promos[k]
        self.t[j][i] = -1
        return t, k, flag

    def _ensure_table(self, j: int, t: int, k: int) -> None:
        """Revive a specific dead slot with topic k (exact round-trip support)."""
        if self.table_topic[j][t] == -1:
            self._register_topic(k)
            self.table_topic[j][t] = k
            self.m_k[k] = self.m_k.get(k, 0) + 1
            self.m_total += 1

    # --------------------------------------------------------------- weights

    def f(self, k: int, w: int) -> float:
        """Dirichlet-multinomial predictive probability of word w under topic k."""
        beta = self.hp.beta
        return (self.nkw(k, w) + beta) / (self.nk(k) + self.V * beta)

    def new_table_likelihood(self, w: int) -> float:
        """Mixture p(w | t_new): sum_k m_k/(m.+gamma) f_k(w) + gamma/(m.+gamma) f_new."""
        gamma = self.hp.gamma
        s = sum(self.m_k[k] * self.f(k, w) for k in self.m_k)
        return (s + gamma * self.base_density) / (self.m_total + gamma)

    def table_weights(self, j: int, w: int) -> tuple[list[float], float]:
        """Unnormalized table-choice weights for word w in document j.

        The token itself must not be counted. Returns per-slot weights
        (0 for dead or constraint-violating tables) and the new-table weight.
        Constrained words zero out every table not serving their parent topic.
        """
        forced = self.forced_topic.get(w)
        beta = self.hp.beta
        u = self.u
        vbeta = self.V * beta
        f_cache: dict[int, float] = {}
        weights = []
        topics = self.table_topic[j]
        units = self.table_units[j]
        promos = self.table_promos[j]
        for t in range(len(topics)):
            k = topics[t]
            if k < 0 or (forced is not None and k != forced):
                weights.append(0.0)
                continue
            fk = f_cache.get(k)
            if fk is None:
                fk = (self.nkw_units[k][w] + u * self.nkw_promos[k][w] + beta) / (
                    self.nk_units[k] + u * self.nk_promos[k] + vbeta)
                f_cache[k] = fk
            weights.append((units[t] + u * promos[t]) * fk)
        new_weight = self.hp.alpha * self.new_table_likelihood(w)
        return weights, new_weight

    def topic_weights(self, j: int, w: int) -> tuple[list[tuple[int, float]], float]:
        """Unnormalized topic-choice weights for a freshly drawn table.

        Constrained words may only take their parent topic; the new-topic
        branch is masked for them so the anchor can never fork.
        """
        forced = self.forced_topic.get(w)
        existing = []
        for k in sorted(self.m_k):
            if forced is not None and k != forced:
                existing.append((k, 0.0))
            else:
                existing.append((k, self.m_k[k] * self.f(k, w)))
        new_weight = 0.0 if forced is not None else self.hp.gamma * self.base_density
        return existing, new_weight

    # ---------------------------------------------------------------- draws

    def _pick(self, weights: list[float], total: float) -> int:
        r = self.rng.random() * total
        acc = 0.0
        last = 0
        for i, wt in enumerate(weights):
            if wt > 0.0:
                acc += wt
                last = i
                if r < acc:
                    return i
        return last

    def draw_table(self, j: int, w: int) -> int:
        """Sample a table for word w in document j; -1 means a new table.

        The token's own counts must already be removed. If every weight is
        zero (possible only through underflow) a new table is forced.
        """
        weights, new_weight = self.table_weights(j, w)
        total = sum(weights) + new_weight
        if total <= 0.0:
            return -1
        idx = self._pick(weights + [new_weight], total)
        return -1 if idx == len(weights) else idx

    def draw_topic(self, j: int, w: int) -> int:
        """Sample a topic for a new table; -1 means a brand-new topic."""
        forced = self.forced_topic.get(w)
        if forced is not None:
            return forced
        existing, new_weight = self.topic_weights(j, w)
        weights = [wt for _, wt in existing] + [new_weight]
        total = sum(weights)
        idx = self._pick(weights, total)
        return -1 if idx == len(existing) else existing[idx][0]

    def draw_flag(self, w: int, k: int) -> int:
        """Word-filtering gate: Bernoulli(rank-normalized cohesion of (k, w)).

        Words with no promotion row never apply promotion; topics born after
        the last cache refresh count as rank 0 until the next one.
        """
        if not self.gpu_enabled or w not in self.promo_rows:
            return 0
        if self.tilde is None:
            return 0
        row = self.topic_row.get(k)
        if row is None:
            return 0
        lam = self.tilde[row, w]
        if lam <= 0.0:
            return 0
        if lam >= 1.0:
            return 1
        return 1 if self.rng.random() < lam else 0

    # -------------------------------------------------------------- cohesion

    def representatives(self, k: int) -> tuple[list[int], list[float]]:
        """Representative words of a topic with their topic-word probabilities.

        Parent topics use their concept words; every other topic uses its
        top-M words by topic-word probability (ties by word id).
        """
        if k in self.parent_representatives:
            reps = list(self.parent_representatives[k])
        else:
            vals = np.array(self.nkw_units[k], dtype=float)
            if self.u:
                vals += self.u * np.array(self.nkw_promos[k], dtype=float)
            m = min(self.hp.n_representatives, self.V)
            reps = [int(w) for w in np.argsort(-vals, kind="stable")[:m]]
        probs = [self.f(k, w) for w in reps]
        return reps, probs

    def refresh_cohesion(self) -> None:
        """Rebuild CV and its per-word rank normalization for live topics.

        CV[k,w] = sum_m p(k,m) cos(w, rep_m); per word, live topics ranked by
        CV ascending get equally spaced values 0..1 (single topic -> 1).
        """
        if self.embedding_norms is None:
            return
        topics = self.live_topics()
        T = len(topics)
        cv = np.zeros((T, self.V))
        for row, k in enumerate(topics):
            reps, probs = self.representatives(k)
            r = np.zeros(self.embedding_norms.shape[1])
            for wid, p in zip(reps, probs):
                r += p * self.embedding_norms[wid]
            cv[row] = self.embedding_norms @ r
        if T == 1:
            tilde = np.ones_like(cv)
        else:
            order = np.argsort(cv, axis=0, kind="stable")
            levels = np.linspace(0.0, 1.0, T)
            tilde = np.empty_like(cv)
            cols = np.arange(self.V)[None, :]
            tilde[order, cols] = levels[:, None]
        self.cv = cv
        self.tilde = tilde
        self.topic_row = {k: row for row, k in enumerate(topics)}

    # ------------------------------------------------------------------ loop

    def sweep(self) -> None:
        for j, doc in enumerate(self.docs):
            for i, w in enumerate(doc):
                self._detach(j, i)
                t = self.draw_table(j, w)
                if t == -1:
                    k = self.draw_topic(j, w)
                    if k == -1:
                        k = self.next_topic
                        self.next_topic += 1
                    t = self._open_table(j, k)
                else:
                    k = self.table_topic[j][t]
                flag = self.draw_flag(w, k)
                self._attach(j, i, t, flag)

    def compact_tables(self) -> None:
        """Drop dead table slots and remap token assignments."""
        for j in range(len(self.docs)):
            topics = self.table_topic[j]
            live = [t for t, k in enumerate(topics) if k >= 0]
            if len(live) == len(topics):
                continue
            remap = {t: n for n, t in enumerate(live)}
            self.table_topic[j] = [topics[t] for t in live]
            self.table_units[j] = [self.table_units[j][t] for t in live]
            self.table_promos[j] = [self.table_promos[j][t] for t in live]
            self.t[j] = [remap[t] for t in self.t[j]]

    def run(self, iterations: int, check_invariants: bool = False) -> None:
        """Main Gibbs loop: refresh the cohesion cache, sweep every token."""
        if iterations < 1:
            raise SamplerError("iterations must be >= 1")
        for _ in range(iterations):
            self.refresh_cohesion()
            self.sweep()
            self.compact_tables()
            if check_invariants:
                self.check_invariants()
            self.iterations_done += 1

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Exact consistency checks; raises ConsistencyError on violation."""
        # topic-word sums match topic totals (integer-exact)
        recount_u = {k: [0] * self.V for k in self.m_k}
        recount_p = {k: [0] * self.V for k in self.m_k}
        for k in self.m_k:
            if sum(self.nkw_units[k]) != self.nk_units[k]:
                raise ConsistencyError(f"topic {k}: unit counts disagree")
            if sum(self.nkw_promos[k]) != self.nk_promos[k]:
                raise ConsistencyError(f"topic {k}: promotion counts disagree")
        if self.m_total != sum(self.m_k.values()):
            raise ConsistencyError("m_total != sum of m_k")
        # recount from assignments
        table_u = [[0] * len(r) for r in self.table_topic]
        table_p = [[0] * len(r) for r in self.table_topic]
        for j, doc in enumerate(self.docs):
            for i, w in enumerate(doc):
                t = self.t[j][i]
                k = self.table_topic[j][t]
                if k < 0:
                    raise ConsistencyError(f"token ({j},{i}) at dead table")
                forced = self.forced_topic.get(w)
                if forced is not None and k != forced:
                    raise ConsistencyError(
                        f"constraint violation: token ({j},{i}) word {w} at topic {k}")
                if self.flags[j][i]:
                    for target, is_self in self.promo_rows[w]:
                        if is_self:
                            table_u[j][t] += 1
                            recount_u[k][target] += 1
                        else:
                            table_p[j][t] += 1
                            recount_p[k][target] += 1
                else:
                    table_u[j][t] += 1
                    recount_u[k][w] += 1
        for j in range(len(self.docs)):
            if table_u[j] != self.table_units[j] or table_p[j] != self.table_promos[j]:
                raise ConsistencyError(f"table masses disagree in document {j}")
            for t, k in enumerate(self.table_topic[j]):
                if k >= 0 and self.table_units[j][t] == 0 and self.table_promos[j][t] == 0:
                    raise ConsistencyError(f"live table ({j},{t}) with zero mass")
        for k in self.m_k:
            if recount_u[k] != self.nkw_units[k] or recount_p[k] != self.nkw_promos[k]:
                raise ConsistencyError(f"topic {k}: word counts disagree with assignments")

    # ------------------------------------------------------------- posterior

    def phi(self, k: int) -> np.ndarray:
        """Topic-word distribution (n_kw + beta) / (n_k + V beta)."""
        beta = self.hp.beta
        vals = np.array(self.nkw_units[k], dtype=float)
        if self.u:
            vals += self.u * np.array(self.nkw_promos[k], dtype=float)
        return (vals + beta) / (self.nk(k) + self.V * beta)

    def theta(self) -> tuple[list[int], np.ndarray]:
        """Document-topic proportions from table masses, smoothed by alpha/K."""
        topics = self.live_topics()
        col = {k: c for c, k in enumerate(topics)}
        prior = self.hp.alpha / len(topics)
        out = np.full((len(self.docs), len(topics)), prior)
        for j in range(len(self.docs)):
            units, promos = self.table_units[j], self.table_promos[j]
            for t, k in enumerate(self.table_topic[j]):
                if k >= 0:
                    out[j, col[k]] += units[t] + self.u * promos[t]
        out /= out.sum(axis=1, keepdims=True)
        return topics, out

    def topic_token_counts(self) -> dict[int, int]:
        """Raw token counts per topic (promotion mass excluded)."""
        counts = {k: 0 for k in self.m_k}
        for j, doc in enumerate(self.docs):
            for i in range(len(doc)):
                k = self.table_topic[j][self.t[j][i]]
                counts[k] += 1
        return counts

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        p = self.phi(k)
        order = sorted(range(self.V), key=lambda w: (-p[w], w))[:n]
        return [(w, float(p[w])) for w in order]

    # ----------------------------------------------------------- checkpoints

    def state_dict(self) -> dict:
        return {
            "format": "qdtm-checkpoint-v1",
            "iterations_done": self.iterations_done,
            "t": self.t,
            "flags": self.flags,
            "table_topic": self.table_topic,
            "next_topic": self.next_topic,
            "rng": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        if state.get("format") != "qdtm-checkpoint-v1":
            raise SamplerError(f"unsupported checkpoint format: {state.get('format')!r}")
        self.set_state(state["t"], state["table_topic"], state["flags"])
        self.next_topic = max(state["next_topic"], self.next_topic)
        self.iterations_done = state["iterations_done"]
        rng_state = state["rng"]
        # JSON round-trips may stringify the big integers in the RNG state
        if isinstance(rng_state.get("state"), dict):
            rng_state = {
                **rng_state,
                "state": {kk: int(vv) for kk, vv in rng_state["state"].items()},
            }
        self.rng.bit_generator.state = rng_state
