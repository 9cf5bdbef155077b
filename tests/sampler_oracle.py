"""The pure-Python per-token sampler that `qdtm.sampler` compiles, kept as an oracle.

`OracleSampler` is the constrained CRF-HDP sampler as it ran before its
per-token steps moved into `src/qdtm/sweep.c`: counts as lists and dicts,
every step a Python method, uniforms from `rng.random()`. The compiled sampler
must reach the same state and the same generator state from the same inputs.
`UniformStream` feeds both sides one stream of uniforms, through
`random()` for the oracle and a ctypes `next_double` for the kernel.
"""

from __future__ import annotations

import ctypes
import threading
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter, truediv
from types import SimpleNamespace

import numpy as np

from qdtm.embeddings import dots
from qdtm.sampler import ConsistencyError, Hyperparameters, SamplerError

NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


def _top(values: np.ndarray, n: int) -> list[int]:
    """Indices of the n largest values, ties by index: one full stable sort."""
    return [int(w) for w in np.argsort(-values, kind="stable")[:n]]


class UniformStream:
    """A stand-in for `np.random.Generator` that the sampler draws uniforms
    from: `random()` in Python, `bit_generator.ctypes.next_double` in C.

    `source()` returns each uniform. Drawing past the end of a finite source
    is recorded in `overdrawn` (a ctypes callback cannot raise into C).
    """

    def __init__(self, source):
        self._source = source
        self.overdrawn = False
        self._fn = NEXT_DOUBLE(lambda _state: self.random())
        self.bit_generator = SimpleNamespace(
            ctypes=SimpleNamespace(next_double=self._fn, state=None),
            lock=threading.Lock())

    def random(self) -> float:
        try:
            return self._source()
        except IndexError:
            self.overdrawn = True
            return 0.0


def quarters(seed: int) -> UniformStream:
    """Uniforms on the grid 0, 1/4, 1/2, 3/4: a draw of 0.0 ties with every
    leading zero running total, so the picking rule's tie-break shows."""
    gen = np.random.default_rng(seed)
    stream = UniformStream(lambda: float(np.floor(gen.random() * 4) / 4))
    stream.gen = gen
    return stream


def pins(parents: list[list[int]]) -> dict[int, int]:
    """Word id -> the parent topic it is pinned to: the first of `parents`
    (one list of concept words per parent) that lists it."""
    forced: dict[int, int] = {}
    for k, words in enumerate(parents):
        for w in words:
            forced.setdefault(w, k)
    return forced


class OracleSampler:
    """The per-token sampler as plain Python lists and dicts: counts per topic
    as lists over the vocabulary, tables as per-document lists."""

    def __init__(self, docs: list[list[int]], vocab_size: int, hp: Hyperparameters,
                 seed: int = 0, *, parents: list[list[int]] = (),
                 promotion: dict[int, list[int]] | None = None,
                 embedding_norms: np.ndarray | None = None):
        if not docs or any(len(d) == 0 for d in docs):
            raise SamplerError("documents must be non-empty")
        self.docs = docs
        self.V = vocab_size
        self.hp = hp
        self.u = hp.promotion_weight
        self.rng = np.random.default_rng(seed)
        self.forced_topic = pins(parents)
        self.n_parents = len(parents)
        self.promo_rows = promotion or {}
        self.embedding_norms = embedding_norms
        self.parent_representatives = dict(enumerate(parents))
        self.base_density = 1.0 / vocab_size   # f_new: the uniform base measure

        self.set_state([[] for _ in docs], [[] for _ in docs])   # empty counts
        # cohesion cache (refreshed once per iteration)
        self.tilde: np.ndarray | None = None
        self.topic_row: dict[int, int] = {}
        self.iterations_done = 0

    # ------------------------------------------------------------------ state

    def _register_topic(self, k: int) -> None:
        """Birth of topic k: zero counts, cached as the view's last column."""
        self.nkw_units[k] = [0] * self.V
        self.nkw_promos[k] = [0] * self.V
        self.nk_units[k] = 0
        self.nk_promos[k] = 0
        self._col[k] = len(self._num)
        self._num.append([self.hp.beta] * self.V)   # n_kw + beta at n_kw = 0
        self._den.append(self.V * self.hp.beta)

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
        table_topics = []
        for doc in self.docs:
            base = free[int(self.rng.integers(len(free)))]
            table_topics.append([self.forced_topic.get(w, base) for w in doc])
        self.set_state([list(range(len(d))) for d in self.docs], table_topics)
        self.next_topic = max(self.n_parents, K)

    def set_state(self, t_assignments: list[list[int]],
                  table_topics: list[list[int]],
                  flags: list[list[int]] | None = None) -> None:
        """Install a state and build every count from it in one pass.

        `t_assignments[j][i]` is the table of token i in document j and
        `table_topics[j][t]` the topic of each table. Topics enter `m_k` in
        table order, parents first; `next_topic` follows the highest live id.
        Each cached row is written once, from the final integer counts, with
        the expressions of `_apply_counts`, so it equals theirs bit for bit.
        """
        self.t = [list(r) for r in t_assignments]
        self.flags = [list(r) for r in (flags or [[0] * len(d) for d in self.docs])]
        # per-document tables; a slot may be dead (topic -1, zero mass)
        self.table_topic = [list(r) for r in table_topics]
        self.table_units = [[0] * len(r) for r in table_topics]
        self.table_promos = [[0] * len(r) for r in table_topics]
        # parents get a phantom table so they can never retire during phase 1
        self.m_k = {q: 1 for q in range(self.n_parents)}
        for topics in table_topics:
            for k in topics:
                if k >= 0:
                    self.m_k[k] = self.m_k.get(k, 0) + 1
        self.m_total = sum(self.m_k.values())
        self.next_topic = max(self.m_k, default=-1) + 1
        self.nkw_units = {k: [0] * self.V for k in self.m_k}
        self.nkw_promos = {k: [0] * self.V for k in self.m_k}
        for j, doc in enumerate(self.docs):
            topics, units, promos = self.table_topic[j], self.table_units[j], self.table_promos[j]
            for w, t, flag in zip(doc, self.t[j], self.flags[j]):
                k = topics[t]
                if flag:
                    for target in self.promo_rows[w]:
                        if target == w:
                            units[t] += 1
                            self.nkw_units[k][target] += 1
                        else:
                            promos[t] += 1
                            self.nkw_promos[k][target] += 1
                else:
                    units[t] += 1
                    self.nkw_units[k][w] += 1
        self.nk_units = {k: sum(row) for k, row in self.nkw_units.items()}
        self.nk_promos = {k: sum(row) for k, row in self.nkw_promos.items()}
        # the column view: live topic k's predictive numerators (by word) and
        # denominator sit at position _col[k], in `m_k` order; that order is a
        # layout only, as every sum over topics runs by ascending topic id
        u, beta = self.u, self.hp.beta
        self._col = {k: c for c, k in enumerate(self.m_k)}
        # cells at n_kw = 0 share one float, beta, as `_register_topic` writes them
        self._num = [[cu + u * cp + beta if cu or cp else beta
                      for cu, cp in zip(self.nkw_units[k], self.nkw_promos[k])]
                     for k in self.m_k]
        self._den = [self.nk_units[k] + u * self.nk_promos[k] + self.V * beta
                     for k in self.m_k]

    # --------------------------------------------------------------- counters

    def _apply_counts(self, j: int, t: int, w: int, flag: int, sign: int) -> None:
        """UpdateCounter core: plain +-1, or the word's promotion row when
        the flag is set (self-pairs move unit counts, cross-pairs move
        promotion counts of the target concept word). Every cached numerator
        n_kw + beta and denominator n_k + V beta a move touches is rewritten
        from its integers, in the expression order of the uncached predictive."""
        k = self.table_topic[j][t]
        c = self._col[k]
        ku, kp, num = self.nkw_units[k], self.nkw_promos[k], self._num[c]
        u, beta = self.u, self.hp.beta
        if flag:
            for target in self.promo_rows[w]:
                if target == w:
                    self.table_units[j][t] += sign
                    ku[target] += sign
                    self.nk_units[k] += sign
                else:
                    self.table_promos[j][t] += sign
                    kp[target] += sign
                    self.nk_promos[k] += sign
                num[target] = ku[target] + u * kp[target] + beta
        else:
            self.table_units[j][t] += sign
            ku[w] += sign
            self.nk_units[k] += sign
            num[w] = ku[w] + u * kp[w] + beta
        self._den[c] = self.nk_units[k] + u * self.nk_promos[k] + self.V * beta

    def _open_table(self, j: int, k: int) -> int:
        """Create (or revive a dead slot as) a table serving topic k."""
        topics = self.table_topic[j]
        try:
            t = topics.index(-1)
        except ValueError:
            t = len(topics)
            topics.append(-1)
            self.table_units[j].append(0)
            self.table_promos[j].append(0)
        self._ensure_table(j, t, k)
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
                c = self._col.pop(k)
                del self._num[c], self._den[c]
                self._col = {q: n for n, q in enumerate(self.m_k)}
        self.t[j][i] = -1
        return t, k, flag

    def _ensure_table(self, j: int, t: int, k: int) -> None:
        """Revive dead slot t of document j as a table serving topic k."""
        if self.table_topic[j][t] == -1:
            if k not in self.m_k:
                self._register_topic(k)
            self.table_topic[j][t] = k
            self.m_k[k] = self.m_k.get(k, 0) + 1
            self.m_total += 1

    # --------------------------------------------------------------- weights

    def predictive(self, w: int) -> list[float]:
        """Dirichlet-multinomial predictive f_k(w) = (n_kw + beta) / (n_k + V beta)
        of word w under every live topic k, at column `_col[k]` (the layout's
        `m_k` order, which no sum follows)."""
        return list(map(truediv, map(itemgetter(w), self._num), self._den))

    def table_weights(self, j: int, w: int) -> tuple[list[float], float]:
        """Unnormalized table-choice weights for word w in document j.

        The token itself must not be counted. Returns per-slot weights
        (0 for dead or constraint-violating tables) and the new-table weight
        alpha p(w | t_new), with p(w | t_new) the mixture
        sum_k m_k/(m.+gamma) f_k(w) + gamma/(m.+gamma) f_new, summed in
        ascending topic id. Constrained words zero out every table not serving
        their parent topic.
        """
        forced = self.forced_topic.get(w)
        f = self.predictive(w)
        u, col = self.u, self._col
        units, promos = self.table_units[j], self.table_promos[j]
        weights = [0.0 if k < 0 or (forced is not None and k != forced)
                   else (units[t] + u * promos[t]) * f[col[k]]
                   for t, k in enumerate(self.table_topic[j])]
        gamma = self.hp.gamma
        mixture = _sum(self.m_k[k] * f[col[k]] for k in sorted(self.m_k))
        new_table = (mixture + gamma * self.base_density) / (self.m_total + gamma)
        return weights, self.hp.alpha * new_table

    def topic_weights(self, j: int, w: int) -> tuple[list[tuple[int, float]], float]:
        """Unnormalized topic-choice weights for a freshly drawn table of an
        unconstrained word (`draw_topic` pins a constrained one to its parent)."""
        f, col = self.predictive(w), self._col
        return ([(k, self.m_k[k] * f[col[k]]) for k in sorted(col)],
                self.hp.gamma * self.base_density)

    # ---------------------------------------------------------------- draws

    def _pick(self, weights: list[float], cum: list[float]) -> int:
        """Index of the first running total `cum` (of `weights`, left to right)
        above a uniform draw on [0, total). Zero weights are never picked; a
        draw that rounds up to the total takes the last positive weight."""
        i = bisect_right(cum, self.rng.random() * cum[-1])
        if i < len(cum):
            return i
        return max((i for i, wt in enumerate(weights) if wt > 0.0), default=0)

    def draw_table(self, j: int, w: int) -> int:
        """Sample a table for word w in document j; -1 means a new table.

        The token's own counts must already be removed. If every weight is
        zero (possible only through underflow) a new table is forced.
        """
        weights, new_weight = self.table_weights(j, w)
        weights.append(new_weight)
        cum = list(accumulate(weights))
        if cum[-1] <= 0.0:
            return -1
        idx = self._pick(weights, cum)
        return -1 if idx == len(weights) - 1 else idx

    def draw_topic(self, j: int, w: int) -> int:
        """Sample a topic for a new table; -1 means a brand-new topic."""
        forced = self.forced_topic.get(w)
        if forced is not None:
            return forced
        existing, new_weight = self.topic_weights(j, w)
        weights = [wt for _, wt in existing] + [new_weight]
        idx = self._pick(weights, list(accumulate(weights)))
        return -1 if idx == len(existing) else existing[idx][0]

    def draw_flag(self, w: int, k: int) -> int:
        """Word-filtering gate: Bernoulli(rank-normalized cohesion of (k, w)).

        Words with no promotion row never apply promotion; topics born after
        the last cache refresh count as rank 0 until the next one.
        """
        if w not in self.promo_rows:
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
        top-M words by count (ties by word id).
        """
        if k in self.parent_representatives:
            reps = list(self.parent_representatives[k])
        else:
            reps = _top(self.counts(k), self.hp.n_representatives)
        c = self._col[k]
        num, den = self._num[c], self._den[c]
        return reps, [num[w] / den for w in reps]

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
            cv[row] = dots(self.embedding_norms, r)
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

    def counts(self, k: int) -> np.ndarray:
        return (np.array(self.nkw_units[k], dtype=float)
                + self.u * np.array(self.nkw_promos[k], dtype=float))

    def run(self, iterations: int) -> None:
        """Main Gibbs loop: refresh the cohesion cache, sweep every token."""
        if iterations < 1:
            raise SamplerError("iterations must be >= 1")
        for _ in range(iterations):
            self.refresh_cohesion()
            self.sweep()
            self.compact_tables()
            self.iterations_done += 1


def _sum(values) -> float:
    """Left-to-right float sum: `sum()` is compensated from Python 3.12 on, and
    the draws must not depend on the interpreter's version."""
    total = 0.0
    for v in values:   # a plain loop: faster here than functools.reduce(add, ...)
        total += v
    return total
