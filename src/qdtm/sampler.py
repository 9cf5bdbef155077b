"""Constrained HDP Gibbs sampler with Polya-urn promotion and word filtering.

Counts are kept as integer pairs (units, promotions): the real-valued count is
units + u * promotions, where u is the promotion weight. All count updates are
integer arithmetic, so remove/add round-trips restore state exactly and
emptiness checks are exact.

The state lives in flat numpy buffers that the compiled per-token steps
(`sweep.c`, built on first use by `qdtm._native`) update in place:
- per token: its table slot and promotion flag;
- per document: its table slots (topic column, unit and promotion mass) at the
  document's token offsets, since a document never holds more tables than
  tokens;
- per topic: one column of the word-major count matrices, its totals and its
  table count. `_by_id` lists the live columns by ascending topic id, the one
  order in which every sum over topics runs and a topic is picked; the topic ids
  of a checkpoint fix it, so a resumed sampler walks them as its writer did.
The integer counts are the only count state; the kernel, `phi` and
`refresh_cohesion` compute f_k(w) = (n_kw + beta) / (n_k + V beta) from them
by one expression.
The corpus comes in as one token stream, `words` cut into documents at `doc_ptr`
(kept, not copied, if read-only), and phase 1's parents as `parents`, one list of
concept word ids per parent topic, from which its pins and cohesion lists come.
The attributes the rest of qdtm reads (`docs`, `t`, `flags`, `table_topic`,
`m_k`, `nkw_units`, ...) are read-only views of these buffers holding plain ints.
Each input rule lives once: a settings field's in its dataclass's `check_fields`
table, the kind of a count or an id in `_is_int`, a count's in `_check_count`, an
integer array's (1-D, its length, no value that wraps) in `_int_array`, the rest of
the token stream's in `_token_stream`, the other constructor inputs' in
`_check_constraints`, a state's in `_checked`.
"""

from __future__ import annotations

import copy
import functools
import math
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass, fields
from types import MappingProxyType

import numpy as np

N_LIVE, M_TOTAL, NEXT_TOPIC = range(3)          # the kernel's `scal` entries
ERR_NEG_MASS, ERR_RETIRE, ERR_DEAD, ERR_FULL, ERR_NO_ID = -2, -3, -4, -5, -7   # its failures
COLUMN_HEADROOM = 4    # free topic columns at install, and at least this many per growth
# the checkpoint's array fields, each stored as base64 of a little-endian array
CHECKPOINT_ARRAYS = {"t": "<i4", "flags": "i1", "n_tab": "<i4", "table_topic": "<i8"}
# the arrays the kernel reads and never writes: the sampler's one record of its inputs
KERNEL_INPUTS = ("words", "doc_ptr", "forced", "promo_ptr", "promo_target", "rep_topic",
                 "rep_ptr", "rep_words", "norms")


class SamplerError(ValueError):
    pass


class ConsistencyError(RuntimeError):
    """Internal count structures disagree; indicates a sampler bug."""


def _kind(types, name):
    return name, lambda v: isinstance(v, types) and (not isinstance(v, bool) or bool in types)


# the rule of each annotation `check_fields` reads (as a string); a bool is neither
# number, and numpy scalars other than float64 (a float) are not JSON values
_KINDS = {"int": _kind((int,), "an integer"), "float": _kind((int, float), "a number"),
          "bool": _kind((bool,), "a bool"), "str": _kind((str,), "a string")}
# the kind of a count or an id among the sampler's arguments: a numpy integer too
_is_int = _kind((int, np.integer), "an integer")[1]


def check_fields(settings, error: type[ValueError], rules=()) -> None:
    """Each field of a dataclass annotated `int`, `float`, `bool` or `str` holds
    that kind of value, then each row (field, rule, holds) of `rules` has
    `holds(value)`; otherwise `error` says "{field} must be {rule}, got {value!r}"."""
    typed = [(f.name, *_KINDS[f.type]) for f in fields(settings) if f.type in _KINDS]
    for name, rule, holds in (*typed, *rules):
        value = getattr(settings, name)
        if not holds(value):
            raise error(f"{name} must be {rule}, got {value!r}")


def are_strings(value, kind=Collection) -> bool:
    """`value` is a `kind` of strings, not one bare string."""
    return isinstance(value, kind) and not isinstance(value, str) and all(
        isinstance(s, str) for s in value)


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
        # NaN and inf fail the rules they should; K leaves a topic beyond the parents
        check_fields(self, SamplerError, (
            *((name, "finite and positive", lambda v: 0 < v < math.inf)
              for name in ("alpha", "beta", "gamma")),
            ("cosine_threshold", "in [-1, 1]", lambda v: -1 <= v <= 1),
            ("initial_topics", f">= {n_queries + 1} and an integer", lambda v: v > n_queries),
            ("initial_topics", "below 2**63, as an int64 topic id", lambda v: v < 2**63),
            ("n_representatives", ">= 1 and an integer", lambda v: v >= 1),
            ("promotion_weight", "in (0, 1) as the promotion weight u", lambda v: 0 < v < 1),
            ("prevalence_floor", "in [0, 1)", lambda v: 0 <= v < 1)))


class _Rows(Sequence):
    """Read-only per-document rows of a flat buffer; row j reads as a list of
    ints. The rows follow the buffer, so a row read after a sweep is new."""

    def __init__(self, flat: np.ndarray, ptr: np.ndarray, lengths: np.ndarray):
        self._flat, self._ptr, self._lengths = flat, ptr, lengths

    def __len__(self) -> int:
        return len(self._lengths)

    def __getitem__(self, j: int) -> list[int]:
        j = range(len(self))[j]
        start = self._ptr[j]
        return self._flat[start:start + self._lengths[j]].tolist()

    def __iter__(self):
        flat = self._flat.tolist()
        for start, n in zip(self._ptr.tolist(), self._lengths.tolist()):
            yield flat[start:start + n]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class _TopicRows(Mapping):
    """Read-only topic id -> its row of a word-major count matrix (a list of
    ints over the vocabulary), by ascending topic id."""

    def __init__(self, matrix: np.ndarray, columns: dict[int, int]):
        self._matrix, self._columns = matrix, columns

    def __getitem__(self, k: int) -> list[int]:
        return self._matrix[:, self._columns[k]].tolist()

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


class HDPSampler:
    """Chinese-restaurant-franchise Gibbs sampler over one token stream.

    Phase 1 reserves topic ids 0..P-1 for the P lists of `parents`, one per
    query: each list is its parent's concept words, which pin to it (a word of
    several lists to the first) and are its fixed cohesion representatives.
    Phase 2 runs the same machinery over a remapped sub-corpus with no parents
    and base density 1/|scope vocab|.
    The per-token steps run in the compiled kernel; the methods named after
    them (`_detach`, `_attach`, `_ensure_table`, `table_weights`,
    `topic_weights`, `draw_table`, `draw_topic`, `draw_flag`, `sweep`) call it.
    """

    def __init__(self, words: np.ndarray, doc_ptr: np.ndarray, vocab_size: int,
                 hp: Hyperparameters, seed: int = 0, *,
                 parents: Sequence[Sequence[int]] = (),
                 promotion: dict[int, list[int]] | None = None,
                 embedding_norms: np.ndarray | None = None):
        _check_count("vocab_size", vocab_size, 1)
        _check_count("seed", seed, 0)
        self.V = vocab_size
        self.hp = hp
        self.u = hp.promotion_weight
        self.rng = np.random.default_rng(seed)
        promotion = promotion or {}
        self._words, self._doc_ptr = _token_stream(words, doc_ptr, vocab_size)
        self._lengths = np.diff(self._doc_ptr)
        # each token's document's first slot: slots sit at their document's token offsets
        self._tok_base = self._doc_ptr[:-1].repeat(self._lengths).astype(np.int32)
        self._check_constraints(parents, promotion, embedding_norms)
        self.n_parents = P = len(parents)
        hp.validate(n_queries=P)
        self.base_density = 1.0 / vocab_size   # f_new: the uniform base measure

        # each parent's fixed cohesion list, flat for the kernel; its word ids are its pins
        self._rep_topic = np.arange(P, dtype=np.int64)
        self._rep_ptr = np.cumsum([0] + [len(reps) for reps in parents], dtype=np.int64)
        self._rep_words = np.array([w for reps in parents for w in reps], np.int32)
        self._forced = np.full(vocab_size, -1, dtype=np.int64)
        pins, first = np.unique(self._rep_words, return_index=True)   # the first parent wins
        self._forced[pins] = self._rep_topic.repeat(np.diff(self._rep_ptr))[first]
        self._pinned = np.flatnonzero(self._forced[self._words] >= 0)   # their tokens
        row_len = np.zeros(vocab_size, dtype=np.int64)
        row_len[list(promotion)] = [len(r) for r in promotion.values()]
        self._promo_ptr = np.concatenate(([0], np.cumsum(row_len)))
        self._promo_target = np.array([tgt for w in sorted(promotion) for tgt in promotion[w]],
                                      dtype=np.int32)
        self._err = np.zeros(3, dtype=np.int64)
        self._out = np.zeros(3, dtype=np.int64)
        self._slot_map = np.empty(int(self._lengths.max()), np.int32)   # `qd_compact`'s scratch
        # the cohesion cache's fixed inputs, flat for the kernel, and its scratch
        self._norms = (None if embedding_norms is None
                       else np.ascontiguousarray(embedding_norms, dtype=np.float64))
        self._top = np.empty(min(hp.n_representatives, vocab_size), np.int32)
        # cohesion cache (refreshed once per iteration)
        self.tilde: np.ndarray | None = None
        self.topic_row: dict[int, int] = {}
        self.iterations_done = 0

    def _check_constraints(self, parents, promotion, norms) -> None:
        V = self.V
        for name, value, kind, rule in (("parents", parents, Sequence, "a list of word-id lists"),
                                        ("promotion", promotion, Mapping, "a mapping")):
            if not isinstance(value, kind) or isinstance(value, (str, bytes)):
                raise SamplerError(f"{name} must be {rule}, got {type(value).__name__}")
        for name, rows in (("parents", enumerate(parents)), ("promotion", promotion.items())):
            for key, row in rows:   # a list or a tuple, never text
                if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
                    raise SamplerError(f"{name}[{key!r}] must be a list of word ids, "
                                       f"got {row!r}")
        for k, reps in enumerate(parents):
            for w in reps:
                if not (_is_int(w) and 0 <= w < V):
                    raise SamplerError(f"parents[{k}] holds {w!r}, not a word id in [0, {V})")
        for w, row in promotion.items():
            if not (_is_int(w) and 0 <= w < V):
                raise SamplerError(f"promotion row of word {w!r}: not a word id in [0, {V})")
            if not row:
                raise SamplerError(f"promotion row of word {w} is empty")
            for target in row:
                if not (_is_int(target) and 0 <= target < V):
                    raise SamplerError(f"promotion row of word {w} targets {target!r}, "
                                       f"not a word id in [0, {V})")
        if norms is not None:
            try:
                norms = np.asarray(norms)
            except ValueError as e:   # a ragged list
                raise SamplerError(f"embedding_norms must be a matrix: {e}") from None
            if norms.ndim != 2:
                raise SamplerError(f"embedding_norms must be a matrix, got {norms.ndim} axes")
            if len(norms) != V:
                raise SamplerError(f"embedding_norms has {len(norms)} rows for {V} words")
            if norms.shape[1] == 0 or norms.dtype.kind not in "iuf":
                raise SamplerError(f"embedding_norms must hold numbers in at least one "
                                   f"column, got {norms.shape[1]} columns of {norms.dtype}")
            if not np.isfinite(norms).all():
                w, d = np.argwhere(~np.isfinite(norms))[0]
                raise SamplerError(f"embedding_norms[{w}][{d}] = {norms[w, d]} is not finite")

    def _position(self, p: int) -> tuple[int, int]:
        """(document, index within it) of flat token position p."""
        j = int(np.searchsorted(self._doc_ptr, p, side="right")) - 1
        return j, int(p - self._doc_ptr[j])

    # ------------------------------------------------------------------ state

    @property
    def docs(self) -> _Rows:
        """docs[j][i]: the word id of token i of document j."""
        return _Rows(self._words, self._doc_ptr, self._lengths)

    @property
    def t(self) -> _Rows:
        """t[j][i]: the table of token i of document j."""
        return _Rows(self._tok_t, self._doc_ptr, self._lengths)

    @property
    def flags(self) -> _Rows:
        return _Rows(self._tok_flag, self._doc_ptr, self._lengths)

    @property
    def table_topic(self) -> _Rows:
        """table_topic[j][t]: the topic of table t of document j, -1 if dead."""
        cols = self._tab_col
        return _Rows(np.where(cols >= 0, self._topic_of[cols], -1), self._doc_ptr, self._n_tab)

    @property
    def table_units(self) -> _Rows:
        return _Rows(self._tab_units, self._doc_ptr, self._n_tab)

    @property
    def table_promos(self) -> _Rows:
        return _Rows(self._tab_promos, self._doc_ptr, self._n_tab)

    def _columns(self) -> dict[int, int]:
        """Live topic id -> its column, by ascending id."""
        by_id = self._by_id[:self._scal[N_LIVE]]
        return dict(zip(self._topic_of[by_id].tolist(), by_id.tolist()))

    def _per_topic(self, values: np.ndarray) -> MappingProxyType:
        return MappingProxyType({k: int(values[c]) for k, c in self._columns().items()})

    @property
    def m_k(self) -> MappingProxyType:
        """Tables per live topic, by ascending id (parents count a phantom)."""
        return self._per_topic(self._m)

    @property
    def nk_units(self) -> MappingProxyType:
        return self._per_topic(self._nk_units)

    @property
    def nk_promos(self) -> MappingProxyType:
        return self._per_topic(self._nk_promos)

    @property
    def nkw_units(self) -> _TopicRows:
        return _TopicRows(self._nkw_units, self._columns())

    @property
    def nkw_promos(self) -> _TopicRows:
        return _TopicRows(self._nkw_promos, self._columns())

    @property
    def m_total(self) -> int:
        return int(self._scal[M_TOTAL])

    @property
    def next_topic(self) -> int:
        return int(self._scal[NEXT_TOPIC])

    @next_topic.setter
    def next_topic(self, k: int) -> None:
        self._scal[NEXT_TOPIC] = k

    def nkw(self, k: int, w: int) -> float:
        c = self._columns()[k]
        return int(self._nkw_units[w, c]) + self.u * int(self._nkw_promos[w, c])

    def nk(self, k: int) -> float:
        c = self._columns()[k]
        return int(self._nk_units[c]) + self.u * int(self._nk_promos[c])

    def live_topics(self) -> list[int]:
        return self._topic_of[self._by_id[:self._scal[N_LIVE]]].tolist()

    def initialize(self) -> None:
        """Seed the state: one fresh table per token position.

        Each document draws one non-parent topic uniformly from the K initial
        topics; tokens matching a concept set are pinned to that parent topic
        instead. All promotion flags start at 0. The state is valid by
        construction, so it is built as flat arrays and installed without
        `set_state`'s checks.
        """
        K, P = self.hp.initial_topics, self.n_parents   # validate: P < K < 2**63
        base = P + self.rng.integers(K - P, size=len(self._lengths))
        forced = self._forced[self._words]
        tab = np.where(forced >= 0, forced, base.repeat(self._lengths))
        slot = np.arange(len(self._words))   # token p sits alone at slot p
        self._install((slot - self._tok_base).astype(np.int32), np.zeros(len(slot), np.int8),
                      self._lengths, tab, slot)
        self.next_topic = K

    def set_state(self, t: np.ndarray, n_tab: np.ndarray, table_topic: np.ndarray,
                  flags: np.ndarray | None = None) -> None:
        """Check a state, install it and build every count from it in one pass.

        The state is in the checkpoint's layout: 1-D integer arrays whose values
        fit their `CHECKPOINT_ARRAYS` dtype. `t` holds each token's table,
        `n_tab` each document's table count, `table_topic` the topic of each
        slot in use, in document then slot order (-1 for a dead slot; an id
        below 2**63 - 1), and `flags` each token's flag (None: all 0). The
        parents and every topic a table serves are live; `next_topic` follows
        the highest live id. The counts are built by array operations, not by the
        kernel's updates. A state the sampler could not be in raises
        `SamplerError` naming the field, and leaves the sampler as it was.
        """
        N, n_docs = len(self._words), len(self._lengths)
        flags = np.zeros(N, np.int8) if flags is None else flags
        self._install(*self._checked(
            _int_array("t", t, N, CHECKPOINT_ARRAYS["t"]),
            _int_array("flags", flags, N, CHECKPOINT_ARRAYS["flags"]),
            _int_array("n_tab", n_tab, n_docs, CHECKPOINT_ARRAYS["n_tab"]),
            _int_array("table_topic", table_topic, None, CHECKPOINT_ARRAYS["table_topic"])))

    def _checked(self, t: np.ndarray, fl: np.ndarray, n_tab: np.ndarray, topics: np.ndarray):
        """The flat fields of a state (`topics`: each slot in use, in document
        then slot order) made ready for `_install`, or `SamplerError` naming
        the first field that is wrong. Reads only."""
        ptr, lengths, words, N = self._doc_ptr, self._lengths, self._words, len(self._words)
        bad = np.flatnonzero((n_tab < 0) | (n_tab > lengths))
        if bad.size:
            j = int(bad[0])
            raise SamplerError(f"n_tab[{j}] = {n_tab[j]} is not a table count of document "
                               f"{j}, which has {lengths[j]} tokens")
        if len(topics) != n_tab.sum():
            raise SamplerError(f"table_topic has {len(topics)} entries for the "
                               f"{n_tab.sum()} tables of n_tab")
        slot_pos = self._slots_in_use(n_tab)
        below = np.flatnonzero((topics < -1) | (topics == 2**63 - 1))   # leaves no next_topic
        if below.size:
            j, s = self._position(slot_pos[below[0]])
            raise SamplerError(f"table_topic[{j}][{s}] = {topics[below[0]]} is neither a "
                               "topic id nor -1")
        tab = np.full(N, -1, np.int64)
        tab[slot_pos] = topics

        def token_error(positions: np.ndarray, what: str):
            p = int(positions[0])
            j, i = self._position(p)
            return SamplerError(what.format(   # k: the topic of the token's table, if it has one
                j=j, i=i, t=t[p], f=fl[p], w=words[p], n=n_tab[j],
                k=tab[ptr[j] + t[p]] if 0 <= t[p] < n_tab[j] else None))

        outside = np.flatnonzero((t < 0) | (t >= np.repeat(n_tab, lengths)))
        if outside.size:
            raise token_error(outside, "t[{j}][{i}] = {t} is not a table of document {j}, "
                                       "which has {n}")
        slot = self._tok_base + t
        dead = np.flatnonzero(tab[slot] < 0)
        if dead.size:
            raise token_error(dead, "t[{j}][{i}] = {t} is a dead table (topic -1)")
        flagged = np.flatnonzero(fl)
        if (fl[flagged] != 1).any():
            raise token_error(flagged[fl[flagged] != 1],
                              "flags[{j}][{i}] = {f} is neither 0 nor 1")
        w = words[flagged]
        no_row = flagged[self._promo_ptr[w] == self._promo_ptr[w + 1]]
        if no_row.size:
            raise token_error(no_row, "flags[{j}][{i}] = 1 on word {w}, which has no "
                                      "promotion row")
        off = self._pinned[tab[slot[self._pinned]] != self._forced[words[self._pinned]]]
        if off.size:
            raise token_error(off, "t[{j}][{i}]: word {w} is pinned to a parent topic but "
                                   "its table serves topic {k}")
        seated = np.zeros(N, bool)
        seated[slot] = True
        empty = np.flatnonzero((tab >= 0) & ~seated)
        if empty.size:
            j, s = self._position(empty[0])
            raise SamplerError(f"table_topic[{j}][{s}] = {tab[ptr[j] + s]} is live "
                               "but seats no token")
        return t.astype(np.int32), fl.astype(np.int8), n_tab, tab, slot

    def _assignments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`t` and `flags` per token, `n_tab` per document and the topic of each
        slot in use (-1 if dead), in document then slot order: `_checked`'s input."""
        cols = self._tab_col[self._slots_in_use(self._n_tab)]
        return (self._tok_t, self._tok_flag, self._n_tab,
                np.where(cols >= 0, self._topic_of[cols], -1))

    def _slots_in_use(self, n_tab: np.ndarray) -> np.ndarray:
        """Buffer positions of the slots in use, in document then slot order."""
        first = self._doc_ptr[:-1] - (np.cumsum(n_tab) - n_tab)   # slot minus entry index
        return np.arange(n_tab.sum()) + np.repeat(first, n_tab)

    def _install(self, t: np.ndarray, fl: np.ndarray, n_tab: np.ndarray,
                 tab: np.ndarray, slot: np.ndarray) -> None:
        """Build the buffers of a checked state; column c holds the c-th live
        topic by ascending id."""
        N, V = len(self._words), self.V
        live = tab[tab >= 0]
        # each parent also counts a phantom table, so it never retires in phase 1;
        # with counts, np.unique sorts (its hash path imports numpy.ma, 1.2 MB)
        topic_ids, m = np.unique(np.concatenate((np.arange(self.n_parents), live)),
                                 return_counts=True)
        K = len(topic_ids)
        cap = self._cap = K + COLUMN_HEADROOM
        tab_col = np.full(N, -1, np.int32)
        tab_col[tab >= 0] = np.searchsorted(topic_ids, live)
        del tab, live
        self._tok_t, self._tok_flag = t, fl
        self._n_tab, self._tab_col = n_tab.astype(np.int32), tab_col
        col = tab_col[slot]
        # counted in place: a flagged token adds its promotion row, others 1.
        # `one` has the counts' dtype: a Python 1 sends np.add.at down its
        # casting path, about 40 times slower
        one = np.int32(1)
        self._tab_units, self._tab_promos = np.zeros(N, np.int32), np.zeros(N, np.int32)
        self._nkw_units = np.zeros((V, cap), np.int32)
        self._nkw_promos = np.zeros((V, cap), np.int32)
        plain = fl == 0
        np.add.at(self._tab_units, slot[plain], one)
        np.add.at(self._nkw_units, (self._words[plain], col[plain]), one)
        flagged = np.flatnonzero(~plain)
        del t, fl, plain
        starts = self._promo_ptr[self._words[flagged]]
        reps = self._promo_ptr[self._words[flagged] + 1] - starts
        tok = np.repeat(flagged, reps)
        entry = np.repeat(starts - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        target = self._promo_target[entry]
        is_self = target == self._words[tok]
        for pairs, tab_mass, nkw in ((is_self, self._tab_units, self._nkw_units),
                                     (~is_self, self._tab_promos, self._nkw_promos)):
            np.add.at(tab_mass, slot[tok[pairs]], one)
            np.add.at(nkw, (target[pairs], col[tok[pairs]]), one)
        del slot, col
        self._nk_units = self._nkw_units.sum(axis=0, dtype=np.int64)
        self._nk_promos = self._nkw_promos.sum(axis=0, dtype=np.int64)
        self._topic_of = np.full(cap, -1, np.int64)
        self._topic_of[:K] = topic_ids
        self._by_id = np.zeros(cap, np.int32)
        self._by_id[:K] = np.arange(K)
        self._m = np.zeros(cap, np.int64)
        self._m[:K] = m
        self._tilde_row = np.full(cap, -1, np.int32)   # the cache keeps its rows by topic id
        self._tilde_row[:K] = [self.topic_row.get(k, -1) for k in topic_ids.tolist()]
        self._scal = np.array([K, self._m.sum(), topic_ids.max(initial=-1) + 1], np.int64)
        self._bind()

    def _grow(self) -> None:
        """Add a quarter more topic columns; every live topic keeps its column."""
        old = self._cap
        cap = old + max(COLUMN_HEADROOM, old // 4)
        for name, fill in (("_nkw_units", 0), ("_nkw_promos", 0), ("_topic_of", -1),
                           ("_by_id", 0), ("_m", 0), ("_nk_units", 0), ("_nk_promos", 0),
                           ("_tilde_row", -1)):
            a = getattr(self, name)
            wide = np.full(a.shape[:-1] + (cap,), fill, a.dtype)
            wide[..., :old] = a
            setattr(self, name, wide)
        self._cap = cap
        self._bind()

    def _bind(self) -> None:
        """Point the kernel's state at the current buffers."""
        from . import _native   # built and loaded on first use, never at import
        self._lib = _native.library()
        norms, hp = self._norms, self.hp
        dim = 0 if norms is None else norms.shape[1]
        self._work = np.empty(3 * self._cap + 2 * int(self._lengths.max()) + 4 + dim)
        self._rank = np.empty(self._cap, np.int32)
        self._c = _native.State(
            n_docs=len(self._lengths), V=self.V, cap=self._cap, u=self.u, beta=hp.beta,
            alpha=hp.alpha, gamma=hp.gamma, base_density=self.base_density,
            tilde=None if self.tilde is None else self.tilde.ctypes.data,
            dim=dim, n_reps=len(self._top), n_rep_topics=len(self._rep_topic),
            **{name: None if (a := getattr(self, "_" + name)) is None else a.ctypes.data
               for name in (*KERNEL_INPUTS, "tok_t", "tok_flag", "n_tab", "tab_col",
                            "tab_units", "tab_promos", "topic_of", "by_id", "m",
                            "nk_units", "nk_promos", "nkw_units", "nkw_promos", "scal",
                            "tilde_row", "top", "rank", "work", "slot_map", "err")})

    # ---------------------------------------------------------------- kernel

    def _kernel(self, fn, *args) -> int:
        """Call a kernel function with this sampler's generator, under its lock."""
        bg = self.rng.bit_generator
        gen = bg.ctypes
        self._c.next_double = gen.next_double
        self._c.rng_state = gen.state
        with bg.lock:
            rc = fn(self._c, *args)
        if rc < -1:
            a, b, _ = self._err.tolist()
            raise {ERR_NEG_MASS: ConsistencyError(f"negative table mass at doc {a} table {b}"),
                   ERR_RETIRE: ConsistencyError(f"retiring topic {a} with mass left"),
                   ERR_DEAD: ConsistencyError(f"doc {a} table {b} is not a live table"),
                   ERR_FULL: ConsistencyError(f"doc {a} has no free table slot"),
                   ERR_NO_ID: ConsistencyError("no topic id is left for a birth: next_topic "
                                               "is the largest int64"),
                   }.get(rc, IndexError(f"kernel arguments out of range: {self._err.tolist()}"))
        return rc

    def _detach(self, j: int, i: int) -> tuple[int, int, int]:
        """Remove a token's counts; returns (table, topic, flag used at add).

        A table emptied by the removal is retired (m_k decremented); a
        non-parent topic with no tables left is dropped entirely.
        """
        self._kernel(self._lib.qd_detach, j, i, self._out.ctypes.data)
        t, k, flag = self._out.tolist()
        return t, k, flag

    def _attach(self, j: int, i: int, t: int, flag: int) -> None:
        """Seat token i of document j at live table t and add its counts."""
        self._kernel(self._lib.qd_attach, j, i, t, flag)

    def _ensure_table(self, j: int, t: int, k: int) -> None:
        """Revive dead slot t of document j as a table serving topic k."""
        if self._scal[N_LIVE] >= self._cap:   # k may be born: keep a column free
            self._grow()
        self._kernel(self._lib.qd_ensure_table, j, t, k)

    def table_weights(self, j: int, w: int) -> tuple[list[float], float]:
        """Unnormalized table-choice weights for word w in document j.

        The token itself must not be counted. Returns per-slot weights
        (0 for dead or constraint-violating tables) and the new-table weight
        alpha p(w | t_new), with p(w | t_new) the mixture
        sum_k m_k/(m.+gamma) f_k(w) + gamma/(m.+gamma) f_new, summed in
        ascending topic id. Constrained words zero out every table not serving
        their parent topic.
        """
        out = np.empty(int(self._lengths[j]) + 1)
        n = self._kernel(self._lib.qd_table_weights, j, w, out.ctypes.data)
        weights = out[:n].tolist()
        return weights[:-1], weights[-1]

    def topic_weights(self, j: int, w: int) -> tuple[list[tuple[int, float]], float]:
        """Unnormalized topic-choice weights for a freshly drawn table of an
        unconstrained word, by ascending topic id (`draw_topic` pins a
        constrained one to its parent)."""
        n_live = int(self._scal[N_LIVE])
        ids, out = np.empty(n_live, np.int64), np.empty(n_live + 1)
        self._kernel(self._lib.qd_topic_weights, w, ids.ctypes.data, out.ctypes.data)
        weights = out.tolist()
        return list(zip(ids.tolist(), weights[:-1])), weights[-1]

    def draw_table(self, j: int, w: int) -> int:
        """Sample a table for word w in document j; -1 means a new table.

        The token's own counts must already be removed. A uniform u picks the
        first running total of the weights above u times their sum; a draw
        that rounds up to the sum takes the last positive weight. If every
        weight is zero (possible only through underflow) a new table is forced.
        """
        return self._kernel(self._lib.qd_draw_table, j, w)

    def draw_topic(self, j: int, w: int) -> int:
        """Sample a topic for a new table; -1 means a brand-new topic."""
        self._kernel(self._lib.qd_draw_topic, w, self._out.ctypes.data)
        return int(self._out[0])

    def draw_flag(self, w: int, k: int) -> int:
        """Word-filtering gate: Bernoulli(rank-normalized cohesion of (k, w)).

        Words with no promotion row never apply promotion; topics born after
        the last cache refresh count as rank 0 until the next one.
        """
        return self._kernel(self._lib.qd_draw_flag, w, k)

    # -------------------------------------------------------------- cohesion

    def refresh_cohesion(self) -> None:
        """Rebuild CV and its per-word rank normalization for live topics.

        CV[k,w] = sum_m p(k,m) cos(w, rep_m) over topic k's representative
        words rep_m with their probabilities p(k,m) = f_k(rep_m): a parent's
        concept words, or another topic's top-M words by count, ties by word
        id. Per word, live topics ranked by CV ascending get equally spaced
        values 0..1 (single topic -> 1). Rows follow ascending topic id.

        One kernel call, `qd_cohesion`, picks the representatives, sums each
        topic's r_k = sum_m p(k,m) norms[rep_m] in rank order, takes CV[k] =
        `embeddings.dots(norms, r_k)` and ranks CV into `tilde`.
        """
        if self._norms is None:
            return
        T = int(self._scal[N_LIVE])
        cv, tilde = np.empty((T, self.V)), np.empty((T, self.V))
        self._lib.qd_cohesion(self._c, cv.ctypes.data, tilde.ctypes.data)
        self.cv, self.tilde = cv, tilde
        self.topic_row = dict(zip(self._topic_of[self._by_id[:T]].tolist(), range(T)))

    # ------------------------------------------------------------------ loop

    def sweep(self) -> None:
        """Resample every token in order: detach, draw a table (and for a new
        one a topic), draw the promotion flag, attach."""
        p, n = 0, len(self._words)
        while (p := self._kernel(self._lib.qd_sweep, p)) < n:
            self._grow()   # every column was in use; resume at token p

    def compact_tables(self) -> None:
        """Drop dead table slots and remap token assignments, keeping the
        live slots' order."""
        self._kernel(self._lib.qd_compact)

    def run(self, iterations: int, check_invariants: bool = False) -> None:
        """Main Gibbs loop: refresh the cohesion cache, sweep every token."""
        _check_count("iterations", iterations, 1)
        for _ in range(iterations):
            self.refresh_cohesion()
            self.sweep()
            self.compact_tables()
            if check_invariants:
                self.check_invariants()
            self.iterations_done += 1

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Exact consistency checks; raises ConsistencyError on violation.

        First `_by_id` (every view reads through it) lists the used columns by
        ascending topic id and no free column holds counts. The assignments
        must pass `_checked`, each slot past its document's `n_tab` must be dead
        and empty, and every count structure must equal (`==`) a rebuild by
        `_install`, which shares no code with the kernel's updates.
        """
        n = self._scal[N_LIVE]
        free = self._topic_of < 0
        if (sorted(self._by_id[:n].tolist()) != np.flatnonzero(~free).tolist()
                or (np.diff(self._topic_of[self._by_id[:n]]) <= 0).any()
                or self._nkw_units[:, free].any() or self._nkw_promos[:, free].any()):
            raise ConsistencyError("the column view disagrees with m_k")
        past = np.arange(len(self._words)) - self._tok_base >= self._n_tab.repeat(self._lengths)
        bad = np.flatnonzero(past & ((self._tab_col >= 0) | (self._tab_units != 0)
                                     | (self._tab_promos != 0)))
        if bad.size:
            j, t = self._position(bad[0])
            raise ConsistencyError(f"table slot ({j},{t}) past n_tab[{j}] is live or not empty")
        ref = copy.copy(self)
        try:
            ref._install(*ref._checked(*self._assignments()))
        except SamplerError as e:
            raise ConsistencyError(f"the assignments break a rule of the state: {e}") from e
        for name in ("m_k", "m_total", "table_units", "table_promos",
                     "nkw_units", "nkw_promos", "nk_units", "nk_promos"):
            if getattr(self, name) != getattr(ref, name):
                raise ConsistencyError(f"{name} disagrees with a rebuild from the assignments")

    # ------------------------------------------------------------- posterior

    def _token_columns(self) -> np.ndarray:
        return self._tab_col[self._tok_base + self._tok_t]

    def tokens_of(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Topic k's tokens in corpus order as a token stream: their word ids,
        and the offsets of the documents that hold any of them."""
        held = np.flatnonzero(self._topic_of[self._token_columns()] == k)
        # ascending; the repeats are dropped without np.unique, which adds 1.5 MB peak RSS
        cuts = np.searchsorted(held, self._doc_ptr)
        return self._words[held], cuts[np.diff(cuts, prepend=-1) > 0]

    def counts(self, k: int) -> np.ndarray:
        """Real-valued topic-word counts n_kw = units + u * promotions."""
        c = self._columns()[k]
        return (self._nkw_units[:, c].astype(float)
                + self.u * self._nkw_promos[:, c].astype(float))

    def phi(self, k: int) -> np.ndarray:
        """Topic-word distribution f_k(w) = (n_kw + beta) / (n_k + V beta), by
        the kernel's expression and order of additions."""
        c, u, beta = self._columns()[k], self.u, self.hp.beta
        num = self._nkw_units[:, c] + u * self._nkw_promos[:, c] + beta
        return num / (self._nk_units[c] + u * self._nk_promos[c] + self.V * beta)

    def theta(self) -> tuple[list[int], np.ndarray]:
        """Document-topic proportions from table masses, smoothed by alpha/K."""
        topics = self.live_topics()
        position = np.zeros(self._cap, np.int64)   # column -> index in `topics`
        position[self._by_id[:len(topics)]] = np.arange(len(topics))
        out = np.full((len(self._lengths), len(topics)), self.hp.alpha / len(topics))
        live = np.flatnonzero(self._tab_col >= 0)   # in slot order, as the masses add up
        doc = np.searchsorted(self._doc_ptr, live, side="right") - 1
        np.add.at(out, (doc, position[self._tab_col[live]]),
                  self._tab_units[live] + self.u * self._tab_promos[live])
        out /= out.sum(axis=1, keepdims=True)
        return topics, out

    def topic_token_counts(self) -> dict[int, int]:
        """Raw token counts per topic (promotion mass excluded)."""
        per_column = np.bincount(self._token_columns(), minlength=self._cap)
        return {k: int(per_column[c]) for k, c in self._columns().items()}

    def top_words(self, k: int, n: int = 10) -> list[tuple[int, float]]:
        """The n words of highest f_k(w), ties by word id, with f_k(w)."""
        from . import _native
        p = self.phi(k)
        top = _native.top_n(p, n)
        return list(zip(top.tolist(), p[top].tolist()))

    # ----------------------------------------------------------- checkpoints

    @functools.cached_property
    def fingerprint(self) -> str:
        """Digest of what phase-1 sampling depends on: `repr` of V, the parent
        count, min(M, V), alpha, beta, gamma and u and of the dtype and shape of
        each of `KERNEL_INPUTS`, then those arrays' bytes; not the seed,
        iteration counts or phase 2. Computed once per sampler."""
        import hashlib   # OpenSSL (3.4 MB) stays out of `import qdtm` and the query path
        hp, arrays = self.hp, [getattr(self, "_" + name) for name in KERNEL_INPUTS]
        digest = hashlib.sha256(repr((
            int(self.V), int(self.n_parents), len(self._top),
            [float(x) for x in (hp.alpha, hp.beta, hp.gamma, self.u)],
            [None if a is None else (a.dtype.str, a.shape) for a in arrays])).encode())
        for a in arrays:
            if a is not None:
                digest.update(a.tobytes())
        return digest.hexdigest()

    def state_dict(self) -> dict:
        """The phase-1 state as of now, as JSON values: `_assignments` as base64
        text of little-endian arrays, under the names in `CHECKPOINT_ARRAYS`."""
        import base64   # like hashlib, kept out of `import qdtm` and the query path
        return {
            "format": "qdtm-checkpoint-v3",
            "fingerprint": self.fingerprint,
            "iterations_done": self.iterations_done,
            **{key: base64.b64encode(a.astype(dtype, copy=False)).decode()
               for (key, dtype), a in zip(CHECKPOINT_ARRAYS.items(), self._assignments())},
            "next_topic": self.next_topic,
            "rng": self.rng.bit_generator.state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Resume from `state_dict()`. Every field is checked before any is
        installed: one the sampler could not have written raises
        `SamplerError` naming it and leaves the sampler as it was. A
        `next_topic` above max(initial_topics, highest live id + 1)
        + tokens * iterations_done is one no sweep reaches."""
        fmt = state.get("format") if isinstance(state, dict) else None
        if fmt != "qdtm-checkpoint-v3":
            raise SamplerError(f"unsupported checkpoint format: {fmt!r}")
        if state.get("fingerprint") != self.fingerprint:
            raise SamplerError("fingerprint mismatch: the checkpoint was written for other "
                               "tokens, document boundaries, V, parents' concept words, "
                               "promotion rows, embedding vectors, alpha, "
                               "beta, gamma, u or M, or by a qdtm that computes the "
                               "fingerprint differently (rerun such a fit from the start)")
        missing = [key for key in ("iterations_done", *CHECKPOINT_ARRAYS, "next_topic", "rng")
                   if key not in state]
        if missing:
            raise SamplerError(f"the checkpoint has no {', '.join(missing)}")
        N, topics = len(self._words), _decoded(state, "table_topic")
        checked = self._checked(_decoded(state, "t", N), _decoded(state, "flags", N),
                                _decoded(state, "n_tab", len(self._lengths)), topics)
        next_topic, done = state["next_topic"], state["iterations_done"]
        top = max(self.n_parents - 1, int(topics.max(initial=-1)))
        if type(next_topic) is not int or not top < next_topic < 2**63:
            raise SamplerError(f"next_topic = {next_topic!r} is not an int64 above "
                               f"every live topic id (the highest is {top})")
        if type(done) is not int or done < 0:
            raise SamplerError(f"iterations_done = {done!r} is not a count of sweeps")
        # a sweep births at most one topic per token, from `initialize`'s first
        # free id or from one above a `set_state`'s highest live id
        reach = max(self.hp.initial_topics, top + 1) + N * done
        if next_topic > reach:
            raise SamplerError(f"next_topic = {next_topic} is above {reach}, the most "
                               f"{done} sweeps of {N} tokens reach")
        bg, rng = self.rng.bit_generator, state["rng"]
        try:   # numpy checks the values and assigns all of them or none
            if _shape(rng) != _shape(bg.state):
                raise ValueError(repr(rng))
            type(bg)().state = rng
        except (ValueError, OverflowError) as e:
            raise SamplerError(f"rng is not a {type(bg).__name__} generator state: {e}") from None
        self._install(*checked)
        bg.state = rng
        self.next_topic = next_topic
        self.iterations_done = done


def _check_count(name: str, value, least: int) -> None:
    """`value` is an integer (a numpy one too, never a bool) of at least `least`."""
    if not (_is_int(value) and value >= least):
        raise SamplerError(f"{name} must be >= {least} and an integer, got {value!r}")


def _int_array(name: str, a, n: int | None, dtype: str) -> np.ndarray:
    """A `dtype` copy of `a` (`a` itself if read-only, C-ordered and `dtype`), which
    must be a 1-D integer numpy array (not a list, bool or float), of `n` entries
    if `n` is given, whose every value `dtype` holds; else `SamplerError`."""
    if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"):
        got = f"{a.ndim}-D {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
        raise SamplerError(f"{name} must be a 1-D integer array, got {got}")
    if n is not None and len(a) != n:
        raise SamplerError(f"{name} has {len(a)} entries, expected {n}")
    if a.size and not np.can_cast(a.dtype, dtype):
        info = np.iinfo(dtype)
        for v in (int(a.min()), int(a.max())):   # Python ints: exact for every dtype
            if not info.min <= v <= info.max:
                raise SamplerError(f"{name} holds {v}, which does not fit {info.dtype}")
    if a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable:
        return a
    return a.astype(dtype)


def _token_stream(words, doc_ptr, V: int) -> tuple[np.ndarray, np.ndarray]:
    """Int32 word ids in [0, V) and n_docs + 1 int64 offsets that rise from 0 to
    len(words), as `_int_array` keeps or copies them; else `SamplerError` naming
    the first bad position."""
    words = _int_array("words", words, None, "<i4")
    doc_ptr = _int_array("doc_ptr", doc_ptr, None, "<i8")
    if len(doc_ptr) < 2:
        raise SamplerError(f"doc_ptr must have at least 2 entries, got {len(doc_ptr)}")
    if doc_ptr[0] != 0:
        raise SamplerError(f"doc_ptr[0] = {doc_ptr[0]} must be 0")
    step = np.flatnonzero(doc_ptr[1:] <= doc_ptr[:-1])
    if step.size:
        j = int(step[0])
        raise SamplerError(f"doc_ptr[{j + 1}] = {doc_ptr[j + 1]} is not above doc_ptr[{j}] = "
                           f"{doc_ptr[j]}; every document must hold a token")
    if doc_ptr[-1] != len(words):
        raise SamplerError(f"doc_ptr[{len(doc_ptr) - 1}] = {doc_ptr[-1]} must be "
                           f"len(words) = {len(words)}")
    bad = np.flatnonzero((words < 0) | (words >= V))
    if bad.size:
        p = int(bad[0])
        raise SamplerError(f"words[{p}] = {words[p]} is not a word id in [0, {V})")
    return words, doc_ptr


def _decoded(state: dict, key: str, n: int | None = None) -> np.ndarray:
    """Checkpoint field `key` as a read-only array of its `CHECKPOINT_ARRAYS`
    dtype; `n` is the number of entries it must hold, if known."""
    import base64
    try:
        raw = base64.b64decode(state[key], validate=True)
    except (TypeError, ValueError) as e:   # not text, not ASCII, or not base64
        raise SamplerError(f"{key} must be base64 text: {e}") from None
    dtype = np.dtype(CHECKPOINT_ARRAYS[key])
    expected = (len(raw) // dtype.itemsize if n is None else n) * dtype.itemsize
    if len(raw) != expected:
        raise SamplerError(f"{key} holds {len(raw)} bytes, not {expected}")
    return np.frombuffer(raw, dtype)


def _shape(value):
    """The keys of a nested dict, with the type of each leaf."""
    return {k: _shape(v) for k, v in value.items()} if isinstance(value, dict) else type(value)
