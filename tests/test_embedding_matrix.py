"""The matrix-backed `EmbeddingTable` against the dict-backed table it replaced.

`EmbeddingTable` holds its vectors as one (V, dim) matrix, an `embedded` mask
and the normalized matrix, all built once, and `build_promotion`,
`normalized_query_similarity` and `topic_embedding` read those arrays. The
dict of vectors below, normalized one word at a time on first use, and the
three functions written over it word by word, are the reference they must
equal bit for bit: the same normalized rows, promotion rows, warnings, query
similarities and topic embeddings.
"""

import contextlib
import logging

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdtm.concepts import normalized_query_similarity
from qdtm.embeddings import EmbeddingTable, build_promotion, dots
from qdtm.metrics import EMBEDDING_TOP_N, topic_embedding
from qdtm.retrieval import Query


class DictTable:
    """Vectors by word id, with a normalized matrix built on first use."""

    def __init__(self, dim, vectors, vocab_size):
        self.dim, self.vectors, self.vocab_size = dim, vectors, vocab_size
        self._norm_matrix = None

    def get(self, wid):
        return self.vectors.get(wid)

    def norm_matrix(self):
        if self._norm_matrix is None:
            m = np.zeros((self.vocab_size, self.dim))
            for wid, vec in self.vectors.items():
                n = np.sqrt(dots(vec, vec))
                if n > 0:
                    m[wid] = vec / n
            self._norm_matrix = m
        return self._norm_matrix


def dict_promotion(table, concept_words, tau):
    """Promotion rows, one concept word's vector at a time; also the concept
    words skipped for want of a vector."""
    pairs, skipped = set(), []
    norms = table.norm_matrix()
    embedded = np.zeros(table.vocab_size, dtype=bool)
    embedded[list(table.vectors)] = True
    for wq in concept_words:
        qv = table.get(wq)
        if qv is None:
            skipped.append(wq)
            continue
        with np.errstate(invalid="ignore", divide="ignore"):   # a zero vector: nan cosines
            sims = dots(norms, qv / np.sqrt(dots(qv, qv)))
        pairs.update((int(wi), wq) for wi in np.nonzero((sims >= tau) & embedded)[0])
        pairs.add((wq, wq))
    rows = {}
    for wi, wq in sorted(pairs):
        rows.setdefault(wi, []).append(wq)
    return rows, skipped


def dict_query_similarity(query, table, top_k):
    """sim(w, q) over the top-k words, from the mean of the query's vectors."""
    vecs = [table.get(t) for t in query.terms]
    vecs = [v for v in vecs if v is not None]
    if not vecs:
        return {}
    qv = np.mean(vecs, axis=0)
    nq = np.sqrt(dots(qv, qv))
    if nq == 0:
        return {}
    sims = dots(table.norm_matrix(), qv / nq)
    order = np.argsort(-sims, kind="stable")[:top_k]
    total = float(sims[order].sum())
    if total <= 0:
        return {}
    return {int(w): float(sims[w]) / total for w in order}


def dict_topic_embedding(weighted_words, table, vocab_index):
    """Weighted sum of the top words' vectors, looked up one word at a time."""
    pairs = []
    for word, weight in weighted_words[:EMBEDDING_TOP_N]:
        wid = vocab_index.get(word)
        if wid is None:
            continue
        vec = table.get(wid)
        if vec is not None:
            pairs.append((vec, weight))
    if not pairs:
        return None
    total = sum(w for _, w in pairs)
    if total <= 0:
        return None
    return sum(vec * (w / total) for vec, w in pairs)


@contextlib.contextmanager
def warnings_of(name):
    """The messages logged at WARNING or above by logger `name`."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


@st.composite
def tables(draw):
    """A small table: per word no vector, an all-zero one, small integer
    coordinates (cosine ties) or normal draws; and the same vectors by id."""
    vocab_size = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = {}
    for wid in range(vocab_size):
        kind = draw(st.sampled_from(["none", "zero", "int", "int", "normal"]))
        if kind == "zero":
            vectors[wid] = np.zeros(dim)
        elif kind == "int":
            vectors[wid] = np.array(draw(st.lists(st.integers(-2, 2), min_size=dim,
                                                  max_size=dim)), dtype=float)
        elif kind == "normal":
            vectors[wid] = rng.normal(size=dim)
    return dim, vectors, vocab_size


TAUS = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.0 + 1e-9]) | st.floats(-1.5, 1.5)


@settings(max_examples=400, deadline=None)
@given(table=tables(), data=st.data())
def test_matrix_table_equals_the_dict_table(table, data):
    dim, vectors, vocab_size = table
    got = EmbeddingTable(dim, vectors, vocab_size)
    want = DictTable(dim, vectors, vocab_size)
    assert got.norm_matrix().tobytes() == want.norm_matrix().tobytes()
    assert got.embedded.tolist() == [w in vectors for w in range(vocab_size)]
    for wid in range(-1, vocab_size + 1):
        a, b = got.get(wid), want.get(wid)
        assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())

    words = st.integers(-1, vocab_size)
    concepts = data.draw(st.lists(words, max_size=6))
    tau = data.draw(TAUS)
    with warnings_of("qdtm.embeddings") as warned:
        rows = build_promotion(got, concepts, tau)
    want_rows, skipped = dict_promotion(want, concepts, tau)
    assert rows == want_rows
    assert warned == [f"concept word id {w} has no embedding; excluded from relatedness"
                      for w in skipped]

    terms = data.draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=4))
    top_k = data.draw(st.integers(1, vocab_size + 2))
    query = Query(terms, "q")
    assert normalized_query_similarity(query, got, top_k) == \
        dict_query_similarity(query, want, top_k)

    vocab_index = {f"t{w}": w for w in range(vocab_size)}
    weighted = data.draw(st.lists(st.tuples(st.sampled_from(sorted(vocab_index) + ["oov"]),
                                            st.floats(-1, 2)), max_size=12))
    a = topic_embedding(weighted, got, vocab_index)
    b = dict_topic_embedding(weighted, want, vocab_index)
    assert (a is None) == (b is None) and (a is None or a.tobytes() == b.tobytes())
