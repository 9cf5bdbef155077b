"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import base64
import itertools

import numpy as np
from hypothesis import strategies as st

from qdtm.embeddings import EmbeddingTable
from qdtm.pipeline import ParentTopicError
from qdtm.sampler import HDPSampler, Hyperparameters


def make_table(vectors: dict[int, list[float]], vocab_size: int) -> EmbeddingTable:
    dim = len(next(iter(vectors.values())))
    return EmbeddingTable(dim, {k: np.array(v, dtype=float) for k, v in vectors.items()},
                          vocab_size)


@st.composite
def sampler_cases(draw):
    """A small corpus in a phase-1 setting (parents) or a phase-2 one (none),
    with promotion rows with and without a self pair. A parent's list may be
    empty, longer than M, repeat a word or share one with the other parent.
    beta and u are not powers of two, so a reordered sum of the predictive
    changes its last bits."""
    V = draw(st.integers(2, 10))
    words = st.integers(0, V - 1)
    docs = draw(st.lists(st.lists(words, min_size=1, max_size=9), min_size=1, max_size=7))
    M = draw(st.integers(1, 3))
    parents = draw(st.lists(st.lists(words, max_size=M + 1), max_size=2))
    rows = draw(st.dictionaries(words, st.sets(words, min_size=1, max_size=3), max_size=4))
    promotion = {w: sorted(ts) for w, ts in rows.items()}
    seed = draw(st.integers(0, 2**32 - 1))
    norms = None
    if draw(st.booleans()):
        norms = np.random.default_rng(seed).normal(size=(V, 3))
        norms /= np.linalg.norm(norms, axis=1, keepdims=True)
    kwargs = dict(parents=parents, promotion=promotion, embedding_norms=norms)
    hp = Hyperparameters(initial_topics=len(parents) + draw(st.integers(1, 3)),
                         n_representatives=M,
                         alpha=draw(st.sampled_from([0.3, 1.0, 4.0])),
                         beta=draw(st.sampled_from([0.01, 0.13, 0.5])),
                         gamma=draw(st.sampled_from([0.5, 1.5, 6.0])),
                         promotion_weight=draw(st.sampled_from([0.1, 0.3, 0.77])))
    return docs, V, hp, seed, kwargs, draw(st.integers(1, 5))


def stream(docs) -> tuple[np.ndarray, np.ndarray]:
    """Documents given as lists of word ids, as the sampler's token stream
    `(words, doc_ptr)`."""
    lengths = [len(d) for d in docs]
    return (np.fromiter(itertools.chain.from_iterable(docs), np.int64, sum(lengths)),
            np.cumsum([0, *lengths], dtype=np.int64))


def flat_state(t_rows, topic_rows, flag_rows=None):
    """A state given as per-document rows (each token's table, each table's
    topic, each token's flag), as `HDPSampler.set_state`'s arrays
    `(t, n_tab, table_topic, flags)`."""
    def flat(rows):
        return np.fromiter(itertools.chain.from_iterable(rows), np.int64)
    return (flat(t_rows), np.array([len(r) for r in topic_rows], np.int64), flat(topic_rows),
            None if flag_rows is None else flat(flag_rows))


def parent_subcorpus_oracle(sampler: HDPSampler, parent: int) -> tuple[np.ndarray, np.ndarray]:
    """`pipeline.extract_parent_subcorpus` as a per-token loop over the
    public assignments: token i of document j belongs to topic
    table_topic[j][t[j][i]]."""
    sub_docs = []
    for doc, t, topics in zip(sampler.docs, sampler.t, sampler.table_topic):
        toks = [w for w, table in zip(doc, t) if topics[table] == parent]
        if toks:
            sub_docs.append(toks)
    if not sub_docs:
        raise ParentTopicError(f"parent topic {parent} claimed no tokens")
    return stream(sub_docs)


# a v3 checkpoint's array fields: base64 of little-endian arrays of these types
CHECKPOINT_ARRAYS = {"t": "<i4", "flags": "i1", "n_tab": "<i4", "table_topic": "<i8"}


def checkpoint_array(state: dict, key: str) -> np.ndarray:
    """Array field `key` of a checkpoint, decoded to a writable array."""
    return np.frombuffer(base64.b64decode(state[key]), CHECKPOINT_ARRAYS[key]).copy()


def edit_checkpoint_array(state: dict, key: str, edit) -> None:
    """Decode array field `key`, let `edit` change the array in place or
    return a new one, and store the result back as base64."""
    array = checkpoint_array(state, key)
    new = edit(array)
    array = array if new is None else np.asarray(new, CHECKPOINT_ARRAYS[key])
    state[key] = base64.b64encode(array.tobytes()).decode("ascii")


def start_topics_oracle(rng: np.random.Generator, free: list[int], n_docs: int) -> list[int]:
    """`HDPSampler.initialize`'s start topic of each document, drawn by one
    generator call per document."""
    return [free[int(rng.integers(len(free)))] for _ in range(n_docs)]
