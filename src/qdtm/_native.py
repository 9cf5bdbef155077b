"""Build, cache and load the compiled library (`sweep.c`), and the array
passes that ingest, the query path and the embeddings share.

The library is built on first use (the first ingest, sampler, query or dot
product, never at `import qdtm`) with the interpreter's C compiler
(`sysconfig` CC) and `FLAGS`, linked with `LIBS` (libm): `-O2`, no fused
multiply-add and no fast-math, so its float arithmetic equals the Python
expressions it replaces bit for bit. It is cached beside the source in
`__pycache__`, under a CRC-32 and Adler-32 key of the source, the compiler
and the flags (zlib, so loading it maps no OpenSSL), and published with
`os.replace`, so processes that build at the same time each see a complete
file.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shlex
import subprocess
import sysconfig
import tempfile
import zlib

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-std=c99", "-shared", "-fPIC")
LIBS = ("-lm",)   # after the source, where the linker still needs them

NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)
_P = ctypes.c_void_p
_I = ctypes.c_int64


class BuildError(RuntimeError):
    """The compiled library could not be built or loaded."""


class State(ctypes.Structure):
    """Mirror of `qd_state` in sweep.c; the field order is the C order."""
    _fields_ = [
        ("words", _P), ("doc_ptr", _P), ("n_docs", _I), ("V", _I),
        ("forced", _P), ("promo_ptr", _P), ("promo_target", _P),
        ("tok_t", _P), ("tok_flag", _P), ("n_tab", _P), ("tab_col", _P),
        ("tab_units", _P), ("tab_promos", _P), ("cap", _I), ("topic_of", _P),
        ("by_id", _P), ("m", _P), ("nk_units", _P), ("nk_promos", _P),
        ("nkw_units", _P), ("nkw_promos", _P), ("scal", _P), ("tilde", _P), ("tilde_row", _P),
        ("norms", _P), ("dim", _I), ("n_reps", _I), ("rep_topic", _P), ("rep_ptr", _P),
        ("rep_words", _P), ("n_rep_topics", _I), ("top", _P), ("rank", _P),
        ("u", ctypes.c_double), ("beta", ctypes.c_double), ("alpha", ctypes.c_double),
        ("gamma", ctypes.c_double), ("base_density", ctypes.c_double),
        ("next_double", NEXT_DOUBLE), ("rng_state", _P), ("work", _P), ("slot_map", _P),
        ("err", _P),
    ]


class Ingest(ctypes.Structure):
    """Mirror of `qd_ingest_state` in sweep.c; the field order is the C order."""
    _fields_ = [
        ("text", _P), ("text_ptr", _P), ("n_docs", _I), ("cased", _I), ("min_len", _I),
        ("slots", _P), ("n_slots", _I), ("first", _P), ("length", _P), ("last_doc", _P),
        ("entry", _P), ("max_ids", _I), ("n_ids", _I), ("doc", _I), ("tokens", _P),
        ("tok_ptr", _P), ("words", _P), ("counts", _P), ("word_ptr", _P),
    ]


_S = ctypes.POINTER(State)
SIGNATURES = {   # name -> argument types; every function returns int64
    "qd_state_size": [],
    "qd_ingest_size": [],
    "qd_sweep": [_S, _I],
    "qd_compact": [_S],
    "qd_detach": [_S, _I, _I, _P],
    "qd_attach": [_S, _I, _I, _I, _I],
    "qd_ensure_table": [_S, _I, _I, _I],
    "qd_table_weights": [_S, _I, _I, _P],
    "qd_topic_weights": [_S, _I, _P, _P],
    "qd_draw_table": [_S, _I, _I],
    "qd_draw_topic": [_S, _I, _P],
    "qd_draw_flag": [_S, _I, _I],
    "qd_cohesion": [_S, _P, _P],
    "qd_log": [_P, _I, _P],
    "qd_dots": [_P, _P, _I, _I, _I, _P],
    "qd_ingest": [ctypes.POINTER(Ingest)],
}
FIRST_SLOTS = 1 << 14   # the intern table's first size; it doubles when half full


def compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path() -> str:
    with open(SOURCE, "rb") as fh:
        data = fh.read() + repr((compiler(), FLAGS, LIBS, sysconfig.get_platform())).encode()
    return os.path.join(CACHE_DIR, f"sweep-{zlib.crc32(data):08x}{zlib.adler32(data):08x}.so")


def build(path: str) -> None:
    """Compile SOURCE into a temporary file beside `path`, then publish it."""
    cc = compiler()
    try:
        os.makedirs(CACHE_DIR, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".sweep-", suffix=".so", dir=CACHE_DIR)
        os.close(fd)
    except OSError as e:
        raise BuildError(f"cannot write the compiled-sweep cache {CACHE_DIR}: {e}") from None
    try:
        subprocess.run([*cc, *FLAGS, "-o", tmp, SOURCE, *LIBS], check=True,
                       capture_output=True, text=True)
        os.replace(tmp, path)
    except FileNotFoundError:
        raise BuildError(f"qdtm's library (sweep.c) is built on first use and needs a C "
                         f"compiler, but {cc[0]!r} (sysconfig CC) was not found") from None
    except subprocess.CalledProcessError as e:
        raise BuildError(f"{cc[0]} failed to compile {SOURCE}:\n{e.stderr}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@functools.cache
def library() -> ctypes.CDLL:
    """The loaded sweep library, built first if the cache has no copy."""
    path = library_path()
    if not os.path.exists(path):
        build(path)
    lib = ctypes.CDLL(path)
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    if (lib.qd_state_size(), lib.qd_ingest_size()) != (ctypes.sizeof(State),
                                                        ctypes.sizeof(Ingest)):
        raise BuildError(f"{path} does not match this qdtm's State and Ingest layouts")
    return lib


def log(x: np.ndarray) -> np.ndarray:
    """The natural log of each entry of `x` as float64, by libm `log`, the
    function `math.log` calls for a positive float, so each value has its
    bits; -inf where an entry is not above 0 (NaN too)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    library().qd_log(x.ctypes.data, x.size, out.ctypes.data)
    return out


def top_n(values: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest of 1-D float `values`, ties by ascending index:
    `np.argsort(-values, kind="stable")[:n]`, NaN ranked last as there.
    `np.partition` finds the n-th key; only the keys at or above it are
    sorted."""
    keys = -values
    if 0 < n < len(keys):
        kth = np.partition(keys, n - 1)[n - 1]
        if kth == kth:   # not NaN: the keys above it and the NaNs all rank after the n-th
            candidates = np.flatnonzero(keys <= kth)
            return candidates[np.argsort(keys[candidates], kind="stable")[:n]]
    return np.argsort(keys, kind="stable")[:n]


def intern_runs(text: bytearray, text_ptr: np.ndarray, cased: bool, min_len: int):
    """Cut document j's bytes `text[text_ptr[j]:text_ptr[j + 1]]` into maximal
    runs of ASCII letters and digits (lowercase letters only unless `cased`),
    keep the runs of at least `min_len` bytes that are not all digits, and
    number them by first occurrence, in one pass of `qd_ingest`.

    Returns each id's first byte offset and length in `text`; the ids of the
    kept runs, document after document, with the int64 `n_docs + 1` offsets of
    each document's; and the forward index: each document's distinct ids in
    first-occurrence order and their counts, with its offsets. The id arrays
    are int32. `text` is read in place, not copied.
    """
    n_docs = len(text_ptr) - 1
    # a document of n bytes holds at most (n + 1) // (min_len + 1) runs, each of
    # min_len bytes and a separator; the pages of this bound that no run
    # reaches are never touched
    most = int(((np.diff(text_ptr) + 1) // (min_len + 1)).sum())
    tokens, words, counts = (np.empty(most, np.int32) for _ in range(3))
    tok_ptr, word_ptr = np.empty(n_docs + 1, np.int64), np.empty(n_docs + 1, np.int64)
    data = np.frombuffer(text, np.uint8)
    s = Ingest(text=data.ctypes.data, text_ptr=text_ptr.ctypes.data, n_docs=n_docs,
               cased=cased, min_len=min_len, tokens=tokens.ctypes.data,
               tok_ptr=tok_ptr.ctypes.data, words=words.ctypes.data,
               counts=counts.ctypes.data, word_ptr=word_ptr.ctypes.data)
    n_slots, lib = FIRST_SLOTS, library()
    first = length = np.empty(0, np.int64)
    while True:   # an empty table of n_slots, with room for half as many ids
        max_ids = n_slots // 2
        first, length = (np.concatenate((x[:s.n_ids], np.empty(max_ids - s.n_ids, np.int64)))
                         for x in (first, length))
        table = (np.zeros(n_slots, np.int32), first, length, np.empty(max_ids, np.int64),
                 np.empty(max_ids, np.int64))
        s.slots, s.first, s.length, s.last_doc, s.entry = (a.ctypes.data for a in table)
        s.n_slots, s.max_ids = n_slots, max_ids
        if lib.qd_ingest(ctypes.byref(s)) == 0:
            break
        n_slots *= 2
    n_ids = s.n_ids
    return (first[:n_ids], length[:n_ids], tokens[:tok_ptr[-1]], tok_ptr,
            words[:word_ptr[-1]], counts[:word_ptr[-1]], word_ptr)
