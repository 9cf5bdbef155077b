import numpy as np
import pytest

from qdtm import _native
from qdtm.corpus import ingest

from helpers import make_table


@pytest.fixture(autouse=True, scope="session")
def empty_user_cache(tmp_path_factory):
    """An empty per-user library cache for every test and every process it
    starts, so that a library left in the real one never stands in for a
    build that a test of a cold `_native.CACHE_DIR` expects."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("user-cache")))
    yield
    patch.undo()


@pytest.fixture
def cold_cache(tmp_path, monkeypatch):
    """An empty cache directory, and no library loaded in this process."""
    monkeypatch.setattr(_native, "CACHE_DIR", str(tmp_path / "cache"))
    _native.library.cache_clear()
    yield tmp_path / "cache"
    _native.library.cache_clear()


@pytest.fixture
def tiny_corpus():
    docs = [
        ("d0", "cat sat mat cat"),
        ("d1", "dog sat log"),
        ("d2", "cat dog fish"),
        ("d3", "fish swim pond fish fish"),
    ]
    return ingest(docs)


@pytest.fixture
def random_corpus():
    """50 documents over a ~120-word vocabulary with a planted block."""
    rng = np.random.default_rng(7)
    words = [f"w{i:03d}" for i in range(120)]
    docs = []
    for j in range(50):
        if j < 10:
            # planted block: words 0..19 dominate
            ids = rng.integers(0, 20, size=30)
        else:
            ids = rng.integers(20, 120, size=30)
        docs.append((f"doc{j}", " ".join(words[i] for i in ids)))
    return ingest(docs)


@pytest.fixture
def geometry_table():
    """2-D vectors with controlled angles over a 6-word vocabulary."""
    return make_table({
        0: [1.0, 0.0],
        1: [0.0, 1.0],
        2: [1.0, 1.0],
        3: [-1.0, 0.0],
        4: [0.8, 0.1],
    }, vocab_size=6)
