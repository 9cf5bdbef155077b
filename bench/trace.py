"""In-memory span tracer that wraps qdtm's public functions from outside.

The program is never edited: `Tracer.installed()` replaces the public
functions of each layer module (and every other qdtm name bound to the same
function object, such as the names `qdtm.pipeline` imported directly) with
wrappers that record a span per call, and restores the originals on exit.

Only per-call or per-sweep entry points are wrapped. Helpers that run once
per token, word or document are listed in `PER_ITEM` and left alone, because
wrapping them would add more time than the work they do.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass, field

LAYERS = ("corpus", "embeddings", "retrieval", "concepts", "sampler",
          "pipeline", "metrics")

# Public module functions called once per token, word, document or pair.
PER_ITEM = {
    "corpus": {"term_frequency"},
    "embeddings": {"cosine"},
    "retrieval": {"query_likelihood"},
    "concepts": {"score_fre", "score_kld", "relevance_model_prob", "score_rel"},
    "metrics": {"topic_embedding", "topic_cohesion", "overall_quality"},
}

# Methods called once per fit, sweep or result. The sampler's posterior reads
# (theta, phi, top_words) are left to their caller's self time, so that
# `pipeline.fit_self_s` shows the work of building the result.
METHODS = {
    "embeddings": {"EmbeddingTable": ("norm_matrix",)},
    "sampler": {"HDPSampler": ("initialize", "set_state", "run", "refresh_cohesion",
                               "sweep", "compact_tables", "check_invariants",
                               "state_dict", "load_state_dict")},
    "pipeline": {"TopicModelResult": ("to_dict",)},
}

# Standard-library calls a layer makes through its own module binding. They
# are wrapped in that binding only: pipeline reads and writes its phase-1
# checkpoint with `json.load` and `json.dump`.
MODULE_CALLS = {"pipeline": {"json": ("load", "dump")}}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in `Tracer.spans`, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Stand-in used for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


class Tracer:
    """Records nested spans in memory; one thread, one open stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), 0.0, parent, dict(attrs))
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                # bookkeeping is a span of its own so no layer is charged for it
                with tracer.span("trace.bookkeeping"):
                    after(tracer, idx, args, kwargs, out)
            return out

        traced.__bench_traced__ = True
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, hooks: dict) -> None:
        """Wrap every traced entry point.

        `hooks` maps a span name to `hook(tracer, span_index, args, kwargs,
        result)`, run after the call and outside its span.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}   # id(original function) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module(f"qdtm.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in PER_ITEM.get(layer, ())):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(obj, name, hooks.get(name))
                    wrapped[id(obj)] = wrapper
                    self._patch(mod, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    name = f"{layer}.{cls_name}.{attr}"
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], name,
                                                      hooks.get(name)))
            for mod_attr, attrs in MODULE_CALLS.get(layer, {}).items():
                original = getattr(mod, mod_attr)
                proxy = types.SimpleNamespace(**vars(original))
                for attr in attrs:
                    name = f"{layer}.{mod_attr}.{attr}"
                    setattr(proxy, attr, self._wrap(getattr(original, attr), name,
                                                    hooks.get(name)))
                self._patch(mod, mod_attr, proxy)
        # names other modules imported directly (`from .retrieval import retrieve`)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qdtm" or mod_name.startswith("qdtm.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, hooks: dict):
        self.install(hooks)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent >= 0:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, sp.start), min(e, sp.end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(sp.duration - covered)
    return out
