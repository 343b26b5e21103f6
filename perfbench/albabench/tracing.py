"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public callables of each layer (see
:data:`PATCHES`) for its duration only and restores them afterwards, so
the untraced end-to-end run executes the program exactly as shipped.
Nothing here is imported by the program itself.

A span records its name, start, end, the span that caused it (the
enclosing span on the same thread) and a trace id. A serving request's
spans (``serving.request`` and ``serving.queue_wait``) share the request
id; batch-level spans run on the dispatcher thread and nest there.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = ["Span", "Tracer", "instrument", "instrumented", "self_times", "write_spans"]

# spans that measure waiting (started on one thread, ended on another);
# they are reported as waits, never folded into a layer's busy self time
ASYNC_SPANS = ("serving.request", "serving.queue_wait")


@dataclass
class Span:
    """One timed call at a layer boundary."""

    index: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace_id: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Thread-safe span store with a per-thread stack for parent links."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        # submit-time bookkeeping: id(run) -> (request id, submit time)
        self.pending: dict[int, tuple[str, float]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: int | None, trace_id: str) -> Span:
        span = Span(
            index=next(self._ids),
            name=name,
            start=start,
            parent=parent,
            trace_id=trace_id,
        )
        with self._lock:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A synchronous span nested under the thread's current span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = self._new(
            name,
            time.perf_counter(),
            None if parent is None else parent.index,
            "" if parent is None else parent.trace_id,
        )
        span.attrs.update(attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def record(self, name: str, start: float, end: float, trace_id: str,
               parent: int | None = None) -> Span:
        """An already-finished span (waits measured across threads)."""
        span = self._new(name, start, parent, trace_id)
        span.end = end
        return span

    def ancestors(self) -> list[str]:
        """Names of the spans open on this thread, outermost first."""
        return [s.name for s in self._stack()]

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]


def self_times(spans: list[Span], by: str = "layer") -> dict[str, float]:
    """Busy self time per layer (or per span name, ``by="name"``), in s.

    A span's self time is its duration minus the part of its interval
    that its child spans cover. Async wait spans are excluded.
    """
    sync = [s for s in spans if s.name not in ASYNC_SPANS and s.end > 0]
    children: dict[int, list[Span]] = {}
    for s in sync:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, float] = {}
    for s in sync:
        covered = 0.0
        lo = s.start
        for c in sorted(children.get(s.index, ()), key=lambda c: c.start):
            a, b = max(c.start, lo), min(c.end, s.end)
            if b > a:
                covered += b - a
                lo = b
        key = s.layer if by == "layer" else s.name
        out[key] = out.get(key, 0.0) + max(0.0, s.duration - covered)
    return out


# ----------------------------------------------------------------------
# the patch table: (module path, attribute path, span name)

PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.datasets", "generate_runs", "datasets.generate"),
    ("repro.features.pipeline", "FeatureExtractor.fit_transform", "features.fit_transform"),
    ("repro.features.pipeline", "FeatureExtractor.transform", "features.transform"),
    ("repro.features.pipeline", "preprocess_run", "features.preprocess"),
    # one span per extraction call; its self time is the kernel family's
    # passes plus panel stacking, since the preprocess children subtract
    ("repro.features.pipeline", "batched_feature_rows", "features.kernel"),
    ("repro.mlcore.preprocessing", "MinMaxScaler.transform", "mlcore.scale"),
    ("repro.mlcore.feature_selection", "SelectKBest.transform", "mlcore.select"),
    ("repro.mlcore.feature_selection", "SelectKBest.fit", "mlcore.chi2"),
    ("repro.mlcore.forest", "RandomForestClassifier.fit", "mlcore.forest_fit"),
    ("repro.mlcore.forest", "RandomForestClassifier.fit_binned", "mlcore.forest_fit"),
    ("repro.mlcore.forest", "RandomForestClassifier.refit", "mlcore.forest_refit"),
    ("repro.mlcore.forest", "RandomForestClassifier.predict_proba", "mlcore.predict_proba"),
    ("repro.active.learner", "ActiveLearner.query", "active.select"),
    ("repro.active.loop", "select_from_proba", "active.select"),
    ("repro.active.learner", "ActiveLearner.teach", "active.teach"),
    ("repro.core.framework", "ALBADross.fit_features", "core.fit_features"),
    ("repro.core.framework", "ALBADross.fit_initial", "core.fit_initial"),
    ("repro.core.framework", "ALBADross.learn", "core.learn"),
    ("repro.core.framework", "ALBADross.featurize", "core.featurize"),
    ("repro.core.framework", "ALBADross.predict_features", "core.predict"),
    ("repro.core.framework", "ALBADross.diagnose", "core.diagnose"),
    ("repro.core.framework", "ALBADross.absorb", "core.absorb"),
    ("repro.serving.registry", "ModelRegistry.publish", "registry.publish"),
    ("repro.serving.registry", "ModelRegistry.load", "registry.load"),
    ("repro.serving.service", "DiagnosisService.swap", "serving.swap"),
    ("repro.serving.service", "DiagnosisService.retrain_and_publish", "serving.retrain"),
)

# fits issued while one of these is open retrain an existing model
_REFIT_CONTEXTS = ("active.teach", "core.absorb")


def _resolve(module_path: str, attr_path: str) -> tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args, **kwargs):
        span_name = name
        if name == "mlcore.forest_fit":
            open_spans = tracer.ancestors()
            if open_spans and open_spans[-1].startswith("mlcore.forest_"):
                return fn(*args, **kwargs)  # fit -> fit_binned: one fit
            if any(a in _REFIT_CONTEXTS for a in open_spans):
                span_name = "mlcore.forest_refit"
        if name == "features.kernel":
            method = kwargs.get("method", args[4] if len(args) > 4 else "?")
            span_name = f"features.kernel.{method}"
        with tracer.span(span_name) as span:
            if name == "core.featurize" and len(args) > 1:
                _end_queue_waits(tracer, args[1], span)
            result = fn(*args, **kwargs)
        _count(tracer, span_name, args, result)
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _end_queue_waits(tracer: Tracer, runs, span: Span) -> None:
    """Close the queue-wait span of every request in this micro-batch."""
    now = span.start
    ids = []
    for run in runs:
        entry = tracer.pending.pop(id(run), None)
        if entry is not None:
            rid, t_submit = entry
            tracer.record("serving.queue_wait", t_submit, now, rid)
            ids.append(rid)
    span.attrs["requests"] = ids
    span.attrs["batch_size"] = len(runs)


def _count(tracer: Tracer, span_name: str, args: tuple, result: Any) -> None:
    if span_name in ("mlcore.forest_fit", "mlcore.forest_refit"):
        model = args[0]
        replaced = getattr(result, "replaced", None)
        grown = len(replaced) if replaced is not None else model.n_estimators
        tracer.count("mlcore.trees_grown", grown)
    elif span_name.startswith("features.kernel."):
        tracer.count("features.rows_extracted", result.shape[0])
        tracer.count("features.columns_extracted", result.size)
    elif span_name == "registry.publish":
        tracer.counts["registry.artifact_bytes"] = float(
            result.model_path.stat().st_size
        )


def _wrap_submit(tracer: Tracer, fn: Callable) -> Callable:
    """Open a request's trace at submit; close it when its future settles."""

    def traced(self, run, *args, **kwargs):
        rid = f"req-{next(tracer._ids)}"
        t_submit = time.perf_counter()
        tracer.pending[id(run)] = (rid, t_submit)
        future = fn(self, run, *args, **kwargs)
        future.add_done_callback(
            lambda _f: tracer.record(
                "serving.request", t_submit, time.perf_counter(), rid
            )
        )
        return future

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every patch-table callable for the duration of the block.

    Originals are restored on exit, including on error. Class attributes
    that were inherited (absent from the class ``__dict__``) are deleted
    again rather than shadowed.
    """
    saved: list[tuple[Any, str, bool, Any]] = []
    try:
        for module_path, attr_path, name in PATCHES:
            owner, attr = _resolve(module_path, attr_path)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            saved.append((owner, attr, own, original))
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr)))
        owner, attr = _resolve("repro.serving.service", "DiagnosisService.submit")
        saved.append((owner, attr, True, vars(owner)[attr]))
        setattr(owner, attr, _wrap_submit(tracer, vars(owner)[attr]))
        yield tracer
    finally:
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def instrumented(tracer: Tracer | None):
    """``instrument(tracer)``, or a no-op for the untraced run."""
    return nullcontext() if tracer is None else instrument(tracer)


def write_spans(tracer: Tracer, path) -> None:
    """Dump every span as one JSON object per line, times relative to the
    first span (seconds)."""
    import json

    t0 = min((s.start for s in tracer.spans), default=0.0)
    with open(path, "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "i": s.index, "name": s.name, "start": s.start - t0,
                "end": s.end - t0, "parent": s.parent, "trace_id": s.trace_id,
                "attrs": s.attrs,
            }) + "\n")


def durations_ms(spans: list[Span]) -> np.ndarray:
    return np.array([s.duration * 1000.0 for s in spans], dtype=np.float64)
