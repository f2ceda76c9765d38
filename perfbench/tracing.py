"""In-memory spans around calls into each layer of the serving stack.

Spans exist only in a traced run.  :func:`install_serving_spans` replaces
each layer's public entry point, on the name its caller looks up, with a
wrapper that records a span; :meth:`Tracer.uninstall` restores the
originals.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time covered by its child
spans.  Children run nested in the parent's thread, so the covered time is
the sum of their durations.  Each outermost span (a root: one model query,
one daemon batch, one ``tune_model`` call) accumulates the self time of
every span under it by layer, so the layers of one root add up to the
root's duration.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Annotate = Callable[[tuple, dict], Any]
Adapt = Callable[[tuple, dict], Tuple[tuple, dict]]


class Span:
    """One call into a layer."""

    __slots__ = ("layer", "start", "end", "child_s", "root", "info", "layers")

    def __init__(self, layer: str, root: Optional["Span"], info: Any = None):
        self.layer = layer
        self.root = root if root is not None else self
        self.info = info
        self.child_s = 0.0
        self.layers: Dict[str, float] = defaultdict(float) if root is None else None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe, one span stack per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.roots: List[Span] = []  # guarded-by: _lock
        # name -> [calls, inclusive seconds, items]
        self.calls: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])  # guarded-by: _lock
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, name: str, function, args, kwargs, info=None, items: int = 0):
        """Run ``function(*args, **kwargs)`` inside a span of ``layer``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(layer, parent.root if parent is not None else None, info)
        stack.append(span)
        try:
            return function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            duration = span.duration_s
            span.root.layers[layer] += duration - span.child_s
            with self._lock:
                record = self.calls[name]
                record[0] += 1
                record[1] += duration
                record[2] += items
                if parent is None:
                    self.roots.append(span)
            if parent is not None:
                parent.child_s += duration

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        annotate: Optional[Annotate] = None,
        count: Optional[Callable[[tuple, dict], int]] = None,
        adapt: Optional[Adapt] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``annotate`` attaches an info payload to the span, ``count`` the
        number of items the call handled, and ``adapt`` may rewrite the
        arguments (to wrap a callback) before the original runs.
        """
        original = getattr(owner, attr)
        own = attr in vars(owner)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            return tracer.call(
                layer,
                name,
                original,
                args,
                kwargs,
                info=annotate(args, kwargs) if annotate is not None else None,
                items=count(args, kwargs) if count is not None else 0,
            )

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, own))

    def reset(self) -> None:
        """Forget every span recorded so far (wrappers stay installed)."""
        with self._lock:
            self.roots.clear()
            self.calls.clear()

    def traced_callable(self, function, layer: str, name: str):
        """``function`` wrapped so every call records a span of ``layer``."""

        def traced(*args, **kwargs):
            return self.call(layer, name, function, args, kwargs)

        return traced

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def summary(self) -> Dict[str, object]:
        """Roots (start, end, info, self time by layer) and per-call totals."""
        with self._lock:
            roots = list(self.roots)
            calls = {name: list(record) for name, record in self.calls.items()}
        return {
            "roots": [
                {
                    "start": root.start,
                    "end": root.end,
                    "info": root.info,
                    "layers": dict(root.layers),
                }
                for root in roots
            ],
            "calls": calls,
        }


def _batch_info(args, kwargs):
    """(queries, seed) of a ``predict_model_batch`` call, for request matching."""
    queries = [
        [model, device if isinstance(device, str) else device.name, int(batch)]
        for model, device, batch in args[1]
    ]
    return {"queries": queries, "seed": repr(kwargs.get("seed", 0))}


def install_serving_spans(tracer: Tracer) -> None:
    """Span every layer the workloads reach, on the names their callers use."""
    import repro.serving.fleet as fleet
    import repro.serving.search as search
    import repro.serving.service as service
    from repro.backends.cdmpp import CDMPPBackend

    def wrap_score_fn(args, kwargs):
        # evolutionary_search(task, device, score_fn, ...) as serving.search calls it
        score_fn = tracer.traced_callable(args[2], "search.scoring", "score_fn")
        return (args[0], args[1], score_fn) + tuple(args[3:]), kwargs

    tracer.wrap(fleet.FleetService, "predict_model", "fleet")
    tracer.wrap(fleet.FleetService, "predict_model_batch", "fleet", annotate=_batch_info)
    tracer.wrap(fleet, "build_model", "graph")
    tracer.wrap(fleet, "partition_into_programs", "graph")
    tracer.wrap(search, "partition_into_programs", "graph")
    tracer.wrap(service, "program_cache_key", "cache.key")
    tracer.wrap(CDMPPBackend, "featurize_rows", "features", count=lambda a, k: len(a[1]))
    tracer.wrap(CDMPPBackend, "predict_rows", "infer", count=lambda a, k: len(a[1]))
    tracer.wrap(fleet, "compose_latencies", "replay.compose")
    tracer.wrap(service.PredictionService, "flush", "service.flush")
    tracer.wrap(search.SearchService, "tune_model", "search")
    tracer.wrap(search, "evolutionary_search", "search", adapt=wrap_score_fn)


def layer_totals(roots: List[Dict[str, object]]) -> Dict[str, float]:
    """Self seconds per layer summed over ``roots``."""
    totals: Dict[str, float] = defaultdict(float)
    for root in roots:
        for layer, seconds in root["layers"].items():
            totals[layer] += seconds
    return dict(totals)
