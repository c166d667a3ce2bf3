"""Span recording around calls into the program's layers.

A span is ``(id, name, start, end, parent, attrs)``; the parent is the
span open on the same thread when it started.  Spans stay in memory and
are written out once, when the traced process ends.  Wrapping happens
from the benchmark's own files: :func:`install_serving` replaces public
functions and methods of the serving stack with timing wrappers, and
the reproduce script opens spans around the calls it makes itself.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import threading
import time


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, attrs))

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``before(args, kwargs)`` returns the span's initial attributes;
        ``after(result, attrs)`` may add to them.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(before(args, kwargs) if before else {})) as attrs:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, attrs)
                return result

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install_serving(rec: Recorder) -> None:
    """Wrap the serving, ingest and set-up layers named in NOTES.md."""
    import repro.serving
    from repro.core.retina.features import RetinaFeatureExtractor
    from repro.core.retina.model import RETINA
    from repro.serving import engine as engine_mod
    from repro.serving.cache import LRUCache
    from repro.serving.registry import ModelRegistry
    from repro.store.log import EventLog

    # Batcher: submit time per payload object, read back when the batch
    # that carries the payload starts.
    submitted: dict[int, float] = {}
    submit = engine_mod.InferenceEngine.submit

    def timed_submit(self, kind, payload):
        submitted[id(payload)] = time.perf_counter()
        return submit(self, kind, payload)

    engine_mod.InferenceEngine.submit = timed_submit

    def batch_attrs(args, kwargs):
        payloads = args[1]
        return {"batch": len(payloads),
                "submitted": [submitted.pop(id(p), None) for p in payloads]}

    rec.wrap(engine_mod.RetweeterPredictor, "predict_batch", "predict_batch",
             before=batch_attrs)
    rec.wrap(RetinaFeatureExtractor, "candidate_block", "candidate_block",
             before=lambda a, k: {"rows": len(a[2])})
    rec.wrap(RETINA, "predict_proba_packed", "forward",
             before=lambda a, k: {"rows": sum(len(p[0]) for p in a[1])})

    rec.wrap(engine_mod.InferenceEngine, "ingest", "ingest",
             before=lambda a, k: {"events": len(a[1])})
    rec.wrap(EventLog, "append", "append")
    rec.wrap(engine_mod, "apply_events_to_world", "apply")
    rec.wrap(engine_mod.RetweeterPredictor, "apply_events", "apply",
             after=lambda r, attrs: attrs.update(evicted=r.get("cache_evictions", 0)))
    rec.wrap(LRUCache, "evict_if", "invalidate")
    rec.wrap(LRUCache, "clear", "invalidate")

    rec.wrap(ModelRegistry, "load_bundle", "load_bundle")
    rec.wrap(engine_mod.InferenceEngine, "attach_store", "replay")
    rec.wrap(engine_mod, "engine_from_store", "engine_from_store")
    repro.serving.engine_from_store = engine_mod.engine_from_store


# --------------------------------------------------------------- analysis
class Tree:
    """Index over loaded spans: children, durations and self times."""

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.children: dict[int, list[tuple]] = {}
        for s in self.spans:
            self.children.setdefault(s[4], []).append(s)

    def counts(self) -> dict[str, int]:
        return dict(collections.Counter(s[1] for s in self.spans))

    def roots(self, name: str, start: float = float("-inf"), stop: float = float("inf")):
        return [s for s in self.spans if s[1] == name and start <= s[2] < stop]

    def self_time(self, span) -> float:
        return (span[3] - span[2]) - sum(c[3] - c[2] for c in self.children.get(span[0], ()))

    def by_name(self, span) -> dict[str, list[tuple]]:
        """Every descendant of ``span``, grouped by name."""
        out: dict[str, list[tuple]] = {}
        todo = list(self.children.get(span[0], ()))
        while todo:
            s = todo.pop()
            out.setdefault(s[1], []).append(s)
            todo.extend(self.children.get(s[0], ()))
        return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def serve_layers(tree: Tree, start: float, stop: float, client_ms: list[float]) -> dict:
    """Read-path layers over batches started in ``[start, stop)``.

    Times are per request in milliseconds, so that for the mean request
    ``client = front.residual + queue_wait + predictor.self +
    features.build + model.forward`` holds exactly.
    """
    per_request = []  # (queue_wait, self, features, forward) per request
    batch_sizes, forward_rows, built_rows = [], [], 0
    for b in tree.roots("predict_batch", start, stop):
        below = tree.by_name(b)
        feats = sum(s[3] - s[2] for s in below.get("candidate_block", ()))
        fwd = sum(s[3] - s[2] for s in below.get("forward", ()))
        own = (b[3] - b[2]) - feats - fwd
        built_rows += sum(s[5]["rows"] for s in below.get("candidate_block", ()))
        forward_rows += [s[5]["rows"] for s in below.get("forward", ())]
        batch_sizes.append(b[5]["batch"])
        for t in b[5]["submitted"]:
            if t is not None:
                per_request.append((b[2] - t, own, feats, fwd))
    n = max(len(per_request), 1)
    wait, own, feats, fwd = (sum(r[i] for r in per_request) * 1e3 / n for i in range(4))
    return {
        "serve.front.residual_ms": _mean(client_ms) - (wait + own + feats + fwd),
        "serve.engine.queue_wait_ms": wait,
        "serve.engine.batch_size": _mean(batch_sizes),
        "serve.predictor.self_ms": own,
        "serve.features.build_ms": feats,
        "serve.features.rows_built": built_rows / n,
        "serve.model.forward_ms": fwd,
        "serve.model.rows": _mean(forward_rows),
    }


def ingest_layers(tree: Tree, start: float, stop: float) -> dict:
    """Ingest layers, per ingest batch, over batches started in ``[start, stop)``."""
    rows = []
    for root in tree.roots("ingest", start, stop):
        below = tree.by_name(root)
        append = sum(s[3] - s[2] for s in below.get("append", ()))
        apply = sum(tree.self_time(s) for s in below.get("apply", ()))
        inval = sum(s[3] - s[2] for s in below.get("invalidate", ()))
        evicted = sum(s[5].get("evicted", 0) for s in below.get("apply", ()))
        total = root[3] - root[2]
        rows.append((append, apply, inval, total - append - apply - inval, evicted))
    n = max(len(rows), 1)
    append, apply, inval, rest, evicted = (sum(r[i] for r in rows) / n for i in range(5))
    return {
        "ingest.store.append_ms": append * 1e3,
        "ingest.apply_ms": apply * 1e3,
        "ingest.invalidate_ms": inval * 1e3,
        "ingest.evicted_rows": evicted,
        "ingest.unattributed_ms": rest * 1e3,
    }


def setup_layers(tree: Tree, setup_s: float) -> dict:
    load = sum(s[3] - s[2] for s in tree.roots("load_bundle"))
    replay = sum(s[3] - s[2] for s in tree.roots("replay"))
    return {"setup.load_bundle_s": load, "setup.replay_s": replay,
            "setup.unattributed_s": setup_s - load - replay}
