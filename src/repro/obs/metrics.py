"""Typed metrics: counters, gauges, histograms, Prometheus exposition.

A :class:`MetricsRegistry` owns named metrics, each optionally labelled
(``counter.inc(route="/v1/healthz", status="200")``).  Histograms use
*fixed log-scale buckets* so histograms merge by plain bucket-count
addition — unlike a rolling latency window, percentile estimates stay
correct when aggregated across processes or scrapes.

Two exposition forms: :meth:`MetricsRegistry.snapshot` (nested dicts for
the JSON ``/v1/metrics`` body) and :meth:`MetricsRegistry.render` (the
Prometheus text format, ``/v1/metrics?format=prometheus``).  All
mutation methods are thread-safe and become no-ops when telemetry is
disabled.
"""

from __future__ import annotations

import math
import re
import threading

from repro.obs import config

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-scale latency bounds in seconds: 0.5 ms doubling up to ~65 s.
#: Fixed across the fleet so histograms merge by bucket addition.
LATENCY_BUCKETS = tuple(0.0005 * 2**k for k in range(18))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _label_str(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help: str, labels: tuple[str, ...] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.label_names)

    def _header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """Monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name, help, labels=()):
        super().__init__(name, help, labels)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not config.STATE.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def items(self) -> list[tuple[dict, float]]:
        with self._lock:
            values = dict(self._values)
        return [
            (dict(zip(self.label_names, key)), v)
            for key, v in sorted(values.items())
        ]

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            values = sorted(self._values.items())
        if not values and not self.label_names:
            values = [((), 0.0)]
        for key, v in values:
            lines.append(
                f"{self.name}{_label_str(self.label_names, key)} {_format_value(v)}"
            )
        return lines

    def snapshot(self):
        if not self.label_names:
            return self.total()
        return {
            "|".join(map(str, key)): v
            for key, v in sorted(self._values.items())
        }


class Gauge(_Metric):
    """Point-in-time value: ``set()`` it, or back it with a callback."""

    kind = "gauge"

    def __init__(self, name, help, labels=()):
        super().__init__(name, help, labels)
        self._values: dict[tuple, float] = {}
        self._fn = None

    def set(self, value: float, **labels) -> None:
        if not config.STATE.enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def set_fn(self, fn) -> None:
        """Back the gauge with a callback read at render/value time.

        Unlabelled gauges take ``fn() -> float``.  Labelled gauges take
        ``fn() -> {label-values tuple: float}`` — one entry per live
        label set, re-read at every scrape (so e.g. per-tenant levels
        track the source of truth instead of being pushed).
        """
        self._fn = fn

    def _fn_series(self) -> dict[tuple, float]:
        """Labelled callback output, normalised + guarded."""
        try:
            series = self._fn()
            return {
                tuple(str(v) for v in key): float(value)
                for key, value in series.items()
            }
        except Exception:
            return {}

    def value(self, **labels) -> float:
        if self._fn is not None:
            if self.label_names:
                return self._fn_series().get(self._key(labels), 0.0)
            try:
                return float(self._fn())
            except Exception:
                return float("nan")
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def render(self) -> list[str]:
        lines = self._header()
        if self._fn is not None and not self.label_names:
            lines.append(f"{self.name} {_format_value(self.value())}")
            return lines
        if self._fn is not None:
            values = sorted(self._fn_series().items())
        else:
            with self._lock:
                values = sorted(self._values.items())
        if not values and not self.label_names:
            values = [((), 0.0)]
        for key, v in values:
            lines.append(
                f"{self.name}{_label_str(self.label_names, key)} {_format_value(v)}"
            )
        return lines

    def snapshot(self):
        if not self.label_names:
            return self.value()
        if self._fn is not None:
            return {
                "|".join(key): v for key, v in sorted(self._fn_series().items())
            }
        with self._lock:
            return {
                "|".join(map(str, key)): v
                for key, v in sorted(self._values.items())
            }


class Histogram(_Metric):
    """Fixed-bucket histogram; counts merge across scrapes by addition."""

    kind = "histogram"

    def __init__(self, name, help, labels=(), buckets=LATENCY_BUCKETS):
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        # per labelset: [counts per bound] + overflow, sum, count
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, **labels) -> None:
        if not config.STATE.enabled:
            return
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
            counts, _, _ = series
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
            series[1] += value
            series[2] += 1

    def merge_counts(self, **labels) -> list[int]:
        """Cumulative bucket counts (ending with the +Inf total)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            counts = list(series[0]) if series else [0] * (len(self.bounds) + 1)
        out, acc = [], 0
        for c in counts:
            acc += c
            out.append(acc)
        return out

    def quantile(self, q: float, **labels) -> float:
        """Upper-bound estimate of the ``q`` quantile from the buckets."""
        cum = self.merge_counts(**labels)
        total = cum[-1]
        if total == 0:
            return 0.0
        rank = q * total
        for bound, c in zip(self.bounds, cum):
            if c >= rank:
                return bound
        return self.bounds[-1]

    def render(self) -> list[str]:
        lines = self._header()
        with self._lock:
            series = {k: (list(v[0]), v[1], v[2]) for k, v in sorted(self._series.items())}
        if not series and not self.label_names:
            series = {(): ([0] * (len(self.bounds) + 1), 0.0, 0)}
        for key, (counts, total_sum, count) in series.items():
            acc = 0
            for bound, c in zip(self.bounds, counts):
                acc += c
                labels = _label_str(
                    self.label_names + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {acc}")
            acc += counts[-1]
            inf_labels = _label_str(self.label_names + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{inf_labels} {acc}")
            lines.append(
                f"{self.name}_sum{_label_str(self.label_names, key)} "
                f"{_format_value(round(total_sum, 9))}"
            )
            lines.append(f"{self.name}_count{_label_str(self.label_names, key)} {count}")
        return lines

    def snapshot(self):
        with self._lock:
            return {
                "|".join(map(str, key)): {"count": v[2], "sum": round(v[1], 6)}
                for key, v in sorted(self._series.items())
            }


class MetricsRegistry:
    """Named metrics with get-or-create semantics and two expositions."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, labels, **kwargs)
                return metric
        if not isinstance(metric, cls) or metric.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind} with "
                f"labels {metric.label_names}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", labels=(),
                  buckets=LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def render(self) -> str:
        """The Prometheus text exposition of every registered metric."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """``{name: value(s)}`` for JSON output / run records."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: m.snapshot() for name, m in sorted(metrics.items())}

    def reset(self) -> None:
        """Drop every registered metric (tests only)."""
        with self._lock:
            self._metrics.clear()


REGISTRY = MetricsRegistry()
