"""Admission control for the HTTP front end: quotas + load shedding.

The serving tier's failure mode used to be *silent saturation*: the
micro-batching engine queues work without bound, so under overload every
client sees a 30 s timeout (or a 503 long after the damage is done).
:class:`AdmissionController` moves the rejection to the front door — a
request is either admitted (and will get an answer within the latency
envelope) or refused immediately with ``429`` + ``Retry-After``:

- **bounded accept queue** — at most ``max_pending`` admitted requests
  may be in flight through the engine at once;
- **per-route token buckets** — each sheddable route (the ``/v1/predict``
  and ``/v1/batch`` families and ``/v1/ingest``) refills at
  ``route_rps`` tokens/s with a ``route_burst`` ceiling;
- **per-tenant token buckets** — tenants are identified by the
  ``X-Api-Key`` request header (absent header = the anonymous tenant),
  each with its own ``tenant_rps``/``tenant_burst`` bucket so one hot
  client cannot starve the rest;
- **saturation watermarks with hysteresis** — when the engine queue
  depth or queue age crosses its high watermark the controller starts
  shedding sheddable requests, and keeps shedding until the signal falls
  below the low watermark (no flapping at the boundary).  The
  ``Retry-After`` it returns is computed from the live queue-age signal,
  so clients back off proportionally to how far behind the engine is.

Every knob has a ``REPRO_ADMIT_*`` environment variable (see
:meth:`AdmissionConfig.from_env`); rates of ``0`` disable that quota.
All decisions are cheap (one lock, a few float ops) and thread-safe:
the asyncio front end calls in from its event-loop thread while metrics
readers snapshot from others.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics

__all__ = [
    "TokenBucket",
    "AdmissionConfig",
    "AdmissionController",
    "Decision",
    "ANON_TENANT",
]

#: Tenant label used when a request carries no ``X-Api-Key`` header.
ANON_TENANT = "anonymous"

_ADMITTED = obs_metrics.REGISTRY.counter(
    "repro_requests_admitted_total",
    "Requests admitted through the admission controller, by route.",
    ("route",),
)
_SHED = obs_metrics.REGISTRY.counter(
    "repro_requests_shed_total",
    "Requests refused with 429 by the admission controller.",
    ("route", "reason"),
)
_SHEDDING = obs_metrics.REGISTRY.gauge(
    "repro_admission_shedding",
    "1 while the saturation shedder is active (watermark hysteresis).",
)
_PENDING = obs_metrics.REGISTRY.gauge(
    "repro_admission_pending",
    "Admitted requests currently in flight through the engine.",
)
_TENANT_TOKENS = obs_metrics.REGISTRY.gauge(
    "repro_tenant_tokens",
    "Token-bucket level per tenant (refreshed at scrape).",
    ("tenant",),
)


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s up to ``burst``.

    The bucket starts full.  :meth:`try_take` is the only mutating entry
    point; refill is computed lazily from the elapsed time, so an idle
    bucket costs nothing.  ``rate <= 0`` means *unlimited* — every take
    succeeds and :meth:`retry_after` is always 0.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp", "_lock")

    def __init__(self, rate: float, burst: float | None = None):
        self.rate = float(rate)
        self.burst = float(burst if burst is not None else max(1.0, rate))
        if self.rate > 0 and self.burst < 1.0:
            raise ValueError(f"burst must be >= 1 token, got {self.burst}")
        self._tokens = self.burst
        self._stamp: float | None = None
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self._stamp is None:
            self._stamp = now
            return
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now

    def try_take(self, n: float = 1.0, now: float | None = None) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        if self.rate <= 0:
            return True
        if now is None:
            now = time.monotonic()
        with self._lock:
            self._refill(now)
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def tokens(self, now: float | None = None) -> float:
        """Current level (after lazy refill); ``inf`` for unlimited buckets."""
        if self.rate <= 0:
            return math.inf
        if now is None:
            now = time.monotonic()
        with self._lock:
            self._refill(now)
            return self._tokens

    def retry_after(self, n: float = 1.0, now: float | None = None) -> float:
        """Seconds until ``n`` tokens will be available (0 when they are)."""
        if self.rate <= 0:
            return 0.0
        if now is None:
            now = time.monotonic()
        with self._lock:
            self._refill(now)
            deficit = n - self._tokens
        return max(0.0, deficit / self.rate)


@dataclass(frozen=True)
class Decision:
    """The outcome of one admission check."""

    admitted: bool
    reason: str = "admitted"
    retry_after_s: float = 0.0

    @property
    def retry_after_header(self) -> str:
        """``Retry-After`` is delta-seconds; whole seconds, at least 1."""
        return str(max(1, math.ceil(self.retry_after_s)))


_ADMITTED_DECISION = Decision(True)


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


@dataclass
class AdmissionConfig:
    """Knobs of the admission controller (all overridable via env vars).

    ============================  =======================================
    env var                       field
    ============================  =======================================
    ``REPRO_ADMIT_MAX_PENDING``   ``max_pending``
    ``REPRO_ADMIT_RPS``           ``route_rps`` (0 = unlimited)
    ``REPRO_ADMIT_BURST``         ``route_burst``
    ``REPRO_ADMIT_TENANT_RPS``    ``tenant_rps`` (0 = unlimited)
    ``REPRO_ADMIT_TENANT_BURST``  ``tenant_burst``
    ``REPRO_ADMIT_DEPTH_HIGH``    ``depth_high`` (queue depth watermark)
    ``REPRO_ADMIT_DEPTH_LOW``     ``depth_low``
    ``REPRO_ADMIT_AGE_HIGH``      ``age_high_s`` (queue age watermark)
    ``REPRO_ADMIT_AGE_LOW``       ``age_low_s``
    ============================  =======================================
    """

    #: Admitted-but-unanswered requests allowed in flight at once.
    max_pending: int = 512
    #: Per-route token rate (requests/s); 0 disables the route quota.
    route_rps: float = 0.0
    route_burst: float | None = None
    #: Per-tenant token rate (requests/s); 0 disables the tenant quota.
    tenant_rps: float = 0.0
    tenant_burst: float | None = None
    #: Engine queue depth that starts (high) / stops (low) shedding.
    depth_high: int = 256
    depth_low: int = 64
    #: Engine queue age (seconds) that starts / stops shedding.
    age_high_s: float = 1.0
    age_low_s: float = 0.25
    #: Distinct tenant buckets retained (oldest evicted first).
    max_tenants: int = 1024

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.depth_low > self.depth_high:
            raise ValueError(
                f"depth_low ({self.depth_low}) must be <= depth_high "
                f"({self.depth_high})"
            )
        if self.age_low_s > self.age_high_s:
            raise ValueError(
                f"age_low_s ({self.age_low_s}) must be <= age_high_s "
                f"({self.age_high_s})"
            )

    @classmethod
    def from_env(cls) -> "AdmissionConfig":
        """The config described by the ``REPRO_ADMIT_*`` environment."""
        burst = _env_float("REPRO_ADMIT_BURST", 0.0)
        tenant_burst = _env_float("REPRO_ADMIT_TENANT_BURST", 0.0)
        return cls(
            max_pending=int(_env_float("REPRO_ADMIT_MAX_PENDING", cls.max_pending)),
            route_rps=_env_float("REPRO_ADMIT_RPS", cls.route_rps),
            route_burst=burst or None,
            tenant_rps=_env_float("REPRO_ADMIT_TENANT_RPS", cls.tenant_rps),
            tenant_burst=tenant_burst or None,
            depth_high=int(_env_float("REPRO_ADMIT_DEPTH_HIGH", cls.depth_high)),
            depth_low=int(_env_float("REPRO_ADMIT_DEPTH_LOW", cls.depth_low)),
            age_high_s=_env_float("REPRO_ADMIT_AGE_HIGH", cls.age_high_s),
            age_low_s=_env_float("REPRO_ADMIT_AGE_LOW", cls.age_low_s),
        )


class AdmissionController:
    """Admit-or-shed gate in front of the HTTP server's data-plane routes.

    The controller never touches a request body — it decides from the
    route label, the tenant header, and the engine's live saturation
    signals, which is what lets the server answer 429 *before* reading
    (or even waiting for) the payload.  ``repro serve --no-admission``
    runs the server without one.

    ``depth_fn``/``age_fn`` are zero-argument callables returning the
    engine queue depth and the age of its oldest queued request;
    :meth:`bind_engine` wires them from an :class:`InferenceEngine`.
    """

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        *,
        depth_fn=None,
        age_fn=None,
        clock=time.monotonic,
    ):
        self.config = config or AdmissionConfig()
        self._clock = clock
        self._depth_fn = depth_fn
        self._age_fn = age_fn
        self._lock = threading.Lock()
        self._pending = 0
        self._shedding = False
        self._route_buckets: dict[str, TokenBucket] = {}
        self._tenants: OrderedDict[str, TokenBucket] = OrderedDict()
        self.n_admitted = 0
        self.n_shed = 0
        _PENDING.set_fn(lambda: self._pending)
        _SHEDDING.set_fn(lambda: 1.0 if self._shedding else 0.0)
        _TENANT_TOKENS.set_fn(self._tenant_token_levels)

    # ------------------------------------------------------------- wiring
    def bind_engine(self, engine) -> "AdmissionController":
        """Read saturation signals straight off an ``InferenceEngine``."""
        self._depth_fn = lambda: len(engine._queued_arrivals)
        self._age_fn = engine._queue_age_s
        return self

    def _tenant_token_levels(self) -> dict[tuple, float]:
        with self._lock:
            buckets = list(self._tenants.items())
        now = self._clock()
        return {
            (tenant,): -1.0 if math.isinf(b.tokens(now)) else round(b.tokens(now), 3)
            for tenant, b in buckets
        }

    # ----------------------------------------------------------- decision
    def _saturated(self) -> tuple[bool, float]:
        """(currently shedding?, queue age) after the hysteresis update."""
        depth = self._depth_fn() if self._depth_fn is not None else 0
        age = self._age_fn() if self._age_fn is not None else 0.0
        cfg = self.config
        with self._lock:
            if self._shedding:
                if depth <= cfg.depth_low and age <= cfg.age_low_s:
                    self._shedding = False
            else:
                if depth >= cfg.depth_high or age >= cfg.age_high_s:
                    self._shedding = True
            return self._shedding, age

    def _route_bucket(self, route: str) -> TokenBucket:
        with self._lock:
            bucket = self._route_buckets.get(route)
            if bucket is None:
                cfg = self.config
                bucket = self._route_buckets[route] = TokenBucket(
                    cfg.route_rps, cfg.route_burst
                )
            return bucket

    def _tenant_bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._tenants.get(tenant)
            if bucket is None:
                cfg = self.config
                bucket = self._tenants[tenant] = TokenBucket(
                    cfg.tenant_rps, cfg.tenant_burst
                )
                while len(self._tenants) > cfg.max_tenants:
                    self._tenants.popitem(last=False)
            else:
                self._tenants.move_to_end(tenant)
            return bucket

    def admit(self, route: str, tenant: str | None = None) -> Decision:
        """Decide one request; an admitted one MUST be :meth:`release`-d."""
        cfg = self.config
        now = self._clock()

        shedding, age = self._saturated()
        if shedding:
            # Back off proportionally to how far behind the engine is: the
            # queue age is how long its head has already waited, so 2x that
            # is a decent guess for when the backlog will have cleared.
            decision = Decision(False, "engine_saturated", max(1.0, 2.0 * age))
        elif self._pending >= cfg.max_pending:
            decision = Decision(False, "queue_full", 1.0)
        else:
            route_bucket = self._route_bucket(route)
            if not route_bucket.try_take(now=now):
                decision = Decision(
                    False, "route_quota", route_bucket.retry_after(now=now)
                )
            else:
                tenant_bucket = self._tenant_bucket(tenant or ANON_TENANT)
                if not tenant_bucket.try_take(now=now):
                    decision = Decision(
                        False, "tenant_quota", tenant_bucket.retry_after(now=now)
                    )
                else:
                    with self._lock:
                        self._pending += 1
                        self.n_admitted += 1
                    _ADMITTED.inc(route=route)
                    return _ADMITTED_DECISION
        with self._lock:
            self.n_shed += 1
        _SHED.inc(route=route, reason=decision.reason)
        return decision

    def release(self) -> None:
        """An admitted request finished (answered or failed)."""
        with self._lock:
            if self._pending > 0:
                self._pending -= 1

    # ------------------------------------------------------------- stats
    @property
    def shedding(self) -> bool:
        return self._shedding

    @property
    def pending(self) -> int:
        return self._pending

    def snapshot(self) -> dict:
        """JSON-ready counters for ``/v1/metrics``."""
        with self._lock:
            return {
                "admitted": self.n_admitted,
                "shed": self.n_shed,
                "pending": self._pending,
                "shedding": self._shedding,
                "max_pending": self.config.max_pending,
                "tenants": len(self._tenants),
            }
