"""Deterministic, seed-driven fault injection (stdlib only).

The serving/training stack threads *named injection points* through its
disk/network seams::

    paged.read          PagedMatrix block read raises EIO
    paged.write         PagedMatrix block writeback raises EIO
    registry.save       a bundle artifact is truncated after checksumming
    store.append        EventLog append fails before any bytes are written
    store.fsync         EventLog fsync raises EIO (the partial write is rolled back)
    client.reset        a pooled keep-alive socket raises ConnectionResetError
    aio.disconnect      (soak harness) client drops mid-body
    aio.slowloris       (soak harness) client trickles the request head

Each point draws from its own ``random.Random`` stream seeded with
``f"{seed}:{point}"`` and keeps a call counter, so a given
``(seed, point, call index)`` always fires the same way regardless of what
other points do — deterministic schedules without global coordination.

Activation is explicit: either programmatically via :func:`enable` with a
:class:`ChaosPlan`, or through environment knobs parsed on first use::

    REPRO_CHAOS=1                          master switch
    REPRO_CHAOS_SEED=42                    schedule seed (default 0)
    REPRO_CHAOS_POINTS=store.fsync=0.02,paged.read=0.1

``REPRO_CHAOS_POINTS`` is a comma-separated list of ``point=spec`` entries
where ``spec`` is a firing rate in [0, 1], optionally suffixed with ``*N``
to cap total fires (``paged.read=0.5*3``), or an explicit call-index list
``at:3;7`` that fires on exactly those (0-based) calls.

When chaos is disabled (the default) every hook is a no-op guarded by a
single ``is None`` check — no RNG draws, no locks, no counters.
"""

from __future__ import annotations

import errno
import os
import random
import threading
from dataclasses import dataclass, field

__all__ = [
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "active_plan",
    "disable",
    "enable",
    "enabled",
    "io_error",
    "should_fire",
    "stats",
]


class ChaosError(Exception):
    """Raised for malformed chaos specs (bad env knobs, bad rules)."""


@dataclass(frozen=True)
class ChaosRule:
    """When a single injection point fires.

    rate     probability per call in [0, 1] (ignored when ``at`` is set)
    at       explicit 0-based call indices that fire (deterministic schedule)
    limit    cap on total fires (None = unlimited)
    """

    rate: float = 0.0
    at: tuple[int, ...] = ()
    limit: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ChaosError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.limit is not None and self.limit < 0:
            raise ChaosError(f"chaos limit must be >= 0, got {self.limit}")


@dataclass
class ChaosPlan:
    """A seeded schedule over named injection points."""

    seed: int = 0
    rules: dict[str, ChaosRule] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: dict[str, random.Random] = {}
        self._calls: dict[str, int] = {}
        self._fires: dict[str, int] = {}

    def should_fire(self, point: str) -> bool:
        rule = self.rules.get(point)
        if rule is None:
            return False
        with self._lock:
            idx = self._calls.get(point, 0)
            self._calls[point] = idx + 1
            fired = self._fires.get(point, 0)
            if rule.limit is not None and fired >= rule.limit:
                return False
            if rule.at:
                hit = idx in rule.at
            else:
                stream = self._streams.get(point)
                if stream is None:
                    stream = random.Random(f"{self.seed}:{point}")
                    self._streams[point] = stream
                hit = stream.random() < rule.rate
            if hit:
                self._fires[point] = fired + 1
            return hit

    def stats(self) -> dict[str, dict[str, int]]:
        with self._lock:
            return {
                point: {
                    "calls": self._calls.get(point, 0),
                    "fires": self._fires.get(point, 0),
                }
                for point in sorted(set(self._calls) | set(self.rules))
            }


_PLAN: ChaosPlan | None = None
_ENV_CHECKED = False
_ENV_LOCK = threading.Lock()


def _parse_spec(point: str, spec: str) -> ChaosRule:
    spec = spec.strip()
    if spec.startswith("at:"):
        try:
            at = tuple(int(tok) for tok in spec[3:].split(";") if tok)
        except ValueError as exc:
            raise ChaosError(f"bad chaos call-index spec for {point!r}: {spec!r}") from exc
        return ChaosRule(at=at)
    limit: int | None = None
    if "*" in spec:
        spec, _, cap = spec.partition("*")
        try:
            limit = int(cap)
        except ValueError as exc:
            raise ChaosError(f"bad chaos limit for {point!r}: {cap!r}") from exc
    try:
        rate = float(spec)
    except ValueError as exc:
        raise ChaosError(f"bad chaos rate for {point!r}: {spec!r}") from exc
    return ChaosRule(rate=rate, limit=limit)


def plan_from_env(environ: dict[str, str] | None = None) -> ChaosPlan | None:
    """Build a plan from ``REPRO_CHAOS*`` knobs; None when the switch is off."""
    env = os.environ if environ is None else environ
    if env.get("REPRO_CHAOS", "").strip().lower() not in {"1", "true", "yes", "on"}:
        return None
    seed = int(env.get("REPRO_CHAOS_SEED", "0"))
    rules: dict[str, ChaosRule] = {}
    points = env.get("REPRO_CHAOS_POINTS", "")
    for entry in points.split(","):
        entry = entry.strip()
        if not entry:
            continue
        point, sep, spec = entry.partition("=")
        if not sep:
            raise ChaosError(f"bad REPRO_CHAOS_POINTS entry (want point=spec): {entry!r}")
        rules[point.strip()] = _parse_spec(point.strip(), spec)
    return ChaosPlan(seed=seed, rules=rules)


def active_plan() -> ChaosPlan | None:
    """The current plan, resolving env knobs once on first call."""
    global _PLAN, _ENV_CHECKED
    if _PLAN is not None:
        return _PLAN
    if _ENV_CHECKED:
        return None
    with _ENV_LOCK:
        if not _ENV_CHECKED:
            _PLAN = plan_from_env()
            _ENV_CHECKED = True
    return _PLAN


def enable(plan: ChaosPlan) -> None:
    """Install *plan* as the process-wide chaos schedule."""
    global _PLAN, _ENV_CHECKED
    _PLAN = plan
    _ENV_CHECKED = True


def disable() -> None:
    """Turn chaos off (and stop re-reading the env)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = True


def reset() -> None:
    """Forget any plan AND re-arm env parsing (test helper)."""
    global _PLAN, _ENV_CHECKED
    _PLAN = None
    _ENV_CHECKED = False


def enabled() -> bool:
    return active_plan() is not None


def should_fire(point: str) -> bool:
    """True when *point* should inject a fault on this call."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.should_fire(point)


def io_error(point: str, path: str | os.PathLike | None = None) -> OSError:
    """A synthetic EIO for *point*, tagged so logs show it was injected."""
    err = OSError(errno.EIO, f"chaos: injected I/O error at {point}")
    if path is not None:
        err.filename = os.fspath(path)
    return err


def stats() -> dict[str, dict[str, int]]:
    """Per-point call/fire counts for the active plan ({} when disabled)."""
    plan = active_plan()
    return plan.stats() if plan is not None else {}
