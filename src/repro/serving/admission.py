"""Admission control for the HTTP front end: two ways to shed load.

Without it an overloaded server queues every request, and every client
waits.  :class:`AdmissionController` moves the refusal to the front
door: a data-plane request is either admitted or refused at once with
``429`` + ``Retry-After``, before its body is read:

- ``engine_saturated`` — the oldest request waiting in the engine queue
  (:meth:`InferenceEngine.queue_age_s`) has waited ``max_queue_age_s``
  or longer.  Queue delay is the overload signal of CoDel (Nichols &
  Jacobson, "Controlling Queue Delay", ACM Queue 2012): it grows only
  when requests arrive faster than the engine serves them, whatever
  their size.  ``Retry-After`` is twice that age, so clients back off
  as far as the engine is behind.
- ``queue_full`` — ``max_pending`` admitted requests are still in
  flight.

``repro serve --no-admission`` runs the server without a controller.
The front end calls :meth:`~AdmissionController.admit` and
:meth:`~AdmissionController.release` from its event-loop thread only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics

__all__ = ["AdmissionController", "Decision", "MAX_QUEUE_AGE_S"]

#: Queue age that sheds.  ``benchmarks/bench_overload.py`` on 2 vCPUs
#: (capacity ~1400 reads/s, 10 rounds interleaved with the depth/age
#: watermarks this replaced) read admitted p99 237 ms lower at 2x
#: capacity and 53 ms lower at 1x (median paired differences), goodput
#: no lower.  0.025 s shed 4% of reads at 0.5x load; 0.2 s was no
#: better at 1x or 2x.  It is 9x the ~11 ms that an ingest job of 32
#: fsyncs holds the engine, so perfbench ``serve_ingest`` reads do not
#: shed.
MAX_QUEUE_AGE_S = 0.1

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
_PENDING = obs_metrics.REGISTRY.gauge(
    "repro_admission_pending",
    "Admitted requests currently in flight through the engine.",
)


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


class AdmissionController:
    """Admit-or-shed gate in front of the HTTP server's data-plane routes."""

    def __init__(self, max_pending: int = 512,
                 max_queue_age_s: float = MAX_QUEUE_AGE_S):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if not max_queue_age_s > 0:
            raise ValueError(f"max_queue_age_s must be > 0, got {max_queue_age_s}")
        self.max_pending = max_pending
        self.max_queue_age_s = max_queue_age_s
        self.pending = 0
        self.n_admitted = 0
        self.n_shed = 0
        _PENDING.set_fn(lambda: self.pending)

    def admit(self, route: str, queue_age_s: float = 0.0) -> Decision:
        """Decide one request given the engine's queue age; an admitted
        one MUST be :meth:`release`-d."""
        if queue_age_s >= self.max_queue_age_s:
            decision = Decision(False, "engine_saturated", 2.0 * queue_age_s)
        elif self.pending >= self.max_pending:
            decision = Decision(False, "queue_full", 1.0)
        else:
            self.pending += 1
            self.n_admitted += 1
            _ADMITTED.inc(route=route)
            return _ADMITTED_DECISION
        self.n_shed += 1
        _SHED.inc(route=route, reason=decision.reason)
        return decision

    def release(self) -> None:
        """An admitted request finished (answered or failed)."""
        if self.pending > 0:
            self.pending -= 1

    def snapshot(self) -> dict:
        """JSON-ready counters for ``/v1/metrics``."""
        return {
            "admitted": self.n_admitted,
            "shed": self.n_shed,
            "pending": self.pending,
            "max_pending": self.max_pending,
            "max_queue_age_s": self.max_queue_age_s,
        }
