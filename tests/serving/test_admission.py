"""Admission-control unit tests: the queue-age shed, the bounded pending
gate, ``Retry-After``, and a hypothesis state machine that checks every
decision against a small oracle."""

import math

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
import pytest

from repro.serving.admission import (
    MAX_QUEUE_AGE_S,
    AdmissionController,
    Decision,
)

ROUTE = "/v1/predict/{kind}"


class TestDecision:
    def test_retry_after_header_rounds_up_to_whole_seconds(self):
        assert Decision(False, "x", 0.2).retry_after_header == "1"
        assert Decision(False, "x", 1.0).retry_after_header == "1"
        assert Decision(False, "x", 1.2).retry_after_header == "2"
        assert Decision(False, "x", 0.0).retry_after_header == "1"


class TestWatermarkHysteresis:
    def test_age_watermark_and_retry_after_scales_with_queue_age(self):
        ctrl = AdmissionController(max_queue_age_s=1.0)
        d = ctrl.admit(ROUTE, 3.0)
        assert not d.admitted and d.reason == "engine_saturated"
        # Retry-After tracks the live signal: 2x the queue age.
        assert d.retry_after_s == pytest.approx(6.0)
        assert d.retry_after_header == "6"
        # No hysteresis: the first admit under the threshold passes.
        assert ctrl.admit(ROUTE, 0.99).admitted

    def test_saturation_never_sheds_when_signals_absent(self):
        ctrl = AdmissionController()
        assert all(ctrl.admit(ROUTE).admitted for _ in range(100))

    def test_default_threshold(self):
        ctrl = AdmissionController()
        assert ctrl.max_queue_age_s == MAX_QUEUE_AGE_S
        assert ctrl.admit(ROUTE, MAX_QUEUE_AGE_S * 0.99).admitted
        assert not ctrl.admit(ROUTE, MAX_QUEUE_AGE_S).admitted

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError, match="max_queue_age_s"):
            AdmissionController(max_queue_age_s=0.0)


class TestPendingGate:
    def test_bounded_pending_and_release(self):
        ctrl = AdmissionController(max_pending=2)
        assert ctrl.admit(ROUTE).admitted
        assert ctrl.admit(ROUTE).admitted
        d = ctrl.admit(ROUTE)
        assert not d.admitted and d.reason == "queue_full"
        ctrl.release()
        assert ctrl.admit(ROUTE).admitted
        assert ctrl.pending == 2

    def test_snapshot_counts(self):
        ctrl = AdmissionController(max_pending=1)
        ctrl.admit(ROUTE)
        ctrl.admit(ROUTE)  # queue_full
        snap = ctrl.snapshot()
        assert snap["admitted"] == 1 and snap["shed"] == 1
        # Admission is off only as ``admission=None`` (repro serve
        # --no-admission), so a controller has no "enabled" switch.
        assert snap["pending"] == 1 and "enabled" not in snap


# --------------------------------------------------------------- machine
class Oracle:
    """What the controller must decide: the age shed first, then the
    pending bound; ``(reason, Retry-After header)``."""

    def __init__(self, max_pending: int, max_age: float):
        self.max_pending, self.max_age = max_pending, max_age
        self.pending = self.admitted = self.shed = 0

    def admit(self, age: float) -> tuple[str, str | None]:
        if age >= self.max_age:
            self.shed += 1
            return "engine_saturated", str(max(1, math.ceil(2 * age)))
        if self.pending >= self.max_pending:
            self.shed += 1
            return "queue_full", "1"
        self.pending += 1
        self.admitted += 1
        return "admitted", None

    def release(self) -> None:
        self.pending = max(0, self.pending - 1)


AGES = st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False),
                 st.sampled_from([0.05, 0.1, 0.5, 1.0, 1.5]))


class AdmissionMachine(RuleBasedStateMachine):
    """Admit, release and move the engine's queue age, in any order."""

    @initialize(max_pending=st.integers(1, 4), max_age=st.sampled_from([0.05, 0.1, 1.0]))
    def build(self, max_pending, max_age):
        self.ctrl = AdmissionController(max_pending, max_age)
        self.oracle = Oracle(max_pending, max_age)
        self.age = 0.0
        self.decisions = 0

    @rule(age=AGES)
    def move_age(self, age):
        self.age = age

    @rule()
    def admit(self):
        decision = self.ctrl.admit(ROUTE, self.age)
        self.decisions += 1
        reason, retry_after = self.oracle.admit(self.age)
        assert decision.reason == reason
        assert decision.admitted == (reason == "admitted")
        if not decision.admitted:
            assert decision.retry_after_header == retry_after
            assert int(decision.retry_after_header) >= 1

    @precondition(lambda self: self.oracle.pending > 0)
    @rule()
    def release(self):
        self.ctrl.release()
        self.oracle.release()

    @rule()
    def release_idle(self):
        """A stray release never takes pending below zero."""
        if self.oracle.pending == 0:
            self.ctrl.release()

    @invariant()
    def matches_oracle(self):
        if not hasattr(self, "ctrl"):
            return
        snap = self.ctrl.snapshot()
        assert 0 <= snap["pending"] <= snap["max_pending"]
        assert snap["pending"] == self.oracle.pending
        assert (snap["admitted"], snap["shed"]) == (self.oracle.admitted, self.oracle.shed)
        assert snap["admitted"] + snap["shed"] == self.decisions


AdmissionMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None
)
TestAdmissionMachine = AdmissionMachine.TestCase
