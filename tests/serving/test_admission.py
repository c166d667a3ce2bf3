"""Admission-control unit tests: token-bucket refill math, watermark
hysteresis, per-tenant isolation, the bounded pending gate, and the
``REPRO_ADMIT_*`` environment surface."""

import math

import pytest

from repro.serving.admission import (
    ANON_TENANT,
    AdmissionConfig,
    AdmissionController,
    Decision,
    TokenBucket,
)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        b = TokenBucket(rate=2.0, burst=4.0)
        assert all(b.try_take(now=clock()) for _ in range(4))
        assert not b.try_take(now=clock())

    def test_refill_math(self):
        clock = FakeClock()
        b = TokenBucket(rate=2.0, burst=4.0)
        for _ in range(4):
            b.try_take(now=clock())
        clock.advance(1.0)  # +2 tokens
        assert b.tokens(now=clock()) == pytest.approx(2.0)
        assert b.try_take(now=clock())
        assert b.try_take(now=clock())
        assert not b.try_take(now=clock())
        clock.advance(10.0)  # refill clamps at burst
        assert b.tokens(now=clock()) == pytest.approx(4.0)

    def test_retry_after_is_deficit_over_rate(self):
        clock = FakeClock()
        b = TokenBucket(rate=4.0, burst=1.0)
        assert b.try_take(now=clock())
        # Empty: one token takes 1/4 s to accrue.
        assert b.retry_after(now=clock()) == pytest.approx(0.25)
        clock.advance(0.125)
        assert b.retry_after(now=clock()) == pytest.approx(0.125)
        clock.advance(0.125)
        assert b.retry_after(now=clock()) == 0.0

    def test_zero_rate_means_unlimited(self):
        b = TokenBucket(rate=0.0)
        assert all(b.try_take() for _ in range(10_000))
        assert b.tokens() == math.inf
        assert b.retry_after() == 0.0

    def test_burst_defaults_to_rate(self):
        assert TokenBucket(rate=8.0).burst == 8.0
        assert TokenBucket(rate=0.5).burst == 1.0  # at least one token

    def test_sub_token_burst_rejected(self):
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


class TestDecision:
    def test_retry_after_header_rounds_up_to_whole_seconds(self):
        assert Decision(False, "x", 0.2).retry_after_header == "1"
        assert Decision(False, "x", 1.0).retry_after_header == "1"
        assert Decision(False, "x", 1.2).retry_after_header == "2"
        assert Decision(False, "x", 0.0).retry_after_header == "1"


def controller(clock, **over):
    cfg = AdmissionConfig(**over)
    return AdmissionController(cfg, clock=clock)


class TestWatermarkHysteresis:
    def test_shed_starts_high_stops_low(self):
        clock = FakeClock()
        depth = {"v": 0}
        ctrl = AdmissionController(
            AdmissionConfig(depth_high=10, depth_low=2, age_high_s=1e9),
            depth_fn=lambda: depth["v"],
            age_fn=lambda: 0.0,
            clock=clock,
        )
        route = "/v1/predict/{kind}"
        assert ctrl.admit(route).admitted
        ctrl.release()
        depth["v"] = 10  # crosses high -> shed
        d = ctrl.admit(route)
        assert not d.admitted and d.reason == "engine_saturated"
        depth["v"] = 5  # below high but above low: still shedding
        assert not ctrl.admit(route).admitted
        assert ctrl.shedding
        depth["v"] = 2  # at/below low -> recover
        assert ctrl.admit(route).admitted
        ctrl.release()
        assert not ctrl.shedding

    def test_age_watermark_and_retry_after_scales_with_queue_age(self):
        age = {"v": 0.0}
        ctrl = AdmissionController(
            AdmissionConfig(age_high_s=1.0, age_low_s=0.25),
            depth_fn=lambda: 0,
            age_fn=lambda: age["v"],
            clock=FakeClock(),
        )
        age["v"] = 3.0
        d = ctrl.admit("/v1/predict/{kind}")
        assert not d.admitted
        # Retry-After tracks the live signal: 2x the queue age.
        assert d.retry_after_s == pytest.approx(6.0)
        assert d.retry_after_header == "6"
        age["v"] = 0.1
        assert ctrl.admit("/v1/predict/{kind}").admitted

    def test_saturation_never_sheds_when_signals_absent(self):
        ctrl = AdmissionController(AdmissionConfig(), clock=FakeClock())
        assert all(
            ctrl.admit("/v1/predict/{kind}").admitted for _ in range(100)
        )


class TestQuotas:
    def test_per_tenant_isolation(self):
        clock = FakeClock()
        ctrl = controller(clock, tenant_rps=1.0, tenant_burst=2.0)
        route = "/v1/predict/{kind}"
        # Tenant A burns its burst...
        assert ctrl.admit(route, "key-a").admitted
        assert ctrl.admit(route, "key-a").admitted
        d = ctrl.admit(route, "key-a")
        assert not d.admitted and d.reason == "tenant_quota"
        # ...without touching tenant B or the anonymous tenant.
        assert ctrl.admit(route, "key-b").admitted
        assert ctrl.admit(route, None).admitted
        # A's bucket refills independently.
        clock.advance(1.0)
        assert ctrl.admit(route, "key-a").admitted

    def test_anonymous_requests_share_one_bucket(self):
        ctrl = controller(FakeClock(), tenant_rps=1.0, tenant_burst=1.0)
        assert ctrl.admit("/v1/predict/{kind}", None).admitted
        d = ctrl.admit("/v1/predict/{kind}", None)
        assert not d.admitted and d.reason == "tenant_quota"
        assert ANON_TENANT in ctrl._tenants

    def test_route_quota_with_retry_after(self):
        clock = FakeClock()
        ctrl = controller(clock, route_rps=2.0, route_burst=1.0)
        assert ctrl.admit("/v1/predict/{kind}").admitted
        d = ctrl.admit("/v1/predict/{kind}")
        assert not d.admitted and d.reason == "route_quota"
        assert d.retry_after_s == pytest.approx(0.5)
        # Each route label gets its own bucket.
        assert ctrl.admit("/v1/batch/{kind}").admitted

    def test_tenant_lru_eviction(self):
        ctrl = controller(FakeClock(), tenant_rps=1.0, max_tenants=3)
        for t in ("a", "b", "c", "d"):
            ctrl.admit("/v1/predict/{kind}", t)
        assert len(ctrl._tenants) == 3
        assert "a" not in ctrl._tenants  # oldest evicted


class TestPendingGate:
    def test_bounded_pending_and_release(self):
        ctrl = controller(FakeClock(), max_pending=2)
        route = "/v1/predict/{kind}"
        assert ctrl.admit(route).admitted
        assert ctrl.admit(route).admitted
        d = ctrl.admit(route)
        assert not d.admitted and d.reason == "queue_full"
        ctrl.release()
        assert ctrl.admit(route).admitted
        assert ctrl.pending == 2

    def test_snapshot_counts(self):
        ctrl = controller(FakeClock(), max_pending=1)
        ctrl.admit("/v1/predict/{kind}")
        ctrl.admit("/v1/predict/{kind}")  # queue_full
        snap = ctrl.snapshot()
        assert snap["admitted"] == 1 and snap["shed"] == 1
        # Admission is off only as ``admission=None`` (repro serve
        # --no-admission), so a controller has no "enabled" switch.
        assert snap["pending"] == 1 and "enabled" not in snap


class TestConfigFromEnv:
    def test_defaults(self):
        cfg = AdmissionConfig.from_env()
        assert cfg.route_rps == 0.0 and cfg.max_pending == 512

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMIT_MAX_PENDING", "32")
        monkeypatch.setenv("REPRO_ADMIT_RPS", "100")
        monkeypatch.setenv("REPRO_ADMIT_BURST", "200")
        monkeypatch.setenv("REPRO_ADMIT_TENANT_RPS", "10")
        monkeypatch.setenv("REPRO_ADMIT_DEPTH_HIGH", "64")
        monkeypatch.setenv("REPRO_ADMIT_DEPTH_LOW", "8")
        monkeypatch.setenv("REPRO_ADMIT_AGE_HIGH", "0.5")
        monkeypatch.setenv("REPRO_ADMIT_AGE_LOW", "0.1")
        cfg = AdmissionConfig.from_env()
        assert cfg.max_pending == 32
        assert cfg.route_rps == 100.0 and cfg.route_burst == 200.0
        assert cfg.tenant_rps == 10.0 and cfg.tenant_burst is None
        assert cfg.depth_high == 64 and cfg.depth_low == 8
        assert cfg.age_high_s == 0.5 and cfg.age_low_s == 0.1

    def test_bad_number_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADMIT_RPS", "fast")
        with pytest.raises(ValueError, match="REPRO_ADMIT_RPS"):
            AdmissionConfig.from_env()

    def test_inverted_watermarks_rejected(self):
        with pytest.raises(ValueError, match="depth_low"):
            AdmissionConfig(depth_high=10, depth_low=20)
        with pytest.raises(ValueError, match="age_low"):
            AdmissionConfig(age_high_s=0.1, age_low_s=0.2)
