"""The fault-injection layer itself: determinism, env parsing, zero-cost off.

``repro.chaos`` is only trustworthy if the faults it injects are exactly
reproducible from a seed — a chaos soak that can't be replayed is noise.
These tests pin the plan semantics (rates, explicit indices, limits),
the ``REPRO_CHAOS_*`` env-spec grammar, and the disabled fast path.
"""

import pytest

from repro import chaos
from repro.chaos import ChaosError, ChaosPlan, ChaosRule, plan_from_env


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.disable()
    yield
    chaos.disable()


class TestPlanDeterminism:
    def test_same_seed_same_fires(self):
        fires = []
        for _ in range(2):
            plan = ChaosPlan(seed=7, rules={"p": ChaosRule(rate=0.3)})
            fires.append([plan.should_fire("p") for _ in range(200)])
        assert fires[0] == fires[1]
        assert any(fires[0]) and not all(fires[0])

    def test_different_seeds_differ(self):
        a = ChaosPlan(seed=1, rules={"p": ChaosRule(rate=0.3)})
        b = ChaosPlan(seed=2, rules={"p": ChaosRule(rate=0.3)})
        assert [a.should_fire("p") for _ in range(200)] != [
            b.should_fire("p") for _ in range(200)
        ]

    def test_points_draw_independent_streams(self):
        """Calls at one point never shift another point's schedule."""
        lone = ChaosPlan(seed=3, rules={"a": ChaosRule(rate=0.5)})
        expected = [lone.should_fire("a") for _ in range(100)]
        mixed = ChaosPlan(
            seed=3, rules={"a": ChaosRule(rate=0.5), "b": ChaosRule(rate=0.5)}
        )
        got = []
        for _ in range(100):
            got.append(mixed.should_fire("a"))
            mixed.should_fire("b")  # interleaved traffic on another point
        assert got == expected

    def test_explicit_at_indices(self):
        plan = ChaosPlan(seed=0, rules={"p": ChaosRule(at=(2, 5))})
        fired = [i for i in range(10) if plan.should_fire("p")]
        assert fired == [2, 5]

    def test_limit_caps_total_fires(self):
        plan = ChaosPlan(seed=0, rules={"p": ChaosRule(rate=1.0, limit=3)})
        assert sum(plan.should_fire("p") for _ in range(50)) == 3

    def test_unknown_point_never_fires(self):
        plan = ChaosPlan(seed=0, rules={"p": ChaosRule(rate=1.0)})
        assert not any(plan.should_fire("other") for _ in range(20))

    def test_stats_count_calls_and_fires(self):
        plan = ChaosPlan(seed=0, rules={"p": ChaosRule(rate=1.0, limit=2)})
        for _ in range(5):
            plan.should_fire("p")
        stats = plan.stats()
        assert stats["p"]["calls"] == 5
        assert stats["p"]["fires"] == 2


class TestRuleValidation:
    def test_bad_rate(self):
        with pytest.raises(ChaosError):
            ChaosRule(rate=1.5)

    def test_bad_limit(self):
        with pytest.raises(ChaosError):
            ChaosRule(rate=0.5, limit=-1)

    def test_zero_rate_rule_never_fires(self):
        plan = ChaosPlan(seed=0, rules={"p": ChaosRule(rate=0.0)})
        assert not any(plan.should_fire("p") for _ in range(50))


class TestEnvSpec:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert plan_from_env({}) is None

    def test_rate_and_repeat_specs(self):
        plan = plan_from_env(
            {
                "REPRO_CHAOS": "1",
                "REPRO_CHAOS_SEED": "42",
                "REPRO_CHAOS_POINTS": "store.fsync=0.1*2,paged.read=at:3;7",
            }
        )
        assert plan is not None and plan.seed == 42
        fsync = plan.rules["store.fsync"]
        assert fsync.rate == 0.1 and fsync.limit == 2
        paged = plan.rules["paged.read"]
        assert paged.at == (3, 7)

    def test_bad_spec_raises(self):
        with pytest.raises(ChaosError):
            plan_from_env(
                {"REPRO_CHAOS": "1", "REPRO_CHAOS_POINTS": "nope"}
            )


class TestModuleToggle:
    def test_disabled_is_inert(self):
        assert not chaos.enabled()
        assert not chaos.should_fire("store.fsync")
        assert chaos.stats() == {}

    def test_enable_disable_roundtrip(self):
        chaos.enable(ChaosPlan(seed=1, rules={"p": ChaosRule(rate=1.0)}))
        assert chaos.enabled()
        assert chaos.should_fire("p")
        chaos.disable()
        assert not chaos.should_fire("p")

    def test_io_error_is_oserror(self):
        chaos.enable(ChaosPlan(seed=1, rules={"paged.read": ChaosRule(rate=1.0)}))
        err = chaos.io_error("paged.read", "/tmp/x")
        assert isinstance(err, OSError)
        assert "chaos" in str(err)
