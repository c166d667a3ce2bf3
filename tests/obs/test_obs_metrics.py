"""Unit tests for counters, gauges, histograms, and Prometheus rendering."""

import re

import pytest

from repro.obs import config as obs_config
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: One Prometheus exposition line: comment, or `name{labels} value`.  The
#: label block is matched greedily because label *values* may contain `}`.
PROM_LINE_RE = re.compile(
    r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? [^ ]+)$"
)


@pytest.fixture(autouse=True)
def _enabled():
    obs_config.configure(enabled=True, sample_rate=1.0)
    yield
    obs_config.configure(enabled=True, sample_rate=1.0)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("c_total", "help", ("route",))
        c.inc(route="/a")
        c.inc(2, route="/a")
        c.inc(route="/b")
        assert c.value(route="/a") == 3
        assert c.total() == 4

    def test_label_mismatch_raises(self):
        c = Counter("c2_total", "help", ("route",))
        with pytest.raises(ValueError, match="expects labels"):
            c.inc(method="GET")

    def test_disabled_noop(self):
        c = Counter("c3_total", "help")
        obs_config.configure(enabled=False)
        c.inc()
        assert c.total() == 0

    def test_snapshot_shapes(self):
        plain = Counter("p_total", "help")
        plain.inc(5)
        assert plain.snapshot() == 5
        labelled = Counter("l_total", "help", ("a", "b"))
        labelled.inc(a="x", b="y")
        assert labelled.snapshot() == {"x|y": 1.0}


class TestGauge:
    def test_set_and_callback(self):
        g = Gauge("g1", "help")
        g.set(2.5)
        assert g.value() == 2.5
        g.set_fn(lambda: 7)
        assert g.value() == 7.0
        g.set_fn(None)
        assert g.value() == 2.5

    def test_labelled_callback_gauge(self):
        g = Gauge("g2", "help", ("kind",))
        g.set_fn(lambda: {("a",): 1.5, ("b",): 3.0})
        assert g.value(kind="a") == 1.5
        assert g.value(kind="missing") == 0.0
        assert g.snapshot() == {"a": 1.5, "b": 3.0}
        lines = g.render()
        assert 'g2{kind="a"} 1.5' in lines
        assert 'g2{kind="b"} 3' in lines

    def test_labelled_callback_gauge_guards_bad_fn(self):
        g = Gauge("g3", "help", ("kind",))
        g.set_fn(lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert g.snapshot() == {}
        assert g.render() == g._header()


class TestHistogram:
    def test_buckets_are_log_scale_and_fixed(self):
        assert LATENCY_BUCKETS[0] == 0.0005
        assert all(
            b2 == b1 * 2 for b1, b2 in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:])
        )

    def test_observe_and_quantile(self):
        h = Histogram("h1_seconds", "help", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.05, 0.5, 5.0):
            h.observe(v)
        cum = h.merge_counts()
        assert cum == [2, 3, 4, 4]
        assert h.quantile(0.5) == 0.1
        assert h.quantile(0.99) == 10.0

    def test_counts_merge_across_instances_by_addition(self):
        # The property that makes the fixed buckets worth it: two processes'
        # histograms combine exactly by adding bucket counts.
        a = Histogram("ha_seconds", "", buckets=(1.0, 2.0))
        b = Histogram("hb_seconds", "", buckets=(1.0, 2.0))
        merged = Histogram("hm_seconds", "", buckets=(1.0, 2.0))
        for inst, values in ((a, [0.5, 1.5]), (b, [1.5, 5.0])):
            for v in values:
                inst.observe(v)
                merged.observe(v)
        summed = [x + y for x, y in zip(a.merge_counts(), b.merge_counts())]
        assert summed == merged.merge_counts()

    def test_overflow_goes_to_inf_bucket(self):
        h = Histogram("h2_seconds", "", buckets=(1.0,))
        h.observe(100.0)
        assert h.merge_counts() == [0, 1]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "help", ("a",))
        c2 = reg.counter("x_total", "help", ("a",))
        assert c1 is c2

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("y_total", "help")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("y_total", "help")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("bad-name", "help")
        with pytest.raises(ValueError, match="invalid label name"):
            reg.counter("ok_total", "help", ("bad-label",))

    def test_render_parses_line_by_line(self):
        reg = MetricsRegistry()
        c = reg.counter("req_total", "requests", ("route", "status"))
        c.inc(route='/v1/predict/{kind}', status="200")
        g = reg.gauge("depth", "queue depth")
        g.set(3)
        h = reg.histogram("lat_seconds", "latency", ("kind",))
        h.observe(0.004, kind="retweeters")
        text = reg.render()
        assert text.endswith("\n")
        for line in text.splitlines():
            assert PROM_LINE_RE.match(line), f"bad exposition line: {line!r}"
        assert '# TYPE req_total counter' in text
        assert 'req_total{route="/v1/predict/{kind}",status="200"} 1' in text
        assert 'lat_seconds_bucket{kind="retweeters",le="+Inf"} 1' in text
        assert "lat_seconds_count" in text and "lat_seconds_sum" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("esc_total", "", ("v",))
        c.inc(v='quote " and \n newline')
        line = next(
            ln for ln in reg.render().splitlines() if ln.startswith("esc_total{")
        )
        assert '\\"' in line and "\\n" in line and "\n" not in line
