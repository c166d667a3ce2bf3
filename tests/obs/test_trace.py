"""Unit tests for span recording, propagation, and batch attribution."""

import pytest

from repro.obs import config as obs_config
from repro.obs.trace import (
    STORE,
    Span,
    TraceStore,
    batch_context,
    batch_span,
    current_context,
    current_trace_id,
    record_span,
    span,
    start_trace,
)


@pytest.fixture(autouse=True)
def _clean():
    obs_config.configure(enabled=True, sample_rate=1.0)
    STORE.clear()
    yield
    obs_config.configure(enabled=True, sample_rate=1.0)
    STORE.clear()


class TestAmbientSpans:
    def test_nested_spans_parent_correctly(self):
        with start_trace("root", trace_id="t1") as root:
            with span("child") as child:
                with span("grandchild"):
                    pass
        spans = {sp.name: sp for sp in STORE.spans("t1")}
        assert set(spans) == {"root", "child", "grandchild"}
        assert spans["root"].parent_id is None
        assert spans["child"].parent_id == root.span_id
        assert spans["grandchild"].parent_id == spans["child"].span_id

    def test_context_restored_after_span(self):
        assert current_context() is None
        with start_trace("root", trace_id="t2"):
            assert current_trace_id() == "t2"
            with span("inner"):
                assert current_trace_id() == "t2"
        assert current_context() is None

    def test_span_outside_trace_is_noop(self):
        with span("orphan") as sp:
            assert sp.sampled is False
        assert STORE.summaries() == []

    def test_exception_annotates_and_propagates(self):
        with pytest.raises(ValueError):
            with start_trace("root", trace_id="t3"):
                with span("failing"):
                    raise ValueError("boom")
        failing = next(sp for sp in STORE.spans("t3") if sp.name == "failing")
        assert "ValueError" in failing.fields["error"]

    def test_annotate_adds_fields(self):
        with start_trace("root", trace_id="t4") as root:
            root.annotate(rows=7)
        assert STORE.spans("t4")[0].fields["rows"] == 7


class TestSampling:
    def test_unsampled_trace_records_nothing(self):
        obs_config.configure(sample_rate=0.0)
        with start_trace("root") as root:
            assert root.trace_id is None
            with span("child"):
                pass
        assert STORE.summaries() == []

    def test_forced_trace_beats_zero_rate(self):
        obs_config.configure(sample_rate=0.0)
        with start_trace("root", trace_id="forced", sampled=True):
            pass
        assert len(STORE.spans("forced")) == 1

    def test_disabled_beats_forced(self):
        obs_config.configure(enabled=False)
        with start_trace("root", trace_id="x", sampled=True) as root:
            assert root.trace_id is None
        assert STORE.summaries() == []


class TestBatchAttribution:
    def test_batch_span_copies_into_every_context(self):
        contexts = [("ta", "pa"), ("tb", "pb"), None]
        with batch_context(contexts):
            with batch_span("model.forward", rows=3):
                pass
        (sa,) = STORE.spans("ta")
        (sb,) = STORE.spans("tb")
        assert sa.parent_id == "pa" and sb.parent_id == "pb"
        assert sa.fields == sb.fields == {"rows": 3}
        assert sa.span_id != sb.span_id

    def test_batch_span_outside_context_is_noop(self):
        with batch_span("model.forward"):
            pass
        assert STORE.summaries() == []

    def test_contexts_restored_on_exit(self):
        with batch_context([("t1", "p1")]):
            with batch_context([("t2", "p2")]):
                with batch_span("inner"):
                    pass
            with batch_span("outer"):
                pass
        assert len(STORE.spans("t2")) == 1
        assert {sp.name for sp in STORE.spans("t1")} == {"outer"}


class TestStore:
    def test_trace_tree_shape(self):
        record_span("tt", "root", 1.0, 3.0)
        tree = STORE.trace("tt")
        assert tree["n_spans"] == 1
        assert tree["duration_ms"] == 2000.0
        assert tree["spans"][0]["start_ms"] == 0.0

    def test_unknown_trace_is_none(self):
        assert STORE.trace("missing") is None

    def test_eviction_keeps_newest(self):
        store = TraceStore(max_traces=2)
        for i in range(4):
            store.add(Span(f"t{i}", "s", None, "root", 0.0, 1.0))
        assert store.spans("t0") == [] and store.spans("t1") == []
        assert len(store.spans("t3")) == 1

    def test_summaries_most_recent_first(self):
        record_span("first", "root", 0.0, 1.0)
        record_span("second", "root", 0.0, 1.0)
        assert [s["trace_id"] for s in STORE.summaries()] == ["second", "first"]

    def test_slowest_spans(self):
        record_span("a", "slow", 0.0, 5.0)
        record_span("b", "fast", 0.0, 0.5)
        slowest = STORE.slowest_spans(1)
        assert slowest[0]["name"] == "slow"


class TestDisabledFastPath:
    def test_everything_noops_when_disabled(self):
        obs_config.configure(enabled=False)
        with start_trace("root", trace_id="t") as root:
            assert root.trace_id is None
        record_span("t", "x", 0.0, 1.0)
        with batch_context([("t", "p")]):
            with batch_span("y"):
                pass
        assert current_context() is None
        assert STORE.summaries() == []
