"""Telemetry core: span nesting, counters, no-op mode, memory peaks."""

import logging
import tracemalloc

import pytest

from repro import obs


class TestSpanNesting:
    def test_depth_parent_and_attrs(self):
        with obs.recording() as rec:
            with obs.span("outer", label="a"):
                with obs.span("inner", k=7):
                    pass
                with obs.span("inner2"):
                    pass
        spans = {s["name"]: s for s in rec.spans}
        assert set(spans) == {"outer", "inner", "inner2"}
        outer = spans["outer"]
        assert outer["depth"] == 0 and outer["parent"] is None
        assert outer["attrs"] == {"label": "a"}
        for name in ("inner", "inner2"):
            assert spans[name]["depth"] == 1
            assert spans[name]["parent"] == outer["id"]
        assert spans["inner"]["attrs"] == {"k": 7}
        # children complete (and are appended) before their parent
        names = [s["name"] for s in rec.spans]
        assert names.index("inner") < names.index("outer")

    def test_set_attaches_late_attributes(self):
        with obs.recording() as rec:
            with obs.span("work") as sp:
                sp.set(rows=123)
        assert rec.spans[0]["attrs"] == {"rows": 123}

    def test_exception_records_span_with_error(self):
        with obs.recording() as rec:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("no")
        (span,) = rec.spans
        assert span["name"] == "boom"
        assert span["error"] == "ValueError"

    def test_timestamps_are_wall_anchored_and_ordered(self):
        with obs.recording() as rec:
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        a, b = rec.spans
        assert a["ts"] <= b["ts"]
        assert a["dur"] >= 0 and b["dur"] >= 0
        # anchored near time.time(), not perf_counter()'s epoch
        import time
        assert abs(a["ts"] - time.time()) < 60


class TestCounters:
    def test_add_accumulates(self):
        with obs.recording() as rec:
            obs.add("pairwise.blocks")
            obs.add("pairwise.blocks")
            obs.add("impute.cells", 17)
        assert rec.counters == {"pairwise.blocks": 2, "impute.cells": 17}


class TestWarnings:
    def test_warning_logs_and_records_event(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            with obs.recording() as rec:
                obs.warning("cache.corrupt", path="/x.json",
                            reason="ValueError: bad")
        assert "cache.corrupt" in caplog.text and "/x.json" in caplog.text
        (event,) = rec.events
        assert event["type"] == "warning"
        assert event["attrs"]["path"] == "/x.json"

    def test_warning_logs_even_when_disabled(self, caplog):
        assert not obs.enabled()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            obs.warning("cache.corrupt", path="/y.json")
        assert "/y.json" in caplog.text


class TestDisabledMode:
    def test_disabled_is_default_and_produces_nothing(self):
        assert not obs.enabled()
        assert obs.recorder() is None
        with obs.span("ghost", x=1):
            obs.add("ghost.counter")
        assert not obs.enabled()  # still nothing installed

    def test_noop_span_is_a_shared_singleton(self):
        first = obs.span("a", x=1)
        second = obs.span("b")
        assert first is second

    def test_disabled_spans_do_not_accumulate_allocation(self):
        # the no-op path must hand out the shared singleton, never
        # per-call objects that survive the call
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            with obs.span("warmup"):
                obs.add("warmup")
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(2000):
                with obs.span("hot", attr=1):
                    obs.add("hot.counter", 3)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert after - before < 4096

    def test_recording_restores_previous_recorder(self):
        with obs.recording() as outer_rec:
            with obs.span("outer-scope"):
                with obs.recording() as inner_rec:
                    with obs.span("inner-scope"):
                        pass
                assert obs.recorder() is outer_rec
        assert obs.recorder() is None
        assert [s["name"] for s in inner_rec.spans] == ["inner-scope"]
        assert [s["name"] for s in outer_rec.spans] == ["outer-scope"]

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("bail")
        assert not obs.enabled()


class TestSnapshot:
    def test_snapshot_is_plain_picklable_data(self):
        import pickle

        with obs.recording() as rec:
            with obs.span("s", a=1):
                obs.add("c", 2)
        fragment = pickle.loads(pickle.dumps(rec.snapshot()))
        assert fragment["counters"] == {"c": 2}
        assert fragment["spans"][0]["name"] == "s"
        assert fragment["events"] == []
