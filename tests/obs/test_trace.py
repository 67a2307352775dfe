"""Trace recorder: span mechanics and Chrome trace-event schema."""

from repro.obs.export import validate_chrome_trace
from repro.obs.trace import NullTraceRecorder, TraceRecorder


class TestSpans:
    def test_span_records_complete_event(self):
        t = TraceRecorder()
        with t.span("scheduler", "round_robin", tti=7, cell=10):
            pass
        assert len(t.events) == 1
        event = t.events[0]
        assert event["ph"] == "X"
        assert event["name"] == "round_robin"
        assert event["cat"] == "scheduler"
        assert event["dur"] >= 0.0
        assert event["args"] == {"tti": 7, "cell": 10}

    def test_complete_records_the_given_interval(self):
        t = TraceRecorder()
        start = t._t0 + 0.002
        labels = {"enb": 3}
        t.complete("enb", "plan", start, start + 0.0005, 9, labels)
        t.complete("master", "tick", start, start, 9)
        plan, tick = t.events
        assert plan["ph"] == "X" and plan["cat"] == "enb"
        assert abs(plan["ts"] - 2000.0) < 1e-6
        assert abs(plan["dur"] - 500.0) < 1e-6
        assert plan["args"] == {"enb": 3, "tti": 9}
        assert labels == {"enb": 3}  # the site's dict is not kept
        assert tick["args"] == {"tti": 9} and tick["dur"] == 0.0

    def test_tid_stable_per_component(self):
        t = TraceRecorder()
        with t.span("a", "x"):
            pass
        with t.span("b", "y"):
            pass
        with t.span("a", "z"):
            pass
        tids = [e["tid"] for e in t.events]
        assert tids[0] == tids[2] != tids[1]
        assert t.components() == ["a", "b"]

    def test_instant_event(self):
        t = TraceRecorder()
        t.instant("agent", "disconnected", tti=5)
        event = t.events[0]
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["args"]["tti"] == 5

    def test_cap_drops_beyond_max_events(self):
        t = TraceRecorder(max_events=2)
        for i in range(5):
            t.instant("c", f"e{i}")
        assert len(t.events) == 2
        assert t.dropped_events == 3
        assert t.to_chrome()["otherData"]["dropped_events"] == 3


class TestChromeDocument:
    def test_document_validates_and_names_threads(self):
        t = TraceRecorder()
        with t.span("task_manager", "apps", tti=1):
            pass
        doc = t.to_chrome(extra={"note": "hi"})
        assert validate_chrome_trace(doc) == []
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in metadata}
        assert "task_manager" in names
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["note"] == "hi"

    def test_validator_flags_bad_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0,
                                "pid": 0, "tid": 1, "dur": -1}]}
        assert any("dur" in e for e in validate_chrome_trace(bad))
        missing_ts = {"traceEvents": [{"name": "x", "ph": "i",
                                       "pid": 0, "tid": 1}]}
        assert any("ts" in e for e in validate_chrome_trace(missing_ts))

    def test_empty_trace_is_reported(self):
        assert any("empty" in e
                   for e in validate_chrome_trace({"traceEvents": []}))


class TestNullRecorder:
    def test_noop(self):
        t = NullTraceRecorder()
        span = t.span("a", "b", tti=1)
        with span:
            pass
        t.instant("a", "c")
        t.complete("a", "d", 0.0, 1.0, 1, {"x": 1})
        assert t.events == ()
        assert t.components() == []
        assert t.to_chrome()["traceEvents"] == []

    def test_shared_span_instance(self):
        t = NullTraceRecorder()
        assert t.span("a", "b") is t.span("c", "d")
