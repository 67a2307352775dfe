"""TTI-scoped trace recorder exporting Chrome ``trace_event`` JSON.

Spans are opened per clock phase and component (scheduler run, RIB
updater slot, TaskManager application slot, agent dispatch, transport
send) and rendered as complete events (``"ph": "X"``) on one virtual
thread per component, so a run of the platform can be dropped into
``chrome://tracing`` or https://ui.perfetto.dev and read like a
per-TTI flame chart.

Timestamps are wall-clock microseconds relative to the recorder's
creation (``time.perf_counter`` based); every event carries the TTI it
belongs to in ``args``, which is what makes the trace *TTI-scoped*:
Perfetto's query layer can group spans by ``args.tti`` to reconstruct
one cycle across all components.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

#: Hard cap on retained events; beyond it new events are counted but
#: dropped, so tracing a long run degrades instead of exhausting RAM.
MAX_EVENTS = 500_000


class Span:
    """An open duration event; close it (or use ``with``) to record."""

    __slots__ = ("_recorder", "name", "component", "_start_s", "args")

    def __init__(self, recorder: "TraceRecorder", component: str,
                 name: str, args: Dict[str, object]) -> None:
        self._recorder = recorder
        self.component = component
        self.name = name
        self.args = args
        self._start_s = time.perf_counter()

    def close(self) -> None:
        self._recorder._record(self.component, self.name, self._start_s,
                               time.perf_counter(), self.args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceRecorder:
    """Collects trace events for one observability session."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.max_events = max_events
        self.events: List[Dict[str, object]] = []
        self.dropped_events = 0
        self._tids: Dict[str, int] = {}
        self._t0 = time.perf_counter()

    def now_us(self) -> float:
        return (time.perf_counter() - self._t0) * 1e6

    def tid_for(self, component: str) -> int:
        """Stable per-component virtual thread id (assigned on first use)."""
        tid = self._tids.get(component)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[component] = tid
        return tid

    def components(self) -> List[str]:
        return sorted(self._tids)

    def _emit(self, event: Dict[str, object]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def span(self, component: str, name: str, *,
             tti: Optional[int] = None, **args: object) -> Span:
        """Open a duration span; record it on close/``with`` exit."""
        if tti is not None:
            args["tti"] = tti
        return Span(self, component, name, args)

    def complete(self, component: str, name: str, start_s: float,
                 end_s: float, tti: int,
                 args: Optional[Dict[str, object]] = None) -> None:
        """Record an interval the caller timed with ``perf_counter``.

        *args* labels the event besides its TTI; it is copied, so a
        site may pass the same dict on every call.
        """
        event_args = dict(args) if args else {}
        event_args["tti"] = tti
        self._record(component, name, start_s, end_s, event_args)

    def _record(self, component: str, name: str, start_s: float,
                end_s: float, args: Dict[str, object]) -> None:
        self._emit({
            "name": name, "cat": component, "ph": "X",
            "ts": (start_s - self._t0) * 1e6,
            "dur": max(0.0, (end_s - start_s) * 1e6),
            "pid": 0, "tid": self.tid_for(component), "args": args,
        })

    def instant(self, component: str, name: str, *,
                tti: Optional[int] = None, **args: object) -> None:
        """Record a zero-duration marker (state transitions, faults)."""
        if tti is not None:
            args["tti"] = tti
        self._emit({
            "name": name, "cat": component, "ph": "i", "s": "t",
            "ts": self.now_us(), "pid": 0,
            "tid": self.tid_for(component), "args": args,
        })

    def to_chrome(self, extra: Optional[Dict[str, object]] = None
                  ) -> Dict[str, object]:
        """The full Chrome trace-event document (JSON-serializable)."""
        metadata = [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "repro platform"}},
        ]
        for component, tid in sorted(self._tids.items(),
                                     key=lambda kv: kv[1]):
            metadata.append({"name": "thread_name", "ph": "M", "pid": 0,
                             "tid": tid, "args": {"name": component}})
        other: Dict[str, object] = {"dropped_events": self.dropped_events}
        if extra:
            other.update(extra)
        return {
            "traceEvents": metadata + self.events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }


class _NullSpan:
    """Shared no-op span."""

    __slots__ = ()

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTraceRecorder:
    """Recorder stand-in when tracing is disabled."""

    events: tuple = ()
    dropped_events = 0

    def span(self, component: str, name: str, *, tti=None,
             **args) -> _NullSpan:
        return _NULL_SPAN

    def complete(self, component: str, name: str, start_s: float,
                 end_s: float, tti: int, args=None) -> None:
        pass

    def instant(self, component: str, name: str, *, tti=None,
                **args) -> None:
        pass

    def components(self) -> List[str]:
        return []

    def to_chrome(self, extra=None) -> Dict[str, object]:
        return {"traceEvents": [], "displayTimeUnit": "ms",
                "otherData": dict(extra or {})}
