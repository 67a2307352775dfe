"""``repro.obs`` -- the platform observability subsystem.

One process-wide backend bundles the three measurement surfaces:

* :mod:`repro.obs.registry` -- counters / gauges / histograms,
* :mod:`repro.obs.trace` -- TTI-scoped spans exported as Chrome
  ``trace_event`` JSON,
* :mod:`repro.obs.correlate` -- per-``xid`` control-latency lifecycle
  records.

Instrumentation sites throughout the platform fetch the current
backend with :func:`get` and call it unconditionally: while disabled
(the default) :func:`get` returns a null backend whose instruments are
shared no-ops, so the null backend is the off switch and each site
runs one code path whatever the mode.  The tax on the TTI loop is a
few no-op calls per site (``benchmarks/bench_obs_overhead.py`` bounds
it below 5%).  ``Observability.enabled`` tells callers which backend
they hold; only obs-only loops over messages check it.

Typical use::

    from repro import obs

    ob = obs.enable()          # or obs.enabled_scope() in tests
    ... run the platform ...
    ob.registry.snapshot()
    ob.correlator.cdf(direction="dl")
    obs.disable()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.correlate import (  # noqa: F401  (re-exported API)
    DOWNLINK,
    NullCorrelator,
    UPLINK,
    XidCorrelator,
)
from repro.obs.registry import (  # noqa: F401
    MetricsRegistry,
    NullRegistry,
    percentile,
)
from repro.obs.trace import NullTraceRecorder, TraceRecorder  # noqa: F401


class Observability:
    """The bundle of measurement backends instrumentation talks to."""

    __slots__ = ("enabled", "registry", "tracer", "correlator")

    def __init__(self, *, enabled: bool, registry, tracer,
                 correlator) -> None:
        self.enabled = enabled
        self.registry = registry
        self.tracer = tracer
        self.correlator = correlator


_NULL = Observability(enabled=False, registry=NullRegistry(),
                      tracer=NullTraceRecorder(),
                      correlator=NullCorrelator())
_current: Observability = _NULL


def get() -> Observability:
    """The current backend (the null backend while disabled)."""
    return _current


def enable(*, trace: bool = True,
           trace_max_events: Optional[int] = None) -> Observability:
    """Switch on observability with fresh backends; returns them.

    ``trace=False`` keeps metrics and the xid correlator but skips
    span recording -- the cheap mode for long benchmark runs.
    """
    global _current
    if trace:
        tracer = (TraceRecorder(trace_max_events)
                  if trace_max_events is not None else TraceRecorder())
    else:
        tracer = NullTraceRecorder()
    _current = Observability(enabled=True, registry=MetricsRegistry(),
                             tracer=tracer, correlator=XidCorrelator())
    return _current


def disable() -> None:
    """Return to the zero-cost null backend."""
    global _current
    _current = _NULL


@contextmanager
def enabled_scope(*, trace: bool = True,
                  trace_max_events: Optional[int] = None):
    """Enable for a ``with`` block, restoring the previous backend."""
    global _current
    previous = _current
    ob = enable(trace=trace, trace_max_events=trace_max_events)
    try:
        yield ob
    finally:
        _current = previous
