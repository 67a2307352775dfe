"""Timing wrappers around each layer's public entry points.

Used only by the traced run.  Each wrapper records its span's
inclusive time; a span's *self* time is that minus the wrapped spans
nested inside it, so the layers' self times add up to the traced part
of a TTI without double counting.  Counting wrappers also record the
exact work each call did (messages, bytes, UE entries).

Every call site the wrappers replace resolves its target at call time:
instance methods are shadowed by instance attributes, and
``codec.encode`` / ``codec.decode`` are looked up on the module by
``repro.net.transport``.  Nothing in the program changes.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protocol import codec

Counter = Callable[[tuple, object], Tuple[int, int]]
"""Maps a call's ``(args, result)`` to the work it did, as ``(items,
size)``: messages and bytes for the codec, batches and messages for the
RIB updater, UE entries sent and UE entries a full snapshot would hold
for statistics replies."""


class Tracer:
    """Self time, inclusive time and work per span name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.items: Dict[str, int] = defaultdict(int)
        self.size: Dict[str, int] = defaultdict(int)
        # Child time accumulated by each open span; the bottom entry
        # collects top-level spans and is never read.
        self._child: List[float] = [0.0]
        self._restore: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Counter] = None) -> Callable:
        clock = time.perf_counter
        stack = self._child
        self_s, incl_s = self.self_s, self.incl_s
        items, size = self.items, self.size

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                self_s[name] += elapsed - child
                incl_s[name] += elapsed
            if count is not None:
                n, s = count(args, result)
                items[name] += n
                size[name] += s
            return result
        return traced

    def patch(self, obj, attr: str, name: str,
              count: Optional[Counter] = None) -> None:
        """Shadow ``obj.attr`` with a traced version (undone by
        :meth:`uninstall`)."""
        original = getattr(obj, attr)
        setattr(obj, attr, self.wrap(name, original, count))
        if obj is codec:
            self._restore.append(lambda: setattr(obj, attr, original))
        else:
            # Dropping the instance attribute re-exposes the method.
            self._restore.append(lambda: delattr(obj, attr))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def _encoded(args, frame) -> Tuple[int, int]:
    return 1, len(frame)


def _decoded(args, message) -> Tuple[int, int]:
    return 1, len(args[0])


def _batch(args, events) -> Tuple[int, int]:
    messages = args[1]
    return (1, len(messages)) if messages else (0, 0)


def _ue_entries(enb) -> Counter:
    def count(args, replies) -> Tuple[int, int]:
        if not replies:
            return 0, 0
        entries = sum(len(reply.ue_reports) for reply in replies)
        return entries, len(enb.rntis()) * len(replies)
    return count


def install(tracer: Tracer, sim) -> None:
    """Wrap every layer entry point of *sim* (see README.md)."""
    tracer.patch(sim.epc, "tick", "traffic.tick")
    for enb in sim.enbs.values():
        tracer.patch(enb, "plan", "lte.plan")
        tracer.patch(enb, "build_context", "lte.build_context")
        tracer.patch(enb, "transmit", "lte.transmit")
    for agent in sim.agents.values():
        tracer.patch(agent, "tick_tx", "agent.tick_tx")
        tracer.patch(agent, "tick_rx", "agent.tick_rx")
        tracer.patch(agent.reports, "due_replies", "agent.stats",
                     _ue_entries(agent.enb))
    for conn in sim.connections.values():
        tracer.patch(conn.agent_side, "send", "net.send.ul")
        tracer.patch(conn.master_side, "send", "net.send.dl")
    tracer.patch(codec, "encode", "protocol.encode", _encoded)
    tracer.patch(codec, "decode", "protocol.decode", _decoded)
    master = sim.master
    tracer.patch(master.updater, "apply_batch", "controller.rib_apply",
                 _batch)
    tracer.patch(master.events, "dispatch", "controller.events")
    for reg in master.registry.registrations():
        tracer.patch(reg.app, "run", "controller.apps")
    tracer.patch(master, "tick", "controller.tick")
    traced_tick = master.tick
    nested = ("protocol.decode", "controller.rib_apply")

    def tick(now: int) -> None:
        # The RIB-updater slot's own time: the Task Manager's core_ms
        # less the decode and RIB apply that ran inside it (the master
        # decodes and applies nowhere else).
        before = sum(tracer.incl_s[n] for n in nested)
        traced_tick(now)
        record = master.task_manager.last_record
        inside = sum(tracer.incl_s[n] for n in nested) - before
        tracer.self_s["controller.drain_self"] += (
            record.core_ms / 1000.0 - inside)
        tracer.items["controller.over_budget"] += int(record.overran)
    master.tick = tick
