"""The northbound service core: controller bridge + command pump.

This module is the transport-neutral layer between external clients
and a running :class:`~repro.core.controller.master.MasterController`.
It owns the :class:`~repro.nb.subscriptions.SubscriptionTable` and a
thread-safe command queue, and bridges both onto the controller thread
via two hooks:

* an **event tap** on the Events Notification Service -- every agent
  event dispatched to apps is also encoded once and fanned out to
  matching external event streams, in the same TTI order apps see;
* a **cycle hook** on the master -- at the end of every TTI the pump
  executes queued commands against the real :class:`NorthboundApi`
  (so external writes obey the same single-writer discipline as
  in-process apps), samples per-UE/per-cell/TTI streams from the RIB,
  and flushes one batched wake to the server thread.

Nothing in this module touches asyncio or sockets: tests drive it with
a plain :class:`Simulation`, and the HTTP frontend in
:mod:`repro.nb.server` is just one possible transport.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro import obs as _obs
from repro.nb import encoders
from repro.nb.subscriptions import (
    DEFAULT_QUEUE_CAPACITY,
    KIND_CELL,
    KIND_EVENTS,
    KIND_TTI,
    KIND_UE,
    Subscription,
    SubscriptionTable,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller.master import MasterController
    from repro.core.controller.northbound import NorthboundApi


class CommandError(Exception):
    """A northbound command failed inside the controller."""


class Ticket:
    """Completion handle for a command submitted across threads.

    The controller thread resolves the ticket inside the pump; the
    submitting thread either blocks on :meth:`wait` (plain clients,
    tests) or registers a callback bridged into its own event loop
    (the asyncio frontend).
    """

    __slots__ = ("_event", "_result", "_error", "_callbacks", "_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: object = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["Ticket"], None]] = []
        self._lock = threading.Lock()

    def resolve(self, result: object) -> None:
        with self._lock:
            self._result = result
            callbacks = self._callbacks[:]
            self._event.set()
        for cb in callbacks:
            cb(self)

    def reject(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            callbacks = self._callbacks[:]
            self._event.set()
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["Ticket"], None]) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(cb)
                return
        cb(self)

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def error(self) -> Optional[BaseException]:
        return self._error

    def result(self, timeout: Optional[float] = None) -> object:
        """Block until resolved; raises the command's error if any."""
        if not self._event.wait(timeout):
            raise TimeoutError("northbound command not executed in time "
                               "(is the controller ticking?)")
        if self._error is not None:
            raise self._error
        return self._result


class NorthboundService:
    """Subscription routing + command pump over one master controller."""

    def __init__(self, master: "MasterController", *,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 max_pending_commands: int = 1024) -> None:
        self.master = master
        self.table = SubscriptionTable()
        self._commands: Deque[Tuple[Callable, Ticket]] = deque()
        self._commands_lock = threading.Lock()
        self._max_pending = max_pending_commands
        self._queue_capacity = queue_capacity
        #: Called (from the controller thread) with the batch of
        #: subscriptions whose queues went empty -> non-empty this TTI.
        self._wake_cb: Optional[Callable[[List[Subscription]], None]] = None
        self._tap = None
        self._hook = None
        self._woken: List[Subscription] = []
        self.commands_executed = 0
        self.commands_failed = 0
        self.events_published = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self) -> None:
        """Hook into the master's event service and TTI cycle."""
        if self._hook is not None:
            return
        self._tap = self.master.events.add_tap(self._on_event)
        self._hook = self.master.add_cycle_hook(self._pump)

    def detach(self) -> None:
        if self._tap is not None:
            self.master.events.remove_tap(self._tap)
            self._tap = None
        if self._hook is not None:
            self.master.remove_cycle_hook(self._hook)
            self._hook = None

    @property
    def attached(self) -> bool:
        return self._hook is not None

    def set_wake_callback(
            self, cb: Optional[Callable[[List[Subscription]], None]]
    ) -> None:
        self._wake_cb = cb

    # -- command submission (any thread) ----------------------------------

    def submit(self, fn: Callable[["NorthboundApi"], object]) -> Ticket:
        """Queue *fn* for execution on the controller thread.

        *fn* receives the master's :class:`NorthboundApi` and its
        return value resolves the ticket.  Both commands and RIB reads
        go through here: reads executed between TTIs can never observe
        a half-applied RIB update.
        """
        ticket = Ticket()
        with self._commands_lock:
            if len(self._commands) >= self._max_pending:
                ticket.reject(CommandError(
                    f"northbound command queue full "
                    f"({self._max_pending} pending)"))
                return ticket
            self._commands.append((fn, ticket))
        return ticket

    def call(self, fn: Callable[["NorthboundApi"], object], *,
             timeout: float = 5.0) -> object:
        """Blocking convenience: submit and wait for the result."""
        return self.submit(fn).result(timeout)

    # -- controller-thread half -------------------------------------------

    def _on_event(self, tti: int, event) -> None:
        """Event tap: mirror one agent event to external streams."""
        if not self.table.has_event_subs():
            return  # don't pay the encode when nobody is listening
        payload = encoders.json_bytes(encoders.event_to_dict(tti, event))
        stamp = time.perf_counter()
        reached = self.table.publish_event(
            encoders.event_class_name(event), payload, stamp, self._woken)
        if reached:
            self.events_published += 1

    def _pump(self, tti: int) -> None:
        """Cycle hook: run queued commands, sample streams, flush wakes."""
        if self._commands:
            with self._commands_lock:
                batch = list(self._commands)
                self._commands.clear()
            for fn, ticket in batch:
                try:
                    ticket.resolve(fn(self.master.northbound))
                    self.commands_executed += 1
                except Exception as exc:  # noqa: BLE001 - ticket boundary
                    self.commands_failed += 1
                    ticket.reject(exc)
            _obs.get().registry.counter("nb.commands.executed").inc(
                len(batch))
        self._sample_streams(tti)
        if self._woken:
            woken, self._woken = self._woken, []
            # Reset before delivering: appends after this point belong
            # to the next flush cycle and will re-queue their wake.
            for sub in woken:
                sub.wake_pending = False
            if self._wake_cb is not None:
                self._wake_cb(woken)

    def _sample_streams(self, tti: int) -> None:
        """Publish due per-UE/per-cell/TTI samples from the RIB."""
        rib = self.master.rib
        tti_subs = self.table.tti_subs()
        if tti_subs:
            payload = None
            for sub in tti_subs:
                if (tti - sub.created_tti) % sub.period_ttis:
                    continue
                if payload is None:
                    agent_ids = rib.agent_ids()
                    payload = encoders.json_bytes(encoders.tti_sample(
                        tti, len(agent_ids),
                        len(self.master.live_agent_ids())))
                    stamp = time.perf_counter()
                self.table.publish_to(sub, payload, stamp, self._woken)
        for group in self.table.sampled_subs():
            payload = None
            for sub in group:
                if (tti - sub.created_tti) % sub.period_ttis:
                    continue
                if payload is None:
                    payload = self._sample_one(tti, sub)
                    stamp = time.perf_counter()
                self.table.publish_to(sub, payload, stamp, self._woken)

    def _sample_one(self, tti: int, sub: Subscription) -> bytes:
        rib = self.master.rib
        agent_id, target = sub.key  # type: ignore[misc]
        node = None
        try:
            agent = rib.agent(agent_id)
        except KeyError:
            agent = None
        if sub.kind == KIND_UE:
            if agent is not None:
                for candidate in agent.all_ues():
                    if candidate.rnti == target:
                        node = candidate
                        break
            return encoders.json_bytes(
                encoders.ue_sample(tti, agent_id, node, target))
        if agent is not None:
            node = agent.cells.get(target)
        return encoders.json_bytes(
            encoders.cell_sample(tti, agent_id, node, target))

    # -- subscription management (any thread) -----------------------------

    def subscribe_events(self, classes: Optional[frozenset] = None, *,
                         capacity: Optional[int] = None) -> Subscription:
        return self.table.subscribe(
            KIND_EVENTS, event_classes=classes,
            capacity=capacity or self._queue_capacity,
            created_tti=self.master.now)

    def subscribe_ue(self, agent_id: int, rnti: int, *,
                     period_ttis: int = 10,
                     capacity: Optional[int] = None) -> Subscription:
        return self.table.subscribe(
            KIND_UE, key=(agent_id, rnti), period_ttis=period_ttis,
            capacity=capacity or self._queue_capacity,
            created_tti=self.master.now)

    def subscribe_cell(self, agent_id: int, cell_id: int, *,
                       period_ttis: int = 10,
                       capacity: Optional[int] = None) -> Subscription:
        return self.table.subscribe(
            KIND_CELL, key=(agent_id, cell_id), period_ttis=period_ttis,
            capacity=capacity or self._queue_capacity,
            created_tti=self.master.now)

    def subscribe_tti(self, *, period_ttis: int = 100,
                      capacity: Optional[int] = None) -> Subscription:
        return self.table.subscribe(
            KIND_TTI, period_ttis=period_ttis,
            capacity=capacity or self._queue_capacity,
            created_tti=self.master.now)

    def unsubscribe(self, sub_id: int) -> bool:
        sub = self.table.get(sub_id)
        removed = self.table.unsubscribe(sub_id)
        if removed and sub is not None and self._wake_cb is not None:
            # A consumer blocked waiting on this row must observe the
            # closure; the callback tolerates any calling thread.
            self._wake_cb([sub])
        return removed

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        return {
            "subscriptions": len(self.table),
            "events_published": self.events_published,
            "commands_executed": self.commands_executed,
            "commands_failed": self.commands_failed,
            "attached": self.attached,
        }
