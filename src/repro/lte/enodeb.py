"""eNodeB data plane.

After FlexRAN's refactoring, an eNodeB "only handles the data plane to
perform all the action-related functions (e.g., applying scheduling
decisions, performing handovers)" (Section 4.2).  This class is exactly
that: queues, HARQ, PHY transmission and RRC procedures, with *all*
decision logic injected from the outside through scheduler hooks.  The
FlexRAN agent installs its MAC control module's active VSF as the hook;
a vanilla (agent-less) eNodeB runs the built-in round-robin, mirroring
unmodified OAI.

Each TTI runs in two passes so multi-cell interference resolves
causally:

* :meth:`plan` -- collect HARQ feedback, advance RRC, refresh CQI
  knowledge, invoke the scheduler hook, validate the allocation and
  announce whether the cell will transmit.
* :meth:`transmit` -- apply the planned assignments against the
  *actual* channel (including what interfering cells really did),
  drive HARQ, and deliver payload to UEs.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs as _obs
from repro.lte import columns as _columns
from repro.lte.cell import Cell, CellConfig
from repro.lte.columns import CellColumns
from repro.lte.mac.amc import DEFAULT_ERROR_MODEL, ErrorModel
from repro.lte.mac.dci import (
    DlAssignment,
    SchedulingContext,
    UeView,
    UlGrant,
    validate_allocation,
)
from repro.lte.mac.drx import DrxConfig, DrxManager
from repro.lte.mac.harq import FEEDBACK_DELAY_TTIS, HarqPool
from repro.lte.mac.queues import DEFAULT_LCID, SRB_LCID
from repro.lte.mac.schedulers import RoundRobinScheduler
from repro.lte.pdcp import PdcpEntity
from repro.lte.phy.tbs import transport_block_bits
from repro.lte.rlc import RlcEntity
from repro.lte.rrc import ATTACH_SIGNALLING_BYTES, RrcEntity, RrcEvent, RrcState
from repro.lte.constants import SUBFRAMES_PER_FRAME
from repro.lte.ue import Ue

logger = logging.getLogger(__name__)

RNTI_BASE = 0x46

DlSchedulerHook = Callable[[SchedulingContext], List[DlAssignment]]
UlSchedulerHook = Callable[[SchedulingContext], List[UlGrant]]


class EnbEventType(enum.Enum):
    """Data-plane events surfaced to the FlexRAN agent (Table 1)."""

    RANDOM_ACCESS = "random_access"
    UE_ATTACHED = "ue_attached"
    ATTACH_FAILED = "attach_failed"
    SCHEDULING_REQUEST = "scheduling_request"
    HANDOVER_COMPLETE = "handover_complete"
    TTI_START = "tti_start"


@dataclass
class EnbEvent:
    """One event notification from the data plane."""

    type: EnbEventType
    tti: int
    rnti: Optional[int] = None
    cell_id: Optional[int] = None
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass
class MacCounters:
    """Aggregate MAC/PHY counters for one eNodeB."""

    tb_ok: int = 0
    tb_err: int = 0
    tb_dropped: int = 0
    harq_blocked: int = 0
    dl_delivered_bytes: int = 0
    ul_delivered_bytes: int = 0
    dl_assignments: int = 0
    ul_grants: int = 0


def default_ul_scheduler(ctx: SchedulingContext) -> List[UlGrant]:
    """Fair-split uplink grants across UEs with buffered UL data."""
    pending = [u for u in ctx.ues if u.ul_buffer_bytes > 0 and u.cqi > 0]
    if not pending:
        return []
    share = max(1, ctx.n_prb // len(pending))
    grants: List[UlGrant] = []
    remaining = ctx.n_prb
    for ue in sorted(pending, key=lambda u: u.rnti):
        n_prb = min(share, remaining)
        if n_prb <= 0:
            break
        grants.append(UlGrant(rnti=ue.rnti, n_prb=n_prb, cqi_used=ue.cqi))
        remaining -= n_prb
    return grants


class EnodeB:
    """One base station: cells, per-UE protocol entities, MAC engine."""

    def __init__(self, enb_id: int,
                 cell_configs: Optional[Sequence[CellConfig]] = None, *,
                 seed: int = 0,
                 error_model: ErrorModel = DEFAULT_ERROR_MODEL,
                 rlc_buffer_bytes: Optional[int] = None,
                 columnar: Optional[bool] = None) -> None:
        self.enb_id = enb_id
        if cell_configs is None:
            cell_configs = [CellConfig(cell_id=enb_id * 10)]
        if not cell_configs:
            raise ValueError("an eNodeB needs at least one cell")
        self.cells: Dict[int, Cell] = {
            cfg.cell_id: Cell(cfg) for cfg in cell_configs}
        self.rrc = RrcEntity()
        self.rrc.subscribe(self._on_rrc_event)
        self.error_model = error_model
        self._rlc_buffer_bytes = rlc_buffer_bytes

        self.rlc: Dict[int, RlcEntity] = {}
        self.pdcp: Dict[int, PdcpEntity] = {}
        self.harq: Dict[int, HarqPool] = {c: HarqPool() for c in self.cells}
        self.drx = DrxManager()
        #: (rnti, lcid) -> QosProfile for bearers with explicit QoS.
        self.bearer_qos: Dict[Tuple[int, int], object] = {}
        self._ue_cell: Dict[int, int] = {}
        self._scells: Dict[int, set] = {}
        self._next_rnti = RNTI_BASE

        self.dl_scheduler: Dict[int, DlSchedulerHook] = {
            c: RoundRobinScheduler() for c in self.cells}
        self.ul_scheduler: Dict[int, UlSchedulerHook] = {
            c: default_ul_scheduler for c in self.cells}

        self._plan_dl: Dict[int, List[DlAssignment]] = {}
        self._plan_ul: Dict[int, List[UlGrant]] = {}
        self.last_plan_tti = -1
        self.last_prbs_dl: Dict[int, int] = {c: 0 for c in self.cells}
        self.last_prbs_ul: Dict[int, int] = {c: 0 for c in self.cells}
        self._pending_feedback: List[Tuple[int, int, int, int, bool]] = []
        self._harq_payload: Dict[Tuple[int, int, int], Dict[int, int]] = {}

        self._rng = np.random.default_rng(seed)
        self._observers: List[Callable[[EnbEvent], None]] = []
        self.counters = MacCounters()
        self.processing_time_s = 0.0
        self._span_args = {"enb": enb_id}

        #: Whether :meth:`build_context` uses the columnar fast path.
        #: Columns are maintained regardless, so this may be toggled
        #: at runtime (the differential suite relies on that).
        self.columnar = (_columns.COLUMNAR_DEFAULT if columnar is None
                         else bool(columnar))
        self._cell_columns: Dict[int, CellColumns] = {
            c: CellColumns(cell, self) for c, cell in self.cells.items()}
        # Per-UE change sequence: bumped whenever scheduler- or
        # report-visible UE state changes.  Feeds both the columnar
        # dirty bitmap and the agent's delta stats reporting.
        self._change_seq = 0
        self._ue_seq: Dict[int, int] = {}
        for cell in self.cells.values():
            cell.cqi_listener = self.mark_ue_dirty

    # -- topology -------------------------------------------------------

    def cell(self, cell_id: Optional[int] = None) -> Cell:
        """A cell by id, or the (single) default cell."""
        if cell_id is None:
            if len(self.cells) != 1:
                raise ValueError(
                    f"eNodeB {self.enb_id} has {len(self.cells)} cells; "
                    "specify cell_id")
            return next(iter(self.cells.values()))
        return self.cells[cell_id]

    def attach_ue(self, ue: Ue, cell_id: Optional[int] = None,
                  *, tti: int = 0) -> int:
        """Admit a UE: allocate an RNTI and start random access."""
        cell = self.cell(cell_id)
        rnti = self._next_rnti
        self._next_rnti += 1
        ue.rnti = rnti
        cell.add_ue(rnti, ue)
        self._ue_cell[rnti] = cell.cell_id
        self.rlc[rnti] = RlcEntity(rnti, buffer_limit_bytes=self._rlc_buffer_bytes)
        self.pdcp[rnti] = PdcpEntity(rnti)
        self.rrc.start_attach(rnti, tti)
        self._cell_columns[cell.cell_id].add(rnti)
        cell.refresh_cqi(tti, force=True)
        self.mark_ue_dirty(rnti)
        logger.info("enb %d: UE %s attached as RNTI %d on cell %d",
                    self.enb_id, ue.imsi, rnti, cell.cell_id)
        return rnti

    def detach_ue(self, rnti: int) -> Ue:
        """Remove a UE and all its state (detach or handover source)."""
        for scell_id in sorted(self._scells.pop(rnti, set())):
            self.deactivate_scell(rnti, scell_id)
        cell = self.cells[self._ue_cell.pop(rnti)]
        self._cell_columns[cell.cell_id].remove(rnti)
        # Membership changed: bump the change sequence so delta stats
        # consumers notice even though the RNTI itself is gone.
        self._change_seq += 1
        self._ue_seq.pop(rnti, None)
        ue = cell.remove_ue(rnti)
        self.drx.remove(rnti)
        for key in [k for k in self.bearer_qos if k[0] == rnti]:
            del self.bearer_qos[key]
        self.rlc.pop(rnti, None)
        self.pdcp.pop(rnti, None)
        self.harq[cell.cell_id].remove(rnti)
        # Purge in-flight HARQ bookkeeping so a later reuse of the RNTI
        # cannot receive feedback for the departed UE's blocks.
        self._pending_feedback = [
            f for f in self._pending_feedback
            if not (f[1] == cell.cell_id and f[2] == rnti)]
        for key in [k for k in self._harq_payload
                    if k[0] == cell.cell_id and k[1] == rnti]:
            del self._harq_payload[key]
        self.rrc.release(rnti)
        ue.rnti = None
        ue.serving_cell_id = None
        logger.info("enb %d: RNTI %d detached", self.enb_id, rnti)
        return ue

    def ue(self, rnti: int) -> Ue:
        return self.cells[self._ue_cell[rnti]].ues[rnti]

    def primary_cell(self, rnti: int) -> Cell:
        """The PCell serving *rnti*."""
        return self.cells[self._ue_cell[rnti]]

    def rntis(self) -> List[int]:
        return sorted(self._ue_cell)

    def has_ue(self, rnti: int) -> bool:
        """O(1) attachment test (use instead of ``rnti in rntis()``)."""
        return rnti in self._ue_cell

    # -- carrier aggregation ---------------------------------------------

    def activate_scell(self, rnti: int, scell_id: int, *,
                       tti: int = 0) -> None:
        """Activate a secondary component carrier for a UE (the
        '(de)activating component carriers' action of Section 4.2)."""
        if scell_id not in self.cells:
            raise KeyError(f"no cell {scell_id} on eNodeB {self.enb_id}")
        if scell_id == self._ue_cell[rnti]:
            raise ValueError(f"cell {scell_id} is RNTI {rnti}'s PCell")
        scells = self._scells.setdefault(rnti, set())
        if scell_id in scells:
            return
        ue = self.ue(rnti)
        self.cells[scell_id].add_ue(rnti, ue, primary=False)
        self._cell_columns[scell_id].add(rnti)
        self.cells[scell_id].refresh_cqi(tti, force=True)
        scells.add(scell_id)
        self.mark_ue_dirty(rnti)

    def deactivate_scell(self, rnti: int, scell_id: int) -> None:
        """Deactivate a secondary carrier; no-op if not active."""
        scells = self._scells.get(rnti)
        if scells is not None:
            scells.discard(scell_id)
        cell = self.cells.get(scell_id)
        if cell is not None and rnti in cell.ues:
            self._cell_columns[scell_id].remove(rnti)
            cell.ues.pop(rnti)
            for mapping in (cell.known_cqi, cell.known_cqi_clear,
                            cell.cqi_updated_tti):
                mapping.pop(rnti, None)
            self.harq[scell_id].remove(rnti)
            self._pending_feedback = [
                f for f in self._pending_feedback
                if not (f[1] == scell_id and f[2] == rnti)]
            self.mark_ue_dirty(rnti)

    def active_scells(self, rnti: int) -> List[int]:
        return sorted(self._scells.get(rnti, set()))

    # -- bearer QoS ---------------------------------------------------------

    def configure_bearer(self, rnti: int, lcid: int, profile) -> None:
        """Attach a :class:`~repro.lte.mac.qos.QosProfile` to a bearer."""
        if rnti not in self._ue_cell:
            raise KeyError(f"unknown RNTI {rnti}")
        if lcid < DEFAULT_LCID:
            raise ValueError(f"lcid {lcid} is a signalling bearer")
        self.bearer_qos[(rnti, lcid)] = profile
        self.mark_ue_dirty(rnti)

    # -- DRX ---------------------------------------------------------------

    def set_drx(self, rnti: int, config: Optional[DrxConfig]) -> None:
        """Apply a DRX command: enable with *config*, disable with None."""
        if rnti not in self._ue_cell:
            raise KeyError(f"unknown RNTI {rnti}")
        self.drx.configure(rnti, config)
        tracked = config is not None
        self._cell_columns[self._ue_cell[rnti]].set_drx_tracked(rnti, tracked)
        for scell_id in self._scells.get(rnti, ()):
            self._cell_columns[scell_id].set_drx_tracked(rnti, tracked)
        self.mark_ue_dirty(rnti)

    # -- change tracking -------------------------------------------------

    def mark_ue_dirty(self, rnti: int) -> None:
        """Record that *rnti*'s scheduler/report-visible state changed.

        Bumps the eNodeB-wide change sequence (consumed by delta stats
        reporting) and dirties the UE's slot in the PCell's -- and any
        active SCell's -- column store so the next :meth:`build_context`
        refreshes exactly this UE.
        """
        self._change_seq += 1
        self._ue_seq[rnti] = self._change_seq
        cell_id = self._ue_cell.get(rnti)
        if cell_id is not None:
            self._cell_columns[cell_id].mark_dirty(rnti)
            scells = self._scells.get(rnti)
            if scells:
                for scell_id in scells:
                    self._cell_columns[scell_id].mark_dirty(rnti)

    @property
    def change_seq(self) -> int:
        """Monotone counter of UE-state changes (0 = nothing ever)."""
        return self._change_seq

    def ue_change_seq(self, rnti: int) -> int:
        """The change-sequence value of *rnti*'s last state change."""
        return self._ue_seq.get(rnti, 0)

    # -- events ---------------------------------------------------------

    def subscribe(self, fn: Callable[[EnbEvent], None]) -> None:
        """Register an observer (the FlexRAN agent) for data-plane events."""
        self._observers.append(fn)

    def _emit(self, event: EnbEvent) -> None:
        for fn in list(self._observers):
            fn(event)

    def _on_rrc_event(self, event: RrcEvent, rnti: int, tti: int) -> None:
        mapping = {
            RrcEvent.RANDOM_ACCESS: EnbEventType.RANDOM_ACCESS,
            RrcEvent.UE_ATTACHED: EnbEventType.UE_ATTACHED,
            RrcEvent.ATTACH_FAILED: EnbEventType.ATTACH_FAILED,
            RrcEvent.HANDOVER_COMPLETE: EnbEventType.HANDOVER_COMPLETE,
        }
        kind = mapping.get(event)
        if kind is not None:
            self._emit(EnbEvent(type=kind, tti=tti, rnti=rnti,
                                cell_id=self._ue_cell.get(rnti)))

    # -- ingress --------------------------------------------------------

    def enqueue_dl(self, rnti: int, nbytes: int, tti: int,
                   lcid: int = DEFAULT_LCID) -> bool:
        """EPC ingress: one downlink SDU toward *rnti*.

        Application bytes are conserved end to end; PDCP/RLC header
        overhead is charged against the air interface (the transport
        block budget) rather than mutating the payload stream, so
        transport-layer models see exactly what they sent.
        """
        self.pdcp[rnti].ingress(lcid, nbytes)
        accepted = self.rlc[rnti].enqueue(nbytes, tti, lcid)
        self.mark_ue_dirty(rnti)
        return accepted

    def notify_ul(self, rnti: int, nbytes: int, tti: int) -> None:
        """A UE produced uplink data (triggers a scheduling request)."""
        ue = self.ue(rnti)
        had_backlog = ue.ul_backlog_bytes > 0
        ue.generate_ul(nbytes)
        self.mark_ue_dirty(rnti)
        if not had_backlog:
            self._emit(EnbEvent(type=EnbEventType.SCHEDULING_REQUEST,
                                tti=tti, rnti=rnti,
                                cell_id=self._ue_cell[rnti]))

    # -- data-plane queries (consumed by the FlexRAN Agent API) ---------

    def queue_bytes(self, rnti: int, lcid: Optional[int] = None) -> int:
        return self.rlc[rnti].buffer_bytes(lcid)

    def build_context(self, cell_id: int, tti: int) -> SchedulingContext:
        """Scheduler-facing snapshot for one cell and TTI.

        Two equivalent implementations: the columnar fast path reuses
        per-slot cached views refreshed only for dirty UEs, while the
        object path rebuilds every view from the protocol entities.
        The differential fingerprint suite asserts both produce
        decision-for-decision identical schedules.
        """
        if self.columnar:
            return self._build_context_columnar(cell_id, tti)
        return self._build_context_object(cell_id, tti)

    def _build_context_columnar(self, cell_id: int, tti: int
                                ) -> SchedulingContext:
        cell = self.cells[cell_id]
        views, backlogged, schedulable = \
            self._cell_columns[cell_id].build(tti)
        if self.bearer_qos:
            view_rntis = {v.rnti for v in views}
            bearer_qos = {key: profile
                          for key, profile in self.bearer_qos.items()
                          if key[0] in view_rntis}
        else:
            bearer_qos = {}
        ctx = SchedulingContext(
            tti=tti, n_prb=cell.n_prb, ues=views,
            pending_retx=self.harq[cell_id].all_pending_retx(tti),
            cell_id=cell_id, subframe=tti % SUBFRAMES_PER_FRAME,
            abs_subframe=cell.is_muted(tti),
            bearer_qos=bearer_qos)
        # Seed the context's per-TTI memos from the column caches (the
        # lists are already RNTI-ordered and filtered identically).
        ctx._backlogged = backlogged
        ctx._schedulable = schedulable
        return ctx

    def _build_context_object(self, cell_id: int, tti: int
                              ) -> SchedulingContext:
        cell = self.cells[cell_id]
        views: List[UeView] = []
        rlc_map = self.rlc
        schedulable = (RrcState.CONNECTING, RrcState.CONNECTED)
        for rnti in cell.rntis():
            ctx = self.rrc.context(rnti)
            if ctx.state not in schedulable:
                continue
            if not self.drx.is_awake(rnti, tti):
                continue  # sleeping UEs cannot be scheduled
            ue = cell.ues[rnti]
            queues = rlc_map[rnti].queues.sizes()
            views.append(UeView(
                rnti=rnti,
                queue_bytes=sum(queues.values()),
                cqi=cell.scheduling_cqi(rnti, tti),
                avg_rate_bps=ue.meter.rate_mbps(tti) * 1e6,
                # The snapshot borrows the UE's label dict: schedulers
                # only read it, and labels never change inside a TTI.
                labels=ue.labels,
                ul_buffer_bytes=ue.ul_backlog_bytes,
                queues=queues,
            ))
        if self.bearer_qos:
            view_rntis = {v.rnti for v in views}
            bearer_qos = {key: profile
                          for key, profile in self.bearer_qos.items()
                          if key[0] in view_rntis}
        else:
            bearer_qos = {}
        return SchedulingContext(
            tti=tti, n_prb=cell.n_prb, ues=views,
            pending_retx=self.harq[cell_id].all_pending_retx(tti),
            cell_id=cell_id, subframe=tti % SUBFRAMES_PER_FRAME,
            abs_subframe=cell.is_muted(tti),
            bearer_qos=bearer_qos)

    # -- per-TTI engine ---------------------------------------------------

    def plan(self, tti: int) -> None:
        """Pass 1: feedback, RRC, CQI refresh, run schedulers."""
        start = time.perf_counter()
        self._process_feedback(tti)
        self._advance_rrc(tti)
        self.drx.account_all(tti)
        self._plan_dl.clear()
        self._plan_ul.clear()
        for cell_id, cell in self.cells.items():
            cell.refresh_cqi(tti)
            ctx = self.build_context(cell_id, tti)
            assignments = self.dl_scheduler[cell_id](ctx) or []
            validate_allocation(assignments, cell.n_prb)
            grants = self.ul_scheduler[cell_id](ctx) or []
            self._plan_dl[cell_id] = assignments
            self._plan_ul[cell_id] = grants
            self.last_prbs_dl[cell_id] = sum(a.n_prb for a in assignments)
            self.last_prbs_ul[cell_id] = sum(g.n_prb for g in grants)
            cell.mark_transmission(tti, bool(assignments))
        self.last_plan_tti = tti
        self._account(start, tti, "plan", "enb.plan_us")

    def planned_cell_ids(self, tti: int) -> List[int]:
        """Cells that received a scheduler decision at *tti*.

        Empty unless :meth:`plan` ran for exactly *tti* -- the chaos
        harness's every-cell-gets-a-decision invariant reads this.
        """
        if self.last_plan_tti != tti:
            return []
        return sorted(self._plan_dl)

    def transmit(self, tti: int) -> None:
        """Pass 2: apply the plan against the actual channel."""
        start = time.perf_counter()
        for cell_id in self.cells:
            for assignment in self._plan_dl.get(cell_id, []):
                self._transmit_dl(cell_id, assignment, tti)
            for grant in self._plan_ul.get(cell_id, []):
                self._transmit_ul(cell_id, grant, tti)
        self._account(start, tti, "transmit", "enb.transmit_us")

    def _account(self, start: float, tti: int, span: str,
                 histogram: str) -> None:
        """Charge one engine pass to ``processing_time_s`` and obs."""
        end = time.perf_counter()
        self.processing_time_s += end - start
        ob = _obs.get()
        ob.tracer.complete("enb", span, start, end, tti, self._span_args)
        ob.registry.histogram(histogram).observe((end - start) * 1e6)

    def tick(self, tti: int) -> None:
        """Single-eNodeB convenience: plan then transmit."""
        self.plan(tti)
        self.transmit(tti)

    # -- internals --------------------------------------------------------

    def _advance_rrc(self, tti: int) -> None:
        for rnti in self.rrc.check_timeouts(tti):
            self.mark_ue_dirty(rnti)
        for rnti in self.rrc.attaching_rntis():
            if self.rrc.setup_due(rnti, tti):
                # Attach handshake rides SRB1 through the normal
                # scheduler path; three signalling messages.
                per_msg = ATTACH_SIGNALLING_BYTES // 3
                for _ in range(3):
                    self.rlc[rnti].enqueue(per_msg, tti, SRB_LCID)
                self.mark_ue_dirty(rnti)

    def _process_feedback(self, tti: int) -> None:
        due = [f for f in self._pending_feedback if f[0] <= tti]
        self._pending_feedback = [f for f in self._pending_feedback if f[0] > tti]
        for _, cell_id, rnti, pid, ok in due:
            entity = self.harq[cell_id].entity(rnti)
            drop = entity.feedback(pid, ok)
            self.mark_ue_dirty(rnti)
            key = (cell_id, rnti, pid)
            if ok:
                self._harq_payload.pop(key, None)
            elif drop is not None:
                self.counters.tb_dropped += 1
                split = self._harq_payload.pop(key, {drop.lcid: drop.payload_bytes})
                rlc = self.rlc.get(rnti)
                if rlc is not None:
                    for lcid, nbytes in split.items():
                        rlc.requeue_front(nbytes, tti, lcid)

    def _transmit_dl(self, cell_id: int, a: DlAssignment, tti: int) -> None:
        cell = self.cells[cell_id]
        if a.rnti not in cell.ues:
            return  # UE left between plan and transmit
        entity = self.harq[cell_id].entity(a.rnti)
        if a.is_retx:
            if a.harq_pid is None:
                raise ValueError("retransmission without a HARQ process id")
            proc = entity.retransmit(a.harq_pid, tti)
            payload_split = self._harq_payload.get(
                (cell_id, a.rnti, a.harq_pid), {proc.lcid: proc.payload_bytes})
            attempt = proc.attempt
            pid = proc.pid
        else:
            if entity.free_process() is None:
                self.counters.harq_blocked += 1
                return
            budget = transport_block_bits(a.cqi_used, a.n_prb) // 8
            payload_split = self.rlc[a.rnti].dequeue_priority(
                budget, tti, prefer_lcid=a.lcid)
            payload = sum(payload_split.values())
            if payload == 0:
                return
            proc = entity.start(
                pid=a.harq_pid, tb_bits=budget * 8, payload_bytes=payload,
                cqi_used=a.cqi_used, n_prb=a.n_prb,
                lcid=max(payload_split), tti=tti)
            self._harq_payload[(cell_id, a.rnti, proc.pid)] = payload_split
            attempt = 1
            pid = proc.pid

        self.counters.dl_assignments += 1
        self.drx.note_activity(a.rnti, tti)
        self.mark_ue_dirty(a.rnti)
        actual = cell.actual_cqi(a.rnti, tti)
        p_err = self.error_model.error_probability(a.cqi_used, actual, attempt)
        ok = bool(self._rng.random() >= p_err)
        self._pending_feedback.append(
            (tti + FEEDBACK_DELAY_TTIS, cell_id, a.rnti, pid, ok))
        if not ok:
            self.counters.tb_err += 1
            return
        self.counters.tb_ok += 1
        ue = cell.ues[a.rnti]
        for lcid, nbytes in sorted(payload_split.items()):
            if lcid < DEFAULT_LCID:
                self.rrc.srb_delivered(a.rnti, nbytes, tti)
            else:
                self.pdcp[a.rnti].egress(lcid, nbytes)  # stats only
                self.counters.dl_delivered_bytes += nbytes
                ue.deliver(nbytes, tti)

    def _transmit_ul(self, cell_id: int, grant: UlGrant, tti: int) -> None:
        cell = self.cells[cell_id]
        if grant.rnti not in cell.ues:
            return
        ue = cell.ues[grant.rnti]
        capacity = transport_block_bits(grant.cqi_used, grant.n_prb,
                                        uplink=True) // 8
        actual = cell.actual_cqi(grant.rnti, tti)
        p_err = self.error_model.error_probability(grant.cqi_used, actual, 1)
        sent = ue.send_ul(capacity, tti)
        if sent <= 0:
            return
        self.mark_ue_dirty(grant.rnti)
        self.counters.ul_grants += 1
        if self._rng.random() >= p_err:
            self.counters.ul_delivered_bytes += sent
        else:
            # Lost UL TB: data returns to the UE's buffer (HARQ abstracted).
            ue.ul_backlog_bytes += sent

    # -- statistics snapshot (the Statistics API payload) ----------------

    def mac_stats(self, cell_id: Optional[int] = None) -> Dict[int, Dict[str, object]]:
        """Per-UE MAC statistics: queue sizes, CQI, HARQ occupancy."""
        cell = self.cell(cell_id)
        out: Dict[int, Dict[str, object]] = {}
        for rnti in cell.rntis():
            rlc = self.rlc[rnti]
            ue = cell.ues[rnti]
            out[rnti] = {
                "queue_bytes": rlc.buffer_bytes(),
                "queues": rlc.queues.sizes(),
                "cqi": cell.known_cqi.get(rnti, 0),
                "cqi_clear": cell.known_cqi_clear.get(rnti, 0),
                "harq_busy": self.harq[cell.cell_id].entity(rnti).busy_count(),
                "ul_buffer_bytes": ue.ul_backlog_bytes,
                "rx_bytes_total": ue.rx_bytes_total,
                "rrc_state": self.rrc.context(rnti).state.value,
            }
        return out
