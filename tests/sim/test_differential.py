"""Differential fingerprints: columnar vs object context building.

``EnodeB.build_context`` has two implementations -- the columnar fast
path over :class:`repro.lte.columns.CellColumns` and the object path
that rebuilds every ``UeView`` from the protocol entities.  This suite
runs the same deployment twice, once per mode, records every cell's
downlink assignments and uplink grants on every TTI, and asserts the
two runs are *decision-for-decision identical* (plus identical
delivered-byte, HARQ and DRX end state).  Any divergence means the
column store's invalidation missed a scheduler-visible input.

The same scenarios also pin obs neutrality: a run with every
observability backend on (``obs.enabled_scope()``) must make the same
decisions and reach the same end state as a run with obs disabled --
instrumentation only watches the work, it never changes it.
"""

from contextlib import nullcontext

from repro import obs
from repro.lte.mac.drx import DrxConfig
from repro.net.clock import Phase
from repro.sim.scenarios import (
    FaultSpec,
    chaos_survivability,
    hetnet_eicic,
    large_scale,
    partitioned_centralized,
    saturated_cell,
)


def _attach_recorder(sim, enbs):
    """Log (tti, enb, cell, DL assignments, UL grants) every TTI."""
    log = []

    def record(tti: int) -> None:
        for enb in enbs:
            if enb.last_plan_tti != tti:
                continue
            for cell_id in sorted(enb._plan_dl):
                dl = tuple(
                    (a.rnti, a.n_prb, a.cqi_used, a.lcid, a.harq_pid,
                     a.is_retx)
                    for a in enb._plan_dl[cell_id])
                ul = tuple((g.rnti, g.n_prb, g.cqi_used)
                           for g in enb._plan_ul.get(cell_id, ()))
                if dl or ul:
                    log.append((tti, enb.enb_id, cell_id, dl, ul))

    sim.clock.register(Phase.POST, record)
    return log


def _end_state(enbs):
    """Data-plane end state the two modes must agree on exactly."""
    state = []
    for enb in enbs:
        per_ue = {}
        for cell in enb.cells.values():
            for rnti, ue in cell.ues.items():
                harq = enb.harq[cell.cell_id].entity(rnti)
                per_ue[(cell.cell_id, rnti)] = (
                    ue.rx_bytes_total,
                    tuple((p.busy, p.needs_retx) for p in harq.processes),
                )
        drx = {rnti: (s.awake_ttis, s.asleep_ttis)
               for rnti, s in enb.drx._states.items()}
        state.append((enb.enb_id, enb.counters.tb_ok, enb.counters.tb_err,
                      enb.counters.dl_delivered_bytes, per_ue, drx,
                      enb.drx.retired_awake_ttis,
                      enb.drx.retired_asleep_ttis))
    return state


def _run(build, ttis, *, columnar=True, observed=False, realtime=True):
    with obs.enabled_scope() if observed else nullcontext():
        sim, enbs = build()
        for enb in enbs:
            enb.columnar = columnar
        if not realtime and sim.master is not None:
            sim.master._config["realtime"] = False
            sim.master.task_manager.realtime = False
        log = _attach_recorder(sim, enbs)
        try:
            sim.run(ttis)
            return log, _end_state(enbs)
        finally:
            if hasattr(sim, "close"):
                sim.close()


def assert_differential(build, ttis):
    col_log, col_state = _run(build, ttis, columnar=True)
    obj_log, obj_state = _run(build, ttis, columnar=False)
    assert col_log, "scenario produced no scheduling decisions"
    assert col_log == obj_log
    assert col_state == obj_state
    # Obs neutrality.  Both runs use a non-realtime master: obs slows
    # the cycle, and realtime app deferral follows the wall clock.
    plain_log, plain_state = _run(build, ttis, realtime=False)
    seen_log, seen_state = _run(build, ttis, observed=True, realtime=False)
    assert plain_log, "scenario produced no scheduling decisions"
    assert plain_log == seen_log
    assert plain_state == seen_state


class TestDifferentialFingerprints:
    def test_saturated_cell_with_drx(self):
        def build():
            sc = saturated_cell(n_ues=4, cqi=12, with_master=True)
            # DRX on two UEs exercises the per-build wake tracking.
            for ue in sc.ues[:2]:
                sc.enb.set_drx(ue.rnti, DrxConfig(
                    cycle_ttis=20, on_duration_ttis=4, inactivity_ttis=2))
            return sc.sim, [sc.enb]
        assert_differential(build, 200)

    def test_hetnet_eicic_abs_flips(self):
        def build():
            sc = hetnet_eicic("eicic", n_macro_ues=3)
            return sc.sim, [sc.macro_enb, sc.small_enb]
        assert_differential(build, 300)

    def test_centralized_with_link_fault(self):
        def build():
            sc = partitioned_centralized(
                ues_per_enb=4, rtt_ms=2.0, schedule_ahead=8,
                fault=FaultSpec(partitions=((120, 180),)),
                echo_period_ttis=20, liveness_timeout_ttis=60)
            return sc.sim, sc.enbs
        assert_differential(build, 300)

    def test_chaos_survivability(self):
        def build():
            sc = chaos_survivability(
                ues_per_enb=3, crash_window=(60, 90), poison_at=120,
                restart_at=180, checkpoint_period_ttis=50,
                clearance_ttis=100)
            return sc.sim, sc.enbs
        assert_differential(build, 320)

    def test_scale_slice_over_tcp_transport(self):
        def build():
            sc = large_scale(n_enbs=2, ues_per_enb=8, transport="tcp",
                             stats_period_ttis=5)
            return sc.sim, sc.enbs
        assert_differential(build, 120)
