"""The centralized scheduler's running in-flight byte totals.

``InFlight`` keeps a running total per RNTI instead of re-summing its
queue on every read; it must always equal the sum of the entries still
queued, across appends, expiries and UEs coming and going.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.core.apps.remote_scheduler import InFlight

OPS = st.lists(st.tuples(
    st.sampled_from(["add", "read", "advance"]),
    st.integers(min_value=0, max_value=40),      # rnti (churns)
    st.integers(min_value=0, max_value=12),      # ttl or tti step
    st.integers(min_value=0, max_value=10 ** 6)  # bytes
), max_size=300)


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_running_total_matches_resum(ops):
    fast = {}
    reference = {}
    now = 0
    for op, rnti, n, nbytes in ops:
        if op == "advance":
            now += n
        elif op == "add":
            fast.setdefault(rnti, InFlight()).add(now + n, nbytes)
            reference.setdefault(rnti, deque()).append((now + n, nbytes))
        else:
            queue = reference.get(rnti, deque())
            while queue and queue[0][0] <= now:
                queue.popleft()
            expected = sum(b for _, b in queue)
            got = fast[rnti].outstanding(now) if rnti in fast else 0
            assert got == expected
    for rnti, queue in reference.items():
        while queue and queue[0][0] <= now:
            queue.popleft()
        assert fast[rnti].outstanding(now) == sum(b for _, b in queue)


def test_expiry_drains_to_zero_and_refills():
    inflight = InFlight()
    inflight.add(5, 100)
    inflight.add(7, 50)
    assert inflight.outstanding(4) == 150
    assert inflight.outstanding(5) == 50
    assert inflight.outstanding(7) == 0
    # An idle RNTI that comes back starts from an exact zero.
    inflight.add(20, 30)
    assert inflight.outstanding(8) == 30


def test_entries_behind_an_unexpired_head_stay_counted():
    # Expiry is head-of-queue only (TTLs vary with sync lag), exactly as
    # the re-summed deque behaved.
    inflight = InFlight()
    inflight.add(10, 100)
    inflight.add(6, 40)
    assert inflight.outstanding(8) == 140
    assert inflight.outstanding(10) == 0
