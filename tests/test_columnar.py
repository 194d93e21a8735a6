"""The slot-bucket wheel (``Simulator(columnar=True)``) held against
the heap, the exact engine.

The wheel keeps one heap entry per distinct instant (a slot bucket of
(seq, event) records) so the batched tier can settle a whole instant at
once. With no window it must be indistinguishable from the heap:
everything here checks that contract — same firing order, same queue
accounting, same traces.
"""

import random

import pytest

from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.analysis.scenarios import line_scenario
from repro.analysis.workloads import CbrSource
from repro.audit import Auditor, check_heap_accounting
from repro.audit.diff import diff_traces
from repro.net.internet import Internet
from repro.net.loss import BernoulliLoss, CompositeLoss, GilbertElliottLoss
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Counter


# ----------------------------------------------------- slot-bucket engine


def test_same_instant_events_fire_in_schedule_order():
    sim = Simulator(columnar=True)
    fired = []
    for tag in ("a", "b", "c"):
        sim.schedule(1.0, fired.append, tag)
    sim.schedule(0.5, fired.append, "early")
    sim.run()
    assert fired == ["early", "a", "b", "c"]


def test_schedule_during_drain_of_same_instant_fires_after_bucket():
    # A same-time schedule made *while* the slot drains must land in a
    # fresh bucket that fires after the current one — exactly the
    # (time, seq) order the scalar heap gives.
    sim = Simulator(columnar=True)
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_cancelled_bucket_records_are_skipped():
    sim = Simulator(columnar=True)
    fired = []
    sim.schedule(1.0, fired.append, "keep")
    victim = sim.schedule(1.0, fired.append, "cancel")
    sim.schedule(1.0, fired.append, "keep2")
    victim.cancel()
    sim.run()
    assert fired == ["keep", "keep2"]


def test_periodic_timer_recycles_through_the_wheel():
    sim = Simulator(columnar=True)
    ticks = []
    timer = sim.schedule_periodic(0.5, lambda: ticks.append(sim.now))
    sim.run(until=2.6)
    assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]
    timer.cancel()
    sim.run(until=4.0)
    assert len(ticks) == 5


def test_max_events_requeues_bucket_remainder():
    sim = Simulator(columnar=True)
    fired = []
    for i in range(6):
        sim.schedule(1.0, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_iter_queued_reports_liveness():
    sim = Simulator(columnar=True)
    keep = sim.schedule(1.0, lambda: None)
    victim = sim.schedule(1.0, lambda: None)
    victim.cancel()
    by_live = {}
    for event, live in sim.iter_queued():
        by_live.setdefault(live, []).append(event)
    assert keep in by_live.get(True, [])
    assert victim in by_live.get(False, [])


def test_columnar_and_scalar_fire_orders_match():
    # A randomized mix of instants, duplicates, and cancellations fires
    # in exactly the same order on both engines.
    rng = random.Random(42)
    plan = [(rng.choice([0.5, 1.0, 1.0, 1.5, 2.0]), i) for i in range(40)]
    cancel_idx = set(rng.sample(range(40), 8))

    def drive(columnar):
        sim = Simulator(columnar=columnar)
        fired = []
        handles = [sim.schedule(delay, fired.append, tag)
                   for delay, tag in plan]
        for i in cancel_idx:
            handles[i].cancel()
        sim.run()
        return fired

    assert drive(True) == drive(False)


def _queue_state(sim):
    return sim.pending_events, sim._dead, sim._entries if sim.columnar else None


@pytest.mark.parametrize("columnar", [False, True], ids=["heap", "wheel"])
def test_compaction_during_a_drain_keeps_the_accounting(columnar):
    # One event at t=1 cancels 60 of the 100 events queued behind it at
    # the same instant, which trips the compaction threshold mid-drain.
    # On the wheel those records sit in the slot being drained — off the
    # heap, out of compaction's reach — so compaction may only subtract
    # what it removed; resetting the dead count made the drain decrement
    # it a second time (-56 dead / -90 entries before the fix).
    sim = Simulator(columnar=columnar)
    fired = []
    victims = []
    sim.schedule(1.0, lambda: [v.cancel() for v in victims[:60]])
    victims.extend(sim.schedule(1.0, fired.append, i) for i in range(100))
    for i in range(10):
        sim.schedule(2.0, fired.append, 100 + i)
    sim.run(until=1.5)
    assert fired == list(range(60, 100))
    assert _queue_state(sim) == (10, 0, 10 if columnar else None)
    auditor = Auditor(counters=Counter(), register=False)
    assert check_heap_accounting(sim, auditor), auditor.report.format()
    sim.run()
    assert fired == list(range(60, 110))
    assert _queue_state(sim) == (0, 0, 0 if columnar else None)


@pytest.mark.parametrize("columnar", [False, True], ids=["heap", "wheel"])
def test_max_events_holds_when_a_callback_clears_and_reschedules(columnar):
    # step() is run(max_events=1): a callback that tears the queue down
    # and schedules follow-up work must still end the call after one
    # event, with the follow-up left queued.
    sim = Simulator(columnar=columnar)
    fired = []

    def teardown():
        fired.append("teardown")
        sim.clear()
        sim.schedule(0.0, fired.append, "follow-up")

    sim.schedule(1.0, teardown)
    sim.schedule(1.0, fired.append, "swept")
    assert sim.step()
    assert fired == ["teardown"]
    assert sim.pending_events == 1
    assert sim.step()
    assert not sim.step()
    assert fired == ["teardown", "follow-up"]


# ------------------------------------------------------ config plumbing


def test_overlay_rejects_columnar_mismatch():
    sim = Simulator()  # scalar engine
    inet = Internet(sim, RngRegistry(7))
    domain = inet.add_isp("isp", convergence_delay=10.0)
    domain.add_router("r0")
    domain.add_router("r1")
    domain.add_link("r0", "r1", 0.01, None, None)
    for name, router in (("h0", "r0"), ("h1", "r1")):
        inet.add_host(name, access_delay=0.0)
        inet.attach(name, "isp", router)
    with pytest.raises(ValueError):
        OverlayNetwork(inet, ["h0", "h1"], [("h0", "h1")],
                       OverlayConfig(columnar=True))


# ------------------------------------- end-to-end trace identity (fixed)


def _line_trace(columnar, loss_factory=None, run=3.0):
    scn = line_scenario(7, config=OverlayConfig(columnar=columnar),
                        loss_factory=loss_factory)
    sim = scn.sim
    scn.overlay.client("h5", 7)
    CbrSource(sim, scn.overlay.client("h0"), Address("h5", 7),
              rate_pps=25.0, duration=run).start()
    sim.run(until=sim.now + run + 0.5)
    return scn.overlay.trace, sim.events_processed


def test_columnar_trace_identity_composite_regression():
    # A Bernoulli child ahead of a Gilbert-Elliott child makes the
    # per-packet draw *before* the GE state advance; the loss stream is
    # consumed in that per-packet order on either engine.
    factory = lambda: CompositeLoss(
        BernoulliLoss(0.03),
        GilbertElliottLoss(mean_good=0.5, mean_bad=0.05,
                           good_loss=0.0, bad_loss=1.0),
    )
    scalar, scalar_events = _line_trace(False, factory)
    columnar, columnar_events = _line_trace(True, factory)
    assert diff_traces(columnar, scalar) is None
    assert scalar_events == columnar_events
