"""Unit tests for recurring timers and event recycling."""

import pytest

from repro.sim.events import SimulationError, Simulator

#: The recycled heap is the one engine; the ``[recycled]`` id is kept so
#: the suite reports these tests under their established names.
RECYCLED = pytest.mark.parametrize("engine", ["recycled"])


@RECYCLED
def test_periodic_fires_on_cadence(engine):
    sim = Simulator()
    times = []
    sim.schedule_periodic(0.5, lambda: times.append(sim.now))
    sim.run(until=2.25)
    assert times == [0.5, 1.0, 1.5, 2.0]


@RECYCLED
def test_periodic_first_offset(engine):
    sim = Simulator()
    times = []
    sim.schedule_periodic(1.0, lambda: times.append(sim.now), first=0.0)
    sim.run(until=2.5)
    assert times == [0.0, 1.0, 2.0]


@RECYCLED
def test_periodic_passes_args(engine):
    sim = Simulator()
    seen = []
    sim.schedule_periodic(1.0, lambda a, b: seen.append((a, b)), 7, "x")
    sim.run(until=2.0)
    assert seen == [(7, "x"), (7, "x")]


@RECYCLED
def test_periodic_counters(engine):
    sim = Simulator()
    timer = sim.schedule_periodic(1.0, lambda: None)
    sim.run(until=3.5)
    assert timer.fired == 3
    # The firing at t=3.0 re-armed for t=4.0 before `until` stopped us.
    assert timer.rearmed == 3
    assert sim.timer_stats() == {"timer.fired": 3, "timer.rearmed": 3}


@RECYCLED
def test_periodic_cancel_stops_future_firings(engine):
    sim = Simulator()
    times = []
    timer = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, timer.cancel)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]
    assert not timer.active


@RECYCLED
def test_periodic_self_cancel_suppresses_rearm(engine):
    sim = Simulator()
    times = []
    timer = sim.schedule_periodic(1.0, lambda: None)

    def tick():
        times.append(sim.now)
        if timer.fired >= 2:
            timer.cancel()

    timer.fn = tick
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


@RECYCLED
def test_cancel_while_queued_keeps_accounting(engine):
    sim = Simulator()
    timer = sim.schedule_periodic(1.0, lambda: None)
    one_shot = sim.schedule(5.0, lambda: None)
    timer.cancel()
    assert sim.pending_events == 1
    one_shot.cancel()
    assert sim.pending_events == 0
    sim.run(until=10.0)
    assert timer.fired == 0
    assert sim.pending_events == 0


@RECYCLED
def test_reschedule_changes_cadence(engine):
    sim = Simulator()
    times = []
    timer = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
    sim.schedule(2.5, timer.reschedule, 0.25)
    sim.run(until=3.2)
    assert times == [1.0, 2.0, 2.75, 3.0]


@RECYCLED
def test_reschedule_revives_cancelled_timer(engine):
    sim = Simulator()
    times = []
    timer = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
    timer.cancel()
    timer.reschedule(2.0)
    sim.run(until=5.0)
    assert times == [2.0, 4.0]


@RECYCLED
def test_rearm_after_clear(engine):
    sim = Simulator()
    times = []
    timer = sim.schedule_periodic(1.0, lambda: times.append(sim.now))
    sim.run(until=1.5)
    sim.clear()
    assert not timer.active
    sim.run(until=4.0)
    assert times == [1.0]  # cleared timers stay silent...
    timer.reschedule(1.0)  # ...until explicitly re-armed
    sim.run(until=6.5)
    assert times == [1.0, 5.0, 6.0]


@RECYCLED
def test_periodic_interleaves_with_one_shots_at_same_instant(engine):
    # A periodic firing at time T and one-shots scheduled for T must
    # run in seq order, exactly as if the timer were a chain of
    # one-shots ending with "schedule the next tick".
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "before")  # scheduled first
    sim.schedule_periodic(1.0, fired.append, "tick")
    sim.schedule(1.0, fired.append, "after")
    sim.schedule(2.0, fired.append, "next-round")
    sim.run(until=2.5)
    # The t=2.0 re-arm seq is allocated at the end of the t=1.0 firing,
    # so "next-round" (scheduled before that) outranks the second tick.
    assert fired == ["before", "tick", "after", "next-round", "tick"]


@RECYCLED
def test_manual_timer_arms_fires_once_and_rearms(engine):
    sim = Simulator()
    times = []
    timer = sim.timer(lambda: times.append(sim.now))
    assert not timer.active
    timer.reschedule(1.0)
    assert timer.active
    sim.run(until=5.0)
    assert times == [1.0]  # fires once, does not auto-re-arm
    assert not timer.active
    timer.reschedule(0.5)
    sim.run(until=6.0)
    assert times == [1.0, 5.5]


@RECYCLED
def test_manual_timer_cancel_before_firing(engine):
    sim = Simulator()
    fired = []
    timer = sim.timer(fired.append, "x")
    timer.reschedule(1.0)
    timer.cancel()
    sim.run(until=5.0)
    assert fired == []


def test_periodic_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_periodic(0.0, lambda: None)
    timer = sim.schedule_periodic(1.0, lambda: None)
    with pytest.raises(SimulationError):
        timer.reschedule(-1.0)


def test_repush_recycles_event_with_fresh_seq():
    sim = Simulator()
    fired = []

    def hop(n):
        fired.append((n, sim.now))
        if n < 3:
            # Recycle the just-fired event for the next leg of the
            # chain, the way the Internet walks a datagram hop-by-hop.
            sim.repush(event, sim.now + 0.5, None, (n + 1,))

    event = sim.schedule(1.0, hop, 1)
    old_seq = event.seq
    sim.run()
    assert fired == [(1, 1.0), (2, 1.5), (3, 2.0)]
    assert event.seq > old_seq


def test_repush_while_queued_raises():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.repush(event, 2.0)


def _trace() -> list:
    """A mixed workload: two periodic cadences, a self-cancelling
    timer, a manual timer, and one-shot chains, all recorded."""
    sim = Simulator()
    trace = []

    def record(tag):
        trace.append((round(sim.now, 9), tag))

    sim.schedule_periodic(0.3, record, "fast-tick")
    slow = sim.schedule_periodic(0.7, record, "slow-tick", first=0.1)
    sim.schedule(1.0, slow.reschedule, 0.4)
    manual = sim.timer(record, "manual")
    sim.schedule(0.45, manual.reschedule, 0.2)
    stopper = sim.schedule_periodic(0.5, record, "doomed")
    sim.schedule(1.6, stopper.cancel)

    def chain(n):
        record(f"chain-{n}")
        if n < 4:
            sim.schedule(0.35, chain, n + 1)

    sim.schedule(0.2, chain, 0)
    sim.run(until=3.0)
    return trace


def test_recycled_trace_is_deterministic():
    assert _trace() == _trace()
