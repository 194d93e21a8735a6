"""Unit tests for the discrete-event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.audit import Auditor, check_heap_accounting
from repro.sim.events import SimulationError, Simulator
from repro.sim.trace import Counter


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(1.0, fired.append, name)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert fired == ["early"]
    assert sim.now == 2.0


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_late_events_survive_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.run(until=2.0)
    sim.run(until=10.0)
    assert fired == ["late"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert event.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(0.1, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_schedule_in_past_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_before_now_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_max_events_limits_processing():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    processed = sim.run(max_events=4)
    assert processed == 4
    assert fired == [0, 1, 2, 3]


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_step_skips_cancelled_events():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    event.cancel()
    assert sim.step()
    assert fired == ["b"]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    event = sim.schedule(2.0, lambda: None)
    event.cancel()
    assert sim.pending_events == 1


def test_clear_drops_pending_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.clear()
    sim.run()
    assert fired == []


def test_run_is_not_reentrant():
    sim = Simulator()
    failures = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            failures.append(True)

    sim.schedule(0.0, reenter)
    sim.run()
    assert failures == [True]


def test_callback_args_are_passed():
    sim = Simulator()
    seen = []
    sim.schedule(0.0, lambda a, b: seen.append((a, b)), 1, "two")
    sim.run()
    assert seen == [(1, "two")]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == len(delays)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0), st.booleans()),
        min_size=1,
        max_size=40,
    )
)
def test_property_cancelled_events_never_fire(items):
    sim = Simulator()
    fired = []
    for idx, (delay, cancel) in enumerate(items):
        event = sim.schedule(delay, fired.append, idx)
        if cancel:
            event.cancel()
    sim.run()
    expected = {idx for idx, (__, cancel) in enumerate(items) if not cancel}
    assert set(fired) == expected


def test_same_instant_schedule_from_a_callback_fires_last():
    # A callback scheduling at the current instant gets the largest seq
    # so far, so it fires after every event already queued for it.
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first", "second", "nested"]


def test_max_events_stops_mid_instant_and_resumes():
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule(1.0, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_iter_queued_reports_liveness():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda: None)
    victim = sim.schedule(1.0, lambda: None)
    victim.cancel()
    by_live = {}
    for event, live in sim.iter_queued():
        by_live.setdefault(live, []).append(event)
    assert by_live == {True: [keep], False: [victim]}


def test_compaction_during_a_drain_keeps_the_accounting():
    # One event at t=1 cancels 60 of the 100 events queued behind it at
    # the same instant, which trips the compaction threshold mid-run.
    sim = Simulator()
    fired = []
    victims = []
    sim.schedule(1.0, lambda: [v.cancel() for v in victims[:60]])
    victims.extend(sim.schedule(1.0, fired.append, i) for i in range(100))
    for i in range(10):
        sim.schedule(2.0, fired.append, 100 + i)
    sim.run(until=1.5)
    assert fired == list(range(60, 100))
    assert (sim.pending_events, sim._dead) == (10, 0)
    auditor = Auditor(counters=Counter(), register=False)
    assert check_heap_accounting(sim, auditor), auditor.report.format()
    sim.run()
    assert fired == list(range(60, 110))
    assert (sim.pending_events, sim._dead) == (0, 0)


def test_max_events_holds_when_a_callback_clears_and_reschedules():
    # step() is run(max_events=1): a callback that tears the queue down
    # and schedules follow-up work must still end the call after one
    # event, with the follow-up left queued.
    sim = Simulator()
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
