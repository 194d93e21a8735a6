"""Simulator-level snapshot primitives for the warm-start subsystem.

A converged overlay in steady state is *pure timer schedule*: every
queued event is an auto-periodic control timer (hello, failure-check,
LSU refresh, metric drift) — no datagrams in flight, no one-shot
continuations, no floods mid-propagation. :func:`quiesce` drives a
simulation to such an instant; the capture helpers then serialize the
clock and the live timer schedule, which ``Simulator.restore_clock``
and ``Simulator.adopt_periodic`` re-materialize into a **fresh**
:class:`~repro.sim.events.Simulator`, preserving the deterministic
(time, seq) total order: a restore re-uses the snapshot's exact seqs,
so the continuation is *seq-exact* — the restored run allocates the
same sequence numbers the straight-through run would have.

The orchestration that knows *what* the timers mean (which overlay
link's hello tick, which node's refresh) lives in
:mod:`repro.core.warmstart`; this module only knows the simulator.
"""

from __future__ import annotations

from repro.sim.events import PeriodicEvent, Simulator


class SnapshotError(RuntimeError):
    """Raised when a simulation cannot be quiesced or a snapshot's
    schedule does not match the simulator it is restored into."""


def pending_work_horizon(sim: Simulator) -> float | None:
    """Latest firing time of any live queued event that is *not* an
    auto-periodic timer, or ``None`` when only timer cadence remains."""
    horizon: float | None = None
    for event, live in sim.iter_queued():
        if not live or (event.periodic and event.auto):
            continue
        if horizon is None or event.time > horizon:
            horizon = event.time
    return horizon


def quiesce(sim: Simulator, max_rounds: int = 64) -> float:
    """Run ``sim`` forward until only auto-periodic timers remain
    queued, and return the quiesced instant.

    Each round runs to the latest pending non-timer event; timer ticks
    fired on the way may spawn new in-flight work (a hello tick queues
    its arrival chain), so the scan repeats until a round finds none.
    Converged control planes settle in two or three rounds — an
    arrival chain spawned by a tick lands well before the next tick.
    """
    for __ in range(max_rounds):
        horizon = pending_work_horizon(sim)
        if horizon is None:
            return sim.now
        sim.run(until=horizon)
    raise SnapshotError(
        f"simulation did not quiesce within {max_rounds} rounds — "
        "non-timer work keeps regenerating (in-flight traffic or a "
        "non-converged control plane cannot be snapshotted)"
    )


def queued_auto_timers(sim: Simulator) -> list[PeriodicEvent]:
    """Every live queued auto-periodic timer. Raises
    :class:`SnapshotError` if any live *non*-timer work is still queued
    — call :func:`quiesce` first."""
    timers: list[PeriodicEvent] = []
    for event, live in sim.iter_queued():
        if not live:
            continue
        if not (event.periodic and event.auto):
            raise SnapshotError(
                f"cannot snapshot: live non-timer work queued at "
                f"t={event.time:.6f} ({event!r})"
            )
        timers.append(event)
    return timers


def capture_clock(sim: Simulator) -> dict:
    """The simulator's clock/allocator/aggregate counters, JSON-shaped;
    the keys are :meth:`Simulator.restore_clock`'s parameters."""
    return {
        "now": sim._now,
        "seq": sim._seq,
        "processed": sim._processed,
        "timer_fired": sim.timer_fired,
        "timer_rearmed": sim.timer_rearmed,
    }


def timer_schedule(timer: PeriodicEvent) -> dict:
    """One armed auto-timer's schedule entry (JSON-shaped), re-armed by
    :meth:`Simulator.adopt_periodic` with its own seq."""
    return {
        "time": timer.time,
        "seq": timer.seq,
        "interval": timer.interval,
        "fired": timer.fired,
        "rearmed": timer.rearmed,
    }
