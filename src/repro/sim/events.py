"""Deterministic discrete-event scheduler.

The :class:`Simulator` owns the simulated clock and a binary-heap event
queue. Events fire in (time, insertion-order) order, so two events
scheduled for the same instant run in the order they were scheduled —
this makes every run fully deterministic given the same inputs. It is
the one event engine: every fidelity tier — exact, batched, fluid —
runs on it.

Events are cancellable: protocol code keeps the :class:`Event` handle
returned by :meth:`Simulator.schedule` and calls :meth:`Event.cancel`
(e.g. NM-Strikes cancels pending retransmission requests when the
missing packet arrives). Cancelled events stay in the heap until their
time comes — *lazy deletion* — but the simulator keeps a live count
(so :attr:`Simulator.pending_events` is O(1), not a queue scan) and
compacts the heap in one pass whenever cancelled entries outnumber
live ones, so retransmission-heavy scenarios cannot bloat the queue
with dead weight.

Recurring timers
----------------

Steady-state control planes are dominated by periodic work — link
ticks (a failure check, then a hello on every carrier), LSU
refreshes, ack/RTO scans. :meth:`Simulator.schedule_periodic` returns a
:class:`PeriodicEvent` that the run loop **re-arms by recycling the
same object**: after the callback returns, the event's ``(time, seq)``
is advanced (fresh ``seq``, so the deterministic total order is
preserved) and the object is pushed back onto the heap — no per-tick
allocation. :meth:`Simulator.timer` creates the manual-re-arm variant
used by protocol ack/RTO/tail timers: it stays dormant until
:meth:`PeriodicEvent.reschedule` arms it, fires once, and is re-armed
in place the next time the protocol needs it.

The heap holds ``(time, seq, event)`` entries rather than the events
themselves: heap sifting then compares floats and ints at C level
instead of calling a Python ``__lt__`` once per sift step, which is the
single largest cost in a steady-state run. ``seq`` is unique, so the
event object itself is never compared.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Queues smaller than this are never compacted — a rebuild would cost
#: more than the dead entries do.
COMPACT_MIN_QUEUE = 64


class SimulationError(RuntimeError):
    """Raised on misuse of the simulator (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Attributes:
        time: Simulated time at which the callback fires.
        fn: The callback.
        args: Positional arguments passed to the callback.
    """

    __slots__ = ("time", "seq", "fn", "args", "_cancelled", "_queued", "_sim")

    #: Class-level flag checked by the run loop; :class:`PeriodicEvent`
    #: overrides it (cheaper than an isinstance check per event).
    periodic = False

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Simulator | None" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._cancelled = False
        self._queued = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once
        (and after the event has already fired — a no-op then)."""
        if self._cancelled:
            return
        self._cancelled = True
        if self._queued and self._sim is not None:
            self._sim._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self._cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6f} {name} {state}>"


class PeriodicEvent(Event):
    """A recurring timer that recycles one heap entry across firings.

    Two flavors share this class:

    * ``auto=True`` (:meth:`Simulator.schedule_periodic`) — after each
      firing the run loop re-arms the event at ``time + interval`` with
      a fresh ``seq``, exactly as if the callback had ended with
      ``sim.schedule(interval, fn)`` — but mutating the same object
      instead of allocating a new one.
    * ``auto=False`` (:meth:`Simulator.timer`) — a dormant, recyclable
      one-shot: each :meth:`reschedule` arms one firing. This is the
      shape of protocol ack/NACK/RTO/tail timers, which are re-armed
      on demand rather than on a fixed cadence.

    ``cancel()`` stops future firings (for auto timers, the re-arm after
    a firing in progress is suppressed too); ``reschedule(interval)``
    re-arms a cancelled/dormant timer, or moves a queued one to
    ``now + interval``. ``fired`` / ``rearmed`` count this timer's
    callback invocations and re-arms; the simulator aggregates them in
    :attr:`Simulator.timer_fired` / :attr:`Simulator.timer_rearmed`.
    """

    __slots__ = ("interval", "auto", "fired", "rearmed")

    periodic = True

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: "Simulator", interval: float, auto: bool = True):
        super().__init__(time, seq, fn, args, sim=sim)
        self.interval = interval
        self.auto = auto
        self.fired = 0
        self.rearmed = 0

    @property
    def active(self) -> bool:
        """True while a firing is armed (queued and not cancelled)."""
        return self._queued and not self._cancelled

    def reschedule(self, interval: float) -> None:
        """(Re-)arm the timer: next firing at ``now + interval``. For
        auto timers this also becomes the new period. Works on dormant,
        cancelled, and still-queued timers alike (the queued firing is
        replaced); allocates a fresh ``seq`` so the deterministic
        (time, seq) order is identical to scheduling a fresh event."""
        if interval < 0:
            raise SimulationError(f"cannot reschedule into the past ({interval})")
        if self.auto and interval <= 0:
            raise SimulationError("auto-re-arming timers need a positive interval")
        sim = self._sim
        self.interval = interval
        if self._queued:
            # Remove BEFORE clearing _cancelled so the live/dead
            # accounting matches how the entry was counted.
            sim._remove_queued(self)
        self._cancelled = False
        self.time = sim._now + interval
        self.seq = sim._seq
        sim._seq += 1
        self._queued = True
        heapq.heappush(sim._queue, (self.time, self.seq, self))
        sim._live += 1
        self.rearmed += 1
        sim.timer_rearmed += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        state = "active" if self.active else "dormant"
        return (
            f"<PeriodicEvent {name} every {self.interval:.6f}s "
            f"{state} fired={self.fired}>"
        )


class Simulator:
    """Simulated clock plus event queue.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, node.send_hello)
        sim.schedule_periodic(0.1, link.hello_tick)
        sim.run(until=10.0)

    Args:
        columnar: Selects nothing: the heap is the one event engine.
            The parameter is kept only because ``perf/tiers.py`` still
            passes it; ROADMAP A's fidelity selector deletes it.
    """

    def __init__(self, columnar: bool = False) -> None:
        self._now = 0.0
        #: (time, seq, event) triples — C-level heap ordering.
        self._queue: list = []
        self._seq = 0
        self._running = False
        self._processed = 0
        self._live = 0  # queued events that are not cancelled
        self._dead = 0  # queued entries that are cancelled
        #: Teardown epoch: bumped by clear(). A periodic timer firing
        #: while clear() runs is not in the queue, so the cancellation
        #: sweep cannot reach it — the run loop compares this epoch
        #: around the callback and suppresses the re-arm instead.
        self._cleared = 0
        #: Where the run stands in the (time, seq) order at ``now``: the
        #: last seq fired — every event due at ``now`` with a seq no
        #: higher has fired, every one with a higher seq has not. Inside
        #: a run it is the seq of the event firing; between runs it is
        #: the last seq allocated (``-1`` before any), unless the run
        #: stopped on ``max_events`` (then the last seq fired). The
        #: underlay reads it to tell whether a step it settled ahead of
        #: its turn would have come up yet
        #: (``Internet._demote_transits``).
        self._firing = -1
        #: Aggregate periodic-timer counters (per-timer counts live on
        #: the :class:`PeriodicEvent` itself).
        self.timer_fired = 0
        self.timer_rearmed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live

    def timer_stats(self) -> dict[str, int]:
        """Aggregate periodic-timer counters, keyed ``timer.*``."""
        return {"timer.fired": self.timer_fired, "timer.rearmed": self.timer_rearmed}

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        event = Event(time, seq, fn, args, sim=self)
        event._queued = True
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = Event(time, self._seq, fn, args, sim=self)
        event._queued = True
        self._seq += 1
        heapq.heappush(self._queue, (time, event.seq, event))
        self._live += 1
        return event

    # -------------------------------------------------- recurring timers

    def schedule_periodic(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        first: float | None = None,
    ) -> PeriodicEvent:
        """Run ``fn(*args)`` every ``interval`` seconds, starting
        ``first`` seconds from now (default: one full interval). The
        returned timer re-arms itself after each firing by recycling
        the same event object — cancel it to stop the cadence,
        :meth:`PeriodicEvent.reschedule` to change it."""
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive ({interval})")
        delay = interval if first is None else first
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (first={first})")
        event = PeriodicEvent(
            self._now + delay, self._seq, fn, args, self, interval, auto=True
        )
        self._seq += 1
        event._queued = True
        heapq.heappush(self._queue, (event.time, event.seq, event))
        self._live += 1
        return event

    def timer(self, fn: Callable[..., Any], *args: Any) -> PeriodicEvent:
        """Create a dormant, recyclable one-shot timer. It fires once,
        ``interval`` seconds after each :meth:`PeriodicEvent.reschedule`
        call, and never re-arms itself — the shape of protocol
        ack/NACK/RTO timers, without a fresh :class:`Event` per arm."""
        return PeriodicEvent(self._now, 0, fn, args, self, 0.0, auto=False)

    # ------------------------------------------------- warm-start support

    def restore_clock(
        self,
        now: float,
        seq: int,
        processed: int = 0,
        timer_fired: int = 0,
        timer_rearmed: int = 0,
    ) -> None:
        """Fast-forward a **fresh** simulator to a snapshotted instant:
        clock, sequence allocator, and aggregate counters. Must run
        before any event is scheduled — the adopted timer schedule
        (:meth:`adopt_periodic`) carries seqs below ``seq``, and a
        simulator that already allocated seqs of its own would collide
        with them."""
        if self._queue or self._seq or self._now or self._processed:
            raise SimulationError("restore_clock requires a fresh simulator")
        if now < 0 or seq < 0:
            raise SimulationError(f"invalid snapshot clock ({now}, {seq})")
        self._now = now
        self._seq = seq
        self._firing = seq - 1
        self._processed = processed
        self.timer_fired = timer_fired
        self.timer_rearmed = timer_rearmed

    def adopt_periodic(
        self,
        time: float,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        seq: int,
        fired: int = 0,
        rearmed: int = 0,
    ) -> PeriodicEvent:
        """Re-materialize a snapshotted auto-periodic timer: queued at
        absolute ``time`` with its snapshotted ``seq``, which must lie
        below the restored allocator (:meth:`restore_clock`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot adopt a timer at {time} before current time {self._now}"
            )
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive ({interval})")
        if seq >= self._seq:
            raise SimulationError(
                f"adopted seq {seq} not below the restored allocator {self._seq}"
            )
        event = PeriodicEvent(time, seq, fn, args, self, interval, auto=True)
        event.fired = fired
        event.rearmed = rearmed
        event._queued = True
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def repush(
        self,
        event: Event,
        time: float,
        fn: Callable[..., Any] | None = None,
        args: tuple | None = None,
    ) -> Event:
        """Recycle a just-fired one-shot ``event`` for its continuation:
        re-queue the same object at absolute ``time`` with a fresh
        ``seq`` (optionally retargeting ``fn``/``args``). The caller
        must own the event and it must not be queued — this is the
        internal fast path for event chains like the internet's
        hop-by-hop datagram walk."""
        if event._queued:
            raise SimulationError("cannot repush an event that is still queued")
        if time < self._now:
            raise SimulationError(
                f"cannot repush at {time} before current time {self._now}"
            )
        event.time = time
        seq = event.seq = self._seq
        self._seq = seq + 1
        if fn is not None:
            event.fn = fn
        if args is not None:
            event.args = args
        event._cancelled = False
        event._queued = True
        heapq.heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def requeue(self, event: Event, time: float, fn: Callable[..., Any],
                *args: Any) -> Event:
        """Replace the queued one-shot ``event`` by ``fn(*args)`` at
        absolute ``time`` under the event's own ``seq`` — the place in
        the (time, seq) order it was given when scheduled. The old entry
        is cancelled (lazily deleted, or removed outright when it would
        tie with the new one); returns the new event."""
        if not event._queued or event._cancelled:
            raise SimulationError("can only requeue a queued, live event")
        if time < self._now:
            raise SimulationError(
                f"cannot requeue at {time} before current time {self._now}"
            )
        if time == event.time:
            self._remove_queued(event)
        else:
            event.cancel()
        new = Event(time, event.seq, fn, args, sim=self)
        new._queued = True
        heapq.heappush(self._queue, (time, new.seq, new))
        self._live += 1
        return new

    # ----------------------------------------------------- queue hygiene

    def _on_cancel(self) -> None:
        """A queued event was cancelled: adjust the live/dead counts and
        compact the heap once dead entries dominate."""
        self._live -= 1
        self._dead += 1
        size = len(self._queue)
        if self._dead * 2 > size and size >= COMPACT_MIN_QUEUE:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled events. ``heapify`` keeps
        pop order deterministic because (time, seq) is a total order."""
        for __, __, event in self._queue:
            if event._cancelled:
                event._queued = False
        self._queue = [e for e in self._queue if not e[2]._cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def _remove_queued(self, event: Event) -> None:
        """Hard-remove one queued event from the heap (O(n); rare —
        only a reschedule of a still-armed timer needs it)."""
        # The entry still carries the event's current (time, seq):
        # reschedule removes before mutating either.
        self._queue.remove((event.time, event.seq, event))
        heapq.heapify(self._queue)
        event._queued = False
        if event._cancelled:
            self._dead -= 1
        else:
            self._live -= 1

    # ------------------------------------------------------------ running

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` fire. Returns the number of events processed by
        this call. The clock is advanced to ``until`` if given, even if
        the queue drains earlier.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            # self._queue is re-read each iteration on purpose: a
            # callback can trigger _compact(), which rebinds it. Heap
            # entries are (time, seq, event) — ordered at C level.
            while self._queue:
                entry = self._queue[0]
                if until is not None and entry[0] > until:
                    break
                heappop(self._queue)
                event = entry[2]
                event._queued = False
                if event._cancelled:
                    self._dead -= 1
                    continue
                self._live -= 1
                self._now = entry[0]
                self._firing = entry[1]
                if event.periodic:
                    event.fired += 1
                    self.timer_fired += 1
                    epoch = self._cleared
                    event.fn(*event.args)
                    if (
                        event.auto
                        and epoch == self._cleared
                        and not (event._cancelled or event._queued)
                    ):
                        # Re-arm in place: same object, fresh seq —
                        # identical order to scheduling a new event at
                        # the end of the callback, without allocating.
                        time = event.time = event.time + event.interval
                        seq = event.seq = self._seq
                        self._seq = seq + 1
                        event._queued = True
                        heappush(self._queue, (time, seq, event))
                        self._live += 1
                        event.rearmed += 1
                        self.timer_rearmed += 1
                else:
                    event.fn(*event.args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._processed += processed
            self._running = False
            if max_events is None or processed < max_events:
                self._firing = self._seq - 1
        if until is not None and self._now < until:
            self._now = until
        return processed

    def step(self) -> bool:
        """Run a single (non-cancelled) event. Returns False if none left."""
        return self.run(max_events=1) == 1

    def iter_queued(self):
        """Yield ``(event, live)`` for every queue entry, in no
        particular order — the audit checkers' view of the queue.
        ``live`` is False for lazily deleted (cancelled) entries."""
        for entry in self._queue:
            yield entry[2], not entry[2]._cancelled

    def clear(self) -> None:
        """Drop all pending events (the clock is left as-is). Periodic
        timers are cancelled — re-arm survivors with ``reschedule``.
        Safe to call from inside a callback: the teardown epoch bump
        suppresses the auto re-arm of the timer currently firing (which
        is not in the queue, so the sweep below cannot cancel it)."""
        self._cleared += 1
        for __, __, event in self._queue:
            event._queued = False
            if event.periodic:
                event._cancelled = True
        self._queue.clear()
        self._live = 0
        self._dead = 0
