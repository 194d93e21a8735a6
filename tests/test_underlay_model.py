"""The exact underlay held to the hop walk by a model-checked oracle.

A hypothesis state machine drives twin stacks — the exact tier
(``Internet``, quiet transits settled at the send or at a hop and
demoted on any change) and the plain per-fiber walk (``WalkInternet``
from ``tests/test_transit_express.py``) — through the same rules:

* sends and channel sends from hosts with zero and nonzero access
  delay, made between runs or from a callback;
* the fiber and table changes of ``OPS``, between runs or from a
  callback;
* ``run(until)``, ``run(max_events)`` and ``step``;
* markers: scheduled, cancelled, cancelling or clearing the simulator
  from their callback, and one rule aiming a marker at the exact
  delivery instant of a datagram in flight;
* a start on a fresh simulator or on one fast-forwarded by
  ``restore_clock``.

Sends, changes, markers and run boundaries sit on a coarse grid of
``GRID`` seconds so that they tie; fiber delays stay off it, so two
chains never tie at an intermediate hop (that case is out of scope).
After every rule both stacks must show the same fates (delivery
instant, or drop reason, instant and fiber), internet counters,
per-fiber totals (less the lead of the quiet transits in flight, and
of those a clear dropped), heap accounting and datagram conservation,
and the same order of observable callbacks — except the case DESIGN.md
"Per-hop budget" documents: an event allocated between a send and the
hop whose seq its delivery takes over, due at the delivery's exact
instant, fires after the delivery. That case is counted, not failed.

``REPRO_UNDERLAY_MODEL_EXAMPLES`` sets the number of examples (50 by
default); ``REPRO_AUDIT=1`` also arms the ``transit-express`` and
``underlay-table`` audits on every settle step of the exact stack.
"""

from __future__ import annotations

import os
from collections import Counter

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.audit import Auditor
from repro.audit.invariants import (
    _in_flight_datagrams,
    audit_enabled,
    audit_transits,
    check_datagram_conservation,
    check_heap_accounting,
)
from repro.net.internet import Internet
from repro.net.loss import GilbertElliottLoss
from tests.test_transit_express import (
    KINDS,
    OPS,
    Fates,
    WalkInternet,
    _reached_totals,
    _ring,
)

#: Spacing of the instants sends, changes, markers and run boundaries
#: fall on (dyadic, so grid sums stay exact floats).
GRID = 1 / 256
#: The clock a ``restore_clock`` start fast-forwards to.
RESTORED_AT, RESTORED_SEQ = 2.5, 1000

EXAMPLES = int(os.environ.get("REPRO_UNDERLAY_MODEL_EXAMPLES", "50"))
#: Examples of the fixed-seed reach test.
REACH_EXAMPLES = 300

#: How often the machine reached each arm (see
#: ``test_the_machine_reaches_every_arm``), across every example run in
#: this process.
REACH: Counter = Counter()


def _on_grid(t: float) -> bool:
    return (t / GRID).is_integer()


def _agree(what: str, lane, walk) -> None:
    """Fail with the first difference only: the whole structures can be
    large, and a failing machine is replayed many times while it
    shrinks."""
    if lane == walk:
        return
    if isinstance(lane, dict) and isinstance(walk, dict):
        key = next(k for k in sorted(lane.keys() | walk.keys(), key=repr)
                   if lane.get(k) != walk.get(k))
        raise AssertionError(f"{what} differ at {key!r}: exact tier "
                             f"{lane.get(key)!r}, walk {walk.get(key)!r}")
    raise AssertionError(f"{what} differ: exact tier {lane!r}, walk {walk!r}")


def _head(sim) -> float | None:
    """The instant of the next live event, or None."""
    times = [event.time for event, live in sim.iter_queued() if live]
    return min(times) if times else None


class _Stack:
    """One of the twins: a ring underlay plus what its callbacks saw."""

    def __init__(self, cls, n, chords, kinds, seed, restored) -> None:
        self.sim, self.inet, self.domain, self.fibers = _ring(
            cls, n, chords, kinds, seed)
        if restored:
            self.sim.restore_clock(RESTORED_AT, RESTORED_SEQ)
        self.n = n
        self.fates = Fates(self.sim, self.domain.links())
        #: (label, instant, seq of the event firing) per observable
        #: callback, in firing order.
        self.log: list[tuple[str, float, int]] = []
        #: datagram payload -> the simulator's next seq at its send.
        self.sent_seq: dict[int, int] = {}
        self.markers: dict[str, object] = {}
        #: Datagrams a clear dropped in flight, and the per-fiber lead
        #: their quiet transits had counted but never reached.
        self.cleared = 0
        self.cleared_lead = {name: [0, 0, 0] for name in self.fates.totals()}

    def _note(self, label: str) -> None:
        self.log.append((label, self.sim._now, self.sim._firing))

    def last_fired_observable(self) -> bool:
        return bool(self.log) and self.log[-1][2] == self.sim._firing \
            and self.log[-1][1] == self.sim._now

    # ------------------------------------------------------ callbacks

    def deliver(self, datagram) -> None:
        self.fates.deliver(datagram)
        self._note(f"dlv:{datagram.payload}")

    def drop(self, datagram, reason) -> None:
        self.fates.drop(datagram, reason)
        self._note(f"drop:{datagram.payload}")

    def send(self, i: int, src: int, dst: int, via: str) -> None:
        self.sent_seq[i] = self.sim._seq
        size = 200 + 37 * (i % 23)
        if via == "send":
            self.inet.send(f"h{src}", f"h{dst}", i, size, "ring",
                           self.deliver, self.drop)
        else:
            self.inet.send_via(self.inet.channel(f"h{src}", f"h{dst}", "ring"),
                               i, size, self.deliver, self.drop)

    def send_cb(self, i: int, src: int, dst: int, via: str) -> None:
        self._note(f"send:{i}")
        self.send(i, src, dst, via)

    def change(self, op: int, j: int) -> None:
        a, b = self.fibers[j % len(self.fibers)]
        OPS[op](self.domain, a, b, self.domain.link_between(a, b))

    def change_cb(self, k: int, op: int, j: int) -> None:
        self._note(f"op:{k}")
        self.change(op, j)

    def mark(self, label: str, action: str, target: str) -> None:
        self._note(f"mark:{label}")
        if action == "chain":
            self.markers[f"{label}+"] = self.sim.schedule(
                float(target) * GRID, self.mark, f"{label}+", "none", "")
        elif action == "cancel" and target in self.markers:
            self.markers[target].cancel()
        elif action == "clear":
            reached = _reached_totals(self.sim, self.inet, self.fates)
            for name, totals in self.fates.totals().items():
                for k in range(3):
                    self.cleared_lead[name][k] += totals[k] - reached[name][k]
            self.cleared += _in_flight_datagrams(self.inet)
            self.sim.clear()

    # ------------------------------------------------------ what is compared

    def totals(self) -> dict:
        reached = _reached_totals(self.sim, self.inet, self.fates)
        return {name: tuple(r - c for r, c in zip(t, self.cleared_lead[name]))
                for name, t in reached.items()}

    def accounted(self) -> bool:
        if not self.cleared:
            return check_datagram_conservation(self.inet, Auditor(register=False))
        counters = self.inet.counters.as_dict()
        dropped = sum(v for name, v in counters.items()
                      if name.startswith("drop:"))
        return counters.get("datagrams-sent", 0) == (
            counters.get("datagrams-delivered", 0) + dropped
            + _in_flight_datagrams(self.inet) + self.cleared)


class UnderlayModel(RuleBasedStateMachine):
    """Twin ``Internet`` / ``WalkInternet`` stacks under one script."""

    def __init__(self) -> None:
        super().__init__()
        self.lane: _Stack | None = None
        self.walk: _Stack | None = None
        self.auditor: Auditor | None = None
        self.ids = 0
        self.compared = 0  # log entries whose order is already checked
        self.sent_between = None  # instant of the last send between runs

    def _both(self):
        return (self.lane, self.walk)

    def _id(self) -> int:
        self.ids += 1
        return self.ids

    def _at(self, steps: int) -> float:
        return self.lane.sim.now + steps * GRID

    @initialize(
        n=st.integers(5, 9),
        chords=st.lists(st.integers(2, 4), max_size=2, unique=True),
        kinds=st.lists(st.integers(0, len(KINDS) - 1), min_size=1, max_size=7),
        seed=st.integers(0, 2**32),
        restored=st.booleans(),
    )
    def build(self, n, chords, kinds, seed, restored) -> None:
        self.lane = _Stack(Internet, n, chords, kinds, seed, restored)
        self.walk = _Stack(WalkInternet, n, chords, kinds, seed, restored)
        if audit_enabled():
            self.auditor = Auditor(register=False, sample_every=1)
            audit_transits(self.lane.inet, self.auditor)

    # ------------------------------------------------------------ rules

    @rule(src=st.integers(0, 8), hop=st.integers(0, 7),
          via=st.sampled_from(("send", "send_via")),
          later=st.none() | st.integers(0, 4))
    def send(self, src, hop, via, later) -> None:
        n = self.lane.n
        src %= n
        dst = (src + 2 + hop % (n - 3)) % n  # not a ring neighbour
        i = self._id()
        for stack in self._both():
            if later is None:
                stack.send(i, src, dst, via)
            else:
                stack.sim.schedule_at(self._at(later), stack.send_cb, i, src,
                                      dst, via)
        if later is None:
            self.sent_between = self.lane.sim.now

    @rule(op=st.integers(0, len(OPS) - 1), j=st.integers(0, 30),
          later=st.none() | st.integers(0, 4))
    def change(self, op, j, later) -> None:
        if later is None and self.sent_between == self.lane.sim.now:
            REACH["send and change between runs"] += 1
        k = self._id()
        for stack in self._both():
            if later is None:
                stack.change(op, j)
            else:
                stack.sim.schedule_at(self._at(later), stack.change_cb, k, op, j)

    @rule(later=st.integers(0, 4),
          action=st.sampled_from(("none", "chain", "cancel", "clear")),
          arg=st.integers(0, 2))
    def marker(self, later, action, arg) -> None:
        k = self._id()
        # chain: the follow-up's delay in grid steps; cancel: a recent id.
        target = str(arg) if action == "chain" else str(k - 1 - arg)
        for stack in self._both():
            stack.markers[str(k)] = stack.sim.schedule_at(
                self._at(later), stack.mark, str(k), action, target)

    @rule(back=st.integers(0, 3))
    def cancel(self, back) -> None:
        target = str(self.ids - back)
        for stack in self._both():
            if target in stack.markers:
                stack.markers[target].cancel()

    def _deliveries_ahead(self) -> list[float]:
        lane = self.lane
        return sorted(event.time for event, live in lane.sim.iter_queued()
                      if live and event.fn is lane.inet._deliver_cb
                      and event.time > lane.sim.now)

    @precondition(lambda self: self.lane is not None and self._deliveries_ahead())
    @rule(data=st.data())
    def aim(self, data) -> None:
        """A marker due at the exact instant a datagram in flight lands."""
        at = data.draw(st.sampled_from(self._deliveries_ahead()))
        k = self._id()
        for stack in self._both():
            stack.markers[str(k)] = stack.sim.schedule_at(
                at, stack.mark, str(k), "none", "")

    @rule(steps=st.integers(0, 3))
    def run_until(self, steps) -> None:
        until = self._at(steps)
        for stack in self._both():
            stack.sim.run(until=until)

    def _grid_head(self) -> bool:
        if self.lane is None:
            return False
        head = _head(self.lane.sim)
        return head is not None and _on_grid(head)

    @precondition(_grid_head)
    @rule(k=st.integers(1, 4))
    def run_max_events(self, k) -> None:
        self._stop_after(k)

    @precondition(_grid_head)
    @rule()
    def step(self) -> None:
        self._stop_after(1)

    def _stop_after(self, k: int) -> None:
        """Fire ``k`` events of the next grid instant on the exact stack
        (fewer if the instant holds fewer), then bring the walk to the
        same place: past the same observable callbacks. The walk has
        more events (one per fiber), so ``max_events`` cannot be passed
        to both."""
        lane, walk = self._both()
        at = _head(lane.sim)
        due = sum(1 for event, live in lane.sim.iter_queued()
                  if live and event.time == at)
        lane.sim.run(max_events=min(k, due))
        while not lane.last_fired_observable() and _head(lane.sim) == at:
            lane.sim.step()
        if not lane.last_fired_observable():
            # The instant ran out on a silent event: finish it on both.
            for stack in self._both():
                stack.sim.run(until=at)
            return
        while len(walk.log) < len(lane.log) and walk.sim.step():
            pass
        if _head(lane.sim) == at:
            REACH["max_events stop mid-instant"] += 1

    # ------------------------------------------------------- invariants

    @invariant()
    def twins_agree(self) -> None:
        if self.lane is None:
            return
        lane, walk = self._both()
        _agree("clocks", lane.sim.now, walk.sim.now)
        _agree("fates", lane.fates.fates, walk.fates.fates)
        _agree("counters", lane.inet.counters.as_dict(),
               walk.inet.counters.as_dict())
        _agree("fiber totals", lane.totals(), walk.totals())
        for name, stack in (("exact tier", lane), ("walk", walk)):
            if not check_heap_accounting(stack.sim, Auditor(register=False)):
                raise AssertionError(f"heap accounting fails on the {name}")
            if not stack.accounted():
                raise AssertionError(f"datagram conservation fails on the {name}")
        self._same_order()
        if self.auditor is not None:
            _agree("audit violations", self.auditor.report.violations, [])

    def _same_order(self) -> None:
        """The callbacks since the last check fired in the same order on
        both stacks, but for the documented case, which is counted."""
        lane = self.lane.log[self.compared:]
        walk = self.walk.log[self.compared:]
        _agree("callbacks fired", Counter(entry[:2] for entry in lane),
               Counter(entry[:2] for entry in walk))
        place = {label: (i, seq) for i, (label, __, seq) in enumerate(walk)}
        for i, (first, at, __) in enumerate(lane):
            for then, then_at, __ in lane[i + 1:]:
                if then_at != at:
                    break
                if place[first][0] < place[then][0]:
                    continue
                # Swapped: only a delivery the exact tier allocated at
                # the send (or at a hop) may come before an event the
                # walk allocated after that send.
                documented = first.startswith("dlv:") and place[then][1] \
                    > self.walk.sent_seq[int(first[4:])]
                if not documented:
                    raise AssertionError(
                        f"at {at!r} the exact tier fires {first} before "
                        f"{then}, the walk after")
                REACH["documented case"] += 1
        self.compared = len(self.lane.log)

    def teardown(self) -> None:
        if self.lane is None:
            return
        for stack in self._both():
            stack.sim.run()
        self.twins_agree()
        _agree("pending events", self.lane.sim.pending_events,
               self.walk.sim.pending_events)


def _run_machine(examples: int) -> None:
    run_state_machine_as_test(UnderlayModel, settings=settings(
        max_examples=examples, stateful_step_count=40, deadline=None,
        derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow,
                               HealthCheck.filter_too_much]))


def test_twin_stacks_agree():
    REACH.clear()
    _run_machine(EXAMPLES)
    print(f"underlay model: {EXAMPLES} examples, "
          f"{REACH['documented case']} documented-case swaps, "
          f"{dict(sorted(REACH.items()))}")


def test_the_machine_reaches_every_arm(monkeypatch):
    """The agreement above would hold trivially if the script never
    reached the exact tier's one-step arms: a fixed-seed run shows it
    settles at the send (also from a host with access delay), settles
    over a Gilbert–Elliott fiber inside its drawn loss-free state,
    demotes a send-settled transit at its start hop's instant both
    before and after that hop and back to a start hop still ahead,
    sends and changes between runs, stops ``max_events`` inside an
    instant, and meets the documented case."""
    settle, demote = Internet._settle, Internet._demote_transits

    def counting_settle(self, key, datagram, on_deliver, on_drop, hops, chain,
                        start):
        settled = settle(self, key, datagram, on_deliver, on_drop, hops, chain,
                         start)
        if settled and chain is None:
            REACH["settle at the send"] += 1
            if start > self.sim.now:
                REACH["settle at the send from a host with access delay"] += 1
        if settled and any(type(link.loss) is GilbertElliottLoss
                           for link in datagram._chain.args[3].links):
            REACH["settle over a GE fiber in its drawn state"] += 1
        return settled

    def counting_demote(self):
        sim = self.sim
        for event, live in sim.iter_queued():
            if not live or event.fn is not self._deliver_cb \
                    or len(event.args) == 2 or event.seq != event.args[-1]:
                continue
            # A transit settled at its send, carrying its start hop's
            # instant and seq.
            if event.args[2] > sim.now:
                REACH["demoted back to a start hop still ahead"] += 1
            elif event.args[2] == sim.now:
                REACH["demoted before its first hop" if sim._firing < event.seq
                      else "demoted after its first hop"] += 1
        demote(self)

    monkeypatch.setattr(Internet, "_settle", counting_settle)
    monkeypatch.setattr(Internet, "_demote_transits", counting_demote)
    REACH.clear()
    _run_machine(REACH_EXAMPLES)
    arms = ("settle at the send",
            "settle at the send from a host with access delay",
            "settle over a GE fiber in its drawn state",
            "demoted before its first hop", "demoted after its first hop",
            "demoted back to a start hop still ahead",
            "send and change between runs", "max_events stop mid-instant",
            "documented case")
    assert {arm: REACH[arm] for arm in arms if not REACH[arm]} == {}
