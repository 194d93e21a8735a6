"""Differential tests of the quiet-transit lane.

On the exact tier a datagram whose every fiber crossing ahead is decided
(un-cut, jitter-free, uncapped, and its loss model certain to pass at
the crossing instant) settles them all at its send — or at a hop, with
two or more fibers to go — and rides one event to the delivery instant;
any underlay change puts every such datagram back on the per-fiber walk
(``_demote_transits``).
Both are held here against the walk they replaced — the parent commit's
``Internet._hop``, kept below as the oracle — datagram by datagram: the
same fate at the same float instant, the same fiber doing the dropping,
the same per-fiber totals once the queue has drained (and mid-run, less
the fibers the transits in flight have counted but not reached).

The end pins the walk's cost (``k + 1`` events up to the first spoiled
fiber) and the instants the ``k + 2`` chain produced before its egress
fold (``tests/golden/underlay_delivery_instants.json``).

Send and script instants are drawn as full-mantissa floats, so no two
chains tie on an exact instant: which of two same-instant events fires
first is the one thing the lane may change (DESIGN.md "Per-hop budget"),
and ``tests/test_golden_digests.py`` pins that case.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.alg.dijkstra import ShortestPathSearch
from repro.audit import Auditor
from repro.audit.invariants import check_datagram_conservation
from repro.net import internet as internet_mod
from repro.net.internet import (
    DROP_LINK,
    DROP_NO_ROUTE,
    DROP_TTL,
    NATIVE,
    Internet,
)
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.net.packet import HEADER_BYTES
from repro.net.topologies import line_internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

# ------------------------------------------------------------------ oracle


class WalkInternet(Internet):
    """The hop walk before quiet transits: ``Internet._hop`` without
    its one-step lane, and sends that always queue a first hop."""

    def _settle(self, *transit):
        return False

    def _hop(self, domain, router, dst_label, datagram, on_deliver, on_drop,
             hops):
        if router == dst_label:
            dst_host = self.hosts[datagram.dst]
            chain = datagram._chain
            if chain is not None:
                self.sim.repush(
                    chain, self.sim._now + dst_host.access_delay,
                    self._deliver, (datagram, on_deliver),
                )
            else:
                self.sim.schedule(
                    dst_host.access_delay, self._deliver, datagram, on_deliver
                )
            return
        if hops >= internet_mod._MAX_HOPS:
            self._drop(datagram, DROP_TTL, on_drop)
            return
        nxt = domain.next_hop(router, dst_label)
        if nxt is None:
            self._drop(datagram, DROP_NO_ROUTE, on_drop)
            return
        link, direction = domain.link_on_path(router, nxt)
        rng = link._loss_rng
        if rng is None:
            rng = link._loss_rng = self.rngs.stream(f"loss:{link.name}")
        arrival = link.traverse(
            self.sim._now, datagram.size + HEADER_BYTES, direction, rng)
        if arrival is None:
            self._drop(datagram, DROP_LINK, on_drop)
            return
        chain = datagram._chain
        if chain is not None:
            if nxt == dst_label:
                self.sim.repush(
                    chain, arrival + self.hosts[datagram.dst].access_delay,
                    self._deliver, (datagram, on_deliver),
                )
                return
            self.sim.repush(
                chain, arrival, None,
                (domain, nxt, dst_label, datagram, on_deliver, on_drop,
                 hops + 1),
            )
        else:
            self.sim.schedule_at(
                arrival, self._hop_cb, domain, nxt, dst_label, datagram,
                on_deliver, on_drop, hops + 1,
            )


class Fates:
    """What became of every datagram: one entry each, or the test fails."""

    def __init__(self, sim, links) -> None:
        self.sim = sim
        self.links = links
        self.seen = {link.name: 0 for link in links}
        self.fates: dict = {}

    def _record(self, payload, fate) -> None:
        assert payload not in self.fates, (payload, self.fates[payload], fate)
        self.fates[payload] = fate

    def deliver(self, datagram) -> None:
        self._record(datagram.payload, ("delivered", self.sim.now))

    def drop(self, datagram, reason) -> None:
        # on_drop runs inside the hop that lost it: the fiber whose
        # drop count moved since the last drop is the one that ate it.
        at = [link.name for link in self.links
              if link.packets_dropped != self.seen[link.name]]
        for link in self.links:
            self.seen[link.name] = link.packets_dropped
        self._record(datagram.payload, ("dropped", reason, self.sim.now, at))

    def totals(self) -> dict:
        return {link.name: (link.packets_carried, link.bytes_carried,
                            link.packets_dropped) for link in self.links}


def _conserved(inet) -> bool:
    return check_datagram_conservation(inet, Auditor(register=False))


def _reached_totals(sim, inet, fates) -> dict:
    """Per-fiber totals mid-run, less the lead of the quiet transits in
    flight: a transit counts all its fibers at its first hop, the walk
    counts each at the router before it — the first one, at the start
    instant, once the hop whose seq the transit carries has fired."""
    totals = {name: list(t) for name, t in fates.totals().items()}
    for event, live in sim.iter_queued():
        if live and event.fn is inet._deliver_cb and len(event.args) > 2:
            datagram, __, t0, profile, __, __, seq0 = event.args
            at = t0
            for link in profile.links:
                if at > sim.now or (at == sim.now and (
                        link is not profile.links[0] or seq0 > sim._firing)):
                    totals[link.name][0] -= 1
                    totals[link.name][1] -= datagram.size + HEADER_BYTES
                at = at + link.delay
    return {name: tuple(t) for name, t in totals.items()}


# ------------------------------------------------------- random scenarios

CONVERGE = 0.013
#: fiber kind -> (capacity_bps, loss factory, jitter, pre-cut); mostly
#: quiet, so that whole transits are and the script has some to demote.
KINDS = (
    *[lambda: (None, None, 0.0, False)] * 8,
    lambda: (None, BernoulliLoss(0.25), 0.0, False),
    lambda: (None, GilbertElliottLoss(mean_good=0.02, mean_bad=0.01,
                                      bad_loss=0.6), 0.0, False),
    lambda: (None, None, 0.0009, False),
    lambda: (400_000.0, None, 0.0, False),
    lambda: (None, None, 0.0, True),
)
#: script op -> what it does to (domain, fiber endpoints, link)
OPS = (
    lambda dom, a, b, link: dom.fail_link(a, b),
    lambda dom, a, b, link: dom.repair_link(a, b),
    lambda dom, a, b, link: setattr(link, "failed", True),
    lambda dom, a, b, link: setattr(link, "failed", False),
    lambda dom, a, b, link: setattr(link, "loss", BernoulliLoss(0.3)),
    lambda dom, a, b, link: setattr(link, "loss", NoLoss()),
    lambda dom, a, b, link: setattr(link, "loss", GilbertElliottLoss(
        mean_good=0.02, mean_bad=0.01, bad_loss=0.6)),
    lambda dom, a, b, link: dom._reconverge(),
    lambda dom, a, b, link: dom.notify_topology_changed(),
)


def _ring(cls, n, chords, kinds, seed):
    sim = Simulator()
    inet = cls(sim, RngRegistry(seed))
    domain = inet.add_isp("ring", convergence_delay=CONVERGE)
    fibers = sorted({tuple(sorted((f"r{i}", f"r{(i + d) % n}")))
                     for i in range(n) for d in (1,) + tuple(chords)
                     if i != (i + d) % n})
    cut = []
    for j, (a, b) in enumerate(fibers):
        capacity, loss, jitter, failed = KINDS[kinds[j % len(kinds)]]()
        link = domain.add_link(a, b, 0.0031 + 0.00047 * (j % 5), capacity,
                               loss, jitter=jitter)
        if failed:
            cut.append(link)
    for i in range(n):
        inet.add_host(f"h{i}", access_delay=0.0002 * (i % 3))
        inet.attach(f"h{i}", "ring", f"r{i}")
    for link in cut:
        link.failed = True  # after the build: the tables still use it
    return sim, inet, domain, fibers


def _play(cls, n, chords, kinds, sends, script, seed):
    sim, inet, domain, fibers = _ring(cls, n, chords, kinds, seed)
    fates = Fates(sim, domain.links())
    rnd = random.Random(seed)
    for i, (src, hop) in enumerate(sends):
        dst = (src + 1 + hop % (n - 1)) % n
        at = rnd.uniform(0.0, 0.06)
        if i % 2:
            sim.schedule_at(at, inet.send, f"h{src % n}", f"h{dst}", i,
                            200 + 37 * i, "ring", fates.deliver, fates.drop)
        else:
            chan = inet.channel(f"h{src % n}", f"h{dst}", "ring")
            sim.schedule_at(at, inet.send_via, chan, i, 200 + 37 * i,
                            fates.deliver, fates.drop)
    for op, j in script:
        a, b = fibers[j % len(fibers)]
        sim.schedule_at(rnd.uniform(0.0, 0.09), OPS[op], domain, a, b,
                        domain.link_between(a, b))
    sim.run(until=0.031)
    assert _conserved(inet)
    midway = _reached_totals(sim, inet, fates)
    sim.run()
    assert sim.pending_events == 0 and _conserved(inet)
    assert sorted(fates.fates) == list(range(len(sends)))
    return fates.fates, (midway, fates.totals()), sim.events_processed


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(5, 9),
    chords=st.lists(st.integers(2, 4), max_size=2, unique=True),
    kinds=st.lists(st.integers(0, len(KINDS) - 1), min_size=1, max_size=7),
    sends=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 7)),
                   min_size=4, max_size=40),
    script=st.lists(st.tuples(st.integers(0, len(OPS) - 1),
                              st.integers(0, 30)), max_size=10),
    seed=st.integers(0, 2**32),
)
def test_same_fates_as_the_hop_walk(n, chords, kinds, sends, script, seed):
    args = (n, chords, kinds, sends, script, seed)
    fates, totals, walked = _play(WalkInternet, *args)
    got_fates, got_totals, events = _play(Internet, *args)
    assert got_fates == fates
    assert got_totals == totals
    assert events <= walked


def test_the_random_scenarios_reach_the_lane_and_its_demotion():
    """The property above would hold trivially if nothing ever went
    express or was taken back: one fixed draw shows both happen."""
    args = (8, [3], [0], [(i, 3) for i in range(24)],
            [(0, 1), (4, 5), (7, 0), (1, 1)], 11)
    demotions = []
    demote = Internet._demote_transits

    def counting(self):
        before = self.sim._seq
        demote(self)
        demotions.append(self.sim._seq - before)

    Internet._demote_transits = counting
    try:
        fates, totals, events = _play(Internet, *args)
    finally:
        Internet._demote_transits = demote
    assert (fates, totals) == _play(WalkInternet, *args)[:2]
    assert events < _play(WalkInternet, *args)[2]
    assert sum(demotions) > 0  # transits were re-queued as plain hops


# -------------------------------------------------------------- unit cases


def _line(cls, n_fibers, converge=10.0):
    sim = Simulator()
    inet = line_internet(sim, RngRegistry(5), n_hops=n_fibers,
                         hop_delay=0.010, isp_convergence_delay=converge)
    if cls is not Internet:
        inet.__class__ = cls
        inet._hop_cb = inet._hop
    inet.hosts["h0"].access_delay = 0.0007
    inet.hosts[f"h{n_fibers}"].access_delay = 0.0011
    domain = inet.isps["line"]
    return sim, inet, domain, Fates(sim, domain.links())


def _both(n_fibers, act, converge=10.0, before=None):
    """Run ``act(sim, inet, domain, fates)`` (and ``before(domain)``
    ahead of the send) on the lane and on the walk; return the lane's
    outcome after checking it equals the walk's."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, n_fibers, converge)
        if before is not None:
            before(domain)
        inet.send("h0", f"h{n_fibers}", "x", 100, "line", fates.deliver,
                  fates.drop)
        act(sim, inet, domain, fates)
        sim.run()
        assert _conserved(inet)
        out.append((fates.fates, fates.totals(), sim.events_processed))
    assert out[0][:2] == out[1][:2]
    return out[0]


def _fiber(domain, i):
    return domain.link_between(f"r{i}", f"r{i + 1}")


def test_cut_ahead_of_the_datagram_drops_it_there():
    def act(sim, inet, domain, fates):
        # t = 0.0157: on fiber 1 (0.0107 .. 0.0207); fiber 3 is ahead.
        sim.schedule_at(0.0157, domain.fail_link, "r3", "r4")

    fates, totals, __ = _both(5, act)
    assert fates == {"x": ("dropped", DROP_LINK, 0.0007 + 0.010 + 0.010
                           + 0.010, ["line:r3-r4"])}
    assert [totals[f"line:r{i}-r{i + 1}"][0] for i in range(5)] \
        == [1, 1, 1, 0, 0]
    assert totals["line:r3-r4"] == (0, 0, 1)


def test_cut_on_the_fiber_it_is_on_does_not_touch_it():
    def act(sim, inet, domain, fates):
        # A packet already on the glass lands (the walk's crossing was
        # decided at the fiber's head) ...
        sim.schedule_at(0.0157, domain.fail_link, "r1", "r2")
        # ... and one on its last fiber stays a plain delivery event.
        sim.schedule_at(0.0457, domain.fail_link, "r4", "r5")

    fates, totals, events = _both(5, act)
    assert fates["x"][0] == "delivered"
    assert fates["x"][1] == pytest.approx(0.0007 + 0.050 + 0.0011)
    # The re-queued hop at r2, its transit's delivery (+ the two cuts
    # and their one reconvergence): the send settled the first hop.
    assert events == 2 + 3


def test_cut_behind_the_datagram_changes_nothing_for_it():
    def act(sim, inet, domain, fates):
        sim.schedule_at(0.0257, domain.fail_link, "r0", "r1")

    fates, totals, __ = _both(5, act)
    assert fates["x"][0] == "delivered"
    assert all(t == (1, 128, 0) for t in totals.values())


def test_repair_before_it_arrives_lets_it_through():
    def act(sim, inet, domain, fates):
        sim.schedule_at(0.0157, setattr, _fiber(domain, 3), "failed", True)
        sim.schedule_at(0.0297, setattr, _fiber(domain, 3), "failed", False)

    fates, totals, __ = _both(5, act)
    assert fates["x"] == ("delivered", 0.0007 + 0.010 + 0.010 + 0.010
                          + 0.010 + 0.010 + 0.0011)
    assert all(t == (1, 128, 0) for t in totals.values())


def test_loss_swap_ahead_is_drawn_at_the_crossing():
    def act(sim, inet, domain, fates):
        sim.schedule_at(0.0157, setattr, _fiber(domain, 2), "loss",
                        BernoulliLoss(1.0))

    fates, totals, __ = _both(5, act)
    assert fates["x"][:2] == ("dropped", DROP_LINK)
    assert fates["x"][3] == ["line:r2-r3"]


def test_reconvergence_that_shortens_the_remaining_path():
    """A square with a slow and a fast way round: the datagram starts
    down the slow one (the fast one's far fiber is cut), the cut is
    repaired and the domain reconverges while it is in flight — the
    next router forwards by the new tables."""
    out = []
    for cls in (Internet, WalkInternet):
        sim = Simulator()
        inet = cls(sim, RngRegistry(3))
        dom = inet.add_isp("sq", convergence_delay=0.004)
        for a, b, delay in (("a", "b", 0.010), ("b", "c", 0.010),
                            ("c", "d", 0.010), ("d", "e", 0.010),
                            ("b", "e", 0.003)):
            dom.add_link(a, b, delay)
        for name, router in (("src", "a"), ("dst", "e")):
            inet.add_host(name, access_delay=0.0)
            inet.attach(name, "sq", router)
        dom.fail_link("b", "e")
        sim.run(until=0.01)  # converged on a-b-c-d-e
        assert dom.current_path("a", "e") == ["a", "b", "c", "d", "e"]
        fates = Fates(sim, dom.links())
        inet.send("src", "dst", "x", 100, "sq", fates.deliver, fates.drop)
        sim.schedule_at(0.013, dom.repair_link, "b", "e")  # tables at .017
        sim.run()
        out.append((fates.fates, fates.totals()))
    assert out[0] == out[1]
    # Demoted at 0.013 on fiber a-b, re-queued at b for 0.020, which
    # forwards over the repaired 3 ms fiber.
    assert out[0][0] == {"x": ("delivered", 0.01 + 0.010 + 0.003)}
    assert out[0][1]["sq:b-c"] == (0, 0, 0)
    assert out[0][1]["sq:b-e"] == (1, 128, 0)


def test_fiber_wired_in_mid_flight_is_used_from_the_next_router():
    """``add_link_object`` converges at once: a shortcut added while
    the datagram is on its first fiber is taken at the second router."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, 5)
        inet.send("h0", "h5", "x", 100, "line", fates.deliver, fates.drop)
        sim.schedule_at(0.0057, domain.add_link, "r1", "r5", 0.004)
        sim.run()
        out.append((fates.fates, fates.totals()))
    assert out[0] == out[1]
    assert out[0][0] == {"x": ("delivered", 0.0007 + 0.010 + 0.004 + 0.0011)}
    assert out[0][1]["line:r1-r2"] == (0, 0, 0)


def test_cut_by_the_owning_isp_reaches_a_native_transit():
    """Fibers are shared with the interdomain domain: a cut made through
    the ISP demotes a transit riding the native carrier."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, 4)
        inet.send("h0", "h4", "x", 100, NATIVE, fates.deliver, fates.drop)
        sim.schedule_at(0.0157, inet.fail_fiber, "line", "r2", "r3")
        sim.run()
        out.append((fates.fates, fates.totals()))
    assert out[0] == out[1]
    assert out[0][0]["x"] == ("dropped", DROP_LINK, 0.0007 + 0.010 + 0.010,
                              ["line:r2-r3"])


@pytest.mark.parametrize("after_the_hop", [False, True])
@pytest.mark.parametrize("fiber", range(5))
@pytest.mark.parametrize("via", ["send", "send_via"])
def test_change_at_the_send_instant_of_a_host_on_its_router(
        fiber, after_the_hop, via):
    """A datagram from a host on its router is settled at its send,
    ahead of the first hop the walk would queue at that same instant.
    A cut at the send instant that comes before that hop in the
    instant's event order must still meet the datagram at its source
    router (a cut first fiber drops it there); one that comes after
    the hop finds it already on the glass."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, 5)
        inet.hosts["h0"].access_delay = 0.0
        cut = (domain.fail_link, f"r{fiber}", f"r{fiber + 1}")

        def send():
            if via == "send":
                inet.send("h0", "h5", "x", 100, "line", fates.deliver,
                          fates.drop)
            else:
                inet.send_via(inet.channel("h0", "h5", "line"), "x", 100,
                              fates.deliver, fates.drop)
            if after_the_hop:
                sim.schedule(0.0, *cut)

        sim.schedule_at(0.25, send)
        if not after_the_hop:
            sim.schedule_at(0.25, *cut)
        sim.run()
        assert _conserved(inet)
        out.append((fates.fates, fates.totals(), sim.events_processed))
    assert out[0][:2] == out[1][:2]
    assert out[0][2] <= out[1][2]
    fate = out[0][0]["x"]
    if fiber == 0 and after_the_hop:
        assert fate[0] == "delivered"
    else:
        assert fate[:2] == ("dropped", DROP_LINK)
        assert fate[3] == [f"line:r{fiber}-r{fiber + 1}"]


@pytest.mark.parametrize("ran_before", [False, True])
@pytest.mark.parametrize("fiber", range(5))
@pytest.mark.parametrize("via", ["send", "send_via"])
def test_change_between_runs_after_a_send_from_a_host_on_its_router(
        fiber, ran_before, via):
    """A send and a cut made outside a run — on a simulator that has
    not run yet, or after ``run(until=...)`` returned — come before the
    first hop the walk would queue for the send, so the cut still meets
    the datagram at its source router."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, 5)
        inet.hosts["h0"].access_delay = 0.0
        if ran_before:
            sim.run(until=0.25)
        if via == "send":
            inet.send("h0", "h5", "x", 100, "line", fates.deliver, fates.drop)
        else:
            inet.send_via(inet.channel("h0", "h5", "line"), "x", 100,
                          fates.deliver, fates.drop)
        domain.fail_link(f"r{fiber}", f"r{fiber + 1}")
        sim.run()
        assert _conserved(inet)
        out.append((fates.fates, fates.totals(), sim.events_processed))
    assert out[0][:2] == out[1][:2]
    assert out[0][2] <= out[1][2]
    fate = out[0][0]["x"]
    assert fate[:2] == ("dropped", DROP_LINK)
    assert fate[3] == [f"line:r{fiber}-r{fiber + 1}"]


def test_loss_swap_before_the_first_hop_of_a_send_settled_datagram():
    """A loss process given to a fiber ahead, at the send instant and
    before the first hop would have run, is drawn at its crossing."""
    out = []
    for cls in (Internet, WalkInternet):
        sim, inet, domain, fates = _line(cls, 5)
        inet.hosts["h0"].access_delay = 0.0
        for i in range(20):
            sim.schedule_at(0.25, inet.send, "h0", "h5", i, 100, "line",
                            fates.deliver, fates.drop)
        sim.schedule_at(0.25, setattr, _fiber(domain, 2), "loss",
                        BernoulliLoss(0.5))
        sim.run()
        out.append((fates.fates, fates.totals()))
    assert out[0] == out[1]
    assert 0 < sum(f[0] == "dropped" for f in out[0][0].values()) < 20


def test_ttl_edge():
    k = internet_mod._MAX_HOPS
    fates, __, events = _both(k, lambda *a: None)
    assert fates["x"][0] == "delivered" and events == 1
    fates, totals, events = _both(k + 1, lambda *a: None)
    assert fates["x"][:2] == ("dropped", DROP_TTL)
    assert events == k + 1  # never quiet *and* inside the hop budget
    assert totals[f"line:r{k}-r{k + 1}"] == (0, 0, 0)


def test_looped_tables_still_die_of_max_hops():
    def loop(domain):
        # A private poke no watcher sees: made before the send, which is
        # where the transit is decided.
        domain.next_hop("r0", "r3")
        looped = ShortestPathSearch({}, "r3")  # no frontier: finished
        looped.prev.update({"r0": "r1", "r1": "r2", "r2": "r1"})
        looped.done.update(looped.prev)
        domain._tables["r3"] = looped

    fates, __, events = _both(3, lambda *a: None, before=loop)
    assert fates["x"][:2] == ("dropped", DROP_TTL)
    assert events == internet_mod._MAX_HOPS + 1


def test_clear_with_transits_in_flight():
    sim, inet, domain, fates = _line(Internet, 5)
    for i in range(3):
        inet.send("h0", "h5", i, 100, "line", fates.deliver, fates.drop)
    sim.run(until=0.02)
    sim.clear()
    # Gone like any other in-flight event; nothing left to demote, and
    # the lane keeps working afterwards.
    domain.fail_link("r3", "r4")
    domain.repair_link("r3", "r4")
    assert sim.run(until=1.0) == 0 and fates.fates == {}
    inet.send("h0", "h5", "later", 100, "line", fates.deliver, fates.drop)
    assert sim.run(until=2.0) == 1
    assert fates.fates == {"later": ("delivered", 1.0 + 0.0007 + 0.050
                                     + 0.0011)}


# ------------------------------------------- walk cost and delivery instants

INSTANTS = Path(__file__).parent / "golden" / "underlay_delivery_instants.json"
FIBERS = (1, 2, 4)
#: The sending host's access delays the walk's cost is checked at: on
#: its router, and one access hop away. Neither moves any count.
ACCESS = (0.0, 0.0007)
#: What makes a fiber not quiet without moving the delivery instant: a
#: loss process that never fires is still a loss process, a queue
#: nothing waits in is still a queue (its 100-byte serialization time,
#: ~1 ns, sits far inside the approx below).
NOT_QUIET = {
    "loss": lambda link: setattr(link, "loss", BernoulliLoss(0.0)),
    "capacity": lambda link: setattr(link, "capacity_bps", 1e12),
}


def _send_one(n_fibers, access, spoil=None, at=0) -> int:
    """Events one datagram costs down a line from a host ``access``
    away from its router, fiber ``at`` spoiled by ``spoil``."""
    sim, inet, domain, fates = _line(Internet, n_fibers)
    inet.hosts["h0"].access_delay = access
    if spoil is not None:
        spoil(_fiber(domain, at))
    inet.send("h0", f"h{n_fibers}", "x", 100, "line", fates.deliver,
              fates.drop)
    events = sim.run()
    assert fates.fates == {"x": ("delivered", pytest.approx(
        access + 0.010 * n_fibers + 0.0011))}
    assert inet.counters.get("datagrams-delivered") == 1
    assert set(fates.totals().values()) == {(1, 128, 0)}
    return events


@pytest.mark.parametrize("n_fibers", FIBERS)
def test_delivered_datagram_costs_fibers_plus_one_events(n_fibers):
    """A fiber that is not quiet makes the send queue the first hop and
    keeps every router up to it on the per-fiber walk — all of them
    when it is the last one; past it the rest of the line is a quiet
    transit again (two events when two or more fibers remain, which is
    what one or none cost anyway). From a host on its router or one
    access hop away alike."""
    for access in ACCESS:
        for why, spoil in NOT_QUIET.items():
            for at in range(n_fibers):
                assert _send_one(n_fibers, access, spoil, at) == min(
                    n_fibers + 1, at + 3), (access, why, at)


@pytest.mark.parametrize("n_fibers", FIBERS + (7,))
@pytest.mark.parametrize("access", ACCESS)
def test_quiet_transit_costs_one_event(access, n_fibers):
    """Settled at the send, one fiber or many: only the delivery."""
    assert _send_one(n_fibers, access) == 1


@pytest.mark.parametrize("fiber", range(4))
def test_cut_at_the_send_instant_drops_a_datagram_settled_at_its_send(fiber):
    """A cut scheduled for the send instant fires after the send but
    before the first hop the send used to queue (in the same instant,
    or one access delay later): the datagram settled at its send is put
    back at its source router and dies at the cut fiber when the walk
    reaches it, as it did with the first hop."""
    for access in ACCESS:
        sim, inet, domain, fates = _line(Internet, 4)
        inet.hosts["h0"].access_delay = access
        sim.schedule_at(0.5, inet.send, "h0", "h4", "x", 100, "line",
                        fates.deliver, fates.drop)
        sim.schedule_at(0.5, domain.fail_link, f"r{fiber}", f"r{fiber + 1}")
        sim.run()
        at = 0.5 + access
        for __ in range(fiber):
            at = at + 0.010
        cut = f"line:r{fiber}-r{fiber + 1}"
        assert fates.fates == {"x": ("dropped", DROP_LINK, at, [cut])}, access
        assert [fates.totals()[f"line:r{i}-r{i + 1}"][0]
                for i in range(4)] == [1] * fiber + [0] * (4 - fiber)


@pytest.mark.parametrize("n_fibers", FIBERS)
def test_loss_on_the_last_fiber_reaches_on_drop(n_fibers):
    sim, inet, domain, fates = _line(Internet, n_fibers)
    _fiber(domain, n_fibers - 1).failed = True  # tables still forward into it
    inet.send("h0", f"h{n_fibers}", "x", 100, "line", fates.deliver,
              fates.drop)
    sim.run()
    assert fates.fates["x"][:2] == ("dropped", DROP_LINK)
    assert inet.counters.get(f"drop:{DROP_LINK}") == 1
    assert inet.counters.get("datagrams-delivered") == 0


@pytest.mark.parametrize("n_fibers", FIBERS)
def test_delivery_instants_match_the_parent_commit(n_fibers):
    """Eight datagrams sent 0.4 ms apart over a jittery,
    capacity-limited line (so queueing, serialization and the per-fiber
    noise draw are all inside the sums) land at the recorded floats."""
    sim = Simulator()
    inet = line_internet(sim, RngRegistry(1601), n_hops=n_fibers,
                         hop_delay=0.0101, capacity_bps=2_000_000.0,
                         jitter=0.003)
    inet.hosts["h0"].access_delay = 0.0007
    inet.hosts[f"h{n_fibers}"].access_delay = 0.0011
    got: list[float] = []
    for i in range(8):
        sim.schedule(
            0.0004 * i, inet.send, "h0", f"h{n_fibers}", i, 900 + 50 * i,
            "line", lambda d: got.append(sim.now),
        )
    sim.run()
    assert got == json.loads(INSTANTS.read_text())["instants"][str(n_fibers)]
