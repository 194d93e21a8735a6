"""The underlay's hop chain: event budget and delivery instants.

A datagram that crosses ``k`` fibers costs ``k + 1`` simulator events —
one per router it is forwarded from plus the delivery itself; the
crossing of the last fiber goes straight to the delivery instant
(arrival + the destination's access delay) instead of through an event
that only adds that constant. When every crossing ahead is decided
(each fiber un-cut, jitter-free, uncapped and certain to pass: here,
loss-free) the hops add nothing but constants, and the whole transit
costs one event, the delivery: the send settles it, whatever the
sending host's access delay. The instants themselves must not have
moved:
``tests/golden/underlay_delivery_instants.json`` holds the ones the
k + 2 chain produced on the commit before the fold.

Regenerate (only when a change is *meant* to move delivery instants)::

    PYTHONPATH=src python tests/test_underlay_budget.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.alg.dijkstra import ShortestPathSearch
from repro.net import internet as internet_mod
from repro.net.internet import DROP_LINK, DROP_TTL
from repro.net.loss import BernoulliLoss
from repro.net.topologies import line_internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

GOLDEN = Path(__file__).parent / "golden" / "underlay_delivery_instants.json"
FIBERS = (1, 2, 4)
#: The sending host's access delays every count is checked at: on its
#: router, and one access hop away. Neither moves any count.
ACCESS = (0.0, 0.0007)
#: The heap is the one engine; the ``heap`` id is kept so the suite
#: reports these tests under their established names.
ENGINES = pytest.mark.parametrize("engine", ["heap"])


def _line(n_fibers: int, access: float = 0.0007, **kwargs):
    sim = Simulator()
    inet = line_internet(sim, RngRegistry(1601), n_hops=n_fibers, **kwargs)
    # Distinct access delays at either end, so the instants carry both
    # constants the chain adds.
    inet.hosts["h0"].access_delay = access
    inet.hosts[f"h{n_fibers}"].access_delay = 0.0011
    return sim, inet


def _instants(n_fibers: int) -> list[float]:
    """Delivery instants of eight datagrams sent 0.4 ms apart over a
    jittery, capacity-limited line (so queueing, serialization and the
    per-fiber noise draw are all inside the sums)."""
    sim, inet = _line(n_fibers, hop_delay=0.0101,
                      capacity_bps=2_000_000.0, jitter=0.003)
    got: list[float] = []
    for i in range(8):
        sim.schedule(
            0.0004 * i, inet.send, "h0", f"h{n_fibers}", i, 900 + 50 * i,
            "line", lambda d: got.append(sim.now),
        )
    sim.run()
    return got


#: What makes a fiber not quiet without moving the delivery instant: a
#: loss process that never fires is still a loss process, a queue
#: nothing waits in is still a queue (its 100-byte serialization time,
#: ~1 ns, sits far inside the approx below).
NOT_QUIET = {
    "loss": lambda link: setattr(link, "loss", BernoulliLoss(0.0)),
    "capacity": lambda link: setattr(link, "capacity_bps", 1e12),
}


def _send_one(sim, inet, n_fibers: int) -> int:
    got = []
    inet.send("h0", f"h{n_fibers}", "x", 100, "line", got.append)
    events = sim.run()
    assert [d.payload for d in got] == ["x"]
    assert sim.now == pytest.approx(
        inet.hosts["h0"].access_delay + 0.010 * n_fibers + 0.0011)
    assert inet.counters.get("datagrams-delivered") == 1
    for link in inet.isps["line"].links():
        assert (link.packets_carried, link.bytes_carried) == (1, 128)
    return events


@ENGINES
@pytest.mark.parametrize("n_fibers", FIBERS)
def test_delivered_datagram_costs_fibers_plus_one_events(n_fibers, engine):
    """A fiber that is not quiet makes the send queue the first hop and
    keeps every router up to it on the per-fiber walk — all of them
    when it is the last one; past it the rest of the line is a quiet
    transit again (two events when two or more fibers remain, which is
    what one or none cost anyway). From a host on its router or one
    access hop away alike."""
    for access in ACCESS:
        for why, spoil in NOT_QUIET.items():
            for at in range(n_fibers):
                sim, inet = _line(n_fibers, access)
                spoil(inet.isps["line"].link_between(f"r{at}", f"r{at + 1}"))
                assert _send_one(sim, inet, n_fibers) == min(
                    n_fibers + 1, at + 3), (access, why, at)


@ENGINES
@pytest.mark.parametrize("n_fibers", FIBERS + (7,))
@pytest.mark.parametrize("access", ACCESS)
def test_quiet_transit_costs_one_event(access, n_fibers, engine):
    """Settled at the send, one fiber or many: only the delivery."""
    assert _send_one(*_line(n_fibers, access), n_fibers) == 1


@ENGINES
@pytest.mark.parametrize("fiber", range(4))
def test_cut_at_the_send_instant_drops_a_datagram_settled_at_its_send(
        fiber, engine):
    """A cut scheduled for the send instant fires after the send but
    before the first hop the send used to queue (in the same instant,
    or one access delay later): the datagram settled at its send is put
    back at its source router and dies at the cut fiber when the walk
    reaches it, as it did with the first hop."""
    for access in ACCESS:
        sim, inet = _line(4, access)
        delivered, dropped = [], []
        sim.schedule_at(0.5, inet.send, "h0", "h4", "x", 100, "line",
                        delivered.append,
                        lambda d, reason: dropped.append((reason, sim.now)))
        sim.schedule_at(0.5, inet.isps["line"].fail_link, f"r{fiber}",
                        f"r{fiber + 1}")
        sim.run()
        at = 0.5 + access
        for __ in range(fiber):
            at = at + 0.010
        assert delivered == [] and dropped == [(DROP_LINK, at)], access
        links = [inet.isps["line"].link_between(f"r{i}", f"r{i + 1}")
                 for i in range(4)]
        assert [link.packets_carried for link in links] == \
            [1] * fiber + [0] * (4 - fiber)
        assert links[fiber].packets_dropped == 1


@ENGINES
@pytest.mark.parametrize("n_fibers", FIBERS)
def test_delivery_instants_match_the_parent_commit(n_fibers, engine):
    recorded = json.loads(GOLDEN.read_text())["instants"][str(n_fibers)]
    assert _instants(n_fibers) == recorded


@ENGINES
@pytest.mark.parametrize("n_fibers", FIBERS)
def test_loss_on_the_last_fiber_reaches_on_drop(n_fibers, engine):
    sim, inet = _line(n_fibers)
    last = inet.isps["line"].link_between(f"r{n_fibers - 1}", f"r{n_fibers}")
    last.failed = True  # tables still forward into it
    delivered, dropped = [], []
    inet.send("h0", f"h{n_fibers}", "x", 100, "line", delivered.append,
              lambda d, reason: dropped.append(reason))
    sim.run()
    assert delivered == [] and dropped == [DROP_LINK]
    assert inet.counters.get(f"drop:{DROP_LINK}") == 1
    assert inet.counters.get("datagrams-delivered") == 0


@ENGINES
def test_looped_datagram_still_dies_of_ttl(engine):
    sim, inet = _line(2)
    domain = inet.isps["line"]
    looped = ShortestPathSearch({}, "r2")  # no frontier: finished
    looped.prev.update({"r0": "r1", "r1": "r0"})  # a forwarding loop
    looped.done.update(looped.prev)
    domain._tables["r2"] = looped
    delivered, dropped = [], []
    inet.send("h0", "h2", "x", 100, "line", delivered.append,
              lambda d, reason: dropped.append(reason))
    # One event per router visited until the hop budget is spent.
    assert sim.run() == internet_mod._MAX_HOPS + 1
    assert delivered == [] and dropped == [DROP_TTL]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({
        "reason": (
            "Delivery instants of tests/test_underlay_budget.py::_instants, "
            "recorded on the commit before the underlay's egress trampoline "
            "was folded (k + 2 events per k-fiber transit): the committed "
            "proof that the k + 1 chain delivers at the same floats."
        ),
        "recorded_at": "44375e2 (parent of PR 16), default heap simulator",
        "instants": {str(k): _instants(k) for k in FIBERS},
    }, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
