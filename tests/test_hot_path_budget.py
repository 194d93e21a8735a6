"""Event budget of the data-plane hot path (a count, never host time).

One overlay hop of a data frame costs three simulator events on the
exact tier — underlay injection at the sender's router, delivery to the
neighbour, the node's processing delay — and protocol control (acks,
NACKs, pacing) plus the overlay's own hellos add a fixed overhead on
top. This guard runs a small fixed-seed scenario that uses every link
protocol and a multicast stream and holds events per delivered datagram
and per delivered message under a budget, so an extra event on the
per-hop path fails tier-1 here instead of showing up as a slower
benchmark later. The counts repeat exactly for a fixed seed.

A second scenario pins the underlay's share on its own: a small loss-free
mesh whose every overlay link rides five quiet fibers (the benchmark's
mesh in miniature) from hosts on their routers, where a datagram costs
one underlay event however many fibers it crosses.
"""

from __future__ import annotations

from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, ServiceSpec
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.net.topologies import US_CITIES, site_name
from repro.protocols import registered_protocols
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

SEED = 1612
WINDOW_S = 2.0
RATE_PPS = 100.0
GROUP = "mcast:budget"

#: Measured on this scenario: 3.18 events per delivered datagram and
#: 11.1 per delivered message with the three-event hop (hellos, acks and
#: pacing timers included; 3.23 and 11.3 before the few two-fiber
#: transits on it, all quiet, stopped costing an event per fiber); the
#: four-event hop it replaced cost 4.23 and 14.8. The budgets sit
#: between.
EVENTS_PER_DATAGRAM = 3.5
EVENTS_PER_MESSAGE = 12.5


def _run():
    scn = continental_scenario(SEED, warmup=8.0)
    overlay, sim = scn.overlay, scn.sim
    sites = [site_name(city) for city in US_CITIES]
    for dst in sites[1:6]:
        overlay.client(dst, 40).join(GROUP)
    scn.run_for(1.0)  # group state floods before anything is counted
    for i, link in enumerate(registered_protocols()):
        src, dst = sites[i % len(sites)], sites[(i + 5) % len(sites)]
        overlay.client(dst, 100 + i)
        CbrSource(sim, overlay.client(src), Address(dst, 100 + i),
                  rate_pps=RATE_PPS, service=ServiceSpec(link=link),
                  duration=WINDOW_S - 0.5).start()
    CbrSource(sim, overlay.client(sites[0]), Address(GROUP, 40),
              rate_pps=RATE_PPS, duration=WINDOW_S - 0.5).start()
    events = sim.events_processed
    datagrams = scn.internet.counters.get("datagrams-delivered")
    messages = len(overlay.trace.records)
    scn.run_for(WINDOW_S)
    return (
        sim.events_processed - events,
        scn.internet.counters.get("datagrams-delivered") - datagrams,
        len(overlay.trace.records) - messages,
    )


def test_events_per_datagram_and_per_message_stay_in_budget():
    events, datagrams, messages = _run()
    assert messages > 1000 and datagrams > messages
    assert events / datagrams <= EVENTS_PER_DATAGRAM, (events, datagrams)
    assert events / messages <= EVENTS_PER_MESSAGE, (events, messages)


def test_the_counts_repeat_exactly():
    assert _run() == _run()


# ------------------------------------------------ five quiet fibers a hop

MESH_N = 30
#: Measured: 13 196 events for 6 310 delivered datagrams in the window
#: (2.09 each: one on the underlay — its hosts sit on their routers, so
#: a datagram is settled at its send — plus the share of the receiving
#: node's processing delay and of the hello / refresh / traffic timers).
#: That is 6 430 fewer than the 19 626 (3.11 each) it took when the
#: send queued a first hop, and 31 670 fewer than the 44 866 (7.11
#: each) it took when each of the five fibers cost an event.
MESH_EVENTS, MESH_DATAGRAMS = 13_196, 6_310


def _mesh_run():
    """The benchmark's mesh in miniature: ring+chords fibers (i ~ i+1,
    i ~ i+3), overlay links at ring spacings 11 and 13 — five fibers
    under every one — converged cold, then three CBR flows."""
    n = MESH_N
    sim = Simulator()
    inet = Internet(sim, RngRegistry(SEED))
    domain = inet.add_isp("mesh")
    for a, b in sorted({tuple(sorted((i, (i + d) % n)))
                        for i in range(n) for d in (1, 3)}):
        domain.add_link(f"r{a:02d}", f"r{b:02d}", 0.002)
    sites = [f"n{i:02d}" for i in range(n)]
    for i, site in enumerate(sites):
        inet.add_host(site, access_delay=0.0)
        inet.attach(site, "mesh", f"r{i:02d}")
    overlay = OverlayNetwork(inet, sites, sorted(
        {tuple(sorted((sites[i], sites[(i + d) % n])))
         for i in range(n) for d in (11, 13)}))
    overlay.start()
    sim.run(until=8.0)
    assert overlay.converged()
    for src, dst in ((0, 15), (7, 22), (19, 3)):
        overlay.client(sites[dst], 40)
        CbrSource(sim, overlay.client(sites[src]), Address(sites[dst], 40),
                  rate_pps=RATE_PPS, duration=WINDOW_S - 0.5).start()
    events = sim.events_processed
    datagrams = inet.counters.get("datagrams-delivered")
    sim.run(until=8.0 + WINDOW_S)
    assert len(overlay.trace.records) == len(overlay.trace.sends) > 400
    assert all(link.packets_dropped == 0 for link in domain.links())
    return (sim.events_processed - events,
            int(inet.counters.get("datagrams-delivered") - datagrams))


def test_five_quiet_fibers_cost_what_one_does():
    assert _mesh_run() == (MESH_EVENTS, MESH_DATAGRAMS)
