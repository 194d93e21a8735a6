"""The scaling mesh, its client fleet and the reroute drill.

The topology is ``benchmarks/bench_simcore.py``'s scaling mesh,
re-declared here so a later refactor of ``benchmarks/`` cannot move
the benchmark: a ring+chords *fiber* underlay (router i ~ i+1, i ~ i+3)
with the overlay on top of it at ring spacings 11 and 13, so every
overlay link rides a five-fiber transit. Both graphs are circulant:
every node sees the same neighbourhood, which is what lets a seed vary
the inputs (fiber length, flow rates and phases) without varying the
amount of work a run does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.analysis.workloads import CbrSource
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

from perf.tiers import config_for, simulator_for

ISP = "mesh"
FIBER_CHORDS = (1, 3)
OVERLAY_SPACINGS = (11, 13)
#: Nominal one-way fiber delay; a seed stretches every fiber by the
#: same factor within +-FIBER_STRETCH (uniform delays keep constructed
#: convergence legal), so simulated latencies move with the seed by a
#: fraction of a percent instead of reading the same on every run.
FIBER_DELAY_S = 0.010
FIBER_STRETCH = 0.0025

FLEET_FLOWS = 64
FLEET_RATE_PPS = 5.0
#: Per-flow rate spread around the nominal rate (so the longest
#: delivery gap of a flow, 1/rate, is a seeded quantity too).
RATE_SPREAD = 0.005
FLEET_PORT = 7
DRILL_PORT = 9
DRILL_RATE_PPS = 100.0
#: Sources stop this long before a window ends, so every offered
#: message could still arrive (the longest mesh path is ~0.5 s).
DRAIN_S = 1.0
#: The drill crashes its node this long after the probe starts, and
#: recovers it this long after the crash (detection takes 0.3-0.4 s).
DRILL_LEAD_S = 0.2
DRILL_HOLD_S = 0.7
DRILL_DRAIN_S = 0.6
#: Seeded slack on the crash and recovery instants (a fifth of a hello
#: interval): where in the hello cycle a fault lands decides how fast
#: it is noticed.
DRILL_JITTER_S = 0.02
POLL_SLICE_S = 0.01
RECONVERGE_CAP_S = 10.0


@dataclass(frozen=True)
class Flow:
    src: str
    dst: str
    rate_pps: float
    phase_s: float
    port: int = FLEET_PORT


def site(i: int, n: int) -> str:
    return f"n{i % n:03d}"


def fiber_delay_for(rnd: random.Random) -> float:
    return FIBER_DELAY_S * (1.0 + rnd.uniform(-FIBER_STRETCH, FIBER_STRETCH))


def draw_rate_phase(rnd: random.Random, nominal_pps: float) -> tuple[float, float]:
    """A flow's seeded rate (within RATE_SPREAD of nominal) and start
    phase (within one nominal send interval)."""
    rate = nominal_pps * (1.0 + rnd.uniform(-RATE_SPREAD, RATE_SPREAD))
    return rate, rnd.uniform(0.0, 1.0 / nominal_pps)


def build_underlay(sim: Simulator, n: int, seed: int,
                   fiber_delay: float) -> Internet:
    """The ring+chords fiber mesh with one host per router."""
    inet = Internet(sim, RngRegistry(seed))
    domain = inet.add_isp(ISP, convergence_delay=10.0)
    for i in range(n):
        domain.add_router(f"r{i:03d}")
    fibers = sorted(
        {tuple(sorted((f"r{i:03d}", f"r{(i + d) % n:03d}")))
         for i in range(n) for d in FIBER_CHORDS}
    )
    for a, b in fibers:
        domain.add_link(a, b, fiber_delay, None, None)
    for i in range(n):
        inet.add_host(site(i, n), access_delay=0.0)
        inet.attach(site(i, n), ISP, f"r{i:03d}")
    return inet


def build_mesh(n: int, tier: str, seed: int, fiber_delay: float) -> OverlayNetwork:
    """A fresh, unstarted n-node mesh overlay on ``tier``."""
    config = config_for(tier)
    inet = build_underlay(simulator_for(config), n, seed, fiber_delay)
    links = sorted(
        {tuple(sorted((site(i, n), site(i + d, n))))
         for i in range(n) for d in OVERLAY_SPACINGS}
    )
    return OverlayNetwork(inet, [site(i, n) for i in range(n)], links, config)


def mesh_spec(n: int, seed: int, fiber_delay: float) -> tuple:
    """The warm-start spec of one mesh (everything the converged state
    depends on besides the config)."""
    return ("perf-mesh", n, seed, repr(fiber_delay))


def prime_tables(overlay: OverlayNetwork) -> None:
    """Pre-fill the underlay's lazy Dijkstra tables and (batched tier)
    the transit-profile cache of every overlay-link channel, so a
    constructed or restored overlay does not pay inside the window for
    lazy fills an organically warmed one paid during its storm."""
    inet = overlay.internet
    for domain in list(inet.isps.values()) + [inet.native]:
        for dst in domain.routers:
            domain.next_hop(dst, dst)
    for node in overlay.nodes.values():
        for link in node.links.values():
            for carrier in link.carriers:
                inet.prime_path(
                    inet.channel(link.node_host, link.nbr_host, carrier))


def fleet_flows(n: int, rnd: random.Random, count: int = FLEET_FLOWS,
                rate_pps: float = FLEET_RATE_PPS) -> list[Flow]:
    """The CBR client fleet: sinks 15..90 ring positions from their
    sources, a handful of overlay hops each and far inside the overlay
    TTL at every mesh size."""
    flows = []
    for i in range(count):
        src = i % n
        dst = (src + 15 + (i * 7) % 76) % n
        flows.append(Flow(site(src, n), site(dst, n),
                          *draw_rate_phase(rnd, rate_pps)))
    return flows


def attach_flows(overlay: OverlayNetwork, flows: list[Flow],
                 send_for_s: float) -> list[CbrSource]:
    """Start every flow as an open-loop CBR source; all of them stop at
    ``now + send_for_s``."""
    sim = overlay.sim
    sinks: set[tuple[str, int]] = set()
    sources = []
    for flow in flows:
        if (flow.dst, flow.port) not in sinks:
            sinks.add((flow.dst, flow.port))
            overlay.client(flow.dst, flow.port)
        source = CbrSource(
            sim, overlay.client(flow.src), Address(flow.dst, flow.port),
            rate_pps=flow.rate_pps, duration=send_for_s - flow.phase_s,
        )
        sources.append(source.start(delay=flow.phase_s))
    return sources


def poll_reconverged(overlay: OverlayNetwork) -> float | None:
    """Simulated seconds until ``overlay.converged()``, polled from
    outside in fixed slices with no injected events; ``None`` when the
    cap passes first. No link comes up in fewer than ``recover_threshold``
    hello intervals, so the polling starts after that floor; the poll
    instants sit on the simulator's own clock grid, not on the start,
    so the answer moves with the instant of the repair."""
    sim = overlay.sim
    started = sim.now
    config = overlay.config
    floor = started + config.recover_threshold * config.hello_interval
    tick = math.ceil(floor / POLL_SLICE_S)
    while tick * POLL_SLICE_S - started < RECONVERGE_CAP_S:
        sim.run(until=tick * POLL_SLICE_S)
        if overlay.converged():
            return sim.now - started
        tick += 1
    return None


def longest_gap(times: list[float]) -> float:
    ordered = sorted(times)
    return max((b - a for a, b in zip(ordered, ordered[1:])), default=0.0)


def reroute_drill(overlay: OverlayNetwork, src: str, dst: str,
                  rnd: random.Random, drain_s: float = DRILL_DRAIN_S) -> dict:
    """Crash the first transit node of a probe flow's path, recover it,
    and time both reactions in simulated seconds.

    Runs outside a workload's window, on its own probe flow, so the
    window itself stays a fault-free steady state. ``outage_s`` is the
    longest delivery gap the probe saw, ``reconverge_s`` the time from
    the recovery until every link is up and every replica agrees. The
    seed draws the probe's rate and phase and where in the hello cycle
    the crash and the recovery land.
    """
    sim = overlay.sim
    path = overlay.overlay_path(src, dst)
    for _ in range(20):
        # Under loss, replicas disagree for a moment whenever a cost
        # moves; wait for a loop-free walk rather than give up.
        if path is not None:
            break
        sim.run(until=sim.now + POLL_SLICE_S)
        path = overlay.overlay_path(src, dst)
    if path is None or len(path) < 3:
        return {"error": f"drill probe {src}->{dst} has no transit node: {path}"}
    rate, phase = draw_rate_phase(rnd, DRILL_RATE_PPS)
    overlay.client(dst, DRILL_PORT)
    probe = CbrSource(sim, overlay.client(src), Address(dst, DRILL_PORT),
                      rate_pps=rate).start(delay=phase)
    sim.run(until=sim.now + DRILL_LEAD_S + rnd.uniform(0.0, DRILL_JITTER_S))
    overlay.crash(path[1])
    sim.run(until=sim.now + DRILL_HOLD_S + rnd.uniform(0.0, DRILL_JITTER_S))
    overlay.recover(path[1])
    reconverge = poll_reconverged(overlay)
    probe.stop()
    sim.run(until=sim.now + drain_s)
    arrivals = [r.delivered_at for r in overlay.trace.for_flow(probe.flow)]
    return {
        "crashed": path[1],
        "outage_s": longest_gap(arrivals),
        "reconverge_s": reconverge,
        "probe_sent": probe.sent,
        "probe_delivered": len(arrivals),
    }
