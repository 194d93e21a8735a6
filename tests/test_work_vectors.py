"""Exact work vectors: what the simulator does, per scenario and seed.

The simulator is deterministic, so the work a seed costs is exact where
host time is not. Six tier-1-sized twins of the perf workload shapes
each record one vector per seed (cumulative at each phase end), held to
``tests/golden/work_vectors.json`` with ``==``; a moved entry prints
``seed/phase/key: golden → now (rise|fall)``. A vector holds the events
fired by callback (``events:<name>``: the callees of
:meth:`~repro.sim.events.Simulator.run`'s frame, builtins too and
``heapq`` not, seen by a ``sys.setprofile`` hook; they sum to the
window's ``events_processed``), the underlay's datagram counters,
delivery records, ``Frame`` / ``Datagram`` constructions, state records
applied (replica ``version`` sums), ``content_digest`` calls, LSU / GSU
originations and the overlay's flood, route, forwarding and fluid
counters — all read off existing counters or by wrapping functions.

The auditor (``REPRO_AUDIT=1``) re-derives outside the counted paths,
so one golden holds audited and plain runs alike. A change that moves a
vector re-records it with its reason (a rise only with one, a fall by
the change that claims it), appended to the scenario's ``history``::

    PYTHONPATH=src python tests/test_work_vectors.py SCENARIO [...] --reason "..."
"""

from __future__ import annotations

import functools
import heapq
import json
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.linkstate as linkstate
from repro.analysis.scenarios import continental_scenario, triangle_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, Frame, ServiceSpec
from repro.core.network import OverlayNetwork
from repro.core.node import OverlayNode
from repro.core.warmstart import capture, restore
from repro.net.internet import Internet
from repro.net.packet import Datagram
from repro.net.topologies import US_CITIES, site_name
from repro.protocols import registered_protocols
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

GOLDEN = Path(__file__).parent / "golden" / "work_vectors.json"

#: The overlay counters a vector carries.
COUNTERS = ("flood.records", "route.compute", "route.hit", "route.settled",
            "topo.rows_patched", "fwd.miss", "fwd.invalidate",
            "fluid.resolve")
#: What a window counts by wrapping: ``(owner, attribute) -> entry``.
WRAPPED = {(Frame, "__init__"): "built:Frame",
           (Datagram, "__init__"): "built:Datagram",
           (OverlayNode, "originate_lsu"): "originated",
           (OverlayNode, "originate_gsu"): "originated",
           (linkstate, "content_digest"): "digests"}
_RUN = Simulator.run.__code__
_HEAP = (heapq.heappop, heapq.heappush)


@contextmanager
def _counting(overlay):
    """Count the work of what runs inside; yields ``read()``, the
    vector accumulated so far."""
    sim, inet = overlay.sim, overlay.internet
    events = Counter()
    tally = Counter(dict.fromkeys(WRAPPED.values(), 0))
    names = {}  # callee code -> the fired callback's qualified name

    def profile(frame, what, arg):
        if what == "call":
            back = frame.f_back
            if back is not None and back.f_code is _RUN:
                code = frame.f_code
                if code not in names:
                    names[code] = back.f_locals["event"].fn.__qualname__
                events[names[code]] += 1
        elif what == "c_call" and frame.f_code is _RUN and arg not in _HEAP:
            events[arg.__qualname__] += 1

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def totals():
        counters = overlay.counters.as_dict()
        return dict(
            {name: counters.get(name, 0) for name in COUNTERS},
            **{f"applied:{kind}": sum(node.replicas[kind].version
                                      for node in overlay.nodes.values())
               for kind in ("lsu", "gsu")},
            **{key: inet.counters.get(key)
               for key in ("datagrams-sent", "datagrams-delivered")},
            messages=len(overlay.trace.records), events=sim.events_processed)

    base = totals()

    def read():
        now = totals()
        vector = {key: int(now[key] - base[key]) for key in now}
        assert sum(events.values()) == vector.pop("events")
        vector.update(tally)
        vector.update((f"events:{name}", n) for name, n in events.items())
        return vector

    saved = {key: getattr(*key) for key in WRAPPED}
    for (owner, attr), name in WRAPPED.items():
        setattr(owner, attr, counted(name, saved[owner, attr]))
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield read
    finally:
        sys.setprofile(previous)
        for (owner, attr), fn in saved.items():
            setattr(owner, attr, fn)


# ------------------------------------------------------------- scenarios
#
# Each builds its overlay, counts its window(s) and returns
# ``{phase: vector}``; the checks that are not counts run inside.

HOT_SEED = 1612
RATE_PPS = 100.0
WINDOW_S = 2.0


def _circulant(n, seed, host, fibers, links, delay, convergence=10.0):
    """Routers ``r00``.. of ISP ``mesh`` with fibers at ring spacings
    ``fibers``, host ``host(i)`` on router ``i``, and overlay links
    between hosts at ring spacings ``links``."""
    def ring(steps):
        return sorted({tuple(sorted((i, (i + d) % n)))
                       for i in range(n) for d in steps})

    inet = Internet(Simulator(), RngRegistry(seed))
    domain = inet.add_isp("mesh", convergence_delay=convergence)
    for i in range(n):
        domain.add_router(f"r{i:02d}")
    for a, b in ring(fibers):
        domain.add_link(f"r{a:02d}", f"r{b:02d}", delay)
    for i in range(n):
        inet.add_host(host(i), access_delay=0.0)
        inet.attach(host(i), "mesh", f"r{i:02d}")
    return OverlayNetwork(inet, [host(i) for i in range(n)],
                          [(host(a), host(b)) for a, b in ring(links)])


def _quiet_mesh():
    """The benchmark's mesh in miniature — ring+chords fibers (i ~ i+1,
    i ~ i+3), overlay links at ring spacings 11 and 13, five fibers
    under every one — converged cold: one quiet second, then on a twin
    three CBR flows for two seconds."""
    quiet, overlay = (_circulant(30, HOT_SEED, "n{:02d}".format, (1, 3),
                                 (11, 13), 0.002) for __ in range(2))
    for mesh in (quiet, overlay):
        mesh.start()
        mesh.sim.run(until=8.0)
        assert mesh.converged()
    for src, dst in (("n00", "n15"), ("n07", "n22"), ("n19", "n03")):
        overlay.client(dst, 40)
        CbrSource(overlay.sim, overlay.client(src), Address(dst, 40),
                  rate_pps=RATE_PPS, duration=WINDOW_S - 0.5).start()
    with _counting(quiet) as read:
        quiet.sim.run(until=9.0)
        phases = {"quiet": read()}
    with _counting(overlay) as read:
        overlay.sim.run(until=8.0 + WINDOW_S)
        phases["traffic"] = read()
    assert len(overlay.trace.records) == len(overlay.trace.sends) > 400
    assert all(link.packets_dropped == 0
               for link in overlay.internet.isps["mesh"].links())
    return phases


def _services():
    """The continental overlay with every registered link protocol and
    a multicast stream over a two-second window."""
    scn = continental_scenario(HOT_SEED, warmup=8.0)
    overlay, sim = scn.overlay, scn.sim
    sites = [site_name(city) for city in US_CITIES]
    group = "mcast:budget"
    for dst in sites[1:6]:
        overlay.client(dst, 40).join(group)
    scn.run_for(1.0)  # group state floods before anything is counted
    for i, link in enumerate(registered_protocols()):
        src, dst = sites[i % len(sites)], sites[(i + 5) % len(sites)]
        overlay.client(dst, 100 + i)
        CbrSource(sim, overlay.client(src), Address(dst, 100 + i),
                  rate_pps=RATE_PPS, service=ServiceSpec(link=link),
                  duration=WINDOW_S - 0.5).start()
    CbrSource(sim, overlay.client(sites[0]), Address(group, 40),
              rate_pps=RATE_PPS, duration=WINDOW_S - 0.5).start()
    with _counting(overlay) as read:
        scn.run_for(WINDOW_S)
        return {"window": read()}


def _lossy():
    """``lossy_mixed_fibers`` of the delivery-digest goldens, from its
    cold start: bursty, jittered, capped and scheduled-outage fibers."""
    from tests.test_golden_digests import _mesh, _start_traffic, _steady

    overlay = _mesh(lossy=True)
    with _counting(overlay) as read:
        overlay.start()
        _start_traffic(overlay)
        _steady(overlay)
        return {"window": read()}


CHURN_N = 36
CHURN_CUT = ("r00", "r01")

def _churn():
    """A 36-node circulant mesh started cold: convergence, the refresh
    at t=5 (its latency EWMAs moved by float noise only), a pure refresh
    flood at t=10, one fiber cut and its repair — the only scenario that
    writes routing state. At the cut only the two ends' adjacency rows
    move, in every replica."""
    # ISP reconvergence far beyond the run: the cut overlay link stays
    # down until the fiber is repaired instead of finding a detour.
    site = "h{:02d}".format
    overlay = _circulant(CHURN_N, 1717, site, (1, 5), (1, 5), 0.010,
                         convergence=30.0)
    sim, inet = overlay.sim, overlay.internet
    phases = {}
    with _counting(overlay) as read:
        def phase(name):
            # every replica reads its views at a phase end
            views = {node.id: node.routing.adjacency()
                     for node in overlay.nodes.values()}
            phases[name] = read()
            return views

        for i in range(0, CHURN_N, 3):
            dst = site((i + 17) % CHURN_N)
            overlay.client(dst, 7)
            CbrSource(sim, overlay.client(site(i)), Address(dst, 7),
                      rate_pps=20.0).start()
        overlay.warm_up(4.0)
        assert overlay.converged()
        phase("cold_start")
        sim.run(until=9.0)   # t=5: costs moved by noise only, on the µs grid
        phase("settling_refresh")
        sim.run(until=11.0)  # t=10: every node re-floods what it last said
        assert overlay.converged()
        before = phase("pure_refresh")
        inet.fail_fiber("mesh", *CHURN_CUT)
        sim.run(until=12.5)
        after = phase("fiber_cut")
        inet.repair_fiber("mesh", *CHURN_CUT)
        sim.run(until=16.0)  # repair, sync-on-link-up, the t=15 refresh
        assert overlay.converged()
        phase("repair")
    ends = sorted(site(int(router[1:])) for router in CHURN_CUT)
    for node_id in before:
        assert [u for u in after[node_id]
                if after[node_id][u] is not before[node_id][u]] == ends
    return phases


def _restored_cell():
    """A sweep cell's shape: the warm-start mesh restored from a capture
    of its organic warm-up, then the measured two-flow window."""
    from tests.test_warmstart import WARMUP, _drive, _mesh

    organic = _mesh()
    organic.warm_up(WARMUP)
    payload = capture(organic, key="work", source_fingerprint="fp0")
    twin = _mesh()
    restore(twin, payload)  # sets the event count: counted from here
    with _counting(twin) as read:
        _drive(twin)
        return {"drive": read()}


def _fluid_audience():
    """A fleet of fluid CBR flows on the triangle through a fiber cut
    and its repair: flow starts coalesce, the cut and the reroute
    re-solve."""
    from tests.test_fluid import _fluid_cbr

    scn = triangle_scenario(seed=35)
    pairs = [(a, b) for a in ("hx", "hy", "hz") for b in ("hx", "hy", "hz")
             if a != b]
    sources = [_fluid_cbr(scn, *pairs[i % 6], port=7 + i, rate=5.0 + i)[1]
               for i in range(12)]
    engine = scn.overlay.fluid_engine()
    with _counting(scn.overlay) as read:
        for source in sources:
            source.start()
        scn.run_for(2.0)
        scn.internet.fail_fiber("tri", "x", "z")
        scn.run_for(6.0)  # hello timeout -> LSU reroute via hy
        scn.internet.repair_fiber("tri", "x", "z")
        scn.run_for(4.0)
        for source in sources:
            source.stop()
        engine.settle_now()
        return {"window": read()}


#: name -> (seed, scenario). The seed names the vector; the builders
#: fix their own.
SCENARIOS = {
    "quiet_mesh": (HOT_SEED, _quiet_mesh),
    "services": (HOT_SEED, _services),
    "lossy": (1407, _lossy),
    "churn": (1717, _churn),
    "restored_cell": (4242, _restored_cell),
    "fluid_audience": (35, _fluid_audience),
}


def collect(name: str) -> dict:
    """Run one scenario; returns ``{seed: {phase: vector}}``."""
    seed, scenario = SCENARIOS[name]
    return {str(seed): scenario()}


_collected = functools.cache(collect)  # one run per scenario per session


def moved(golden: dict, now: dict) -> list[str]:
    """One ``key: golden → now (rise|fall)`` line per moved entry (a
    missing entry reads 0)."""
    old, new = ({f"{seed}/{phase}/{key}": value
                 for seed, phases in seeds.items()
                 for phase, vector in phases.items()
                 for key, value in vector.items()} for seeds in (golden, now))
    lines = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, 0), new.get(key, 0)
        if a != b:
            lines.append(f"{key}: {a} → {b} ({'rise' if b > a else 'fall'})")
    return lines


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_work_vector_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())["scenarios"][name]["seeds"]
    lines = moved(golden, _collected(name))
    if lines:
        pytest.fail("\n".join([f"{name}: work moved"] + lines), pytrace=False)


def test_counts_repeat_exactly():
    assert collect("services") == _collected("services")


def _phases(name: str) -> dict:
    (phases,) = _collected(name).values()
    return phases


def test_a_quiet_hello_is_one_event_with_no_frame_or_datagram():
    """In one quiet second every hello (120 link ends x 2 carriers x 10
    ticks) rides its five quiet fibers as one event, building no Frame
    or Datagram; with the 1 200 link ticks and 30 node timers, 3 630
    events."""
    quiet = _phases("quiet_mesh")["quiet"]
    hellos = quiet["datagrams-sent"]
    assert hellos == quiet["datagrams-delivered"] == 2_400
    assert quiet["events:Internet._deliver_hello"] == hellos
    assert quiet["events:OverlayLink._hello_tick"] * 2 == hellos
    assert sum(n for key, n in quiet.items()
               if key.startswith("events:")) == 3_630
    assert quiet["built:Frame"] == quiet["built:Datagram"] == 0


def test_five_quiet_fibers_cost_what_one_does():
    """Under three CBR flows a datagram from a host on its router is
    settled at its send and costs only its delivery: 10 796 events for
    6 310 datagrams (6 430 more when the send queued a first hop, 31 670
    more when each fiber cost an event)."""
    traffic = _phases("quiet_mesh")["traffic"]
    events = {key: n for key, n in traffic.items()
              if key.startswith("events:")}
    assert "events:Internet._hop" not in events
    assert (events["events:Internet._deliver"]
            + events["events:Internet._deliver_hello"]
            == traffic["datagrams-delivered"])
    assert (sum(events.values()), traffic["datagrams-delivered"]) == (
        10_796, 6_310)


#: ``route.compute`` / ``route.hit`` / ``fwd.miss`` / ``fwd.invalidate``
#: after each churn phase on commit 020017b, before the route path became
#: incremental, with its ``OverlayLink.cost()`` rounded to whole
#: microseconds as :func:`~repro.core.link.advertised_cost` does: what is
#: computed, fixed here, never re-recorded from this tree.
ROUTE_WORK = {
    "cold_start": (60, 48, 108, 48),
    "settling_refresh": (60, 48, 108, 48),
    "pure_refresh": (60, 48, 108, 48),
    "fiber_cut": (80, 103, 183, 88),
    "repair": (142, 258, 400, 206),
}


def test_churn_keeps_the_incremental_contract():
    """The churn counts read as the contract they state: the route work
    is what the non-incremental path computed; a changed LSU costs each
    replica one adjacency row and the overlay one content digest; a
    refresh that repeats stored content costs neither; tables are
    searched only as far as they are asked."""
    phases = _phases("churn")
    names = list(phases)
    assert names == list(ROUTE_WORK)
    for phase, (compute, hit, miss, invalidate) in ROUTE_WORK.items():
        row = phases[phase]
        assert (row["route.compute"], row["route.hit"], row["fwd.miss"],
                row["fwd.invalidate"]) == (compute, hit, miss, invalidate), phase

    def delta(phase, key):
        return (phases[phase][key]
                - phases[names[names.index(phase) - 1]][key])

    n = CHURN_N
    # Both refresh floods: n x n accepted records, nothing derived. At
    # t=5 the latency EWMAs still move, by float noise only, which the
    # microsecond grid of advertised costs absorbs.
    for refresh in ("settling_refresh", "pure_refresh"):
        assert delta(refresh, "applied:lsu") == n * n
        assert delta(refresh, "topo.rows_patched") == 0
        assert delta(refresh, "fwd.invalidate") == 0
        assert delta(refresh, "digests") == 0
    assert delta("fiber_cut", "topo.rows_patched") == 2 * n
    assert delta("fiber_cut", "digests") == 2
    # A record's digest is derived once, however many replicas store it.
    for phase, row in phases.items():
        assert row["digests"] <= row["originated"], phase
    assert 0 < delta("repair", "digests") <= delta("repair", "originated")
    end = phases["repair"]
    assert end["route.settled"] / end["route.compute"] < 0.75 * n


if __name__ == "__main__":
    import argparse

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    parser = argparse.ArgumentParser(
        description="Re-record the named scenarios' work vectors.")
    parser.add_argument("scenarios", nargs="+", choices=sorted(SCENARIOS))
    parser.add_argument("--reason", required=True,
                        help="why the vector moved (the ROADMAP item too)")
    args = parser.parse_args()
    payload = json.loads(GOLDEN.read_text())
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], capture_output=True,
        text=True, cwd=Path(__file__).parent, check=True).stdout.strip()
    for name in args.scenarios:
        seeds = collect(name)
        entry = payload["scenarios"].setdefault(name, {"history": []})
        print(f"{name}:", *(moved(entry.get("seeds", {}), seeds)
                            or ["unchanged"]), sep="\n  ")
        entry["history"].append({"reason": args.reason,
                                 "recorded_at": commit})
        entry["seeds"] = seeds
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
