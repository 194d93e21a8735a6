"""Layer drills: direct timed calls into one layer's public functions.

Each drill does a fixed amount of one layer's work on inputs made here
(no overlay around it, unless the layer is the overlay) and reports
host time per unit of that work. They run in the traced invocation
only, cost about a second each, and carry no regression bound: they
say *where* a change to one layer should show before it shows end to
end.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.analysis.runner import SweepCache, run_sweep
from repro.analysis.sweep import Cell, Sweep
from repro.core.compute import RouteComputeEngine
from repro.core.linkstate import TopologyDatabase
from repro.sim.events import Simulator

from perf import mesh

DRILL_N = 200

def _noop() -> None:
    pass


def drill_sim() -> float:
    """ns per event: 2000 no-op periodic timers plus 200 self-renewing
    one-shot chains on a bare simulator."""
    sim = Simulator()
    for i in range(2000):
        sim.schedule_periodic(0.01, _noop, first=0.01 * (i % 100) / 100.0)

    def chain() -> None:
        sim.schedule(0.001, chain)

    for i in range(200):
        sim.schedule(0.001 * i / 200.0, chain)
    started = time.perf_counter()
    events = sim.run(until=1.0)
    return (time.perf_counter() - started) * 1e9 / events


def drill_net() -> float:
    """us per datagram: ``Internet.send`` across the five fibers of an
    overlay-link transit of the mesh underlay, no overlay on top."""
    n = DRILL_N
    inet = mesh.build_underlay(Simulator(), n, 1, mesh.FIBER_DELAY_S)
    delivered = []
    count = 40_000
    for k in range(count):
        src = k % n
        inet.sim.schedule(
            1e-5 * k, inet.send, mesh.site(src, n),
            mesh.site(src + mesh.OVERLAY_SPACINGS[k % 2], n), None, 100,
            mesh.ISP, delivered.append)
    started = time.perf_counter()
    inet.sim.run()
    wall = time.perf_counter() - started
    if len(delivered) != count:
        raise RuntimeError(f"net drill lost datagrams: {len(delivered)}/{count}")
    return wall * 1e6 / count


def _overlay_adjacency(n: int) -> dict:
    return {
        mesh.site(i, n): {
            mesh.site(i + s * d, n): 0.05
            for d in mesh.OVERLAY_SPACINGS for s in (1, -1)
        }
        for i in range(n)
    }


def drill_routing() -> tuple[float, float]:
    """ms per cold next-hop table and ns per hot lookup, over the n=200
    overlay adjacency."""
    n = DRILL_N
    adj = _overlay_adjacency(n)
    engine = RouteComputeEngine()
    dsts = [mesh.site(i, n) for i in range(n)]
    started = time.perf_counter()
    for dst in dsts:
        engine.table(1, adj, dst)
    cold = (time.perf_counter() - started) * 1e3 / len(dsts)
    rounds = 500
    started = time.perf_counter()
    for _ in range(rounds):
        for dst in dsts:
            engine.table(1, adj, dst)
    hot = (time.perf_counter() - started) * 1e9 / (rounds * len(dsts))
    return cold, hot


def drill_linkstate() -> float:
    """us per accepted link-state update (plus the fingerprint read
    every update is followed by)."""
    n = DRILL_N
    adj = _overlay_adjacency(n)
    db = TopologyDatabase()
    rounds = 200
    started = time.perf_counter()
    for seq in range(1, rounds + 1):
        for origin, costs in adj.items():
            db.update(origin, seq, costs)
            db.fingerprint
    return (time.perf_counter() - started) * 1e6 / (rounds * n)


def _noop_cell(seed: int, x: int) -> dict:
    return {"x": float(x), "seed": float(seed % 1000)}


def drill_analysis(tmp: Path) -> tuple[float, float]:
    """ms per executed no-op cell (serial, cache and journal on) and us
    per cell of the cached re-run."""
    count = 400
    sweep = Sweep(
        name="perf_drill_noop", run_cell=_noop_cell,
        cells=[Cell(key=(x,), params={"x": x}) for x in range(count)],
        master_seed=1,
    )
    store = SweepCache(tmp / "drill_cache")
    started = time.perf_counter()
    cold = run_sweep(sweep, workers=0, cache=store)
    cold_wall = time.perf_counter() - started
    started = time.perf_counter()
    warm = run_sweep(sweep, workers=0, cache=store)
    warm_wall = time.perf_counter() - started
    if cold.executed != count or warm.executed != 0:
        raise RuntimeError("analysis drill: cache did not behave")
    return cold_wall * 1e3 / count, warm_wall * 1e6 / count


def run_all(tmp: Path) -> dict:
    table_ms, hit_ns = drill_routing()
    cell_ms, cached_us = drill_analysis(tmp)
    return {
        "sim.drill_ns_per_event": drill_sim(),
        "net.drill_us_per_datagram": drill_net(),
        "core.routing.drill_ms_per_table": table_ms,
        "core.routing.drill_ns_per_hit": hit_ns,
        "core.linkstate.drill_us_per_update": drill_linkstate(),
        "analysis.drill_ms_per_cell": cell_ms,
        "analysis.drill_us_per_cached_cell": cached_us,
    }
