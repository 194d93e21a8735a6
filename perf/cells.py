"""The cell of ``sweep_campaign``.

``run_cell`` lives in its own module because the sweep engine imports
it by path in worker processes and folds this file into the result
cache's source fingerprint.
"""

from __future__ import annotations

import random

from repro.analysis.runner import source_fingerprint
from repro.analysis.sweep import CellOutput
from repro.analysis.workloads import CbrSource, PoissonSource
from repro.core.message import Address
from repro.core.warmstart import SnapshotStore, ensure_warm

from perf import counters, mesh

CELL_FLOWS = 4
CELL_SEND_S = 0.3
#: No path the cells use on the n=64 campaign mesh takes 0.3 s.
CELL_DRAIN_S = 0.35
WARMUP_S = 2.0


def run_cell(seed: int, kind: str, n: int, mesh_seed: int, fiber_delay: float,
             rate_pps: float, poisson: bool, offset: int,
             warm_key: str | None = None) -> CellOutput:
    """One campaign cell: restore the shared convergence snapshot into
    a fresh n-node mesh, then either carry a few flows for a moment
    (``steady``) or run the reroute drill (``fault``). The cell's own
    seed draws its traffic; the mesh's seed is the campaign's."""
    rnd = random.Random(seed)
    overlay, info = ensure_warm(
        lambda: mesh.build_mesh(n, "exact", mesh_seed, fiber_delay),
        mesh.mesh_spec(n, mesh_seed, fiber_delay), WARMUP_S,
        store=SnapshotStore(), source_fingerprint=source_fingerprint(),
        key=warm_key,
    )
    sim = overlay.sim
    before = counters.snapshot(overlay)
    # Simulated-time facts only: the value is what the three passes'
    # tables are compared on, so host time travels with the counters.
    value = {"kind": kind, "warm_source": info["warm_source"],
             "outage_s": 0.0, "reconverge_s": 0.0, "reconverged": True}
    if kind == "fault":
        src = mesh.site(offset, n)
        dst = mesh.site(offset + 29, n)
        drill = mesh.reroute_drill(overlay, src, dst, rnd,
                                   drain_s=CELL_DRAIN_S)
        if "error" in drill:
            raise RuntimeError(drill["error"])
        value.update(
            offered=drill["probe_sent"], delivered=drill["probe_delivered"],
            outage_s=drill["outage_s"],
            reconverge_s=drill["reconverge_s"] or 0.0,
            reconverged=drill["reconverge_s"] is not None,
        )
    else:
        sources = []
        for j in range(CELL_FLOWS):
            src = mesh.site(offset + 16 * j, n)
            dst = mesh.site(offset + 16 * j + 23 + j, n)
            overlay.client(dst, mesh.FLEET_PORT)
            phase = rnd.uniform(0.0, 1.0 / rate_pps)
            if poisson:
                source = PoissonSource(
                    sim, random.Random(rnd.getrandbits(64)),
                    overlay.client(src), Address(dst, mesh.FLEET_PORT),
                    rate_pps=rate_pps, duration=CELL_SEND_S - phase)
            else:
                source = CbrSource(
                    sim, overlay.client(src), Address(dst, mesh.FLEET_PORT),
                    rate_pps=rate_pps, duration=CELL_SEND_S - phase)
            sources.append(source.start(delay=phase))
        sim.run(until=sim.now + CELL_SEND_S + CELL_DRAIN_S)
        value.update(
            offered=sum(s.sent + s.rejected for s in sources),
            delivered=len(overlay.trace.records),
        )
    value["latencies"] = [r.delivered_at - r.sent_at
                          for r in overlay.trace.records]
    raw = counters.delta(counters.snapshot(overlay), before)
    raw["warm.restore_s"] = info.get("restore_s", 0.0)
    return CellOutput(value, raw)
