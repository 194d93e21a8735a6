"""Work budget of the link-state -> route path (counts, never host time).

One fixed-seed scenario on a 36-node circulant mesh — cold start,
convergence, the EWMA-settling refresh at t=5, a pure refresh flood at
t=10, one fiber cut, its repair — holds the incremental path to what it
promises:

* a changed LSU costs each replica **one** adjacency row (not n) and
  the whole overlay **one** content digest (not one per replica): the
  flooded record is one shared value. A refresh flood that repeats
  stored content costs no row and no digest (``topo.rows_patched``, a
  count of ``content_digest`` calls, and of originated records);
* a next-hop table is searched only as far as it is asked
  (``route.settled`` per ``route.compute`` well under n);
* none of it changes *what* is computed: ``route.compute`` /
  ``route.hit`` / ``fwd.miss`` / ``fwd.invalidate`` after every phase
  equal the values recorded on the commit before the path became
  incremental (``tests/golden/route_work_budget.json``).

Regenerate the golden (only when a change is *meant* to move routing
work; the scenario uses nothing the recorded commit lacks)::

    PYTHONPATH=src python tests/test_route_work_budget.py
"""

from __future__ import annotations

import json
from pathlib import Path

import repro.core.linkstate as linkstate
from repro.analysis.workloads import CbrSource
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.core.node import OverlayNode
from repro.net.internet import Internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

GOLDEN = Path(__file__).parent / "golden" / "route_work_budget.json"

N = 36
SEED = 1717
CHORDS = (1, 5)
PINNED = ("route.compute", "route.hit", "fwd.miss", "fwd.invalidate")
CUT = ("r00", "r01")


def _site(i: int) -> str:
    return f"h{i % N:02d}"


def _build():
    sim = Simulator()
    inet = Internet(sim, RngRegistry(SEED))
    # ISP reconvergence far beyond the run: the cut overlay link stays
    # down until the fiber is repaired instead of finding a detour.
    dom = inet.add_isp("m", convergence_delay=30.0)
    fibers = sorted({tuple(sorted((i, (i + d) % N)))
                     for i in range(N) for d in CHORDS})
    for i in range(N):
        dom.add_router(f"r{i:02d}")
    for a, b in fibers:
        dom.add_link(f"r{a:02d}", f"r{b:02d}", 0.010, None, None)
    for i in range(N):
        inet.add_host(_site(i), access_delay=0.0)
        inet.attach(_site(i), "m", f"r{i:02d}")
    overlay = OverlayNetwork(inet, [_site(i) for i in range(N)],
                             [(_site(a), _site(b)) for a, b in fibers])
    return sim, inet, overlay


def run_scenario() -> dict:
    """Cumulative counters after each phase, plus per replica the
    adjacency views read just before and after the cut."""
    sim, inet, overlay = _build()
    digests = [0]
    originated = [0]
    real_digest = linkstate.content_digest
    real_originate = OverlayNode.originate_lsu, OverlayNode.originate_gsu

    def counting_digest(payload):
        digests[0] += 1
        return real_digest(payload)

    def counting(originate):
        def wrapper(node):
            originated[0] += 1
            originate(node)
        return wrapper

    def read_all() -> dict:
        return {node.id: node.routing.adjacency()
                for node in overlay.nodes.values()}

    def snapshot() -> dict:
        read_all()  # every replica has read its views at a phase end
        counters = overlay.counters.as_dict()
        row = {name: counters.get(name, 0.0) for name in PINNED}
        row.update({
            "topo.rows_patched": counters.get("topo.rows_patched", 0.0),
            "route.settled": counters.get("route.settled", 0.0),
            "digests": digests[0],
            "originated": originated[0],
            "versions": sum(n.topo_db.version for n in overlay.nodes.values()),
        })
        return row

    linkstate.content_digest = counting_digest
    OverlayNode.originate_lsu = counting(real_originate[0])
    OverlayNode.originate_gsu = counting(real_originate[1])
    try:
        for i in range(0, N, 3):
            overlay.client(_site(i + 17), 7)
            CbrSource(sim, overlay.client(_site(i)), Address(_site(i + 17), 7),
                      rate_pps=20.0).start()
        phases = {}
        overlay.warm_up(4.0)
        assert overlay.converged()
        phases["cold_start"] = snapshot()
        sim.run(until=9.0)   # t=5: every node re-floods a still-settling cost
        phases["settling_refresh"] = snapshot()
        sim.run(until=11.0)  # t=10: every node re-floods what it last said
        assert overlay.converged()
        phases["pure_refresh"] = snapshot()
        views_before = read_all()
        inet.fail_fiber("m", *CUT)
        sim.run(until=12.5)
        phases["fiber_cut"] = snapshot()
        views_after = read_all()
        inet.repair_fiber("m", *CUT)
        sim.run(until=16.0)  # repair, sync-on-link-up, the t=15 refresh
        assert overlay.converged()
        phases["repair"] = snapshot()
    finally:
        linkstate.content_digest = real_digest
        OverlayNode.originate_lsu, OverlayNode.originate_gsu = real_originate
    return {"phases": phases, "views": (views_before, views_after)}


def _delta(phases: dict, phase: str, name: str) -> float:
    names = list(phases)
    before = phases[names[names.index(phase) - 1]]
    return phases[phase][name] - before[name]


def test_work_budget_and_unchanged_route_work():
    result = run_scenario()
    phases = result["phases"]
    golden = json.loads(GOLDEN.read_text())

    # What is computed did not move.
    for phase, row in phases.items():
        assert {name: row[name] for name in PINNED} == golden["phases"][phase], phase

    # A pure refresh flood: n x n accepted records, nothing derived.
    assert _delta(phases, "pure_refresh", "versions") == N * N
    assert _delta(phases, "pure_refresh", "digests") == 0
    assert _delta(phases, "pure_refresh", "topo.rows_patched") == 0
    assert _delta(phases, "pure_refresh", "fwd.invalidate") == 0

    # A record's digest is derived once, however many replicas store
    # it: never more digests than originated records.
    for phase, row in phases.items():
        assert row["digests"] <= row["originated"], phase
    assert (_delta(phases, "settling_refresh", "digests")
            <= _delta(phases, "settling_refresh", "originated"))

    # The cut: both ends re-announce once, every replica accepts the
    # two changed records — one digest each, overlay-wide — and
    # patches exactly those two rows.
    ends = sorted(_site(int(router[1:])) for router in CUT)
    assert _delta(phases, "fiber_cut", "digests") == 2
    assert _delta(phases, "fiber_cut", "topo.rows_patched") == 2 * N
    before, after = result["views"]
    for node_id in before:
        moved = [u for u in after[node_id]
                 if after[node_id][u] is not before[node_id][u]]
        assert moved == ends, node_id
    # The t=5 flood changed every origin in every replica; replicas
    # that read mid-flood patched a row per read, so at least n x n.
    assert _delta(phases, "settling_refresh", "topo.rows_patched") >= N * N

    # Tables are searched on demand: well under n nodes per compute
    # (every compute here is a next-hop table; unicast traffic only).
    end = phases["repair"]
    assert end["route.compute"] > 150
    assert end["route.settled"] / end["route.compute"] < 0.75 * N


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    GOLDEN.write_text(json.dumps({
        "reason": "route.compute / route.hit / fwd.miss / fwd.invalidate, "
                  "cumulative after each phase of tests/test_route_work_"
                  "budget.py's scenario, recorded on the commit before the "
                  "link-state -> route path became incremental: patched "
                  "views and lazily settled tables must not change what is "
                  "computed, only what it costs",
        "recorded_at_commit": commit,
        "phases": {phase: {name: row[name] for name in PINNED}
                   for phase, row in run_scenario()["phases"].items()},
    }, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
