"""Route-computation sharing — the content-addressed engine's payoff.

A 20-node overlay (ring + chords, one ISP) runs unicast, multicast and
disjoint-path traffic while fibers are cut and repaired every few
seconds. Every churn event floods LSUs, moves the content fingerprint,
and forces fresh Dijkstra tables / multicast trees / disjoint edge
sets. The same scenario runs twice on the same seed:

* **per-node** — every node owns a private engine (the pre-refactor
  arrangement: each replica recomputes identical artifacts);
* **shared** — the network-wide engine, where converged replicas reuse
  one computation per artifact.

Expected shape: the shared engine performs >= 3x fewer route
computations with a byte-identical delivery trace (same messages, same
times, same receivers — determinism is what makes sharing sound).
"""

import time

from repro.audit import assert_identical
from repro.core.compute import RouteComputeEngine
from repro.core.config import OverlayConfig
from repro.core.message import Address, ROUTING_DISJOINT, ServiceSpec
from repro.core.network import OverlayNetwork
from repro.analysis.workloads import CbrSource
from repro.net.internet import Internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

from bench_util import (
    add_audit_arg,
    add_profile_arg,
    enable_audit,
    finish_audit,
    maybe_profile,
    print_table,
    run_experiment,
)

N_NODES = 20
ISP = "mesh"
SEED = 4242
RATE_PPS = 20.0
CHURN_PERIOD = 3.0
RUN_TIME = 24.0

#: Ring plus chords: every node i links to i+1 and i+4 (mod 20) — a
#: degree-4 mesh with plenty of alternate and disjoint paths.
FIBERS = sorted(
    {tuple(sorted((f"r{i:02d}", f"r{(i + d) % N_NODES:02d}")))
     for i in range(N_NODES) for d in (1, 4)}
)


def _mesh_internet(sim, rngs):
    inet = Internet(sim, rngs)
    domain = inet.add_isp(ISP, convergence_delay=10.0)
    for i in range(N_NODES):
        domain.add_router(f"r{i:02d}")
    for a, b in FIBERS:
        domain.add_link(a, b, 0.010, None, None)
    for i in range(N_NODES):
        inet.add_host(f"n{i:02d}", access_delay=0.0)
        inet.attach(f"n{i:02d}", ISP, f"r{i:02d}")
    return inet


def _tally_tables(engine, tally: list) -> None:
    """Count the next-hop tables ``engine`` computes into ``tally[0]``
    (``route.compute`` counts every artifact kind; ``route.settled``
    only moves for tables)."""
    lookup = engine.lookup

    def counting(fingerprint, key, compute, **kwargs):
        def counted():
            tally[0] += key[0] == "table"
            return compute()

        return lookup(fingerprint, key, counted, **kwargs)

    engine.lookup = counting


def _run_once(shared: bool, run_time: float = RUN_TIME) -> dict:
    sim = Simulator()
    rngs = RngRegistry(SEED)
    internet = _mesh_internet(sim, rngs)
    sites = [f"n{i:02d}" for i in range(N_NODES)]
    links = [(f"n{a[1:]}", f"n{b[1:]}") for a, b in FIBERS]
    overlay = OverlayNetwork(internet, sites, links, OverlayConfig())
    if not shared:
        # The pre-refactor arrangement: one engine per replica, so no
        # cross-node reuse (each still memoizes for itself). All wired
        # to the same counter sink for a comparable total.
        for node in overlay.nodes.values():
            node.routing.engine = RouteComputeEngine(
                counters=overlay.counters,
                capacity=overlay.config.route_cache_size,
            )
    tables = [0]
    for engine in {id(n.routing.engine): n.routing.engine
                   for n in overlay.nodes.values()}.values():
        _tally_tables(engine, tables)
    overlay.warm_up(2.0)

    deliveries: list[tuple] = []

    def receiver(site):
        return lambda msg: deliveries.append(
            (site, msg.origin, msg.flow, msg.seq, round(sim.now, 9))
        )

    # Unicast fan-in (several sources toward common sinks — every node
    # en route consults the same shared tables), a well-attended
    # multicast group (every tree node consults the same tree), and
    # disjoint-path traffic — all three artifact families stay hot.
    for sink in ("n10", "n13"):
        overlay.client(sink, 7, on_message=receiver(sink))
    for src, sink in (("n00", "n10"), ("n04", "n10"), ("n07", "n10"),
                      ("n15", "n10"), ("n05", "n13"), ("n18", "n13")):
        CbrSource(sim, overlay.client(src), Address(sink, 7),
                  rate_pps=RATE_PPS).start()
    for site in ("n03", "n06", "n08", "n11", "n17", "n19"):
        overlay.client(site, 9, on_message=receiver(site)).join("mcast:feed")
    for origin in ("n12", "n01"):
        CbrSource(sim, overlay.client(origin), Address("mcast:feed", 9),
                  rate_pps=RATE_PPS).start()
    overlay.client("n16", 8, on_message=receiver("n16"))
    CbrSource(sim, overlay.client("n02"), Address("n16", 8), rate_pps=RATE_PPS,
              service=ServiceSpec(routing=ROUTING_DISJOINT, k=2)).start()

    # Link churn: cut a rotating fiber, repair it one period later.
    churn_targets = [FIBERS[(7 * i) % len(FIBERS)] for i in range(8)]
    state = {"i": 0}

    def churn():
        a, b = churn_targets[state["i"] % len(churn_targets)]
        internet.fail_fiber(ISP, a, b)
        sim.schedule(CHURN_PERIOD / 2, lambda: internet.repair_fiber(ISP, a, b))
        state["i"] += 1
        sim.schedule(CHURN_PERIOD, churn)

    sim.schedule(1.0, churn)

    started = time.perf_counter()
    sim.run(until=sim.now + run_time)
    wall = time.perf_counter() - started

    counters = overlay.counters.as_dict()
    computes = counters.get("route.compute", 0)
    hits = counters.get("route.hit", 0)
    return {
        "wall_s": wall,
        "computes": computes,
        "hits": hits,
        "hit_rate": hits / (hits + computes) if hits + computes else 0.0,
        "evictions": counters.get("route.evict", 0),
        "settled_per_table": counters.get("route.settled", 0) / max(tables[0], 1),
        "deliveries": deliveries,
    }


def run_route_compute(run_time: float = RUN_TIME) -> dict:
    per_node = _run_once(shared=False, run_time=run_time)
    shared = _run_once(shared=True, run_time=run_time)
    assert_identical(
        shared["deliveries"], per_node["deliveries"], label="deliveries",
        header="sharing changed routing behaviour — traces must be identical",
    )
    return {
        "delivered_msgs": len(shared["deliveries"]),
        "per_node_computes": per_node["computes"],
        "shared_computes": shared["computes"],
        "compute_reduction": per_node["computes"] / max(shared["computes"], 1),
        "per_node_settled_per_table": per_node["settled_per_table"],
        "shared_settled_per_table": shared["settled_per_table"],
        "per_node_hit_rate": per_node["hit_rate"],
        "shared_hit_rate": shared["hit_rate"],
        "per_node_wall_s": per_node["wall_s"],
        "shared_wall_s": shared["wall_s"],
    }


def bench_route_compute_sharing(benchmark):
    result = run_experiment(benchmark, run_route_compute)
    print_table(
        "Route computation on a 20-node overlay under churn "
        f"({result['delivered_msgs']} identical deliveries both ways)",
        ["engine", "computes", "hit rate", f"settled/table (n={N_NODES})",
         "wall s"],
        [
            ("per-node", result["per_node_computes"],
             result["per_node_hit_rate"],
             result["per_node_settled_per_table"], result["per_node_wall_s"]),
            ("shared", result["shared_computes"],
             result["shared_hit_rate"],
             result["shared_settled_per_table"], result["shared_wall_s"]),
        ],
    )
    # The whole point: converged replicas stop repeating each other's
    # Dijkstra/tree/disjoint work, with bit-identical routing decisions.
    assert result["compute_reduction"] >= 3.0
    assert result["shared_hit_rate"] > result["per_node_hit_rate"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short run (CI smoke mode)")
    add_profile_arg(parser)
    add_audit_arg(parser)
    args = parser.parse_args()
    enable_audit(args.audit)
    result = maybe_profile(args.profile, run_route_compute,
                           run_time=8.0 if args.quick else RUN_TIME)
    for key, value in result.items():
        print(f"{key}: {value:.3f}" if isinstance(value, float) else f"{key}: {value}")
    assert result["compute_reduction"] >= 3.0, result
    assert result["shared_hit_rate"] > result["per_node_hit_rate"], result
    finish_audit()
    print("ok")
