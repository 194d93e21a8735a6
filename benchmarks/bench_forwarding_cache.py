"""Forwarding-cache payoff on the data-plane hot path.

A 20-node overlay (ring + chords, one ISP) carries unicast fan-in,
multicast, and disjoint-path traffic through two segments:

* **steady state** — the connectivity graph does not move, so after
  one miss per (destination, service) the *decide* stage of every hop
  is a dict hit instead of a route-table walk;
* **churn** — fibers are cut and repaired every few seconds; every
  flooded LSU moves the content fingerprint, wholesale-invalidating
  each node's decision table (``fwd.invalidate``), which then refills.

That the cache memoizes deterministic decisions and never changes them
is held by ``tests/test_forwarding_cache.py``, which re-derives every
hit cold; under ``--audit`` this bench samples the same check.

Expected shape: steady-state hit rate >= 80%; invalidations concentrate
in the churn segment.
"""

import time

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
SEED = 2026
RATE_PPS = 20.0
CHURN_PERIOD = 3.0
STEADY_TIME = 10.0
CHURN_TIME = 12.0

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


def _fwd_counters(overlay) -> dict:
    counters = overlay.counters.as_dict()
    return {
        "hits": counters.get("fwd.hit", 0),
        "misses": counters.get("fwd.miss", 0),
        "invalidations": counters.get("fwd.invalidate", 0),
    }


def _hit_rate(stats: dict) -> float:
    total = stats["hits"] + stats["misses"]
    return stats["hits"] / total if total else 0.0


def _run_once(steady_time: float, churn_time: float) -> dict:
    sim = Simulator()
    rngs = RngRegistry(SEED)
    internet = _mesh_internet(sim, rngs)
    sites = [f"n{i:02d}" for i in range(N_NODES)]
    links = [(f"n{a[1:]}", f"n{b[1:]}") for a, b in FIBERS]
    overlay = OverlayNetwork(internet, sites, links)
    overlay.warm_up(2.0)

    deliveries: list[tuple] = []

    def receiver(site):
        return lambda msg: deliveries.append(
            (site, msg.origin, msg.flow, msg.seq, round(sim.now, 9))
        )

    # Unicast fan-in (several sources toward common sinks — every hop
    # en route decides for the same destinations), a well-attended
    # multicast group, and disjoint-path traffic — all decision kinds
    # stay hot.
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

    started = time.perf_counter()

    # Settle window: the GSU floods from the joins above move the
    # fingerprint a few times; let them land before calling anything
    # "steady state".
    sim.run(until=sim.now + 1.0)
    baseline = _fwd_counters(overlay)

    # Steady segment: the fingerprint generation holds still and
    # decisions are reused.
    sim.run(until=sim.now + steady_time)
    at_steady_end = _fwd_counters(overlay)
    steady = {k: at_steady_end[k] - baseline[k] for k in at_steady_end}

    # Churn segment: cut a rotating fiber, repair it one period later —
    # each flooded change moves the fingerprint and wholesale-
    # invalidates every node's decision table.
    churn_targets = [FIBERS[(7 * i) % len(FIBERS)] for i in range(8)]
    state = {"i": 0}

    def churn():
        a, b = churn_targets[state["i"] % len(churn_targets)]
        internet.fail_fiber(ISP, a, b)
        sim.schedule(CHURN_PERIOD / 2, lambda: internet.repair_fiber(ISP, a, b))
        state["i"] += 1
        sim.schedule(CHURN_PERIOD, churn)

    sim.schedule(0.0, churn)
    sim.run(until=sim.now + churn_time)
    wall = time.perf_counter() - started

    total = _fwd_counters(overlay)
    churn = {k: total[k] - at_steady_end[k] for k in total}
    return {
        "wall_s": wall,
        "steady": steady,
        "churn": churn,
        "deliveries": deliveries,
    }


def run_forwarding_cache(steady_time: float = STEADY_TIME,
                         churn_time: float = CHURN_TIME) -> dict:
    run = _run_once(steady_time, churn_time)
    steady, churn_stats = run["steady"], run["churn"]
    return {
        "delivered_msgs": len(run["deliveries"]),
        "steady_hits": steady["hits"],
        "steady_misses": steady["misses"],
        "steady_hit_rate": _hit_rate(steady),
        "steady_invalidations": steady["invalidations"],
        "churn_hits": churn_stats["hits"],
        "churn_misses": churn_stats["misses"],
        "churn_hit_rate": _hit_rate(churn_stats),
        "churn_invalidations": churn_stats["invalidations"],
        "wall_s": run["wall_s"],
    }


def _check_shape(result: dict) -> None:
    # Converged steady-state forwarding is a dict hit, not a route-table
    # walk: after one miss per (destination, service) it's nearly all
    # hits. (A handful of invalidations remain even here — periodic LSU
    # refreshes re-advertise the live latency EWMA, which can wiggle by
    # an ulp until it settles on a float fixed point.)
    assert result["steady_hit_rate"] >= 0.8, result
    # Churn moves the fingerprint on every cut and repair: wholesale
    # invalidations concentrate here and the hit rate dips while the
    # per-node decision tables refill.
    assert result["churn_invalidations"] > result["steady_invalidations"], result
    assert result["churn_hit_rate"] < result["steady_hit_rate"], result


def bench_forwarding_cache(benchmark):
    result = run_experiment(benchmark, run_forwarding_cache)
    print_table(
        "Forwarding cache on a 20-node overlay "
        f"({result['delivered_msgs']} deliveries)",
        ["segment", "hits", "misses", "hit rate", "invalidations"],
        [
            ("steady state", result["steady_hits"], result["steady_misses"],
             result["steady_hit_rate"], result["steady_invalidations"]),
            ("churn", result["churn_hits"], result["churn_misses"],
             result["churn_hit_rate"], result["churn_invalidations"]),
        ],
    )
    _check_shape(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="short segments (CI smoke mode)")
    add_profile_arg(parser)
    add_audit_arg(parser)
    args = parser.parse_args()
    enable_audit(args.audit)
    if args.quick:
        result = maybe_profile(args.profile, run_forwarding_cache,
                               steady_time=4.0, churn_time=4.5)
    else:
        result = maybe_profile(args.profile, run_forwarding_cache)
    for key, value in result.items():
        print(f"{key}: {value:.3f}" if isinstance(value, float) else f"{key}: {value}")
    _check_shape(result)
    finish_audit()
    print("ok")
