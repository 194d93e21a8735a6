"""E2 — sub-second overlay rerouting vs ~40 s interdomain convergence.

Sec II-A: BGP may take 40 seconds to minutes to converge after some
faults; the overlay's shared connectivity graph reroutes around the
same fault at sub-second scale.

Workload: 50 pps probe streams NYC -> LAX, one through the overlay and
one over the native interdomain path, on the same fabric. At t=+5 s the
first fiber of the shared route is cut. Service interruption = the
longest delivery gap in each stream.

Expected shape: overlay outage < 1 s; native outage ~ the 40 s BGP
convergence delay; both streams healthy before and after.
"""

from repro.analysis.metrics import availability_gaps
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address
from repro.net.internet import NATIVE

from bench_util import print_table, run_experiment

RATE = 50.0
NATIVE_CONVERGENCE = 40.0
#: The window after the cut whose overlay work the bench reports.
CUT_WINDOW = 2.0


def run_rerouting():
    scn = continental_scenario(
        seed=1201,
        isp_convergence_delay=30.0,
        native_convergence_delay=NATIVE_CONVERGENCE,
    )
    overlay = scn.overlay
    internet = scn.internet

    overlay_times: list[float] = []
    overlay.client("site-LAX", 7, on_message=lambda m: overlay_times.append(scn.sim.now))
    tx = overlay.client("site-NYC")
    CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=RATE).start()

    native_times: list[float] = []

    def native_probe():
        internet.send("site-NYC", "site-LAX", None, 100, NATIVE,
                      lambda d: native_times.append(scn.sim.now))
        scn.sim.schedule(1.0 / RATE, native_probe)

    scn.sim.schedule(0.0, native_probe)
    scn.run_for(5.0)

    def work():
        counters = overlay.counters.as_dict()
        return {"switches": sum(link.switch_count
                                for node in overlay.nodes.values()
                                for link in node.links.values()),
                "route.compute": counters.get("route.compute", 0),
                "fwd.invalidate": counters.get("fwd.invalidate", 0)}

    native_route = internet.current_route("site-NYC", "site-LAX", NATIVE)
    (isp, a), (__, b) = native_route[0], native_route[1]
    cut_at = scn.sim.now
    internet.fail_fiber(isp, a, b)
    at_cut = work()
    scn.run_for(CUT_WINDOW)
    cut_work = {key: n - at_cut[key] for key, n in work().items()}
    scn.run_for(NATIVE_CONVERGENCE + 15.0 - CUT_WINDOW)

    def longest_gap(times):
        gaps = availability_gaps(times, expected_interval=1.0 / RATE)
        return max((d for __, d in gaps), default=0.0)

    counters = overlay.counters.as_dict()
    # Returning (value, scenario) lets run_experiment record the full
    # route.*/fwd.*/timer.* counter set into benchmark.extra_info.
    return {
        "overlay_outage_s": longest_gap(overlay_times),
        "native_outage_s": longest_gap(native_times),
        "cut_fiber": f"{isp}:{a}-{b}",
        "cut_at_s": cut_at,
        "route_computes": counters.get("route.compute", 0),
        "route_hits": counters.get("route.hit", 0),
        "route_evictions": counters.get("route.evict", 0),
        "fwd_hits": counters.get("fwd.hit", 0),
        "fwd_misses": counters.get("fwd.miss", 0),
        "fwd_invalidations": counters.get("fwd.invalidate", 0),
        "cut_switches": cut_work["switches"],
        "cut_route_computes": cut_work["route.compute"],
        "cut_fwd_invalidations": cut_work["fwd.invalidate"],
    }, scn


def bench_e2_overlay_vs_native_rerouting(benchmark):
    result = run_experiment(benchmark, run_rerouting)
    print_table(
        "E2: service interruption after a fiber cut (same fabric)",
        ["path", "outage s"],
        [
            ("structured overlay", result["overlay_outage_s"]),
            ("native Internet", result["native_outage_s"]),
        ],
    )
    # Paper: sub-second overlay reaction vs ~40 s interdomain convergence.
    assert 0.0 < result["overlay_outage_s"] < 1.0
    assert result["native_outage_s"] > 0.8 * NATIVE_CONVERGENCE
    assert result["native_outage_s"] > 30 * result["overlay_outage_s"]
    print_table(
        "Cache counters across the cut",
        ["counter", "value"],
        [
            ("route.compute", result["route_computes"]),
            ("route.hit", result["route_hits"]),
            ("route.evict", result["route_evictions"]),
            ("fwd.hit", result["fwd_hits"]),
            ("fwd.miss", result["fwd_misses"]),
            ("fwd.invalidate", result["fwd_invalidations"]),
            (f"carrier switches, cut + {CUT_WINDOW:g} s",
             result["cut_switches"]),
            (f"route.compute, cut + {CUT_WINDOW:g} s",
             result["cut_route_computes"]),
            (f"fwd.invalidate, cut + {CUT_WINDOW:g} s",
             result["cut_fwd_invalidations"]),
        ],
    )
    # The cut fiber lies under an overlay link's current carrier, not
    # under every carrier of it: the link moves its traffic to another
    # carrier and stays up, so the shared graph, the route tables and
    # the forwarding caches see nothing in the window after the cut.
    assert result["cut_switches"] >= 1
    assert result["cut_route_computes"] == 0
    assert result["cut_fwd_invalidations"] == 0
    # The per-node forwarding caches serve the steady probe stream.
    assert result["fwd_hits"] > result["fwd_misses"]
