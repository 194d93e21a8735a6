"""E10 — multihoming across ISP backbones (Sec II-A).

Connecting each overlay node to multiple ISPs lets the overlay route
around problems affecting a single provider by choosing a different
carrier for an overlay link — without waiting for any underlay
reconvergence and without even changing the overlay path.

Workload: a 50 pps probe stream NYC -> LAX. At t=+5 s, ispA suffers a
provider-wide loss storm (30 % loss on every fiber) lasting 40 s.
Variants: overlay links pinned to ispA only vs multihomed (ispA, ispB,
native). Measured: delivery ratio and worst gap during the storm.

Expected shape: the single-homed overlay suffers heavy loss for the
whole storm; the multihomed overlay switches carriers within seconds
and sails through.
"""

from repro.analysis.metrics import availability_gaps, flow_stats
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, LINK_BEST_EFFORT, ServiceSpec
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.topologies import US_CITIES, overlay_edges, site_name
from repro.core.network import OverlayNetwork
from repro.net.topologies import continental_internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

from bench_util import print_table, run_experiment

RATE = 50.0
STORM_START = 5.0
STORM_LENGTH = 40.0
STORM_LOSS = 0.30


def _run_variant(multihomed: bool, seed: int) -> dict:
    sim = Simulator()
    rngs = RngRegistry(seed)
    internet = continental_internet(sim, rngs, isps=["ispA", "ispB"])
    sites = [site_name(c) for c in US_CITIES]
    links = [(site_name(a), site_name(b)) for a, b in overlay_edges(["ispA", "ispB"])]
    carriers = None
    if not multihomed:
        carriers = {frozenset(l): ["ispA"] for l in links}
    overlay = OverlayNetwork(internet, sites, links, carriers=carriers)
    overlay.warm_up(2.0)

    times = []
    overlay.client("site-LAX", 7, on_message=lambda m: times.append(sim.now))
    tx = overlay.client("site-NYC")
    source = CbrSource(sim, tx, Address("site-LAX", 7), rate_pps=RATE,
                       service=ServiceSpec(link=LINK_BEST_EFFORT)).start()
    sim.run(until=sim.now + STORM_START)
    storm_begin = sim.now
    internet.set_isp_loss("ispA", lambda: BernoulliLoss(STORM_LOSS))
    sim.run(until=sim.now + STORM_LENGTH)
    internet.set_isp_loss("ispA", NoLoss)
    sim.run(until=sim.now + 5.0)
    source.stop()
    sim.run(until=sim.now + 1.0)

    in_storm = [t for t in times if storm_begin <= t < storm_begin + STORM_LENGTH]
    expected_in_storm = RATE * STORM_LENGTH
    gaps = availability_gaps(times, expected_interval=1.0 / RATE)
    switches = sum(
        l.switch_count for n in overlay.nodes.values() for l in n.links.values()
    )
    return {
        "storm_delivery": len(in_storm) / expected_in_storm,
        "worst_gap_s": max((d for __, d in gaps), default=0.0),
        "carrier_switches": switches,
    }


def run_multihoming() -> dict:
    return {
        "single-homed (ispA)": _run_variant(False, seed=2001),
        "multihomed (ispA+ispB)": _run_variant(True, seed=2001),
    }


def bench_e10_multihoming_vs_provider_storm(benchmark):
    table = run_experiment(benchmark, run_multihoming)
    print_table(
        f"E10: {STORM_LOSS:.0%} loss storm on every ispA fiber for "
        f"{STORM_LENGTH:.0f} s (probe NYC -> LAX)",
        ["deployment", "delivery during storm", "worst gap s",
         "carrier switches"],
        [(name, cell["storm_delivery"], cell["worst_gap_s"],
          cell["carrier_switches"]) for name, cell in table.items()],
    )
    single = table["single-homed (ispA)"]
    multi = table["multihomed (ispA+ispB)"]
    # Single-homed: pinned to the stormy provider (loss-aware routing
    # can dodge some of it, but every carrier is stormy).
    assert single["storm_delivery"] < 0.9
    # Multihomed: carrier switching rides out the storm.
    assert multi["storm_delivery"] > 0.95
    assert multi["carrier_switches"] > 0
    assert multi["storm_delivery"] > single["storm_delivery"] + 0.1