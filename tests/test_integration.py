"""Cross-module integration tests: the paper's headline behaviours
end to end on the continental fabric."""

import pytest

from repro.analysis.metrics import availability_gaps, flow_stats
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import (
    Address,
    LINK_RELIABLE,
    ROUTING_DISJOINT,
    ROUTING_FLOOD,
    ServiceSpec,
)
from repro.net.internet import NATIVE
from repro.security.adversary import Blackhole


def test_subsecond_rerouting_vs_native_convergence():
    """E2's shape: after a fiber cut on the primary path, the overlay
    heals in well under a second; the native interdomain path stays
    black for ~40 s."""
    scn = continental_scenario(seed=301, isp_convergence_delay=30.0,
                               native_convergence_delay=40.0)
    overlay = scn.overlay
    internet = scn.internet

    # Overlay probe stream NYC -> LAX.
    got = []
    overlay.client("site-LAX", 7, on_message=lambda m: got.append(scn.sim.now))
    tx = overlay.client("site-NYC")
    probe = CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=50).start()

    # Native probe on the same fabric.
    native_got = []

    def native_probe():
        internet.send("site-NYC", "site-LAX", None, 100, NATIVE,
                      lambda d: native_got.append(scn.sim.now))
        scn.sim.schedule(0.02, native_probe)

    scn.sim.schedule(0.0, native_probe)
    scn.run_for(2.0)

    # Cut the fiber under the first overlay hop (and the native path).
    # Cut the first fiber of the *native* route (the overlay's primary
    # path rides the same fiber on this fabric).
    native_route = internet.current_route("site-NYC", "site-LAX", NATIVE)
    (isp, a), (__, b) = native_route[0], native_route[1]
    internet.fail_fiber(isp, a, b)
    # Run past the native 40 s reconvergence so its outage is measurable.
    scn.run_for(50.0)

    overlay_gaps = availability_gaps(got, 0.02)
    native_gaps = availability_gaps(native_got, 0.02)
    assert overlay_gaps, "overlay should see a brief interruption"
    assert max(d for __, d in overlay_gaps) < 1.0, "overlay healed sub-second"
    assert native_gaps and max(d for __, d in native_gaps) > 15.0


def test_disjoint_paths_tolerate_k_minus_1_compromises():
    """E5's guarantee boundary on the full continental overlay."""

    def delivered_with_compromises(k, compromised):
        scn = continental_scenario(seed=302)
        overlay = scn.overlay
        src, dst = "site-NYC", "site-LAX"
        mask = overlay.nodes[src].routing.source_bitmask(
            dst, ServiceSpec(routing=ROUTING_DISJOINT, k=k)
        )
        edges = overlay.link_index.edges_of_mask(mask)
        interior = {n for e in edges for n in e} - {src, dst}
        victims = sorted(interior)[:compromised]
        for victim in victims:
            overlay.compromise(victim, Blackhole())
        got = []
        overlay.client(dst, 7, on_message=got.append)
        overlay.client(src).send(
            Address(dst, 7), service=ServiceSpec(routing=ROUTING_DISJOINT, k=k)
        )
        scn.run_for(2.0)
        return len(got), len(interior)

    delivered, interior_count = delivered_with_compromises(k=2, compromised=1)
    assert delivered == 1
    if interior_count >= 2:
        # Compromising a node on EVERY path can block k-path routing.
        scn = continental_scenario(seed=303)
        overlay = scn.overlay
        mask = overlay.nodes["site-NYC"].routing.source_bitmask(
            "site-LAX", ServiceSpec(routing=ROUTING_DISJOINT, k=2)
        )
        edges = overlay.link_index.edges_of_mask(mask)
        import networkx as nx

        g = nx.Graph(list(edges))
        cutset = nx.minimum_node_cut(g, "site-NYC", "site-LAX")
        for victim in cutset:
            overlay.compromise(victim, Blackhole())
        got = []
        overlay.client("site-LAX", 7, on_message=got.append)
        overlay.client("site-NYC").send(
            Address("site-LAX", 7),
            service=ServiceSpec(routing=ROUTING_DISJOINT, k=2),
        )
        scn.run_for(2.0)
        assert got == [], "a full cut of the dissemination subgraph blocks it"


def test_constrained_flooding_survives_any_non_cut_compromise_set():
    """Flooding delivers as long as one correct path exists (Sec IV-B)."""
    import networkx as nx

    scn = continental_scenario(seed=304)
    overlay = scn.overlay
    src, dst = "site-SEA", "site-MIA"
    # Compromise three scattered interior nodes that do NOT cut the graph.
    victims = ["site-DEN", "site-CHI", "site-WAS"]
    from repro.net.topologies import overlay_edges

    g = nx.Graph([(f"site-{a}", f"site-{b}") for a, b in overlay_edges(["ispA", "ispB"])])
    g.remove_nodes_from(victims)
    assert nx.has_path(g, src, dst), "test premise: victims are not a cut"
    for victim in victims:
        overlay.compromise(victim, Blackhole())
    got = []
    overlay.client(dst, 7, on_message=got.append)
    overlay.client(src).send(Address(dst, 7), service=ServiceSpec(routing=ROUTING_FLOOD))
    scn.run_for(2.0)
    assert len(got) == 1


def test_overlay_paths_prefer_disjoint_fiber_audit():
    """Fig 1 / F1: the two min-cost node-disjoint overlay paths between
    the coasts ride fully disjoint fiber in the underlay."""
    scn = continental_scenario(seed=305)
    overlay = scn.overlay
    routing = overlay.nodes["site-NYC"].routing
    from repro.alg.disjoint import node_disjoint_paths

    paths = node_disjoint_paths(
        routing.adjacency(), "site-NYC", "site-LAX", 2
    )
    assert len(paths) == 2
    fibers = []
    for path in paths:
        path_fibers = set()
        for a, b in zip(path, path[1:]):
            link = overlay.nodes[a].links[b]
            for fiber in scn.internet.fiber_route(link.node_host, link.nbr_host,
                                                  link.carrier):
                path_fibers.add(fiber.name)
        fibers.append(path_fibers)
    assert not (fibers[0] & fibers[1]), "disjoint overlay paths share fiber"


def test_reliable_flow_survives_mid_stream_reroute():
    scn = continental_scenario(seed=306)
    overlay = scn.overlay
    got = []
    overlay.client("site-LAX", 7, on_message=lambda m: got.append(m.seq))
    tx = overlay.client("site-NYC")
    svc = ServiceSpec(link=LINK_RELIABLE, ordered=True, deadline=2.0)
    source = CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=100,
                       service=svc).start()
    scn.run_for(2.0)
    path = overlay.overlay_path("site-NYC", "site-LAX")
    a, b = path[1].removeprefix("site-"), path[2].removeprefix("site-")
    scn.internet.fail_fiber("ispA", a, b)
    scn.internet.fail_fiber("ispB", a, b)  # kill both carriers of that hop
    scn.run_for(5.0)
    source.stop()
    scn.run_for(2.0)
    stats = flow_stats(overlay.trace, source.flow, "site-LAX:7")
    # Hop-by-hop ARQ cannot save the packets buffered on the dead hop
    # during the ~0.3 s detection window; everything else arrives.
    assert stats.delivery_ratio > 0.93
    lost = stats.sent - stats.delivered
    assert lost < 0.6 * 100  # far less than a second of traffic at 100 pps
    assert got == sorted(got)


def test_all_protocol_routing_combinations_coexist():
    """F2: one node serves flows on every routing x link combination at
    the same time (the architecture's flexibility claim)."""
    from repro.core.message import (
        LINK_BEST_EFFORT,
        LINK_IT_PRIORITY,
        LINK_IT_RELIABLE,
        LINK_NM_STRIKES,
        LINK_REALTIME,
        LINK_SINGLE_STRIKE,
        ROUTING_GRAPH,
        ROUTING_LINK_STATE,
    )

    scn = continental_scenario(seed=307)
    overlay = scn.overlay
    combos = [
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_BEST_EFFORT),
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_RELIABLE),
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_REALTIME),
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_NM_STRIKES),
        ServiceSpec(routing=ROUTING_DISJOINT, link=LINK_BEST_EFFORT, k=2),
        ServiceSpec(routing=ROUTING_DISJOINT, link=LINK_SINGLE_STRIKE, k=3),
        ServiceSpec(routing=ROUTING_FLOOD, link=LINK_BEST_EFFORT),
        ServiceSpec(routing=ROUTING_GRAPH, link=LINK_SINGLE_STRIKE),
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_IT_PRIORITY),
        ServiceSpec(routing=ROUTING_LINK_STATE, link=LINK_IT_RELIABLE),
    ]
    received = {i: [] for i in range(len(combos))}
    for i in range(len(combos)):
        overlay.client("site-LAX", 700 + i,
                       on_message=lambda m, i=i: received[i].append(m))
    tx = overlay.client("site-NYC")
    for i, svc in enumerate(combos):
        tx.send(Address("site-LAX", 700 + i), service=svc)
    scn.run_for(3.0)
    for i, msgs in received.items():
        assert len(msgs) == 1, f"combo {i} ({combos[i]}) failed"
