"""Overlay node routing behaviours on small overlays."""

import pytest

from repro.core.message import (
    Address,
    LINK_RELIABLE,
    ROUTING_DISJOINT,
    ROUTING_FLOOD,
    ServiceSpec,
)
from tests.conftest import make_triangle_overlay


def _send_and_run(scn, src, dst_addr, service=None, run=1.0):
    got = []
    rx = scn.overlay.client(dst_addr.node, dst_addr.port, on_message=got.append)
    tx = scn.overlay.client(src)
    tx.send(dst_addr, payload="ping", service=service)
    scn.run_for(run)
    return got


def test_unicast_delivery():
    scn = make_triangle_overlay()
    got = _send_and_run(scn, "hx", Address("hz", 7))
    assert len(got) == 1
    assert got[0].payload == "ping"


def test_unicast_to_unknown_port_dropped():
    scn = make_triangle_overlay()
    tx = scn.overlay.client("hx")
    tx.send(Address("hz", 999))
    scn.run_for(1.0)
    assert scn.overlay.counters.get("no-local-client") == 1


def test_delivery_latency_includes_proc_delay():
    scn = make_triangle_overlay()
    got = []
    rx = scn.overlay.client("hz", 7, on_message=lambda m: got.append(scn.sim.now - m.sent_at))
    tx = scn.overlay.client("hx")
    tx.send(Address("hz", 7))
    scn.run_for(1.0)
    # One 10 ms leg + origin and egress processing.
    assert 0.010 < got[0] < 0.015


def test_reroute_after_link_failure():
    """Sub-second rerouting: hx->hz moves to hx-hy-hz when the direct
    leg's fiber dies, long before the underlay reconverges."""
    scn = make_triangle_overlay(seed=9)
    overlay = scn.overlay
    assert overlay.overlay_path("hx", "hz") == ["hx", "hz"]
    scn.internet.isps["tri"].fail_link("x", "z")
    fail_at = scn.sim.now
    scn.run_for(1.0)
    assert overlay.overlay_path("hx", "hz") == ["hx", "hy", "hz"]
    got = _send_and_run(scn, "hx", Address("hz", 7))
    assert len(got) == 1


def test_forwarding_through_middle_node():
    scn = make_triangle_overlay(seed=9)
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(1.0)
    before = scn.overlay.counters.get("forwarded")
    got = _send_and_run(scn, "hx", Address("hz", 7))
    assert got
    assert scn.overlay.counters.get("forwarded") > before


def test_multicast_delivers_to_all_members_once():
    scn = make_triangle_overlay()
    got_y, got_z = [], []
    scn.overlay.client("hy", 5, on_message=got_y.append).join("mcast:g")
    scn.overlay.client("hz", 5, on_message=got_z.append).join("mcast:g")
    scn.run_for(1.0)  # GSU flood
    tx = scn.overlay.client("hx")
    tx.send(Address("mcast:g", 5))
    scn.run_for(1.0)
    assert len(got_y) == 1 and len(got_z) == 1


def test_multicast_sender_need_not_join():
    scn = make_triangle_overlay()
    got = []
    scn.overlay.client("hy", 5, on_message=got.append).join("mcast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("mcast:g", 5))
    scn.run_for(1.0)
    assert len(got) == 1


def test_multicast_after_leave_stops_delivery():
    scn = make_triangle_overlay()
    got = []
    rx = scn.overlay.client("hy", 5, on_message=got.append)
    rx.join("mcast:g")
    scn.run_for(1.0)
    rx.leave("mcast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("mcast:g", 5))
    scn.run_for(1.0)
    assert got == []


def test_local_multicast_members_receive():
    scn = make_triangle_overlay()
    got = []
    scn.overlay.client("hx", 5, on_message=got.append).join("mcast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("mcast:g", 5))
    scn.run_for(0.5)
    assert len(got) == 1


def test_anycast_picks_nearest_member():
    scn = make_triangle_overlay()
    got_y, got_z = [], []
    scn.overlay.client("hy", 5, on_message=got_y.append).join("acast:g")
    scn.overlay.client("hz", 5, on_message=got_z.append).join("acast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("acast:g", 5))
    scn.run_for(1.0)
    assert len(got_y) + len(got_z) == 1  # exactly one member


def test_anycast_no_members_rejected():
    scn = make_triangle_overlay()
    tx = scn.overlay.client("hx")
    assert not tx.send(Address("acast:empty", 5))
    assert scn.overlay.counters.get("anycast-no-member") == 1


def test_anycast_rerosolves_when_member_leaves():
    scn = make_triangle_overlay()
    got_y, got_z = [], []
    ry = scn.overlay.client("hy", 5, on_message=got_y.append)
    ry.join("acast:g")
    scn.run_for(1.0)
    ry.close()
    rz = scn.overlay.client("hz", 5, on_message=got_z.append)
    rz.join("acast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("acast:g", 5))
    scn.run_for(1.0)
    assert got_z and not got_y


def test_source_routed_disjoint_delivery():
    scn = make_triangle_overlay()
    got = _send_and_run(
        scn, "hx", Address("hz", 7), ServiceSpec(routing=ROUTING_DISJOINT, k=2)
    )
    assert len(got) == 1  # delivered once despite two copies


def test_flooding_delivers_once():
    scn = make_triangle_overlay()
    got = _send_and_run(scn, "hx", Address("hz", 7), ServiceSpec(routing=ROUTING_FLOOD))
    assert len(got) == 1


def test_flooding_duplicates_are_absorbed():
    scn = make_triangle_overlay()
    sent_before = scn.internet.counters.get("datagrams-sent")
    got = _send_and_run(scn, "hx", Address("hz", 7), ServiceSpec(routing=ROUTING_FLOOD))
    assert len(got) == 1
    # Flooding used more datagrams than a single path would.
    used = scn.internet.counters.get("datagrams-sent") - sent_before
    assert used > 3  # strictly more than hello traffic for one packet


def test_reliable_link_protocol_on_overlay():
    # Latency-only routing costs keep the route pinned; under 20% loss,
    # loss-aware costs would flip routes mid-burst and drop in-flight
    # messages at the routing level (tested elsewhere).
    from repro.core.config import OverlayConfig

    scn = make_triangle_overlay(
        loss_rate=0.2, seed=11, config=OverlayConfig(loss_cost_factor=0.0)
    )
    got = []
    scn.overlay.client("hz", 7, on_message=got.append)
    tx = scn.overlay.client("hx")
    svc = ServiceSpec(link=LINK_RELIABLE, ordered=True)
    for __ in range(100):
        tx.send(Address("hz", 7), service=svc)
    scn.run_for(10.0)
    assert len(got) == 100
    assert [m.seq for m in got] == list(range(100))


def test_ttl_guards_against_loops():
    scn = make_triangle_overlay()
    tx = scn.overlay.client("hx")
    msg_count = scn.overlay.counters.get("overlay-ttl-exceeded")
    assert msg_count == 0


def test_parallel_overlays_are_independent():
    """Sec II-B: multiple overlays can run in parallel over the same
    underlay."""
    from repro.core.network import OverlayNetwork
    from repro.net.topologies import triangle_internet
    from repro.sim.events import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    rngs = RngRegistry(5)
    inet = triangle_internet(sim, rngs)
    ov1 = OverlayNetwork(inet, ["hx", "hy", "hz"],
                         [("hx", "hy"), ("hy", "hz"), ("hx", "hz")])
    ov2 = OverlayNetwork(inet, ["hx", "hy"], [("hx", "hy")])
    ov1.start()
    ov2.start()
    sim.run(until=2.0)
    got1, got2 = [], []
    ov1.client("hz", 7, on_message=got1.append)
    ov2.client("hy", 7, on_message=got2.append)
    ov1.client("hx").send(Address("hz", 7))
    ov2.client("hx").send(Address("hy", 7))
    sim.run(until=3.0)
    assert len(got1) == 1 and len(got2) == 1


@pytest.mark.parametrize("cost", [-1.0, float("nan"), float("inf")])
def test_malformed_lsu_is_refused_not_routed_on(cost):
    """A forged link-state record with a negative or non-finite cost,
    delivered to one node of a running overlay, is counted and dropped
    there: no replica's graph moves, nothing is re-flooded, and traffic
    keeps flowing (it used to be stored, flooded, and to raise out of
    whichever forwarding decision first relaxed the edge)."""
    from repro.core.message import Frame

    scn = make_triangle_overlay(seed=9)
    overlay = scn.overlay
    assert overlay.converged()
    before = {n.id: (n.topo_db.fingerprint, n.topo_db.version)
              for n in overlay.nodes.values()}
    forged = {"origin": "hy", "seq": overlay.nodes["hy"].topo_db.seq("hy") + 1,
              "costs": {"hx": cost, "hz": 0.01}}
    overlay.nodes["hx"].receive_frame(Frame(
        proto="control", ftype="state", src_node="hy", dst_node="hx",
        info={"records": [("lsu", forged)]}))
    scn.run_for(0.3)  # shorter than the run to the next refresh
    assert overlay.counters.get("lsu-rejected") == 1
    assert before == {n.id: (n.topo_db.fingerprint, n.topo_db.version)
                      for n in overlay.nodes.values()}
    got = _send_and_run(scn, "hx", Address("hz", 7))
    assert len(got) == 1
