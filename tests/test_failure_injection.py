"""Fault injection: fail-stop node crashes and recovery.

A crashed overlay daemon goes silent (no hellos, no forwarding);
neighbors detect the silence within the hello-miss budget, flood
link-down updates, and the overlay routes around the dead node —
Sec II-A's resilience story for node (not just link) failures.
"""

from repro.analysis.metrics import availability_gaps
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, ROUTING_FLOOD, ServiceSpec
from tests.conftest import make_triangle_overlay


def test_crashed_node_is_detected_and_routed_around():
    scn = make_triangle_overlay(seed=401)
    overlay = scn.overlay
    # Force hx->hz through hy, then crash hy.
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(1.0)
    assert overlay.overlay_path("hx", "hz") == ["hx", "hy", "hz"]
    overlay.crash("hy")
    scn.run_for(2.0)
    # hy's links are down in everyone's connectivity graph...
    adj = overlay.nodes["hx"].routing.adjacency()
    assert adj.get("hy", {}) == {} or "hy" not in adj["hx"]
    # ...and after the underlay reconverges the direct leg works again.
    scn.internet.isps["tri"].repair_link("x", "z")
    scn.run_for(8.0)
    got = []
    overlay.client("hz", 7, on_message=got.append)
    overlay.client("hx").send(Address("hz", 7))
    scn.run_for(1.0)
    assert len(got) == 1


def test_crash_detection_is_subsecond():
    scn = make_triangle_overlay(seed=402)
    overlay = scn.overlay
    overlay.crash("hy")
    crash_at = scn.sim.now
    # Watch hx's link to hy flip down.
    link = overlay.nodes["hx"].links["hy"]
    while link.up and scn.sim.now < crash_at + 2.0:
        scn.sim.step()
    assert not link.up
    assert scn.sim.now - crash_at < 1.0


def test_recovered_node_rejoins_routing():
    scn = make_triangle_overlay(seed=403)
    overlay = scn.overlay
    overlay.crash("hy")
    scn.run_for(2.0)
    overlay.recover("hy")
    scn.run_for(2.0)
    assert overlay.converged()
    got = []
    overlay.client("hy", 7, on_message=got.append)
    overlay.client("hx").send(Address("hy", 7))
    scn.run_for(1.0)
    assert len(got) == 1


def test_stream_survives_node_crash_on_path():
    """A continental stream keeps flowing when an intermediate node
    dies mid-stream: sub-second interruption, then back to normal."""
    scn = continental_scenario(seed=404)
    overlay = scn.overlay
    times = []
    overlay.client("site-LAX", 7, on_message=lambda m: times.append(scn.sim.now))
    tx = overlay.client("site-NYC")
    source = CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=50).start()
    scn.run_for(3.0)
    victim = overlay.overlay_path("site-NYC", "site-LAX")[1]
    overlay.crash(victim)
    scn.run_for(10.0)
    source.stop()
    scn.run_for(1.0)
    gaps = availability_gaps(times, expected_interval=0.02)
    assert gaps, "expected a brief interruption at the crash"
    assert max(d for __, d in gaps) < 1.0
    # Traffic is flowing again at the end.
    assert times[-1] > scn.sim.now - 2.0


def test_flooding_tolerates_node_crash_without_detection():
    """Constrained flooding does not even need the crash detected:
    copies on other links deliver immediately."""
    scn = continental_scenario(seed=405)
    overlay = scn.overlay
    victim = overlay.overlay_path("site-DAL", "site-CHI")[1]
    overlay.crash(victim)
    # No time for detection: send immediately after the crash.
    got = []
    overlay.client("site-CHI", 7, on_message=got.append)
    overlay.client("site-DAL").send(
        Address("site-CHI", 7), service=ServiceSpec(routing=ROUTING_FLOOD)
    )
    scn.run_for(1.0)
    assert len(got) == 1


def test_multicast_tree_heals_after_member_path_crash():
    scn = continental_scenario(seed=406)
    overlay = scn.overlay
    got = []
    rx = overlay.client("site-MIA", 7, on_message=lambda m: got.append(m.seq))
    rx.join("mcast:g")
    scn.run_for(1.0)
    tx = overlay.client("site-SEA")
    source = CbrSource(scn.sim, tx, Address("mcast:g", 7), rate_pps=20).start()
    scn.run_for(2.0)
    # Crash the tree's first hop below the source.
    children = overlay.nodes["site-SEA"].routing.multicast_children(
        "site-SEA", "mcast:g"
    )
    overlay.crash(children[0])
    scn.run_for(5.0)
    source.stop()
    scn.run_for(1.0)
    # Delivery resumed after the tree recomputed around the dead node.
    received_late = [s for s in got if s > 20 * 4]
    assert received_late, "multicast never healed after the crash"
