"""Network partitions: each side keeps serving its own clients, and the
merge heals state everywhere (the hardest case for flooded databases)."""

from repro.analysis.scenarios import continental_scenario
from repro.core.message import Address

#: Cutting these fibers in BOTH ISPs splits the 12-city overlay into a
#: west side and an east side (every west-east edge in both footprints).
PARTITION_CUTS = [
    ("DEN", "CHI"), ("DAL", "STL"), ("DAL", "ATL"), ("DEN", "STL"),
]
WEST = ["SEA", "SFO", "LAX", "DEN", "DAL"]
EAST = ["CHI", "STL", "ATL", "MIA", "WAS", "NYC", "BOS"]


def _partition(scn):
    applied = []
    for a, b in PARTITION_CUTS:
        for isp in scn.internet.isps:
            try:
                scn.internet.fail_fiber(isp, a, b)
                applied.append((isp, a, b))
            except KeyError:
                pass  # this ISP has no such fiber
    return applied


def _heal(scn, applied):
    for isp, a, b in applied:
        scn.internet.repair_fiber(isp, a, b)


def test_partition_is_complete():
    import networkx as nx
    from repro.net.topologies import ISP_FOOTPRINTS

    for isp in ("ispA", "ispB"):
        g = nx.Graph(ISP_FOOTPRINTS[isp])
        g.remove_edges_from(PARTITION_CUTS)
        assert not nx.has_path(g, "LAX", "NYC"), isp


def test_each_side_keeps_working_during_partition():
    scn = continental_scenario(seed=4201)
    applied = _partition(scn)
    scn.run_for(3.0)  # links detected down, LSUs flooded per side
    west_got, east_got = [], []
    scn.overlay.client("site-LAX", 7, on_message=west_got.append)
    scn.overlay.client("site-NYC", 7, on_message=east_got.append)
    scn.overlay.client("site-SEA").send(Address("site-LAX", 7))
    scn.overlay.client("site-BOS").send(Address("site-NYC", 7))
    scn.run_for(1.0)
    assert len(west_got) == 1
    assert len(east_got) == 1
    # Cross-partition traffic goes nowhere.
    cross = []
    scn.overlay.client("site-MIA", 77, on_message=cross.append)
    scn.overlay.client("site-SFO").send(Address("site-MIA", 77))
    scn.run_for(2.0)
    assert cross == []


def test_merge_heals_state_and_service():
    scn = continental_scenario(seed=4202)
    # Group membership changes on both sides *during* the partition.
    applied = _partition(scn)
    scn.run_for(3.0)
    west_rx = scn.overlay.client("site-SEA", 7, on_message=lambda m: None)
    west_rx.join("mcast:merge")
    east_got = []
    east_rx = scn.overlay.client("site-BOS", 7, on_message=lambda m: east_got.append(m.seq))
    east_rx.join("mcast:merge")
    scn.run_for(2.0)
    # East does not know about west's member yet (partition).
    bos_view = scn.overlay.nodes["site-BOS"].group_db.members_view("mcast:merge")
    assert "site-SEA" not in bos_view
    _heal(scn, applied)
    convergence = scn.internet.isps["ispA"].convergence_delay
    scn.run_for(convergence + 5.0)
    assert scn.overlay.converged()
    # Both sides now agree on membership...
    for node in scn.overlay.nodes.values():
        assert node.group_db.members_view("mcast:merge") == (
            "site-BOS", "site-SEA"
        )
    # ...and cross-country multicast reaches both members.
    west_got = []
    west_rx.node.session.clients[7].on_message = lambda m: west_got.append(m.seq)
    scn.overlay.client("site-MIA").send(Address("mcast:merge", 7))
    scn.run_for(1.0)
    assert len(east_got) >= 1
    assert len(west_got) == 1
