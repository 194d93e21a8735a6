"""Daemon-restart regressions: protocol epochs and adjacency DB sync.

Both mechanisms exist because of bugs found by the chaos test: after a
node crash + recovery, (a) its fresh protocol instances restart their
link sequence spaces — without epochs, peers discarded thousands of
frames as 'ancient duplicates'; (b) its connectivity/group databases
are stale — without adjacency-bring-up sync, it routed on pre-crash
state and formed transient forwarding loops.
"""

from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, LINK_RELIABLE, ServiceSpec
from tests.conftest import make_triangle_overlay


def test_reliable_flow_resumes_promptly_after_midpath_restart():
    """The original symptom: a reliable stream through a restarted node
    stalled for thousands of packets. With epochs it resumes within
    ~a second of the links coming back."""
    scn = continental_scenario(seed=1501)
    overlay = scn.overlay
    got = []
    overlay.client("site-SEA", 7, on_message=lambda m: got.append((m.seq, scn.sim.now)))
    tx = overlay.client("site-WAS")
    source = CbrSource(scn.sim, tx, Address("site-SEA", 7), rate_pps=50,
                       service=ServiceSpec(link=LINK_RELIABLE)).start()
    scn.run_for(3.0)
    victim = overlay.overlay_path("site-WAS", "site-SEA")[1]
    overlay.crash(victim)
    scn.run_for(4.0)
    overlay.recover(victim)
    recover_at = scn.sim.now
    scn.run_for(10.0)
    source.stop()
    scn.run_for(1.0)
    # Traffic flows continuously well before and after the recovery
    # (the overlay rerouted during the crash; the recovered node's
    # fresh protocol state must not poison anything).
    after = [t for __, t in got if t > recover_at + 2.0]
    assert len(after) > 50 * 7 * 0.9
    seqs = [s for s, __ in got]
    assert len(seqs) == len(set(seqs)), "restart caused duplicate delivery"


def test_restarted_node_forwards_without_duplicate_confusion():
    """Route a stream THROUGH the restarted node and check its fresh
    sender seq space is accepted by the downstream peer."""
    scn = make_triangle_overlay(seed=1502)
    overlay = scn.overlay
    # Pin the route hx -> hy -> hz.
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)
    got = []
    overlay.client("hz", 7, on_message=lambda m: got.append(m.seq))
    tx = overlay.client("hx")
    svc = ServiceSpec(link=LINK_RELIABLE)
    for __ in range(50):
        tx.send(Address("hz", 7), service=svc)
    scn.run_for(3.0)
    first_batch = len(got)
    assert first_batch == 50
    overlay.crash("hy")
    scn.run_for(2.0)
    overlay.recover("hy")
    scn.run_for(3.0)  # links re-up, DBs sync
    for __ in range(50):
        tx.send(Address("hz", 7), service=svc)
    scn.run_for(5.0)
    assert sorted(set(got)) == list(range(100))
    assert len(got) == 100  # no duplicates either
    # The old-instance frames never caused state resets beyond the one
    # genuine restart per (neighbor, protocol).
    assert scn.overlay.counters.get("protocol-peer-restart") <= 8


def test_recovered_node_syncs_databases_from_neighbors():
    """Adjacency bring-up: a recovered node learns current topology and
    group state within ~1 RTT of its links coming up, not after the
    next periodic refresh."""
    scn = continental_scenario(seed=1503)
    overlay = scn.overlay
    rx = overlay.client("site-MIA", 7, on_message=lambda m: None)
    rx.join("mcast:sync-test")
    scn.run_for(1.0)
    overlay.crash("site-DEN")
    scn.run_for(2.0)
    # While DEN is dark, the world changes: a fiber dies and group
    # membership changes.
    scn.internet.fail_fiber("ispA", "NYC", "CHI")
    rx2 = overlay.client("site-BOS", 7, on_message=lambda m: None)
    rx2.join("mcast:sync-test")
    scn.run_for(3.0)
    overlay.recover("site-DEN")
    # Sync should land as soon as links re-up (~0.3 s), far sooner than
    # the 5 s periodic refresh.
    scn.run_for(1.0)
    den = overlay.nodes["site-DEN"]
    reference = overlay.nodes["site-DAL"]
    assert den.group_db.members_view("mcast:sync-test") == (
        reference.group_db.members_view("mcast:sync-test")
    )
    # Structural agreement (link costs keep settling for a few seconds
    # after recovery as loss EWMAs decay, so compare edges, not floats).
    den_edges = {u: set(nbrs) for u, nbrs in den.routing.adjacency().items()}
    ref_edges = {u: set(nbrs) for u, nbrs in reference.routing.adjacency().items()}
    assert den_edges == ref_edges
    # (The NYC-CHI overlay link itself survives the fiber cut by
    # switching carriers — what matters is that DEN's view agrees.)


def test_no_routing_loops_after_recovery():
    scn = continental_scenario(seed=1504)
    overlay = scn.overlay
    streams = []
    for dst in ("site-SEA", "site-MIA", "site-LAX"):
        overlay.client(dst, 7, on_message=lambda m: None)
        tx = overlay.client("site-NYC")
        streams.append(CbrSource(scn.sim, tx, Address(dst, 7), rate_pps=50).start())
    scn.run_for(2.0)
    overlay.crash("site-CHI")
    scn.run_for(5.0)
    overlay.recover("site-CHI")
    scn.run_for(10.0)
    for stream in streams:
        stream.stop()
    scn.run_for(1.0)
    assert overlay.counters.get("overlay-ttl-exceeded") == 0
