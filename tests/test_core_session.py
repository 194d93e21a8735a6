"""Session interface: ports, groups, and egress reorder buffers."""

import pytest

from repro.core.message import Address, LINK_RELIABLE, OverlayMessage, ServiceSpec
from tests.conftest import make_triangle_overlay, make_two_node_line


def test_duplicate_port_rejected():
    scn = make_triangle_overlay()
    scn.overlay.client("hx", 5)
    with pytest.raises(ValueError):
        scn.overlay.client("hx", 5)


def test_auto_port_assignment():
    scn = make_triangle_overlay()
    a = scn.overlay.client("hx")
    b = scn.overlay.client("hx")
    assert a.port != b.port


def test_close_releases_port():
    scn = make_triangle_overlay()
    client = scn.overlay.client("hx", 5)
    client.close()
    scn.overlay.client("hx", 5)  # no error


def test_close_withdraws_group_interest():
    scn = make_triangle_overlay()
    rx = scn.overlay.client("hy", 5, on_message=lambda m: None)
    rx.join("mcast:g")
    scn.run_for(1.0)
    node_x = scn.overlay.nodes["hx"]
    assert node_x.group_db.members("mcast:g") == ["hy"]
    rx.close()
    scn.run_for(1.0)
    assert node_x.group_db.members("mcast:g") == []


def test_two_clients_same_group_same_node():
    scn = make_triangle_overlay()
    got1, got2 = [], []
    scn.overlay.client("hy", 5, on_message=got1.append).join("mcast:g")
    scn.overlay.client("hy", 6, on_message=got2.append).join("mcast:g")
    scn.run_for(1.0)
    scn.overlay.client("hx").send(Address("mcast:g", 5))
    scn.run_for(1.0)
    assert len(got1) == 1 and len(got2) == 1


class TestReorderBuffer:
    def _ordered_flow(self, scn, deadline=None, count=50, loss_free_run=10.0):
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=True, deadline=deadline)
        for __ in range(count):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(loss_free_run)
        return got

    def test_in_order_delivery_over_lossy_link(self):
        scn = make_two_node_line(seed=21, loss_rate=0.15)
        got = self._ordered_flow(scn)
        assert got == list(range(50))

    def test_unordered_flows_may_reorder_but_all_arrive(self):
        scn = make_two_node_line(seed=22, loss_rate=0.15)
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=False)
        for __ in range(50):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(10.0)
        assert sorted(got) == list(range(50))

    def test_deadline_skips_unrecoverable_gap(self):
        """With best-effort under loss, ordered+deadline delivery must
        advance past holes instead of stalling forever (Sec IV-A)."""
        scn = make_two_node_line(seed=23, loss_rate=0.2)
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(ordered=True, deadline=0.1)  # best-effort link
        for __ in range(200):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(10.0)
        assert len(got) > 100  # most made it despite 20% loss
        assert got == sorted(got)  # strictly in order
        assert scn.overlay.counters.get("reorder-skipped") > 0

    def test_late_recovered_packet_discarded(self):
        scn = make_two_node_line(seed=24, loss_rate=0.2)
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        tx = scn.overlay.client("h0")
        # Reliable link recovers everything, but a 30 ms deadline over a
        # 10 ms link means recovered packets often arrive after the
        # buffer moved on: they must be discarded, not delivered.
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=True, deadline=0.03)
        for __ in range(300):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(15.0)
        assert got == sorted(got)
        assert scn.overlay.counters.get("late-discarded") > 0

    def test_mid_stream_group_join_starts_at_first_seen_seq(self):
        scn = make_two_node_line(seed=25)
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=True)
        early = scn.overlay.client("h1", 6, on_message=lambda m: None)
        early.join("mcast:g")
        scn.run_for(1.0)
        for __ in range(10):
            tx.send(Address("mcast:g", 6), service=svc)
        scn.run_for(2.0)
        got = []
        late = scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        late.join("mcast:g")
        scn.run_for(1.0)
        for __ in range(10):
            tx.send(Address("mcast:g", 6), service=svc)
        scn.run_for(2.0)
        # The late joiner's in-order window starts where it tuned in.
        assert got == list(range(10, 20))

    def test_unicast_first_packet_recovery_is_not_discarded(self):
        """A unicast ordered flow starts at seq 0 even if the first
        packet needs recovery — it must not be treated as a mid-stream
        join and discarded."""
        scn = make_two_node_line(seed=26, loss_rate=0.3)
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=True)
        for __ in range(30):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(10.0)
        assert got == list(range(30))


class TestReopenedPort:
    """``close()`` ends the port's in-order windows: a later client on
    the same port must not inherit them."""

    def test_new_client_does_not_feed_the_closed_one(self):
        scn = make_two_node_line(seed=27)
        old, new = [], []
        tx = scn.overlay.client("h0")
        svc = ServiceSpec(link=LINK_RELIABLE, ordered=True, deadline=0.1)
        rx = scn.overlay.client("h1", 7, on_message=lambda m: old.append(m.seq))
        for __ in range(3):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(1.0)
        assert old == [0, 1, 2]
        rx.close()
        assert not scn.overlay.nodes["h1"].session._reorder
        scn.overlay.client("h1", 7, on_message=lambda m: new.append(m.seq))
        for __ in range(3):
            tx.send(Address("h1", 7), service=svc)
        scn.run_for(1.0)
        # The flow is mid-stream for the new connection: its own window
        # waits out the deadline for 0..2, then delivers what it saw.
        assert old == [0, 1, 2]
        assert new == [3, 4, 5]

    def test_pending_gap_skip_dies_with_the_connection(self):
        scn = make_two_node_line(seed=28)
        got = []
        rx = scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
        session = scn.overlay.nodes["h1"].session
        # Seq 2 of an ordered unicast flow arrives first: it is buffered
        # behind the gap and a skip is armed at its deadline.
        session.deliver_local(OverlayMessage(
            flow="f", seq=2, src=Address("h0", 1), dst=Address("h1", 7),
            service=ServiceSpec(ordered=True, deadline=0.1), origin="h0",
            sent_at=scn.sim.now,
        ))
        pending = scn.sim.pending_events
        rx.close()
        assert scn.sim.pending_events == pending - 1
        scn.run_for(1.0)
        assert got == []
        assert scn.overlay.counters.get("reorder-skipped") == 0


def test_noop_leave_floods_nothing():
    """Leaving a group the node has no member of (never joined, or
    already left) changes no membership, so no GSU is originated."""
    scn = make_triangle_overlay()
    rx = scn.overlay.client("hy", 5)
    rx.join("mcast:g")
    rx.leave("mcast:g")
    scn.run_for(0.5)
    node = scn.overlay.nodes["hy"]
    counters = scn.overlay.counters
    before = (node._gsu_seq, node.group_db.fingerprint,
              counters.get("flood.frames"))
    rx.leave("mcast:g")  # second leave
    rx.leave("mcast:never-joined")
    scn.run_for(0.5)
    assert (node._gsu_seq, node.group_db.fingerprint,
            counters.get("flood.frames")) == before
