"""Security substrate: unforgeability and adversary behaviours."""

import pytest

from repro.core.message import (
    Address,
    OverlayMessage,
    ROUTING_DISJOINT,
    ROUTING_FLOOD,
    ServiceSpec,
)
from repro.core.pipeline import SENT_WINDOW
from repro.security.adversary import (
    Blackhole,
    DelayInjector,
    Duplicator,
    NodeBehavior,
    SelectiveDropper,
)
from repro.security.crypto import AuthToken, Authenticator, KeyStore
from tests.conftest import make_triangle_overlay


class TestKeyStore:
    def test_sign_and_verify_roundtrip(self):
        ks = KeyStore()
        ks.register("node-a")
        token = ks.sign("node-a", ("msg", 1))
        assert ks.verify(token, ("msg", 1))

    def test_wrong_content_fails(self):
        ks = KeyStore()
        ks.register("node-a")
        token = ks.sign("node-a", ("msg", 1))
        assert not ks.verify(token, ("msg", 2))

    def test_unknown_identity_cannot_sign(self):
        ks = KeyStore()
        with pytest.raises(KeyError):
            ks.sign("ghost", "x")

    def test_forged_token_rejected(self):
        """A compromised node cannot mint tokens for another identity:
        a signer object it fabricates is not the registered one."""
        ks = KeyStore()
        ks.register("victim")
        from repro.security.crypto import _Signer

        fake = AuthToken(_Signer("victim"), ("msg", 1))
        assert not ks.verify(fake, ("msg", 1))

    def test_replay_of_own_signature_verifies(self):
        # Replay protection is the protocol's job (seq numbers), not the
        # signature's.
        ks = KeyStore()
        ks.register("a")
        token = ks.sign("a", ("msg", 1))
        assert ks.verify(token, ("msg", 1))
        assert ks.verify(token, ("msg", 1))

    def test_authenticator_costs_scale(self):
        auth = Authenticator(KeyStore(), sign_delay=0.001, verify_delay=0.0001)
        assert auth.sign_cost(3) == pytest.approx(0.003)
        assert auth.verify_cost(10) == pytest.approx(0.001)


def _unicast_through_middle(scn, service=None):
    """hx -> hz forced through hy (direct leg removed from carriers by
    failing the fiber then reconverging)."""
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)  # overlay reroutes AND the underlay reconverges
    got = []
    scn.overlay.client("hz", 7, on_message=got.append)
    tx = scn.overlay.client("hx")
    tx.send(Address("hz", 7), service=service)
    scn.run_for(1.0)
    return got


def test_blackhole_kills_single_path_traffic():
    scn = make_triangle_overlay(seed=61)
    scn.overlay.compromise("hy", Blackhole())
    got = _unicast_through_middle(scn)
    assert got == []
    assert scn.overlay.counters.get("adversary-dropped") >= 1


def test_blackhole_stays_invisible_to_routing():
    """Control traffic still flows, so the connectivity graph never
    learns anything is wrong — the insidious part of the threat."""
    scn = make_triangle_overlay(seed=62)
    scn.overlay.compromise("hy", Blackhole())
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)
    assert scn.overlay.overlay_path("hx", "hz") == ["hx", "hy", "hz"]


def test_selective_dropper_spares_unmatched_flows():
    scn = make_triangle_overlay(seed=63)
    scn.overlay.compromise("hy", SelectiveDropper(victim_sources=["hx"]))
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)
    # hx's traffic dies...
    got_x = []
    scn.overlay.client("hz", 7, on_message=got_x.append)
    scn.overlay.client("hx").send(Address("hz", 7))
    scn.run_for(1.0)
    assert got_x == []
    # ...but hy's own clients' traffic to hz flows (different source).
    got_y = []
    scn.overlay.client("hz", 8, on_message=got_y.append)
    scn.overlay.client("hy").send(Address("hz", 8))
    scn.run_for(1.0)
    assert len(got_y) == 1


def test_delay_injector_delivers_late():
    scn = make_triangle_overlay(seed=64)
    scn.overlay.compromise("hy", DelayInjector(0.5))
    latencies = []
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)
    scn.overlay.client("hz", 7, on_message=lambda m: latencies.append(scn.sim.now - m.sent_at))
    scn.overlay.client("hx").send(Address("hz", 7))
    scn.run_for(2.0)
    assert len(latencies) == 1
    assert latencies[0] > 0.5


def test_duplicator_absorbed_by_deduplication():
    scn = make_triangle_overlay(seed=65)
    scn.overlay.compromise("hy", Duplicator(copies=4))
    got = _unicast_through_middle(scn)
    assert len(got) == 1  # de-duplication at the egress node


def _copy(seq, dst, service=ServiceSpec()):
    return OverlayMessage(flow="held", seq=seq, src=Address("hx", 1), dst=dst,
                          service=service, origin="hx", sent_at=0.0,
                          bitmask=-1)  # every link


def test_a_copy_held_past_100_000_seqs_reaches_the_client_once():
    """De-duplication has no capacity to evict from: a copy of seq 0
    after 100 001 seqs of its flow is suppressed, on an unordered
    service — where a cache of the last 100 000 keys had forgotten it."""
    scn = make_triangle_overlay(seed=68)
    got = []
    scn.overlay.client("hz", 7, on_message=lambda m: got.append(m.seq))
    for seq in [*range(100_001), 0]:
        scn.overlay.nodes["hz"].pipeline.deliver(_copy(seq, Address("hz", 7)))
    assert (got.count(0), len(got)) == (1, 100_001)
    assert scn.overlay.counters.get("duplicate-suppressed") == 1


def test_a_copy_older_than_the_sent_window_is_forwarded_again_once():
    """hy forgets which links it flooded a seq on once the flow is
    ``SENT_WINDOW`` seqs past it: a late copy is forwarded once more
    along its bitmask, and still delivered only once."""
    scn = make_triangle_overlay(seed=69)
    hy = scn.overlay.nodes["hy"]
    got, sent = [], []
    scn.overlay.client("hy", 7, on_message=lambda m: got.append(m.seq))
    hy.pipeline.dispatch = lambda nbr, msg, accepted: (
        sent.append((nbr, msg.seq)), accepted())

    def arrive(seq, nbr):
        msg = _copy(seq, Address("hy", 7), ServiceSpec(routing=ROUTING_FLOOD))
        hy.pipeline._run(msg, nbr, hy.links[nbr].bit)

    for seq in range(SENT_WINDOW + 1):
        arrive(seq, "hx")
    arrive(1, "hz")  # inside the window: both links already used
    arrive(0, "hz")  # beyond it: out on the link it did not come in on
    assert sent == [("hz", seq) for seq in range(SENT_WINDOW + 1)] + [("hx", 0)]
    assert got == list(range(SENT_WINDOW + 1))
    assert scn.overlay.counters.get("duplicate-suppressed") == 2


def test_duplicator_validation():
    with pytest.raises(ValueError):
        Duplicator(0)


def test_default_behavior_is_honest():
    scn = make_triangle_overlay(seed=66)
    scn.overlay.compromise("hy", NodeBehavior())
    got = _unicast_through_middle(scn)
    assert len(got) == 1


class TestRedundantDisseminationVsCompromise:
    """E5's core guarantees on the smallest meaningful topology."""

    def test_two_disjoint_paths_survive_one_blackhole(self):
        scn = make_triangle_overlay(seed=67)
        scn.overlay.compromise("hy", Blackhole())
        got = []
        scn.overlay.client("hz", 7, on_message=got.append)
        tx = scn.overlay.client("hx")
        tx.send(Address("hz", 7), service=ServiceSpec(routing=ROUTING_DISJOINT, k=2))
        scn.run_for(1.0)
        assert len(got) == 1  # the hx-hz direct path is untouched

    def test_flooding_survives_one_blackhole(self):
        scn = make_triangle_overlay(seed=68)
        scn.overlay.compromise("hy", Blackhole())
        got = []
        scn.overlay.client("hz", 7, on_message=got.append)
        scn.overlay.client("hx").send(
            Address("hz", 7), service=ServiceSpec(routing=ROUTING_FLOOD)
        )
        scn.run_for(1.0)
        assert len(got) == 1

    def test_single_path_routing_does_not_survive(self):
        scn = make_triangle_overlay(seed=69)
        scn.overlay.compromise("hy", Blackhole())
        got = _unicast_through_middle(scn)
        assert got == []
