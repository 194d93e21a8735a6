"""Frame authentication (Sec IV-B): only authorized overlay nodes can
speak on the overlay; compromised-but-valid nodes still pass — which is
why redundant dissemination and fair scheduling exist on top."""

from repro.core.message import Address, Frame, ServiceSpec
from repro.core.network import OverlayNetwork
from repro.net.topologies import triangle_internet
from repro.security.adversary import Blackhole
from repro.security.crypto import AuthToken, KeyStore, _Signer
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry


def _authed_triangle(seed=901):
    sim = Simulator()
    rngs = RngRegistry(seed)
    internet = triangle_internet(sim, rngs)
    keystore = KeyStore()
    overlay = OverlayNetwork(
        internet, ["hx", "hy", "hz"],
        [("hx", "hy"), ("hy", "hz"), ("hx", "hz")],
        keystore=keystore,
    )
    overlay.warm_up(2.0)
    return sim, overlay, keystore


def _forged_lsu(auth=None):
    """A one-record ``state`` bundle claiming to come from hx and to
    carry hx's link-state record at a sequence number far ahead."""
    return Frame(
        proto="control", ftype="state", src_node="hx", dst_node="hz",
        info={"records": [("lsu", {"origin": "hx", "seq": 999, "record": {}})]},
        auth=auth,
    )


def test_authenticated_overlay_converges_and_delivers():
    sim, overlay, __ = _authed_triangle()
    assert overlay.converged()
    got = []
    overlay.client("hz", 7, on_message=got.append)
    overlay.client("hx").send(Address("hz", 7))
    sim.run(until=sim.now + 1.0)
    assert len(got) == 1
    assert overlay.counters.get("auth-rejected") == 0


def test_unsigned_injection_is_rejected():
    """An off-overlay attacker who reaches a daemon cannot inject."""
    sim, overlay, keystore = _authed_triangle(902)
    node = overlay.nodes["hz"]
    node.receive_frame(_forged_lsu())
    assert overlay.counters.get("auth-rejected") == 1
    assert node.topo_db.seq("hx") != 999
    # Control: the same bundle signed by hx itself is believed, so the
    # forgeries below are refused for their signature, not their shape.
    node.receive_frame(_forged_lsu(keystore.sign("hx", ("control", "state", 0))))
    assert overlay.counters.get("auth-rejected") == 1
    assert node.topo_db.seq("hx") == 999


def test_forged_signature_is_rejected():
    """A fabricated signer object for a real identity does not verify."""
    sim, overlay, __ = _authed_triangle(903)
    node = overlay.nodes["hz"]
    fake_token = AuthToken(_Signer("hx"), ("control", "state", 0))
    node.receive_frame(_forged_lsu(fake_token))
    assert overlay.counters.get("auth-rejected") == 1
    assert node.topo_db.seq("hx") != 999


def test_stolen_token_does_not_transfer_to_other_content():
    """Replaying node hx's hello signature on a state bundle fails (the
    token binds to the frame's content)."""
    sim, overlay, keystore = _authed_triangle(904)
    node = overlay.nodes["hz"]
    stolen = keystore.sign("hx", ("control", "hello", 0))
    node.receive_frame(_forged_lsu(stolen))
    assert overlay.counters.get("auth-rejected") == 1
    assert node.topo_db.seq("hx") != 999


def test_identity_mismatch_rejected():
    """A valid token by hy cannot authenticate a frame claiming hx."""
    sim, overlay, keystore = _authed_triangle(905)
    node = overlay.nodes["hz"]
    token = keystore.sign("hy", ("control", "state", 0))
    node.receive_frame(_forged_lsu(token))
    assert overlay.counters.get("auth-rejected") == 1
    assert node.topo_db.seq("hx") != 999


def test_compromised_node_passes_authentication():
    """The paper's key point: authentication is NOT sufficient against a
    compromised node — its frames verify fine while it blackholes."""
    sim, overlay, __ = _authed_triangle(906)
    overlay.compromise("hy", Blackhole())
    # Force the hx->hz route through hy.
    overlay.internet.isps["tri"].fail_link("x", "z")
    sim.run(until=sim.now + 8.0)
    got = []
    overlay.client("hz", 7, on_message=got.append)
    overlay.client("hx").send(Address("hz", 7))
    sim.run(until=sim.now + 1.0)
    assert got == []  # the blackhole worked despite authentication
    assert overlay.counters.get("auth-rejected") == 0
    # ...and redundant dissemination still defeats it.
    from repro.core.message import ROUTING_FLOOD

    overlay.client("hx").send(Address("hz", 7),
                              service=ServiceSpec(routing=ROUTING_FLOOD))
    sim.run(until=sim.now + 1.0)
    assert len(got) == 1
