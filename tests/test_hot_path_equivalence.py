"""Differential checks for the per-message scans the hot path dropped.

Each test drives the fast structure through its public operations and
compares it, after every step, with the brute-force computation it
replaced: the list-comprehension prune of the realtime buffer, the
client scan behind local group membership, and the prefix tests behind
the address kind flags.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.message import (
    ACAST_PREFIX,
    MCAST_PREFIX,
    Address,
    OverlayMessage,
    ServiceSpec,
)
from repro.protocols.realtime import BUFFER_AGE
from tests.conftest import make_triangle_overlay, make_two_node_line

# ------------------------------------------------------- realtime buffer

_SEND = st.just(("send", 0.0))
_ADVANCE = st.tuples(st.just("advance"),
                     st.floats(min_value=0.0, max_value=0.4))


@given(st.lists(st.one_of(_SEND, _SEND, _ADVANCE), min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_realtime_buffer_equals_the_full_scan_prune(ops):
    scn = make_two_node_line(seed=1611)
    protocol = scn.overlay.nodes["h0"].protocol_for("h1", "realtime")
    protocol.transmit = lambda *args, **kwargs: None  # keep it off the wire
    service = ServiceSpec(link="realtime")
    model: dict[int, tuple[float, OverlayMessage]] = {}
    sent = -1
    for op, dt in ops:
        if op == "advance":
            scn.run_for(dt)
            continue
        now = scn.sim.now
        sent += 1
        msg = OverlayMessage(
            flow="f", seq=sent, src=Address("h0", 1), dst=Address("h1", 1),
            service=service, origin="h0", sent_at=now,
        )
        protocol.send(msg)
        model[sent] = (now, msg)  # link seqs count up from 0
        horizon = now - BUFFER_AGE
        for stale in [s for s, (t, __) in model.items() if t < horizon]:
            del model[stale]
        assert protocol._buffer == model
        assert list(protocol._buffer) == list(model)


# ------------------------------------------------------ session members

_PORTS = st.integers(min_value=1, max_value=4)
_GROUPS = st.sampled_from(["mcast:a", "mcast:b", "acast:c"])
_SESSION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["register", "join", "leave", "close", "unregister"]),
        _PORTS, _GROUPS,
    ),
    max_size=40,
)


@given(_SESSION_OPS)
@settings(max_examples=25, deadline=None)
def test_member_index_equals_the_client_scan(ops):
    scn = make_triangle_overlay()
    session = scn.overlay.nodes["hx"].session
    clients = {}

    def check():
        for group in ("mcast:a", "mcast:b", "acast:c", "mcast:nobody"):
            scan = tuple(e for e in session.clients.values()
                         if group in e.groups)
            assert session.members(group) == scan
            assert session.has_members(group) == bool(scan)

    check()
    for op, port, group in ops:
        if op == "register":
            if port not in session.clients:
                clients[port] = scn.overlay.client("hx", port)
        elif port not in session.clients:
            continue
        elif op == "join":
            clients[port].join(group)
        elif op == "leave":
            clients[port].leave(group)
        elif op == "close":
            clients.pop(port).close()
        else:
            session.unregister(port)
            del clients[port]
        # Every group was queried after the previous step, so a missed
        # invalidation would be answered from the stale index here.
        check()


# --------------------------------------------------------- address flags

_NODES = st.one_of(
    st.text(max_size=12),
    st.builds(lambda prefix, tail: prefix + tail,
              st.sampled_from([MCAST_PREFIX, ACAST_PREFIX, "mcast", "acast"]),
              st.text(max_size=6)),
)


@given(_NODES, st.integers(min_value=0, max_value=70_000))
@settings(max_examples=200, deadline=None)
def test_address_flags_equal_the_prefix_tests(node, port):
    addr = Address(node, port)
    assert addr.is_multicast == node.startswith(MCAST_PREFIX)
    assert addr.is_anycast == node.startswith(ACAST_PREFIX)
    assert addr.is_group == (addr.is_multicast or addr.is_anycast)
    # The flags are derived state: identity is (node, port) alone.
    assert addr == Address(node, port)
    assert hash(addr) == hash(Address(node, port)) == hash((node, port))
    assert addr != Address(node, port + 1)
    assert repr(addr) == f"Address(node={node!r}, port={port})"
    assert str(addr) == f"{node}:{port}"
    moved = replace(addr, node=MCAST_PREFIX + node)
    assert moved.is_multicast and moved.is_group and not moved.is_anycast
