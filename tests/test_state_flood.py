"""Packed shared-state flood (DESIGN.md "State flood packing").

Flooding and database sync only queue ``(kind, origin) -> record`` into
a per-neighbour outbox; one zero-delay flush per node per simulated
instant packs each outbox into ``state`` control frames of at most
:data:`~repro.core.node.STATE_FRAME_BYTES`. These tests pin the packing
rules, the crash and authentication boundaries, the wire accounting,
the frame-count saving itself, and the warm-start contract. That
packing moved no delivery is pinned by ``test_golden_digests.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.message import LINK_HEADER_BYTES, Frame, state_record_bytes
from repro.core.network import OverlayNetwork
from repro.core.node import STATE_FRAME_BYTES
from repro.core.warmstart import (
    WarmStartError,
    capture,
    converged_payload,
    restore,
)
from repro.net.topologies import triangle_internet
from repro.security.crypto import KeyStore
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

# The loss-free ring+chords overlay on uniform 10 ms fibers (overlay
# links = fibers, degree 4): constructible, and with few distinct flood
# arrival instants.
from tests.test_warmstart import WARMUP, _mesh

N = 12


def _spy(overlay: OverlayNetwork) -> list[tuple[float, Frame]]:
    """Record every ``state`` frame handed to any link's ``transmit``
    (the node's single transmit path for shared state), with its send
    instant."""
    sent: list[tuple[float, Frame]] = []
    sim = overlay.sim
    for node in overlay.nodes.values():
        for link in node.links.values():
            def transmit(frame, carrier=None, _inner=link.transmit):
                if frame.ftype == "state":
                    sent.append((sim.now, frame))
                _inner(frame, carrier)

            link.transmit = transmit
    return sent


def _records(frame: Frame) -> list[tuple[str, dict]]:
    return frame.info["records"]


def _converged_mesh():
    overlay = _mesh(N)
    sent = _spy(overlay)
    overlay.warm_up(WARMUP)
    overlay.quiesce()
    assert overlay.converged()
    return overlay, sent


def _lsu(origin: str, seq: int = 1, degree: int = 4) -> dict:
    return {"origin": origin, "seq": seq,
            "costs": {f"{origin}-nbr{k}": 0.01 for k in range(degree)}}


# ------------------------------------------------------------ (a) the cap


def test_state_frames_respect_the_cap():
    overlay, sent = _converged_mesh()
    node = overlay.nodes["n00"]
    del sent[:]
    for k in range(100):
        node._queue("n01", "lsu", _lsu(f"x{k:03d}"))
    overlay.sim.run(until=overlay.sim.now)
    mine = [f for __, f in sent if f.src_node == "n00"]
    assert all(f.wire_size <= STATE_FRAME_BYTES for f in mine)
    assert sum(len(_records(f)) for f in mine) == 100
    per_record = state_record_bytes("lsu", _lsu("x"))
    per_frame = (STATE_FRAME_BYTES - LINK_HEADER_BYTES) // per_record
    assert len(mine) == math.ceil(100 / per_frame) > 1
    # Order of queueing is the order on the wire.
    assert [info["origin"] for f in mine for __, info in _records(f)] == \
        [f"x{k:03d}" for k in range(100)]


def test_record_larger_than_the_cap_travels_alone():
    overlay, sent = _converged_mesh()
    node = overlay.nodes["n00"]
    del sent[:]
    node._queue("n01", "lsu", _lsu("small-a"))
    node._queue("n01", "lsu", _lsu("huge", degree=200))
    node._queue("n01", "lsu", _lsu("small-b"))
    overlay.sim.run(until=overlay.sim.now)
    mine = [f for __, f in sent if f.src_node == "n00"]
    assert [[info["origin"] for __, info in _records(f)] for f in mine] == \
        [["small-a"], ["huge"], ["small-b"]]
    assert mine[1].wire_size > STATE_FRAME_BYTES
    # ...and it is accepted at the far end like any other record.
    overlay.sim.run(until=overlay.sim.now + 0.1)
    assert overlay.nodes["n01"].topo_db.seq("huge") == 1


# ------------------------------------------------------- (b) superseding


def test_newer_record_of_one_origin_supersedes_within_an_instant():
    overlay, sent = _converged_mesh()
    node = overlay.nodes["n00"]
    del sent[:]
    before = overlay.counters.get("flood.superseded")
    node.originate_lsu()
    node.originate_lsu()
    overlay.sim.run(until=overlay.sim.now)
    mine = [f for __, f in sent if f.src_node == "n00"]
    assert sorted(f.dst_node for f in mine) == sorted(node.links)
    for frame in mine:
        assert [(kind, info["origin"], info["seq"])
                for kind, info in _records(frame)] == \
            [("lsu", "n00", node._lsu_seq)]
    # Origination is not coalesced: both sequence numbers were spent.
    assert node.topo_db.seq("n00") == node._lsu_seq
    assert overlay.counters.get("flood.superseded") - before == len(node.links)


# ---------------------------------------------- (c) no echo to the sender


def _state_frame(src: str, dst: str, *records: tuple[str, dict]) -> Frame:
    return Frame(proto="control", ftype="state", src_node=src, dst_node=dst,
                 info={"records": list(records)})


def test_record_is_never_bundled_back_to_where_it_came_from():
    overlay, sent = _converged_mesh()
    node = overlay.nodes["n00"]
    nbrs = list(node.links)
    a, b = nbrs[0], nbrs[1]
    del sent[:]
    # Two new records reach n00 in one instant, from two neighbours.
    node.receive_frame(_state_frame(a, "n00", ("lsu", _lsu("from-a"))))
    node.receive_frame(_state_frame(b, "n00", ("lsu", _lsu("from-b"))))
    overlay.sim.run(until=overlay.sim.now)
    carried = {f.dst_node: [info["origin"] for __, info in _records(f)]
               for __, f in sent if f.src_node == "n00"}
    assert carried[a] == ["from-b"]
    assert carried[b] == ["from-a"]
    for other in nbrs[2:]:
        assert carried[other] == ["from-a", "from-b"]


def test_no_record_is_echoed_during_a_cold_start():
    """The same rule over a whole convergence storm: while a node
    handles a ``state`` frame from A, nothing it queues goes to A."""
    overlay = _mesh(N)
    handled = echoed = 0
    for node in overlay.nodes.values():
        handling: list[str] = []

        def handle(frame, _inner=node._handle_control, _handling=handling):
            nonlocal handled
            if frame.ftype != "state":
                return _inner(frame)
            handled += 1
            _handling.append(frame.src_node)
            try:
                _inner(frame)
            finally:
                _handling.pop()

        def queue(nbr, kind, info, _inner=node._queue, _handling=handling):
            nonlocal echoed
            echoed += bool(_handling) and nbr == _handling[-1]
            _inner(nbr, kind, info)

        node._handle_control = handle
        node._queue = queue
    overlay.warm_up(WARMUP)
    assert overlay.converged()
    assert handled > 100 and echoed == 0


# ---------------------------------------------------------- (d) crashing


def test_crash_between_queue_and_flush_sends_nothing():
    overlay, sent = _converged_mesh()
    node = overlay.nodes["n00"]
    del sent[:]
    node.originate_lsu()
    assert node._outbox
    overlay.crash("n00")
    assert not node._outbox
    overlay.sim.run(until=overlay.sim.now + 0.2)
    assert not [f for __, f in sent if f.src_node == "n00"]
    # A crashed daemon queues nothing either (its refresh timer still
    # ticks, and neighbours' frames are ignored before they get here).
    node.originate_lsu()
    assert not node._outbox
    overlay.recover("n00")
    assert {key for pending in node._outbox.values() for key in pending} == \
        {("lsu", "n00"), ("gsu", "n00")}
    overlay.sim.run(until=overlay.sim.now)
    first = [f for __, f in sent if f.src_node == "n00"]
    assert len(first) == len(node.links)
    for frame in first:
        assert [(kind, info["seq"]) for kind, info in _records(frame)] == \
            [("lsu", node._lsu_seq), ("gsu", node._gsu_seq)]


# ---------------------------------------------------- (e) authentication


def test_bundles_are_signed_once_per_frame():
    """The four forgeries of a one-record bundle (unsigned, fabricated
    signer, stolen hello token, wrong identity) and the signed control
    live in ``test_frame_auth.py``."""
    sim = Simulator()
    keystore = KeyStore()
    overlay = OverlayNetwork(
        triangle_internet(sim, RngRegistry(911)), ["hx", "hy", "hz"],
        [("hx", "hy"), ("hy", "hz"), ("hx", "hz")], keystore=keystore,
    )
    sent = _spy(overlay)
    signed: list[tuple] = []
    inner_sign = keystore.sign

    def sign(identity, content):
        if content[1] == "state":
            signed.append((identity, content))
        return inner_sign(identity, content)

    keystore.sign = sign
    overlay.warm_up(WARMUP)
    assert overlay.converged()
    assert overlay.counters.get("auth-rejected") == 0
    assert any(len(_records(f)) > 1 for __, f in sent)
    assert len(signed) == len(sent)
    for __, frame in sent:
        assert frame.auth.identity == frame.src_node
        assert keystore.verify(frame.auth, ("control", "state", 0))


def test_unknown_record_kind_is_counted_not_applied():
    overlay, __ = _converged_mesh()
    node = overlay.nodes["n00"]
    node.receive_frame(_state_frame(
        "n01", "n00", ("bogus", {"origin": "n01", "seq": 9}),
        ("lsu", _lsu("after-bogus"))))
    assert overlay.counters.get("unknown-control") == 1
    assert node.topo_db.seq("after-bogus") == 1


# ---------------------------------------------------- wire accounting fix


def test_record_bytes_do_not_depend_on_flood_or_sync():
    """Parent bug: a synced LSU (``costs`` is the database's read-only
    view) was billed 40 B where the same record flooded was billed
    64 B, and GSU group lists were never counted per entry. Flooded or
    synced, a record now travels as its one shared record value."""
    overlay = _mesh(N)
    sent = _spy(overlay)
    overlay.client("n03", 7).join("mcast:a")
    overlay.client("n03", 8).join("mcast:b")
    overlay.warm_up(WARMUP)
    cost: dict[tuple, set[int]] = {}
    bodies: dict[tuple, set[int]] = {}
    for __, frame in sent:
        records = _records(frame)
        assert frame.wire_size == LINK_HEADER_BYTES + sum(
            state_record_bytes(kind, info) for kind, info in records)
        for kind, info in records:
            key = (kind, info["origin"], info["seq"])
            cost.setdefault(key, set()).add(state_record_bytes(kind, info))
            body = info["costs"] if kind == "lsu" else info["groups"]
            bodies.setdefault(key, set()).add(id(body))  # ``sent`` keeps it
    assert all(len(sizes) == 1 for sizes in cost.values())
    # Every link-up synced the whole database, and each (kind, origin,
    # seq) still went out as one object, whichever path carried it.
    assert overlay.counters.get("link-up") > 0
    assert all(len(ids) == 1 for ids in bodies.values())
    degree = len(overlay.nodes["n03"].links)
    final = overlay.nodes["n03"]
    assert cost[("lsu", "n03", final._lsu_seq)] == {8 * (2 + degree)}
    assert cost[("gsu", "n03", final._gsu_seq)] == {8 * (2 + 2)}


# ------------------------------------------- (f) the frame-count saving


def test_refresh_flood_frame_count_guard():
    overlay, sent = _converged_mesh()
    sim = overlay.sim
    refresh = overlay.config.lsu_refresh
    assert sim.now < refresh
    sim.run(until=refresh - 0.01)
    del sent[:]
    base = {name: overlay.counters.get(name)
            for name in ("flood.frames", "flood.records")}
    sim.run(until=refresh + 1.0)  # the flood dies out within the diameter
    frames = len(sent)
    origins = len(overlay.nodes)
    directed_links = sum(len(node.links) for node in overlay.nodes.values())
    instants = len({t for t, __ in sent})
    db_bytes = sum(
        state_record_bytes("lsu", {"costs": node.links}) +
        state_record_bytes("gsu", {"groups": ()})
        for node in overlay.nodes.values())
    per_instant = math.ceil(db_bytes / (STATE_FRAME_BYTES - LINK_HEADER_BYTES))
    assert 0 < frames <= directed_links * instants * per_instant
    # Unpacked, every node passed every LSU and every GSU on to all its
    # neighbours but the one it came from: 2 * (directed_links * origins
    # - origins * (origins - 1)) frames, 888 here. Packed it is a fifth
    # of that, and the gap widens with n (records per bundle grow).
    unpacked = 2 * (directed_links * origins - origins * (origins - 1))
    assert frames * 4 <= unpacked
    assert frames * 3 <= origins * directed_links
    assert overlay.counters.get("flood.frames") - base["flood.frames"] == frames
    carried = overlay.counters.get("flood.records") - base["flood.records"]
    assert carried == sum(len(_records(f)) for __, f in sent) > 4 * frames
    assert overlay.converged()


# -------------------------------------------------- (g) warm-start contract


def test_capture_refuses_unflushed_outboxes():
    overlay, __ = _converged_mesh()
    payload = capture(overlay)
    assert payload["counters"]["overlay"]["flood.frames"] > 0
    assert all(not node._outbox for node in overlay.nodes.values())
    # A record queued behind the simulator's back (no flush armed) is
    # state the payload would silently lose.
    overlay.nodes["n05"]._outbox["n06"] = {("lsu", "n05"): _lsu("n05", 99)}
    with pytest.raises(WarmStartError, match="unflushed"):
        capture(overlay)


def test_constructed_still_equals_organic_under_packing():
    organic, __ = _converged_mesh()
    twin = _mesh(N)
    assert restore(twin, converged_payload(twin, WARMUP)) == organic.sim.now
    for nid, node in organic.nodes.items():
        built = twin.nodes[nid]
        assert built.topo_db.fingerprint == node.topo_db.fingerprint
        assert built.group_db.fingerprint == node.group_db.fingerprint
        assert built.warm_state() == node.warm_state()
        assert not built._outbox
