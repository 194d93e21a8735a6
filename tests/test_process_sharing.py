"""Where the per-process sharing stops.

Work that does not depend on the run is done once per process: the
underlay's routing tables are shared by converged graph
(``repro.net.backbone._TABLES``), a snapshot is decoded once per
file content (:meth:`repro.core.warmstart.SnapshotStore.load`), and a
restored overlay's records are the decoded snapshot's. Each of these
is held here to its boundary (DESIGN.md "Warm-start", "Experiment
engine"):

* two Internets on the same fibers share searches; other delays do not,
  a cut and reconvergence in one leave the other on the old graph, and
  a table put into one domain never reaches another;
* the table store stays within its bound;
* one poisoned shared search is exactly one ``underlay-table``
  violation under audit;
* ``restore`` only reads its payload; a rewritten snapshot decodes
  afresh, a corrupt one is a miss however often its key decoded well,
  and ``REPRO_WARMSTART_FRESH`` still deletes;
* ``OverlayNetwork.converged`` answers as the set-based comparison it
  replaced, on random replica states.
"""

from __future__ import annotations

import copy
import random
from types import MappingProxyType

import pytest

from repro.alg.dijkstra import ShortestPathSearch, next_hops
from repro.analysis.runner import WARMSTART_FRESH_ENV
from repro.audit import Auditor, audit_transits
from repro.core.warmstart import SnapshotStore, capture, restore
from repro.net import backbone
from repro.net.internet import Internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from tests.test_warmstart import WARMUP, _mesh

RING = 6


def _ring(delay: float = 0.010, converge: float = 0.5):
    """A bare Internet: a six-router ring with two chords."""
    sim = Simulator()
    inet = Internet(sim, RngRegistry(7))
    domain = inet.add_isp("ring", convergence_delay=converge)
    for i in range(RING):
        domain.add_link(f"r{i}", f"r{(i + 1) % RING}", delay)
    domain.add_link("r0", "r3", 3 * delay)
    domain.add_link("r1", "r4", 2.5 * delay)
    return sim, inet, domain


def _table(domain) -> dict:
    return {r: domain.next_hop(r, "r3") for r in domain.routers}


# ------------------------------------------------------ underlay tables


def test_same_fibers_share_searches_other_delays_do_not():
    __, __, a = _ring()
    __, __, b = _ring()
    __, __, c = _ring(delay=0.011)
    assert _table(a) == _table(b) == _table(c)
    assert a._tables["r3"] is b._tables["r3"]
    assert a._tables["r3"] is not c._tables["r3"]
    assert _table(a) == {r: next_hops(a._current_adjacency(), "r3").get(r)
                         for r in a.routers}


def test_a_cut_and_reconvergence_in_one_leave_the_other_on_its_graph():
    sim_a, __, a = _ring()
    __, __, b = _ring()
    before = _table(b)
    assert before["r2"] == "r3"
    a.fail_link("r2", "r3")
    # Stale until a reconverges, and b never moves.
    assert _table(a) == before
    sim_a.run(until=1.0)
    after = _table(a)
    assert after["r2"] != "r3"
    assert after == {r: next_hops(a._current_adjacency(), "r3").get(r)
                     for r in a.routers}
    assert _table(b) == before
    assert a._tables["r3"] is not b._tables["r3"]


def test_a_table_put_into_one_domain_reaches_no_other():
    """The looped table ``test_looped_datagram_still_dies_of_ttl``
    injects lives in that domain's own ``_tables`` only."""
    __, __, a = _ring()
    looped = ShortestPathSearch({}, "r3")
    looped.prev.update({"r0": "r1", "r1": "r0"})
    looped.done.update(looped.prev)
    a._tables["r3"] = looped
    assert a.next_hop("r1", "r3") == "r0"
    __, __, b = _ring()
    assert b.next_hop("r1", "r3") != "r0"
    assert b._tables["r3"] is not looped
    assert b._route[1]["r3"] is not looped


def test_the_store_stays_within_its_bound():
    first = _ring(delay=0.0201)[2]
    first.next_hop("r0", "r3")
    for k in range(3 * backbone.TABLES_CAPACITY):
        _ring(delay=0.0202 + 0.0001 * k)[2].next_hop("r0", "r3")
        assert len(backbone._TABLES) <= backbone.TABLES_CAPACITY
    # The first graph was evicted: a new domain on it searches afresh.
    again = _ring(delay=0.0201)[2]
    again.next_hop("r0", "r3")
    assert again._tables["r3"] is not first._tables["r3"]


def test_a_poisoned_shared_search_is_one_underlay_table_violation():
    delay = 0.0137  # a graph no other test converges on
    __, __, a = _ring(delay)
    __, inet_b, b = _ring(delay)
    for name, router in (("src", "r5"), ("dst", "r3"), ("near", "r1")):
        inet_b.add_host(name, access_delay=0.0)
        inet_b.attach(name, "ring", router)
    auditor = Auditor(register=False, sample_every=1)
    audit_transits(inet_b, auditor)
    # Toward another router, so the poisoned path below is resolved
    # after the poisoning: one underlay-table and one transit-express
    # check, both clean.
    inet_b.send("src", "near", "clean", 100, "ring", lambda d: None)
    assert auditor.report.ok and auditor.report.checks == 2
    assert a.next_hop("r5", "r3") == b.next_hop("r5", "r3")
    shared = a._tables["r3"]
    assert shared is b._tables["r3"]
    try:
        shared.settle()
        assert shared.prev["r5"] == "r4"
        shared.prev["r5"] = "r0"  # a neighbour, not the shortest way
        inet_b.send("src", "dst", "poisoned", 100, "ring", lambda d: None)
        assert [v.invariant for v in auditor.report.violations] == \
            ["underlay-table"]
        assert auditor.report.checks == 4
    finally:
        backbone._TABLES.pop(a._route_key)  # no later domain may take it


# ------------------------------------------------------------ snapshots


@pytest.fixture(scope="module")
def warm():
    overlay = _mesh()
    overlay.warm_up(WARMUP)
    return capture(overlay, key="sharing", source_fingerprint="fp0")


def test_restore_only_reads_its_payload(tmp_path, monkeypatch, warm):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    given = copy.deepcopy(warm)
    restore(_mesh(), warm)
    assert warm == given
    store = SnapshotStore(tmp_path)
    store.save("k", warm)
    loaded = store.load("k", "fp0")
    given = copy.deepcopy(loaded)
    one, two = _mesh(), _mesh()
    restore(one, loaded)
    restore(two, store.load("k", "fp0"))
    assert loaded == given
    # Both overlays hold the decoded snapshot's record values.
    for origin in one.nodes:
        assert one.nodes["n00"].topo_db.record(origin) is \
            two.nodes["n05"].topo_db.record(origin)


def test_rewritten_bytes_decode_afresh(tmp_path, monkeypatch, warm):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    store.save("k", warm)
    first = store.load("k", "fp0")
    assert store.load("k", "fp0") is first  # same bytes: one decode
    moved = copy.deepcopy(warm)
    moved["meta"]["t0"] = warm["meta"]["t0"] + 1.0
    store.save("k", moved)
    second = store.load("k", "fp0")
    assert second is not first and second["meta"]["t0"] == moved["meta"]["t0"]
    assert first["meta"]["t0"] == warm["meta"]["t0"]


def test_a_corrupt_file_is_a_miss_after_a_good_decode(tmp_path, monkeypatch,
                                                      warm):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    store.save("k", warm)
    good = store.load("k", "fp0")
    intact = store.path("k").read_bytes()
    raw = bytearray(intact)
    raw[len(raw) // 2] ^= 0xFF
    store.path("k").write_bytes(bytes(raw))
    assert store.load("k", "fp0") is None
    store.path("k").write_bytes(bytes(raw[: len(raw) // 2]))
    assert store.load("k", "fp0") is None
    store.path("k").write_bytes(intact)
    assert store.load("k", "fp0") is good
    assert store.load("k", "fp-moved") is None  # stale: never served


def test_fresh_still_deletes_a_decoded_snapshot(tmp_path, monkeypatch, warm):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    store.save("k", warm)
    assert store.load("k", "fp0") is not None
    monkeypatch.setenv(WARMSTART_FRESH_ENV, "1")
    assert store.load("k", "fp0") is None
    assert not store.path("k").exists()


# ------------------------------------------------------------ converged


def _set_based(overlay) -> bool:
    """``OverlayNetwork.converged`` before rows compared by identity."""
    for node in overlay.nodes.values():
        for link in node.links.values():
            if not link.up:
                return False
    reference = None
    for node in overlay.nodes.values():
        adj = {u: set(nbrs) for u, nbrs in node.routing.adjacency().items()}
        if reference is None:
            reference = adj
        elif adj != reference:
            return False
    return True


def _variant(base: dict, rnd: random.Random) -> dict:
    """One replica's adjacency: the shared view itself, or its rows
    shared, copied, re-costed, grown, shrunk or missing."""
    kind = rnd.randrange(7)
    if kind == 0:
        return base
    adj = dict(base)
    u = rnd.choice(sorted(adj))
    row = dict(adj[u])
    if kind == 2:
        adj = {v: MappingProxyType(dict(r)) for v, r in adj.items()}
    elif kind == 3 and row:
        row[rnd.choice(sorted(row))] += 1.0
        adj[u] = MappingProxyType(row)
    elif kind == 4:
        row[rnd.choice(sorted(base))] = 9.0
        adj[u] = MappingProxyType(row)
    elif kind == 5 and row:
        del row[rnd.choice(sorted(row))]
        adj[u] = MappingProxyType(row)
    elif kind == 6:
        del adj[u]
    return MappingProxyType(adj)


def test_converged_answers_as_the_set_based_comparison(warm):
    overlay = _mesh()
    restore(overlay, warm)
    base = overlay.nodes["n00"].routing.adjacency()
    rnd = random.Random(31)
    answers = set()
    for __ in range(300):
        for node in overlay.nodes.values():
            view = _variant(base, rnd) if rnd.random() < 0.3 else base
            node.routing.adjacency = lambda view=view: view
        answer = overlay.converged()
        assert answer == _set_based(overlay)
        answers.add(answer)
    assert answers == {True, False}
