"""Shared state pays per record, not per replica.

A converged n-node overlay holds n replicas of the same n link-state
and group records. Each record is one frozen value
(:class:`~repro.core.linkstate.TopologyRecord` /
:class:`~repro.core.linkstate.GroupRecord`) that derives its content
digest and adjacency row once, on first use, and every replica storing
it shares them — whether it arrived by the live flood or by
:func:`~repro.core.warmstart.restore`. The contract held here
(DESIGN.md "Warm-start", "Shared records"):

* ``content_digest`` runs once per distinct record, not once per
  (replica, record) pair — on restore and on the live flood, where
  every replica's stored record for an origin *is* one object;
* every replica's fingerprint and views equal a cold ``load_state``
  of its own exported records, row by row and in order;
* the shared rows are never written: an update at one replica moves
  only that replica's view;
* two different records for one origin never share a part or a row;
* an audited restored overlay, driven through a fiber cut and repair,
  re-derives every patched view cold without a violation.
"""

from __future__ import annotations

import pytest

from repro.core import linkstate
from repro.core.linkstate import (
    GroupDatabase,
    GroupRecord,
    TopologyDatabase,
    TopologyRecord,
)
from repro.core.node import OverlayNode
from repro.core.warmstart import capture, restore
from tests.test_warmstart import WARMUP, _mesh

N = 16


def ordered(graph) -> list:
    """A two-level mapping with both key orders made comparable."""
    return [(u, list(row.items())) for u, row in graph.items()]


@pytest.fixture(scope="module")
def payload():
    overlay = _mesh(N)
    overlay.warm_up(WARMUP)
    return capture(overlay, key="shared", source_fingerprint="fp0")


@pytest.fixture
def digests(monkeypatch) -> list:
    """Every ``content_digest`` payload hashed while the test runs."""
    calls: list = []
    real = linkstate.content_digest

    def counting(blob):
        calls.append(blob)
        return real(blob)

    monkeypatch.setattr(linkstate, "content_digest", counting)
    return calls


def _restored(payload):
    overlay = _mesh(N)
    restore(overlay, payload)
    return overlay


def test_one_digest_per_distinct_record(payload, digests):
    overlay = _mesh(N)
    restore(overlay, payload)
    topo = {(o, tuple(sorted(costs.items())))
            for o, (__, costs) in payload["topo"]["records"].items()}
    groups = {(o, tuple(sorted(gs)))
              for o, (__, gs) in payload["groups"]["records"].items()}
    assert len(topo) == len(groups) == N
    assert sorted(digests) == sorted(topo | groups)


def test_the_live_flood_shares_one_record_per_origin(digests, monkeypatch):
    flooded: dict = {}
    real_flood = OverlayNode._flood

    def collecting(node, kind, info, exclude=None):
        flooded[id(info["record"])] = info["record"]  # ids stay unique
        real_flood(node, kind, info, exclude)

    monkeypatch.setattr(OverlayNode, "_flood", collecting)
    overlay = _mesh(N)
    overlay.warm_up(WARMUP)
    assert overlay.converged()
    nodes = list(overlay.nodes.values())
    for origin in overlay.nodes:
        topo = {id(n.topo_db.record(origin)) for n in nodes}
        groups = {id(n.group_db.record(origin)) for n in nodes}
        assert len(topo) == len(groups) == 1, origin
        assert topo <= flooded.keys() and groups <= flooded.keys()
    # One digest per originated record, however many replicas hold it.
    assert len(digests) == len(flooded)
    assert len(flooded) < N * N


def test_every_replica_equals_a_cold_load(payload):
    overlay = _restored(payload)
    for node in overlay.nodes.values():
        db = node.topo_db
        cold = TopologyDatabase()
        cold.load_state(db.export_state(), 0)
        assert db.fingerprint == cold.fingerprint == payload["meta"][
            "topo_fingerprint"]
        assert ordered(db.adjacency()) == ordered(cold.adjacency())
        assert ordered(db.reverse_adjacency()) == ordered(
            cold.reverse_adjacency())
        assert db.origins() == payload["topo"]["order"][node.id]
        groups = GroupDatabase()
        groups.load_state(node.group_db.export_state(), 0)
        assert node.group_db.fingerprint == groups.fingerprint == payload[
            "meta"]["group_fingerprint"]


def test_an_update_moves_only_its_own_replica(payload):
    overlay = _restored(payload)
    nodes = list(overlay.nodes.values())
    before = {n.id: (n.topo_db.adjacency(), ordered(n.topo_db.adjacency()))
              for n in nodes}
    first, rest = nodes[0], nodes[1:]
    origin = nodes[1].id
    costs = dict(first.topo_db.record(origin))
    nbr = next(iter(costs))
    costs[nbr] = 10 * costs[nbr]
    assert first.topo_db.update(origin, first.topo_db.seq(origin) + 1, costs)
    moved = first.topo_db.adjacency()
    assert moved is not before[first.id][0]
    assert moved[origin][nbr] == costs[nbr]
    assert ordered(before[first.id][0]) == before[first.id][1]
    for node in rest:
        view = node.topo_db.adjacency()
        assert view is before[node.id][0]
        assert ordered(view) == before[node.id][1]
        assert view[origin][nbr] != costs[nbr]


def test_two_records_never_share_a_derivation(digests):
    cheap = TopologyRecord("a", {"b": 1.0, "c": None})
    dear = TopologyRecord("a", {"b": 9.0, "c": None})
    alike = TopologyRecord("a", {"b": 1.0, "c": None})  # equal, not the object
    dbs = []
    for record in (cheap, dear, alike, cheap):
        db = TopologyDatabase()
        db.load_state({"a": (1, record)}, 1)
        assert db.record("a") is record
        cold = TopologyDatabase()
        cold.load_state({"a": (1, dict(record))}, 1)
        assert db.fingerprint == cold.fingerprint
        assert ordered(db.adjacency()) == ordered(cold.adjacency())
        dbs.append(db)
    assert cheap.part != dear.part and cheap.row != dear.row
    assert dbs[0].fingerprint != dbs[1].fingerprint
    assert dbs[0].fingerprint == dbs[2].fingerprint == dbs[3].fingerprint
    assert dbs[0].adjacency()["a"] is dbs[3].adjacency()["a"] is cheap.row
    assert dbs[2].adjacency()["a"] is alike.row is not cheap.row
    assert dbs[1].adjacency()["a"]["b"] == 9.0
    # Three records, three digests (the second load of ``cheap`` adds
    # none), plus one for each of the four cold loads' fresh copies.
    assert len(digests) == 3 + 4

    one, two = GroupDatabase(), GroupDatabase()
    g, h = GroupRecord("a", {"g"}), GroupRecord("a", {"h"})
    one.load_state({"a": (1, g)}, 1)
    two.load_state({"a": (1, h)}, 1)
    assert g.part != h.part and one.fingerprint != two.fingerprint
    assert one.members_view("g") == ("a",) and two.members_view("g") == ()
    assert one.record("a") is g


def test_audited_restore_through_a_cut_and_repair(payload, monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    overlay = _mesh(N)
    overlay.auditor.sample_every = 1
    restore(overlay, payload)
    domain = overlay.internet.isps["mesh"]
    sim = overlay.sim
    domain.fail_link("r00", "r01")
    sim.run(until=sim.now + 1.5)
    assert not overlay.nodes["n00"].links["n01"].up
    domain.repair_link("r00", "r01")
    sim.run(until=sim.now + 1.5)
    assert overlay.converged()
    for node in overlay.nodes.values():
        node.topo_db.reverse_adjacency()
    assert overlay.counters.get("topo.rows_patched") > 0
    report = overlay.auditor.report
    assert report.checks > 0
    assert not [v for v in report.violations
                if v.invariant == "topology-views"]
    assert report.ok, report.format()
