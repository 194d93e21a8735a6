"""Shared-state replicas: topology database, group database, dedup."""

import pytest

from repro.core.linkstate import (
    GroupDatabase,
    TopologyDatabase,
    TopologyRecord,
)
from repro.core.pipeline import FlowSeqs


def test_topology_update_accepts_newer_seq():
    db = TopologyDatabase()
    assert db.update("a", 1, {"b": 0.01})
    assert db.update("a", 2, {"b": 0.02})
    assert db.record("a") == {"b": 0.02}


def test_topology_rejects_stale_and_duplicate():
    db = TopologyDatabase()
    db.update("a", 5, {"b": 0.01})
    assert not db.update("a", 5, {"b": 0.09})
    assert not db.update("a", 4, {"b": 0.09})
    assert db.record("a") == {"b": 0.01}


def test_topology_version_bumps_only_on_change():
    db = TopologyDatabase()
    v0 = db.version
    db.update("a", 1, {})
    assert db.version == v0 + 1
    db.update("a", 1, {})
    assert db.version == v0 + 1


def test_adjacency_excludes_down_links():
    db = TopologyDatabase()
    db.update("a", 1, {"b": 0.01, "c": None})
    adj = db.adjacency()
    assert adj["a"] == {"b": 0.01}


def test_adjacency_is_sorted_and_deterministic():
    db1 = TopologyDatabase()
    db1.update("b", 1, {"a": 1.0})
    db1.update("a", 1, {"b": 1.0})
    db2 = TopologyDatabase()
    db2.update("a", 1, {"b": 1.0})
    db2.update("b", 1, {"a": 1.0})
    assert list(db1.adjacency()) == list(db2.adjacency())
    assert db1.adjacency() == db2.adjacency()


def test_symmetric_adjacency_requires_both_ends():
    db = TopologyDatabase()
    db.update("a", 1, {"b": 1.0})
    db.update("b", 1, {})  # b does not confirm the link
    assert db.symmetric_adjacency()["a"] == {}
    db.update("b", 2, {"a": 1.0})
    assert db.symmetric_adjacency()["a"] == {"b": 1.0}


def test_group_membership():
    db = GroupDatabase()
    db.update("a", 1, ["g1", "g2"])
    db.update("b", 1, ["g1"])
    assert db.members_view("g1") == ("a", "b")
    assert db.members_view("g2") == ("a",)
    assert db.members_view("none") == ()


def test_group_update_replaces_set():
    db = GroupDatabase()
    db.update("a", 1, ["g1"])
    db.update("a", 2, ["g2"])
    assert db.members_view("g1") == ()
    assert db.members_view("g2") == ("a",)


def test_group_stale_rejected():
    db = GroupDatabase()
    db.update("a", 2, ["g1"])
    assert not db.update("a", 1, ["g2"])
    assert db.record("a") == frozenset({"g1"})


def test_dedup_delivery_once():
    record = FlowSeqs()
    assert record.first_delivery(1)
    assert not record.first_delivery(1)
    assert record.first_delivery(0)  # the hole below seq 1
    assert not record.first_delivery(0) and not record.holes


def test_dedup_tracks_links_sent():
    record = FlowSeqs()
    nbrs = (("a", 0), ("b", 1), ("c", 2))
    assert record.unsent(1, 0b001, nbrs) == [("b", 1), ("c", 2)]
    assert record.unsent(1, 0b010, nbrs) == []
    assert record.masks == {1: 0b111}


def test_topology_refuses_negative_and_non_finite_costs():
    db = TopologyDatabase()
    assert db.update("a", 1, {"b": 1.0})
    before = (db.fingerprint, db.version, db.seq("a"))
    for bad in (-0.5, float("nan"), float("inf"), -float("inf")):
        assert not db.update("a", 2, {"b": bad, "c": 1.0})
    assert (db.fingerprint, db.version, db.seq("a")) == before
    assert db.record("a") == {"b": 1.0}
    assert db.counters.get("lsu-rejected") == 4
    assert db.update("a", 2, {"b": 0.0, "c": None})  # zero and down are fine


def test_every_replica_refuses_and_counts_a_shared_bad_record():
    """The cost verdict is derived once, on the record; the refusal and
    its ``lsu-rejected`` count stay per replica."""
    from repro.sim.trace import Counter

    bad = TopologyRecord("a", {"b": float("nan"), "c": 1.0})
    counters = Counter()
    dbs = [TopologyDatabase(counters) for _ in range(3)]
    assert not any(db.update("a", 1, bad) for db in dbs)
    assert counters.get("lsu-rejected") == 3
    assert not bad.valid and all(db.record("a") is None for db in dbs)


def test_records_are_frozen_values():
    record = TopologyRecord("a", {"b": 1.0})
    with pytest.raises(AttributeError):
        record.origin = "b"
    with pytest.raises(AttributeError):
        del record._part
    with pytest.raises(TypeError):
        record["b"] = 2.0  # a read-only mapping
    assert record == {"b": 1.0} and record.row == {"b": 1.0}

