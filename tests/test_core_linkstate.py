"""Shared-state replicas: topology database, group database, dedup."""

import pytest

from repro.core.linkstate import (
    DedupCache,
    GroupDatabase,
    TopologyDatabase,
    TopologyRecord,
)


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
    cache = DedupCache(100)
    assert not cache.already_delivered(("f", 1))
    assert cache.already_delivered(("f", 1))
    assert not cache.already_delivered(("f", 2))


def test_dedup_tracks_links_sent():
    cache = DedupCache(100)
    assert cache.links_sent(("f", 1)) == 0
    cache.mark_sent(("f", 1), 0b0101)
    cache.mark_sent(("f", 1), 0b0010)
    assert cache.links_sent(("f", 1)) == 0b0111


def test_dedup_eviction_bounds_memory():
    cache = DedupCache(10)
    for i in range(50):
        cache.already_delivered(("f", i))
        cache.mark_sent(("f", i), 1)
    assert len(cache._delivered) <= 11
    assert len(cache._sent) <= 11


def _dedup_survivors() -> list[int]:
    cache = DedupCache(10)
    for i in range(11):
        cache.already_delivered((f"flow-{i}", i))
    return sorted(i for __, i in cache._delivered)


def test_dedup_eviction_keeps_exactly_the_newest_half():
    """The 11th key overflows capacity 10 and the five oldest go. A set
    of delivered keys dropped a hash-ordered half instead — possibly
    the key just inserted, whose redundant copy was then delivered a
    second time."""
    assert _dedup_survivors() == [5, 6, 7, 8, 9, 10]
    cache = DedupCache(10)
    for i in range(11):
        assert not cache.already_delivered((f"flow-{i}", i))
    assert cache.already_delivered(("flow-10", 10))


def test_dedup_eviction_is_the_same_under_any_hash_seed():
    """Two interpreters with different string-hash seeds evict the same
    keys (runs past ``dedup_cache`` deliveries repeat across
    interpreters)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    survivors = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c",
             "from tests.test_core_linkstate import _dedup_survivors; "
             "print(_dedup_survivors())"],
            env=env, cwd=root, capture_output=True, text=True, check=True,
            timeout=60)
        survivors.append(out.stdout.strip())
    assert survivors[0] == survivors[1] == "[5, 6, 7, 8, 9, 10]"


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


def test_dedup_capacity_validation():
    import pytest

    with pytest.raises(ValueError):
        DedupCache(0)
