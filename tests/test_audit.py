"""Audit subsystem: invariant checkers, trace differ, report plumbing.

The contract under test (DESIGN.md "Audit and divergence detection"):

* every invariant checker passes on a healthy system and fires on a
  deliberately broken fixture — a checker that cannot fail checks
  nothing;
* the trace differ localizes the *first* divergent record with
  surrounding context instead of dumping whole streams;
* the audit switch is strictly opt-in: audit-off runs construct the
  plain cache classes and no auditor at all, and an audited run's
  delivery trace is byte-identical to an unaudited one;
* the ``clear()``-during-callback teardown leak the auditor originally
  surfaced stays fixed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.audit import (
    AuditReport,
    AuditViolation,
    AuditedForwardingCache,
    AuditedGroupDatabase,
    AuditedRouteComputeEngine,
    AuditedTopologyDatabase,
    Auditor,
    TraceDivergenceError,
    assert_identical,
    audit_enabled,
    audit_transits,
    check_datagram_conservation,
    check_heap_accounting,
    check_teardown,
    collect_report,
    diff_counters,
    diff_sequences,
    diff_traces,
    reset_auditors,
)
from repro.core.compute import RouteComputeEngine
from repro.core.config import OverlayConfig
from repro.core.linkstate import GroupRecord, TopologyDatabase, TopologyRecord
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.core.pipeline import ForwardingCache
from repro.analysis.workloads import CbrSource
from repro.net.internet import Internet
from repro.net.topologies import line_internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Counter, TraceCollector


@pytest.fixture(autouse=True)
def _isolated_auditors(monkeypatch):
    """Each test starts with an empty auditor registry and no ambient
    REPRO_AUDIT (the bench CLIs set it process-wide)."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    reset_auditors()
    yield
    reset_auditors()


# ------------------------------------------------------------------- differ

def test_diff_sequences_identical_is_none():
    records = [("a", 1), ("b", 2), ("c", 3)]
    assert diff_sequences(records, list(records)) is None
    assert diff_sequences([], []) is None


def test_diff_sequences_localizes_first_divergence():
    a = [(i, "x") for i in range(100)]
    b = list(a)
    b[41] = (41, "y")
    b[90] = (90, "z")  # later divergence must not mask the first
    divergence = diff_sequences(a, b, label="deliveries")
    assert divergence is not None
    assert divergence.index == 41
    assert divergence.left == (41, "x")
    assert divergence.right == (41, "y")
    # Context covers index-3 .. index+3 and marks the divergent row.
    assert [row[0] for row in divergence.context] == list(range(38, 45))
    text = divergence.format()
    assert "'deliveries' at index 41" in text
    assert ">> [41]" in text  # the divergent row is marked, neighbors not
    assert ">> [38]" not in text


def test_diff_sequences_length_mismatch():
    a = [1, 2, 3, 4]
    divergence = diff_sequences(a, a[:2], label="records")
    assert divergence is not None
    assert divergence.index == 2
    assert divergence.left == 3
    assert divergence.right is None
    assert "length 4 vs 2" in divergence.label


def test_diff_counters_reports_key_and_sides():
    divergence = diff_counters({"fwd.hit": 3.0, "x": 1.0},
                               {"fwd.hit": 5.0, "x": 1.0})
    assert divergence is not None
    assert "fwd.hit" in divergence.label
    assert divergence.left == 3.0
    assert divergence.right == 5.0
    # A key missing on one side is a divergence too.
    assert diff_counters({"a": 1.0}, {}) is not None
    assert diff_counters({}, {}) is None


def test_diff_traces_checks_sends_then_records_then_counters():
    a, b = TraceCollector(), TraceCollector()
    for trace in (a, b):
        trace.record_send("f", 0, 0.5, 100, "dst")
        trace.record_delivery("f", 0, 0.5, 0.6, "dst", 100)
    assert diff_traces(a, b) is None
    b.counters.add("fwd.hit")
    divergence = diff_traces(a, b)
    assert divergence is not None and "fwd.hit" in divergence.label
    b.record_delivery("f", 1, 0.7, 0.8, "dst", 100)
    assert diff_traces(a, b).label.startswith("deliveries")
    # A trace whose first send differs diverges at "sends", although
    # its deliveries and counters differ from ``a``'s as well.
    c = TraceCollector()
    c.record_send("f", 0, 0.5, 101, "dst")
    for seq, sent_at in ((0, 0.5), (1, 0.7)):
        c.record_delivery("f", seq, sent_at, sent_at + 0.1, "dst", 100)
    c.counters.add("fwd.hit")
    assert diff_traces(a, c).label == "sends"


def test_assert_identical_passes_and_raises():
    assert_identical([1, 2, 3], [1, 2, 3])  # no exception
    with pytest.raises(TraceDivergenceError) as exc:
        assert_identical([1, 2, 3], [1, 9, 3], label="seqs",
                         header="must match")
    message = str(exc.value)
    assert message.startswith("must match")
    assert "index 1" in message
    assert exc.value.divergence.left == 2
    # The benches' `assert a == b` contract survives the migration:
    assert isinstance(exc.value, AssertionError)


def test_assert_identical_dispatches_on_trace_collectors():
    a, b = TraceCollector(), TraceCollector()
    a.record_send("f", 0, 0.1, 10, "d")
    with pytest.raises(TraceDivergenceError) as exc:
        assert_identical(a, b)
    assert exc.value.divergence.label.startswith("sends")


# ------------------------------------------------------------------- report

def test_violation_and_report_formatting():
    violation = AuditViolation(
        invariant="fwd-coherence", detail="cached != fresh",
        sim_time=1.25, node="n03", flow="f:1",
        counters={"fwd.hit": 7.0},
    )
    line = violation.format()
    assert "fwd-coherence" in line and "t=1.250000s" in line
    assert "node=n03" in line and "flow=f:1" in line
    report = AuditReport()
    report.count_check(3)
    report.record(violation)
    other = AuditReport()
    other.count_check(2)
    report.merge(other)
    assert report.checks == 5 and not report.ok
    text = report.format()
    assert "5 checks, 1 violation(s)" in text
    assert "fwd.hit = 7.0" in text
    import json

    payload = json.loads(report.to_json())
    assert payload["checks"] == 5
    assert payload["violations"][0]["invariant"] == "fwd-coherence"


def test_auditor_counters_and_registry():
    counters = Counter()
    auditor = Auditor(counters=counters)
    assert auditor.check("ok-invariant", True)
    assert not auditor.check("bad-invariant", False, "broken", sim_time=2.0)
    assert counters.get("audit.check") == 2.0
    assert counters.get("audit.violation") == 1.0
    # The failure snapshot was taken *before* audit.violation bumped.
    snapshot = auditor.report.violations[0].counters
    assert snapshot["audit.check"] == 2.0
    merged = collect_report(run_checks=False)
    assert merged.checks == 2 and len(merged.violations) == 1
    reset_auditors()
    assert collect_report().checks == 0


def test_audit_enabled_switch(monkeypatch):
    assert not audit_enabled()
    assert audit_enabled(OverlayConfig(audit=True))
    assert not audit_enabled(OverlayConfig())
    monkeypatch.setenv("REPRO_AUDIT", "1")
    assert audit_enabled()
    monkeypatch.setenv("REPRO_AUDIT", "0")
    assert not audit_enabled()


# ------------------------------------------------------------- heap checks

#: The heap is the one engine; the ``[False]`` id (once "not the wheel")
#: is kept so the suite reports these tests under their established names.
HEAP = pytest.mark.parametrize("columnar", [False])

@HEAP
def test_heap_accounting_passes_on_healthy_sim(columnar):
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(80)]
    for handle in handles[::3]:
        handle.cancel()
    auditor = Auditor(counters=Counter(), register=False)
    assert check_heap_accounting(sim, auditor)
    assert auditor.report.ok
    # Compaction ran as part of the check and left no dead entries.
    assert sim._dead == 0


@HEAP
def test_heap_accounting_fires_on_corrupted_counters(columnar):
    sim = Simulator()
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda: None)
    sim._live += 1  # deliberately broken fixture
    auditor = Auditor(counters=Counter(), register=False)
    assert not check_heap_accounting(sim, auditor, compact=False)
    violation = auditor.report.violations[0]
    assert violation.invariant == "heap-accounting"
    assert "counters say" in violation.detail


@HEAP
def test_teardown_check_passes_after_clear(columnar):
    sim = Simulator()
    sim.schedule_periodic(0.05, lambda: None)
    sim.schedule(0.2, lambda: None)
    sim.run(until=0.3)
    sim.clear()
    auditor = Auditor(register=False)
    assert check_teardown(sim, auditor)


@HEAP
def test_teardown_check_fires_on_post_clear_event(columnar):
    sim = Simulator()
    sim.clear()
    sim.schedule_periodic(0.05, lambda: None)  # leaked past teardown
    auditor = Auditor(register=False)
    assert not check_teardown(sim, auditor)
    violation = auditor.report.violations[0]
    assert violation.invariant == "teardown-leak"
    assert "1 event(s) still queued" in violation.detail
    assert "1 periodic" in violation.detail


@HEAP
def test_clear_during_periodic_callback_does_not_leak(columnar):
    """Regression: a periodic timer whose callback tears the simulator
    down used to be re-armed *after* ``clear()`` swept the queue (the
    firing event is off-heap during its own callback), leaking a live
    timer into the next run. The teardown epoch in ``Simulator.clear``
    suppresses that re-arm."""
    sim = Simulator()
    fired = []

    def tick():
        fired.append(sim.now)
        if len(fired) == 3:
            sim.clear()

    sim.schedule_periodic(0.1, tick)
    sim.run(until=5.0)
    assert len(fired) == 3
    assert sim.pending_events == 0
    auditor = Auditor(register=False)
    assert check_teardown(sim, auditor), auditor.report.format()


@HEAP
def test_manual_timer_survives_clear_then_reschedule(columnar):
    """clear() cancels, it does not destroy: a manual timer can still be
    re-armed afterwards (restart-style reuse keeps working)."""
    sim = Simulator()
    fired = []
    timer = sim.timer(lambda: fired.append(sim.now))
    timer.reschedule(0.1)
    sim.run(until=0.2)
    sim.clear()
    timer.reschedule(0.1)
    sim.run(until=sim.now + 0.2)
    assert len(fired) == 2


# ------------------------------------------------- datagram conservation

def _mini_internet(sim, rngs):
    inet = Internet(sim, rngs)
    dom = inet.add_isp("m", convergence_delay=5.0)
    for name in ("r0", "r1", "r2"):
        dom.add_router(name)
    dom.add_link("r0", "r1", 0.010, None, None)
    dom.add_link("r1", "r2", 0.010, None, None)
    for i, router in enumerate(("r0", "r1", "r2")):
        inet.add_host(f"h{i}", access_delay=0.0)
        inet.attach(f"h{i}", "m", router)
    return inet


def test_datagram_conservation_passes_on_real_traffic():
    sim = Simulator()
    rngs = RngRegistry(11)
    inet = _mini_internet(sim, rngs)
    overlay = OverlayNetwork(inet, ["h0", "h1", "h2"],
                             [("h0", "h1"), ("h1", "h2")])
    overlay.warm_up(2.0)
    overlay.client("h2", 7, on_message=lambda m: None)
    CbrSource(sim, overlay.client("h0"), Address("h2", 7), rate_pps=50.0).start()
    sim.run(until=sim.now + 2.0)
    auditor = Auditor(counters=overlay.counters, register=False)
    assert check_datagram_conservation(inet, auditor), (
        auditor.report.format()
    )
    assert inet.counters.get("datagrams-sent") > 0


def test_datagram_conservation_fires_on_cooked_counters():
    sim = Simulator()
    rngs = RngRegistry(11)
    inet = _mini_internet(sim, rngs)
    inet.counters.add("datagrams-sent", 5.0)  # sent but never resolved
    auditor = Auditor(register=False)
    assert not check_datagram_conservation(inet, auditor)
    violation = auditor.report.violations[0]
    assert violation.invariant == "datagram-conservation"
    assert "sent=5" in violation.detail


# ------------------------------------------------------- quiet transits

def _audited_line(sample_every):
    sim = Simulator()
    inet = line_internet(sim, RngRegistry(3), n_hops=5)
    auditor = Auditor(sample_every=sample_every, register=False)
    audit_transits(inet, auditor)
    return sim, inet, auditor


def test_transit_audit_passes_and_counts_in_flight_transits():
    sim, inet, auditor = _audited_line(sample_every=4)
    got = []
    for i in range(32):
        sim.schedule(0.001 * i, inet.send, "h0", "h5", i, 100, "line",
                     got.append, lambda d, reason: got.append(reason))
    domain = inet.isps["line"]
    sim.schedule_at(0.0305, domain.fail_link, "r3", "r4")  # demotes some
    sim.schedule_at(0.0455, domain.repair_link, "r3", "r4")
    sim.run(until=0.04)
    assert check_datagram_conservation(inet, auditor)  # mid-flight
    sim.run(until=1.0)
    assert len(got) == 32 and "link-loss" in got
    # 32 first hops went express, and so did every demoted datagram's
    # hop at the next router that still had two quiet fibers ahead.
    assert auditor.report.checks >= 1 + 32 // 4
    assert auditor.report.ok, auditor.report.format()


def test_transit_audit_fires_on_a_profile_the_tables_do_not_back():
    sim, inet, auditor = _audited_line(sample_every=1)
    domain = inet.isps["line"]
    # A cached profile that is not what the tables say: the fibers of
    # r1 -> r5 filed under r0 -> r5, stamped with the current epoch.
    epoch, short = inet._resolve_path(domain, "r1", "r5")
    inet._path_cache[(domain, "r0", "r5")] = (epoch, short)
    inet.send("h0", "h5", "x", 100, "line", lambda d: None)
    sim.run()
    assert not auditor.report.ok
    violation = auditor.report.violations[0]
    assert violation.invariant == "transit-express"
    assert "'line:r0-r1'" in violation.detail  # the walk's first fiber


# --------------------------------------------------- audited cache checks

class _StubNode:
    """Just enough node surface for AuditedForwardingCache."""

    def __init__(self, sim):
        self.sim = sim
        self.id = "stub"
        self.counters = Counter()
        self.routing = SimpleNamespace(engine=None)  # swapped per re-derivation


def test_fwd_coherence_passes_on_deterministic_compute():
    sim = Simulator()
    node = _StubNode(sim)
    auditor = Auditor(counters=node.counters, sample_every=1, register=False)
    cache = AuditedForwardingCache(auditor, node)
    for _ in range(5):
        assert cache.lookup(7, ("dst", "svc"), lambda: ["hop"]) == ["hop"]
    assert auditor.report.ok
    assert auditor.report.checks == 4  # every hit sampled at 1


def test_fwd_coherence_fires_on_incoherent_cache():
    sim = Simulator()
    node = _StubNode(sim)
    auditor = Auditor(counters=node.counters, sample_every=1, register=False)
    cache = AuditedForwardingCache(auditor, node)
    results = iter([["hop-a"], ["hop-b"]])  # deliberately non-deterministic
    compute = lambda: next(results)
    cache.lookup(7, "key", compute)   # miss caches hop-a
    value = cache.lookup(7, "key", compute)  # hit; fresh says hop-b
    assert value == ["hop-a"]  # the cache still serves the cached value
    violation = auditor.report.violations[0]
    assert violation.invariant == "fwd-coherence"
    assert violation.node == "stub"
    assert node.counters.get("audit.violation") == 1.0


def test_fwd_coherence_sampling_is_counter_based():
    sim = Simulator()
    node = _StubNode(sim)
    auditor = Auditor(counters=node.counters, sample_every=4, register=False)
    cache = AuditedForwardingCache(auditor, node)
    cache.lookup(1, "k", lambda: "v")
    for _ in range(8):  # 8 hits -> exactly 2 sampled checks
        cache.lookup(1, "k", lambda: "v")
    assert auditor.report.checks == 2


def test_route_consistency_passes_and_fires():
    auditor = Auditor(counters=Counter(), sample_every=1, register=False)
    engine = AuditedRouteComputeEngine(auditor, counters=auditor.counters)
    engine.lookup(0xabc, ("spt", "n1"), lambda: {"n2": "n3"})
    engine.lookup(0xabc, ("spt", "n1"), lambda: {"n2": "n3"})
    assert auditor.report.ok and auditor.report.checks == 1
    results = iter([{"a": 1}, {"a": 2}])
    engine.lookup(0xdef, "key", lambda: next(results))
    engine.lookup(0xdef, "key", lambda: next(results))
    violation = auditor.report.violations[0]
    assert violation.invariant == "route-consistency"


def test_table_hits_are_held_against_the_from_scratch_oracle():
    """A sampled ``("table", dst)`` hit compares the lazily settled
    table with ``next_hops(adj, dst)`` — whole tables, a paused search
    finished on a copy — and fires when the cached tree is wrong."""
    adj = {"a": {"b": 1.0}, "b": {"c": 1.0}, "c": {"d": 1.0}, "d": {}}
    auditor = Auditor(counters=Counter(), sample_every=1, register=False)
    engine = AuditedRouteComputeEngine(auditor, counters=auditor.counters)
    table = engine.table(1, adj, "d")
    assert table.get("c") == "d"
    assert auditor.counters.get("route.settled") == 2  # d, c: paused
    assert engine.table(1, adj, "d") is table
    assert auditor.report.ok and auditor.report.checks == 1
    # the audit finished a copy: the shared search is still paused
    assert auditor.counters.get("route.settled") == 2 and table._search
    table._prev["c"] = "a"  # a settled answer no search of adj produces
    engine.table(1, adj, "d")
    assert auditor.report.violations[0].invariant == "route-consistency"


def test_topology_views_audit_passes_and_fires():
    from types import MappingProxyType

    auditor = Auditor(counters=Counter(), sample_every=1, register=False)
    db = AuditedTopologyDatabase(auditor, auditor.counters)
    for seq, cost in enumerate((1.0, 2.0, None, 1.0), start=1):
        for origin, nbr in (("b", "a"), ("a", "b"), ("a", "c")):
            db.update(origin, 10 * seq + ord(nbr), {nbr: cost, "z": 1.0})
            db.adjacency()
            db.reverse_adjacency()
    assert auditor.report.ok and auditor.report.checks >= 20
    checks = auditor.report.checks
    db.adjacency()  # unchanged fingerprint: no patch, no check
    assert auditor.report.checks == checks
    # A row that is not what the records say (a lost patch).
    db._adj_view = MappingProxyType(
        dict(db._adj_view, b=MappingProxyType({"a": 99.0})))
    db.update("a", 1000, {"b": 5.0})
    db.adjacency()
    violation = auditor.report.violations[0]
    assert violation.invariant == "topology-views"
    assert "adjacency()" in violation.detail


@pytest.mark.parametrize("stale, invariant", [
    ("_part", "topology-fingerprint"),
    ("_row", "topology-views"),
])
def test_a_record_with_a_stale_cache_is_caught(stale, invariant):
    """A shared record whose cached part or row no longer matches its
    costs (a derivation gone stale) is caught: the audit rebuilds from
    fresh records built out of the exported costs, never from the
    cache it is checking."""
    from types import MappingProxyType

    auditor = Auditor(counters=Counter(), sample_every=1, register=False)
    db = AuditedTopologyDatabase(auditor, auditor.counters)
    old = TopologyRecord("a", {"b": 1.0})
    db.update("a", 1, old)
    db.update("b", 1, {"a": 1.0})
    db.adjacency()
    assert auditor.report.ok
    new = TopologyRecord("a", {"b": 5.0})
    cached = {"_part": old.part, "_row": MappingProxyType({"b": 1.0})}
    object.__setattr__(new, stale, cached[stale])
    assert db.update("a", 2, new)
    db.adjacency()
    assert [v.invariant for v in auditor.report.violations] == [invariant]


def test_a_group_record_with_a_stale_part_is_caught():
    """Nothing else re-derives the group fingerprint, yet it keys every
    multicast / anycast artifact and the forwarding-cache generation: a
    shared group record whose cached part is poisoned is caught at the
    next sampled member-view rebuild (``group-fingerprint``)."""
    auditor = Auditor(counters=Counter(), sample_every=1, register=False)
    db = AuditedGroupDatabase(auditor)
    old = GroupRecord("a", {"g"})
    db.update("a", 1, old)
    db.update("b", 1, {"g", "h"})
    assert db.members_view("g") == ("a", "b")
    assert auditor.report.ok and auditor.report.checks == 1
    new = GroupRecord("a", {"h"})
    object.__setattr__(new, "_part", old.part)  # the derivation gone stale
    assert db.update("a", 2, new)
    assert db.members_view("g") == ("b",)
    assert [v.invariant for v in auditor.report.violations] == [
        "group-fingerprint"]


# ----------------------------------------------------- switch + end-to-end

def _mesh(sim, rngs, n=8, overlay_spacings=None):
    inet = Internet(sim, rngs)
    dom = inet.add_isp("m", convergence_delay=5.0)
    fibers = sorted({tuple(sorted((f"r{i}", f"r{(i + d) % n}")))
                     for i in range(n) for d in (1, 3)})
    for i in range(n):
        dom.add_router(f"r{i}")
    for a, b in fibers:
        dom.add_link(a, b, 0.010, None, None)
    for i in range(n):
        inet.add_host(f"h{i}", access_delay=0.0)
        inet.attach(f"h{i}", "m", f"r{i}")
    links = [(f"h{a[1:]}", f"h{b[1:]}") for a, b in fibers]
    if overlay_spacings is not None:  # several fibers under a link
        links = sorted({tuple(sorted((f"h{i}", f"h{(i + d) % n}")))
                        for i in range(n) for d in overlay_spacings})
    return inet, [f"h{i}" for i in range(n)], links


def _run_mesh(audit: bool, **mesh) -> tuple[list, OverlayNetwork]:
    sim = Simulator()
    rngs = RngRegistry(99)
    inet, sites, links = _mesh(sim, rngs, **mesh)
    overlay = OverlayNetwork(inet, sites, links, OverlayConfig(audit=audit))
    overlay.warm_up(2.0)
    deliveries = []
    overlay.client("h4", 7, on_message=lambda m: deliveries.append(
        (m.origin, m.flow, m.seq, round(sim.now, 9))
    ))
    CbrSource(sim, overlay.client("h0"), Address("h4", 7),
              rate_pps=40.0).start()
    # Churn one fiber so caches invalidate and refill under audit.
    sim.schedule(1.0, lambda: inet.fail_fiber("m", "r0", "r1"))
    sim.schedule(2.5, lambda: inet.repair_fiber("m", "r0", "r1"))
    sim.run(until=sim.now + 4.0)
    return deliveries, overlay


def test_audit_off_constructs_plain_classes():
    _, overlay = _run_mesh(audit=False)
    assert overlay.auditor is None
    assert type(overlay.route_engine) is RouteComputeEngine
    node = overlay.nodes["h0"]
    assert type(node.pipeline.cache) is ForwardingCache
    assert type(node.topo_db) is TopologyDatabase
    assert overlay.counters.get("audit.check") == 0.0


def test_audit_on_wires_audited_classes_and_finds_nothing():
    _, overlay = _run_mesh(audit=True)
    assert isinstance(overlay.route_engine, AuditedRouteComputeEngine)
    assert isinstance(overlay.nodes["h0"].pipeline.cache,
                      AuditedForwardingCache)
    assert isinstance(overlay.nodes["h0"].topo_db, AuditedTopologyDatabase)
    report = collect_report()  # includes post-hoc heap/datagram checks
    assert report.checks > 0
    assert report.ok, report.format()
    assert overlay.counters.get("audit.check") == float(report.checks)


def test_audited_trace_is_byte_identical_to_unaudited():
    plain, _ = _run_mesh(audit=False)
    audited, overlay = _run_mesh(audit=True)
    assert len(plain) > 0
    assert_identical(audited, plain, label="deliveries",
                     header="the auditor changed simulation behaviour")
    assert overlay.counters.get("audit.check") > 0


def test_audited_overlay_checks_its_quiet_transits_and_moves_nothing(
        monkeypatch):
    """Overlay links two fibers long: hellos, state frames and data all
    ride quiet transits, the fiber cut demotes the ones in flight."""
    seen = []
    check = Auditor.check

    def logged(self, invariant, *args, **kwargs):
        seen.append(invariant)
        return check(self, invariant, *args, **kwargs)

    monkeypatch.setattr(Auditor, "check", logged)
    mesh = dict(n=12, overlay_spacings=(1, 4))
    plain, __ = _run_mesh(audit=False, **mesh)
    audited, overlay = _run_mesh(audit=True, **mesh)
    assert len(plain) > 0
    assert_identical(audited, plain, label="deliveries",
                     header="the auditor changed simulation behaviour")
    report = collect_report()
    assert report.ok, report.format()
    assert seen.count("transit-express") > 100
    assert "underlay-table" in seen
    assert "datagram-conservation" in seen


def test_env_var_arms_the_auditor(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    sim = Simulator()
    rngs = RngRegistry(5)
    inet = _mini_internet(sim, rngs)
    overlay = OverlayNetwork(inet, ["h0", "h1"], [("h0", "h1")])
    assert overlay.auditor is not None
    assert isinstance(overlay.route_engine, AuditedRouteComputeEngine)


# --------------------------------------------------------- the audit gate

#: A session run under ``REPRO_AUDIT=1`` with the suite's audit gate:
#: a clean audited overlay, and one whose transit-express checker
#: always fails.
_GATED_SESSION = """
from repro.audit import Auditor
from tests.conftest import make_two_node_line

def fail_transit_express(monkeypatch):
    check = Auditor.check
    def seeded(self, invariant, ok, *args, **kwargs):
        return check(self, invariant, ok and invariant != "transit-express",
                     *args, **kwargs)
    monkeypatch.setattr(Auditor, "check", seeded)

def test_clean():
    assert make_two_node_line().overlay.auditor is not None

def test_seeded(monkeypatch):
    fail_transit_express(monkeypatch)
    make_two_node_line()
"""


def test_audit_gate_fails_a_test_whose_run_recorded_a_violation(tmp_path):
    """The audit gate (``tests/conftest.py``) turns a recorded violation
    into a failed test, names it, and lets a clean test pass."""
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "conftest.py").write_text(
        "from tests.conftest import audit_gate  # noqa\n")
    (tmp_path / "test_gated.py").write_text(_GATED_SESSION)
    env = dict(os.environ, REPRO_AUDIT="1",
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_gated.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "2 passed, 1 error" in out, out
    assert "ERROR at teardown of test_seeded " in out, out
    assert "VIOLATION transit-express" in out, out
