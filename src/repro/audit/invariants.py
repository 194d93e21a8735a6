"""Runtime invariant checkers for the optimized subsystems.

PRs 1-4 each bought speed with caching or object recycling, and each
preserves correctness through an invariant that can be *checked*, not
just trusted (the self-stabilizing-overlay literature's view of
correctness as a detectable predicate over network state). This module
holds those checkers:

* **event-heap accounting** (:func:`check_heap_accounting`) — the
  simulator's O(1) ``_live`` / ``_dead`` counters must match a direct
  scan of the queue, before and after a forced lazy compaction;
* **simulator teardown** (:func:`check_teardown`) — after
  :meth:`~repro.sim.events.Simulator.clear`, nothing may remain queued
  and no recycled :class:`~repro.sim.events.PeriodicEvent` may have
  leaked a re-armed firing;
* **datagram conservation** (:func:`check_datagram_conservation`) —
  every datagram the underlay accepted is delivered, dropped for a
  counted reason, or still in flight on the event queue;
* **forwarding-cache coherence** (:class:`AuditedForwardingCache`) — a
  deterministically sampled fraction of ``fwd.hit`` decisions is
  re-derived cold and compared against the cached value under the
  current topology^group fingerprint generation;
* **route-engine consistency** (:class:`AuditedRouteComputeEngine`) —
  sampled cache hits of the shared route-computation engine are
  recomputed fresh and compared against the cached artifact (a lazy
  next-hop table, finished on a copy, against the from-scratch
  ``next_hops``);
* **shared-state replicas** (:class:`AuditedTopologyDatabase`,
  :class:`AuditedGroupDatabase`) — at every ``sample_every``-th patch
  of a topology replica's adjacency / reverse views, or rebuild of a
  group replica's member view, the fingerprint is compared with a cold
  replica's loaded from the records, and so are the topology views
  (content and key order);
* **quiet transits and underlay tables** (:func:`audit_transits`) — at
  sampled runs of the underlay's settle step, the next hop a domain
  reads from a search it shares with other domains is re-derived by a
  fresh search over the domain's own converged graph
  (``underlay-table``), and a transit the step settled is re-walked
  fiber by fiber from its start instant against the live forwarding
  tables and fiber state: same fibers, each crossing certain to pass,
  same arrival instant (``transit-express``).

The :class:`Auditor` ties them together: one per audited
:class:`~repro.core.network.OverlayNetwork` (created only when
:func:`audit_enabled` says so — audit-off runs construct the plain
classes and pay **zero** overhead), counting every check and recording
failures as :class:`~repro.audit.report.AuditViolation` entries plus
``audit.check`` / ``audit.violation`` counters.

Sampling is counter-based (every ``sample_every``-th hit), never
RNG-based, and recomputation calls the same pure decision closures the
caches memoize — so an audited run consumes no extra randomness and
produces **byte-identical traces** to an unaudited one. Its
recomputations run outside the overlay's counted paths — a decision
against a private engine that derives every artifact afresh, a lazy
table finished on a copy, a cold replica's records digested with the
digest function bound here rather than through
``repro.core.linkstate`` — so every work count reads as an unaudited
run leaves it; checks add ``audit.*`` counts of their own.
"""

from __future__ import annotations

import copy
import os
import weakref
from math import ceil

from repro.alg.dijkstra import ShortestPathSearch, next_hops, reversed_graph
from repro.audit.report import AuditReport, AuditViolation
from repro.core.compute import NextHopTable, RouteComputeEngine
from repro.core.linkstate import (GroupDatabase, GroupRecord, TopologyDatabase,
                                  TopologyRecord, content_digest)
from repro.core.pipeline import ForwardingCache
from repro.net.internet import _MAX_HOPS

#: Default sampling period for hit re-derivation: every Nth cache hit
#: is recomputed cold. Deterministic (a counter, not an RNG draw).
DEFAULT_SAMPLE_EVERY = 16


def audit_enabled(config=None) -> bool:
    """Whether the audit subsystem should be armed: true when the given
    :class:`~repro.core.config.OverlayConfig` sets ``audit=True`` or
    the ``REPRO_AUDIT`` environment variable is set to anything but
    empty/``0`` (the bench CLIs' shared ``--audit`` flag sets it)."""
    if config is not None and getattr(config, "audit", False):
        return True
    return os.environ.get("REPRO_AUDIT", "") not in ("", "0")


# ---------------------------------------------------------------- auditor

#: Every Auditor constructed in this process (the bench CLIs collect a
#: final merged report from here; see :func:`collect_report`).
_AUDITORS: list["Auditor"] = []


def reset_auditors() -> None:
    """Forget previously registered auditors (test isolation, and the
    start of an audited bench run)."""
    _AUDITORS.clear()


def active_auditors() -> list["Auditor"]:
    """The auditors registered in this process since the last
    :func:`reset_auditors`."""
    return list(_AUDITORS)


def collect_report(run_checks: bool = True) -> AuditReport:
    """Merge every registered auditor's report into one.

    With ``run_checks=True`` (the default) each auditor first runs its
    post-hoc checks (:meth:`Auditor.run_checks`) against its network,
    so the merged report covers the end-of-run invariants too.
    """
    merged = AuditReport()
    for auditor in _AUDITORS:
        if run_checks:
            auditor.run_checks()
        merged.merge(auditor.report)
    return merged


class Auditor:
    """Invariant bookkeeping for one audited overlay network.

    Created by :class:`~repro.core.network.OverlayNetwork` when
    :func:`audit_enabled` is true, and threaded into the audited cache
    subclasses; the plain (audit-off) construction path never touches
    this class. Each check increments ``audit.check`` in the network's
    counter sink; each failure records an
    :class:`~repro.audit.report.AuditViolation` (with a counter
    snapshot) and increments ``audit.violation``.

    Args:
        counters: The network's :class:`~repro.sim.trace.Counter` sink
            (optional — standalone checker use in tests may omit it).
        sample_every: Sampling period for cache-hit re-derivation.
        network: The owning network (held weakly; used by
            :meth:`run_checks`).
        register: Register in the process-wide auditor list consumed by
            :func:`collect_report` (the bench ``--audit`` path).
    """

    def __init__(self, counters=None, sample_every: int = DEFAULT_SAMPLE_EVERY,
                 network=None, register: bool = True) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.counters = counters
        self.sample_every = sample_every
        self.report = AuditReport()
        self._network = weakref.ref(network) if network is not None else None
        if register:
            _AUDITORS.append(self)

    def check(
        self,
        invariant: str,
        ok: bool,
        detail: str = "",
        sim_time: float | None = None,
        node: str | None = None,
        flow: str | None = None,
    ) -> bool:
        """Record one invariant check; on failure, capture a violation
        with the current counter snapshot. Returns ``ok``."""
        self.report.count_check()
        if self.counters is not None:
            self.counters.add("audit.check")
        if ok:
            return True
        snapshot = self.counters.as_dict() if self.counters is not None else {}
        self.report.record(AuditViolation(
            invariant=invariant, detail=detail, sim_time=sim_time,
            node=node, flow=flow, counters=snapshot,
        ))
        if self.counters is not None:
            self.counters.add("audit.violation")
        return False

    def run_checks(self) -> AuditReport:
        """Run the post-hoc whole-system checks against the owning
        network (heap accounting, datagram conservation) and return
        this auditor's report. A no-op if the network is gone."""
        network = self._network() if self._network is not None else None
        if network is not None:
            check_heap_accounting(network.sim, self)
            check_datagram_conservation(network.internet, self)
        return self.report


# ------------------------------------------------------- heap invariants

def _scan_heap(sim) -> tuple[int, int]:
    """Directly count (live, dead) entries in the simulator's queue.

    Uses :meth:`~repro.sim.events.Simulator.iter_queued`, where a dead
    entry is a cancelled event awaiting lazy deletion.
    """
    live = dead = 0
    for __, is_live in sim.iter_queued():
        if is_live:
            live += 1
        else:
            dead += 1
    return live, dead


def check_heap_accounting(sim, auditor: Auditor, compact: bool = True) -> bool:
    """The simulator's O(1) ``_live`` / ``_dead`` counters must equal a
    direct scan of the queue — and must still do so after a forced
    lazy compaction (``compact=True``), which additionally may not
    change the live population or leave any dead entry behind.

    Compaction preserves the deterministic (time, seq) pop order, so
    forcing it here is behaviour-neutral for the remaining run.
    """
    live, dead = _scan_heap(sim)
    ok = auditor.check(
        "heap-accounting",
        live == sim._live and dead == sim._dead,
        f"queue scan found live={live} dead={dead}, counters say "
        f"live={sim._live} dead={sim._dead}",
        sim_time=sim.now,
    )
    if not compact:
        return ok
    sim._compact()
    live_after, dead_after = _scan_heap(sim)
    ok &= auditor.check(
        "heap-accounting-compacted",
        live_after == live == sim._live and dead_after == 0 == sim._dead,
        f"after compaction: scan live={live_after} dead={dead_after}, "
        f"counters live={sim._live} dead={sim._dead} (live before: {live})",
        sim_time=sim.now,
    )
    return ok


def check_teardown(sim, auditor: Auditor) -> bool:
    """After :meth:`~repro.sim.events.Simulator.clear` (teardown),
    nothing may remain queued and the live count must be zero — in
    particular, no recycled periodic timer may have re-armed itself
    past the teardown (the leak the ``clear()``-during-callback fix in
    ``sim/events.py`` closes)."""
    leaked = [event for event, __ in sim.iter_queued()]
    periodic = [event for event in leaked if event.periodic]
    return auditor.check(
        "teardown-leak",
        not leaked and sim.pending_events == 0,
        f"{len(leaked)} event(s) still queued after teardown "
        f"({len(periodic)} periodic), pending_events={sim.pending_events}",
        sim_time=sim.now,
    )


# ------------------------------------------------- datagram conservation

def _in_flight_datagrams(internet) -> int:
    """Count queued, non-cancelled underlay continuation events — each
    one is exactly one datagram currently walking its hop chain (or
    riding a quiet transit's single event to its delivery, or a hello
    sent without one: ``_deliver_hello``), on either tier."""
    count = 0
    for event, is_live in internet.sim.iter_queued():
        fn = event.fn
        if is_live and getattr(fn, "__self__", None) is internet \
                and getattr(fn, "__name__", "") in (
                    "_hop", "_deliver", "_deliver_hello", "_drop"):
            count += 1
    return count


def check_datagram_conservation(internet, auditor: Auditor) -> bool:
    """Every datagram the underlay accepted must be accounted for
    exactly once: delivered, dropped for a counted reason
    (``drop:*``), or still in flight on the event queue."""
    counters = internet.counters.as_dict()
    sent = counters.get("datagrams-sent", 0.0)
    delivered = counters.get("datagrams-delivered", 0.0)
    dropped = sum(
        value for name, value in counters.items() if name.startswith("drop:")
    )
    in_flight = _in_flight_datagrams(internet)
    return auditor.check(
        "datagram-conservation",
        sent == delivered + dropped + in_flight,
        f"sent={sent:.0f} != delivered={delivered:.0f} + "
        f"dropped={dropped:.0f} + in-flight={in_flight}",
        sim_time=internet.sim.now,
    )


def _sampled(internet, auditor: Auditor) -> bool:
    """Whether the settle step running now is one the checks below
    sample: those that run while the Internet's own ``datagrams-sent``
    count is a multiple of ``sample_every``. A step settling at a send
    reads the count its own datagram just took; one settling at a hop
    reads how many datagrams have been sent so far, so every hop settled
    while the count sits on a multiple is checked and a stretch of hops
    between two sends may be checked not at all. The count is one a
    warm-start restore replays, so an audited restored run checks
    exactly where the organic run it continues does, and both count
    the same ``audit.check``."""
    return internet.counters.get("datagrams-sent") % auditor.sample_every == 0


def audit_transits(internet, auditor: Auditor) -> None:
    """Arm the checks on ``internet``'s one settle step
    (``Internet._transit``, which datagrams and hellos both ride), at
    every sampled step:

    * ``underlay-table`` — the first next hop of the transit, read from
      the search the domain shares through the process-wide table store
      (``repro.net.backbone``), is re-derived by a fresh search over the
      domain's own converged graph (the key it built from its own
      fibers, not the store's reversed copy) and compared. One corrupt
      shared search would otherwise reach every domain in the process
      that converged on the same graph. A table the domain holds that
      did not come from the store is not checked.
    * ``transit-express`` — a quiet transit the step settled (at a
      hop or at the send) is walked again from its start instant over
      the live forwarding tables and fiber state as pure arithmetic
      and compared — same fibers, each of them quiet at its crossing
      instant, same landing instant (rounded up to the batched tier's
      grid, as the step rounds it), inside the hop budget.

    Wraps the settle step, so an unaudited Internet pays nothing; reads
    only, so audited and unaudited runs stay byte-identical."""
    transit = internet._transit
    sim = internet.sim

    def audited_transit(key, hops, wire, dst_access, start):
        sampled = _sampled(internet, auditor)
        domain, router, dst_label = key
        if sampled:
            hop = domain.next_hop(router, dst_label)
            route = domain._route
            if route is not None and domain._tables.get(dst_label) is \
                    route[1].get(dst_label):
                fresh = ShortestPathSearch(reversed_graph(
                    {u: dict(row) for u, row in domain._route_key}),
                    dst_label)
                fresh.settle(router)
                auditor.check(
                    "underlay-table",
                    fresh.prev.get(router) == hop,
                    f"{domain.name}: the shared table toward {dst_label!r} "
                    f"forwards {router!r} to {hop!r}; a fresh search over "
                    f"the domain's converged graph says "
                    f"{fresh.prev.get(router)!r}",
                    sim_time=sim.now,
                )
        landed = transit(key, hops, wire, dst_access, start)
        if landed is None or not sampled:
            return landed
        profile, t = landed
        fibers = []
        at = start
        cur = router
        while cur != dst_label and len(fibers) < _MAX_HOPS:
            nxt = domain.next_hop(cur, dst_label)
            if nxt is None:
                break
            link, __ = domain.link_on_path(cur, nxt)
            if link.failed or link.jitter or link.capacity_bps is not None \
                    or not link.loss.certain_pass(at):
                break
            fibers.append(link)
            at = at + link.delay
            cur = nxt
        at = at + dst_access
        w = internet.columnar_window
        if w:
            at = ceil(at / w) * w
        auditor.check(
            "transit-express",
            cur == dst_label and tuple(fibers) == profile.links
            and at == t and hops + len(fibers) <= _MAX_HOPS,
            f"settled {router!r} -> {dst_label!r} over "
            f"{[f.name for f in profile.links]} landing at {t!r}; a walk "
            f"over the live tables gets as far as {cur!r} over "
            f"{[f.name for f in fibers]}, landing at {at!r}",
            sim_time=sim.now,
        )
        return landed

    internet._transit = audited_transit


# ------------------------------------------------- audited cache variants

class AuditedForwardingCache(ForwardingCache):
    """A :class:`~repro.core.pipeline.ForwardingCache` that re-derives a
    sampled fraction of its hits cold.

    Every ``sample_every``-th hit re-runs the decision closure under
    the current fingerprint generation, against a private engine that
    keeps no artifact, and compares the fresh result to the cached
    one — the coherence predicate behind the wholesale
    generation-invalidation scheme. Instantiated by
    :class:`~repro.core.pipeline.DataPlane` only when the owning
    network is audited; the sampling counter is deterministic, so
    audited and unaudited runs stay byte-identical.
    """

    __slots__ = ("auditor", "node", "_audit_hits")

    def __init__(self, auditor: Auditor, node) -> None:
        super().__init__(node.counters)
        self.auditor = auditor
        self.node = node
        self._audit_hits = 0

    def lookup(self, generation: int, key, compute):
        """As the base lookup, plus sampled cold re-derivation of hits."""
        hit = generation == self._generation and key in self._decisions
        value = super().lookup(generation, key, compute)
        if hit:
            self._audit_hits += 1
            if self._audit_hits % self.auditor.sample_every == 0:
                routing = self.node.routing
                shared, routing.engine = routing.engine, _COLD_ENGINE
                try:
                    fresh = compute()
                finally:
                    routing.engine = shared
                self.auditor.check(
                    "fwd-coherence",
                    fresh == value,
                    f"cached decision {key!r} = {value!r} but cold "
                    f"recomputation under generation {generation} gives "
                    f"{fresh!r}",
                    sim_time=self.node.sim.now,
                    node=self.node.id,
                )
        return value


class _ColdEngine(RouteComputeEngine):
    """Derives every routing artifact afresh and keeps none — what a
    sampled decision is re-derived against, so it neither reads the
    shared engine's artifacts nor moves their counts. A next-hop table
    is the from-scratch ``next_hops``, not a search over a replica's
    lazily patched reverse view."""

    def lookup(self, fingerprint: int, key, compute):
        return compute()

    def table(self, fingerprint: int, adj, dst, reverse=None):
        return next_hops(adj, dst)


_COLD_ENGINE = _ColdEngine()


def _finished(artifact):
    """``artifact``'s full answers. A lazy next-hop table's paused
    search is finished on a copy, so the shared table settles no
    further than its readers ask."""
    if type(artifact) is not NextHopTable or artifact._search is None:
        return artifact
    search = artifact._search
    twin = copy.deepcopy(search, {id(search.adj): search.adj})
    twin.settle()
    return twin.prev


class AuditedRouteComputeEngine(RouteComputeEngine):
    """A :class:`~repro.core.compute.RouteComputeEngine` that re-derives
    a sampled fraction of its cache hits fresh.

    Every ``sample_every``-th hit re-runs the artifact computation and
    compares it to the cached artifact for the same fingerprint — the
    consistency predicate content-addressed sharing rests on.
    Instantiated by :class:`~repro.core.network.OverlayNetwork` only
    when audited.
    """

    def __init__(self, auditor: Auditor, counters=None) -> None:
        super().__init__(counters=counters)
        self.auditor = auditor
        self._audit_hits = 0

    def table(self, fingerprint: int, adj, dst, reverse=None):
        """As the base table, audited against the from-scratch oracle."""
        return self.lookup(
            fingerprint, ("table", dst),
            lambda: NextHopTable(adj, dst, self.counters, reverse),
            fresh=lambda: next_hops(adj, dst),
        )

    def lookup(self, fingerprint: int, key, compute, fresh=None):
        """As the base lookup, plus sampled fresh recomputation of hits
        (by ``fresh`` where the artifact has an independent oracle)."""
        entry = self._store.get(fingerprint)
        hit = entry is not None and key in entry
        value = super().lookup(fingerprint, key, compute)
        if hit:
            self._audit_hits += 1
            if self._audit_hits % self.auditor.sample_every == 0:
                fresh = (fresh or compute)()
                self.auditor.check(
                    "route-consistency",
                    fresh == _finished(value),
                    f"cached artifact {key!r} for fingerprint "
                    f"{fingerprint:#x} differs from a fresh recomputation",
                )
        return value


def _cold_part(record) -> int:
    return content_digest((record.origin, record._canonical()))


class _ColdTopologyRecord(TopologyRecord):
    __slots__ = ()
    part = property(_cold_part)


class _ColdGroupRecord(GroupRecord):
    __slots__ = ()
    part = property(_cold_part)


class _ColdTopology(TopologyDatabase):
    record_type = _ColdTopologyRecord


class _ColdGroups(GroupDatabase):
    record_type = _ColdGroupRecord


def _cold_replica(auditor: Auditor, db, cold_type: type, invariant: str):
    """A cold replica loaded with fresh records built out of ``db``'s
    exported bodies (every part and derived value computed afresh, never
    read from a shared record's cache; a part by the digest function
    bound here, not the one the overlay's records call), after checking
    ``db``'s fingerprint against it as ``invariant``."""
    cold = cold_type()
    cold.load_state(db.export_state(), 0)
    auditor.check(
        invariant,
        db.fingerprint == cold.fingerprint,
        f"fingerprint {db.fingerprint:#x} differs from "
        f"{cold.fingerprint:#x}, rederived from the records",
    )
    return cold


class AuditedTopologyDatabase(TopologyDatabase):
    """A :class:`~repro.core.linkstate.TopologyDatabase` that holds
    every ``sample_every``-th patch of its adjacency / reverse views,
    content and key order, and its fingerprint against a cold replica
    (``topology-views`` / ``topology-fingerprint``; the cold reverse
    view is built in one pass). Instantiated by
    :class:`~repro.core.node.OverlayNode` only when audited."""

    def __init__(self, auditor: Auditor, counters=None) -> None:
        super().__init__(counters)
        self.auditor = auditor
        self._audit_seen: dict = {}
        self._audit_patches = 0

    def _audit(self, name: str, view):
        if self._audit_seen.get(name) is not view:
            self._audit_seen[name] = view
            self._audit_patches += 1
            if self._audit_patches % self.auditor.sample_every == 0:
                cold = _cold_replica(self.auditor, self, _ColdTopology,
                                     "topology-fingerprint")
                self.auditor.check(
                    "topology-views",
                    [(u, list(row.items())) for u, row in view.items()]
                    == [(u, list(row.items()))
                        for u, row in getattr(cold, name)().items()],
                    f"patched {name}() for fingerprint {self.fingerprint:#x} "
                    f"differs from a rebuild out of the records",
                )
        return view

    def adjacency(self):
        return self._audit("adjacency", super().adjacency())

    def reverse_adjacency(self):
        return self._audit("reverse_adjacency", super().reverse_adjacency())


class AuditedGroupDatabase(GroupDatabase):
    """A :class:`~repro.core.linkstate.GroupDatabase` that, at every
    ``sample_every``-th member-view rebuild, holds its fingerprint —
    which keys every multicast / anycast artifact and the forwarding
    cache's generation, and which nothing else re-derives — against a
    cold replica (``group-fingerprint``). Instantiated by
    :class:`~repro.core.node.OverlayNode` only when audited."""

    def __init__(self, auditor: Auditor, counters=None) -> None:
        super().__init__(counters)
        self.auditor = auditor
        self._audit_rebuilds = 0

    def members_view(self, group: str) -> tuple[str, ...]:
        rebuilt = group not in self._members_cache
        view = super().members_view(group)
        if rebuilt:
            self._audit_rebuilds += 1
            if self._audit_rebuilds % self.auditor.sample_every == 0:
                _cold_replica(self.auditor, self, _ColdGroups,
                              "group-fingerprint")
        return view
