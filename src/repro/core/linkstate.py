"""Connectivity Graph Maintenance — shared global state #1 (Sec II-B).

Every overlay node maintains a record of its own links' state (up/down
and cost, where cost folds in measured latency and loss) and floods it
to all other nodes as sequence-numbered link-state updates. Because the
overlay has only a few tens of nodes, each node can hold the *global*
connectivity graph and react to changes within a hello-detection time —
the basis of sub-second rerouting.
"""

from __future__ import annotations

import hashlib
from types import MappingProxyType
from typing import Hashable, Mapping

from repro.alg.dijkstra import reversed_graph
from repro.sim.trace import Counter


def content_digest(payload: object) -> int:
    """128-bit content digest of a canonical (repr-stable) payload.

    Used to fingerprint replica *content*: two replicas that hold the
    same records hash equal regardless of the order updates arrived in
    or how many redundant updates each one processed. Stable across
    processes and runs (unlike builtin ``hash``, which is salted).
    """
    blob = repr(payload).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=16).digest(), "big")


def _topo_part(origin: str, costs: Mapping) -> int:
    """One topology record's share of the replica fingerprint."""
    return content_digest((origin, tuple(sorted(costs.items()))))


def _group_part(origin: str, members: frozenset) -> int:
    """One group record's share of the replica fingerprint."""
    return content_digest((origin, tuple(sorted(members))))


def _adjacency_row(costs: Mapping) -> Mapping:
    """A record's read-only adjacency row: its up links, sorted."""
    return MappingProxyType(
        {v: costs[v] for v in sorted(costs) if costs[v] is not None}
    )


_NEVER = object()  # sentinel: cached view not built yet
_INF = float("inf")


class TopologyDatabase:
    """Per-node replica of the global connectivity graph.

    Records are keyed by origin node; each carries the origin's local
    view ``{neighbor: cost-or-None}`` (``None`` = link down) and a
    sequence number. Higher sequence numbers win; stale or duplicate
    updates are ignored (and not re-flooded).

    Alongside the local ``version`` counter (which ticks on *every*
    accepted update) the database maintains an incrementally-updated
    content :attr:`fingerprint` covering only the link-state content —
    not sequence numbers, not arrival order. Two replicas that have
    converged on the same connectivity graph therefore expose the same
    fingerprint even though their version counters differ, which is the
    cache key contract :class:`repro.core.compute.RouteComputeEngine`
    relies on. A periodic refresh update that re-announces unchanged
    costs bumps ``version`` but leaves the fingerprint (and thus every
    derived routing artifact) intact.

    The derived views are patched, not rebuilt: changed content marks
    its origin stale and the next read rebuilds only stale rows. Rows
    are replaced, never mutated, under a fresh outer mapping per
    fingerprint (a pointer copy) — a view handed out earlier keeps
    describing the graph it was read from, and untouched rows keep
    their identity from one view to the next.

    ``counters`` (the owning network's bag; private when not given)
    receives ``lsu-rejected`` and ``topo.rows_patched`` — adjacency rows
    rebuilt because their origin's content changed (a row's first build
    is not a patch).
    """

    def __init__(self, counters: Counter | None = None) -> None:
        self.counters = counters if counters is not None else Counter()
        self._records: dict[str, tuple[int, dict[str, float | None]]] = {}
        self.version = 0
        #: Content digest of the current connectivity graph (order- and
        #: sequence-number-independent; see class docstring). A plain
        #: attribute — every forwarding decision reads it — that only
        #: this class writes.
        self.fingerprint = 0
        self._parts: dict[str, int] = {}
        #: The adjacency view, the origins whose content moved since it
        #: was built, the reverse view and the adjacency it reverses.
        self._adj_view: Mapping = MappingProxyType({})
        self._adj_stale: set[str] = set()
        self._rev_view: Mapping = MappingProxyType({})
        self._rev_from: Mapping = MappingProxyType({})
        self._sym_fp: object = _NEVER
        self._sym_view: Mapping = MappingProxyType({})

    def update(self, origin: str, seq: int, neighbor_costs: dict) -> bool:
        """Apply an update; returns True if it was new (should re-flood).
        A newer record repeating the stored content (the periodic
        refresh) only advances seq and ``version``; one with a negative
        or non-finite cost is refused — it would otherwise raise out of
        whichever forwarding decision first searched across that edge."""
        current = self._records.get(origin)
        if current is not None:
            if current[0] >= seq:
                return False
            if current[1] == neighbor_costs:
                self._records[origin] = (seq, current[1])
                self.version += 1
                return True
        costs = dict(neighbor_costs)
        for cost in costs.values():
            if cost is not None and not 0 <= cost < _INF:
                self.counters.add("lsu-rejected")
                return False
        self._records[origin] = (seq, costs)
        self.version += 1
        self._set_part(origin, costs)
        return True

    def _set_part(self, origin: str, costs: dict) -> None:
        part = _topo_part(origin, costs)
        self.fingerprint ^= self._parts.get(origin, 0) ^ part
        self._parts[origin] = part
        self._adj_stale.add(origin)

    def record(self, origin: str) -> Mapping | None:
        """The origin's current ``{neighbor: cost-or-None}`` record as a
        read-only view (the stored record is never mutated in place, so
        the view is a stable snapshot)."""
        entry = self._records.get(origin)
        return MappingProxyType(entry[1]) if entry else None

    def seq(self, origin: str) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def origins(self) -> list[str]:
        return list(self._records)

    def adjacency(self) -> Mapping:
        """Directed, deterministic adjacency for routing.

        An edge ``u -> v`` exists iff ``u``'s record reports the link to
        ``v`` as up. Keys are sorted so every node derives the *same*
        data structure from the same records — required for consistent
        hop-by-hop multicast trees.

        The result is a read-only view: repeated calls against unchanged
        content return the same object (changed content rebuilds the
        changed origins' rows under a new one), and callers must not
        (and cannot) mutate it.
        """
        stale = self._adj_stale
        if stale:
            rows = self._adj_view.copy()
            patched = len(stale & rows.keys())
            for origin in stale:
                rows[origin] = _adjacency_row(self._records[origin][1])
            if patched:
                self.counters.add("topo.rows_patched", patched)
            if patched < len(stale):  # first rows: restore the sorted order
                rows = {u: rows[u] for u in sorted(rows)}
            stale.clear()
            self._adj_view = MappingProxyType(rows)
        return self._adj_view

    def reverse_adjacency(self) -> Mapping:
        """:meth:`adjacency` reversed, ``{v: {u: cost}}`` — what next-hop
        tables are searched on — in exactly the order
        :func:`~repro.alg.dijkstra.reversed_graph` gives (rows keyed by
        upstream node, sorted): the search's tie-breaks follow it.
        Cached like :meth:`adjacency`; patched only when read."""
        adj, seen = self.adjacency(), self._rev_from
        if seen is not adj:
            stale = [u for u, row in adj.items() if seen.get(u) is not row]
            rows = self._rev_view.copy()
            if (len(adj) != len(seen) or 2 * len(stale) > len(adj)
                    or not self._patch_reverse(rows, seen, adj, stale)):
                rows = {
                    v: MappingProxyType(row)
                    for v, row in reversed_graph(adj).items()
                }
            self._rev_from = adj
            self._rev_view = MappingProxyType(rows)
        return self._rev_view

    @staticmethod
    def _patch_reverse(rows: dict, seen: Mapping, adj: Mapping, stale: list) -> bool:
        """Re-fold the ``stale`` origins' rows into the reverse ``rows``.
        False (rebuild in one pass) when an edge to a node without a
        record is involved: the outer key set, hence order, could move."""
        for u in stale:
            new = adj[u]
            touched = seen[u].keys() | new.keys()
            if not touched <= adj.keys():
                return False
            for v in touched:
                cost = new.get(v)
                if rows[v].get(u) != cost:
                    row = dict(rows[v])
                    if cost is None:
                        del row[u]
                    else:
                        row[u] = cost
                        if len(row) > len(rows[v]):  # new key: re-sort
                            row = {k: row[k] for k in sorted(row)}
                    rows[v] = MappingProxyType(row)
        return True

    def symmetric_adjacency(self) -> Mapping:
        """Adjacency keeping only edges reported up *by both ends*
        (used for path computations that must be traversable both ways,
        e.g. disjoint-path requests). Read-only, cached like
        :meth:`adjacency`."""
        if self._sym_fp != self.fingerprint:
            adj = self.adjacency()
            sym: dict[str, dict[str, float]] = {u: {} for u in adj}
            for u, nbrs in adj.items():
                for v, w in nbrs.items():
                    if u in adj.get(v, {}):
                        sym[u][v] = w
            self._sym_view = MappingProxyType(
                {u: MappingProxyType(nbrs) for u, nbrs in sym.items()}
            )
            self._sym_fp = self.fingerprint
        return self._sym_view

    # ------------------------------------------------- warm-start support

    def export_state(self) -> dict[str, tuple[int, dict]]:
        """The record table as ``{origin: (seq, {nbr: cost-or-None})}``
        (insertion order preserved). Stored cost dicts are never mutated
        in place, so the export aliases them — snapshot code serializes
        or shares them without copying."""
        return dict(self._records)

    def load_state(self, records: Mapping, version: int,
                   memo: dict | None = None) -> None:
        """Install a snapshotted record table into an **empty** replica,
        deriving each origin's content part and adjacency row from the
        record itself (the canonical derivation — nothing is trusted
        from the snapshot) and the fingerprint and adjacency view from
        those. ``records`` may alias ``(seq, costs)`` tuples shared
        across replicas; updates replace records rather than mutating
        them, so sharing is safe. ``version`` restores the replica's
        local update counter.

        ``memo`` (``{origin: (record, part, row)}``, one per restore)
        lets replicas loading the *same record object* share its part
        and its read-only row: an entry is reused only when the record
        is the memo's, so a record that merely looks alike derives its
        own."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        memo = {} if memo is None else memo
        rows = {}
        for origin, record in records.items():
            entry = memo.get(origin)
            if entry is None or entry[0] is not record:
                costs = record[1]
                entry = (record, _topo_part(origin, costs),
                         _adjacency_row(costs))
                memo.setdefault(origin, entry)
            self._records[origin] = record
            self._parts[origin] = entry[1]
            self.fingerprint ^= entry[1]
            rows[origin] = entry[2]
        self._adj_view = MappingProxyType({u: rows[u] for u in sorted(rows)})
        self.version = version


class GroupDatabase:
    """Group State — shared global state #2 (Sec II-B).

    Tracks, per overlay node, the set of groups that node has interested
    clients in. Only node-level interest is shared (the two-level
    hierarchy keeps per-client membership local to each node).

    Like :class:`TopologyDatabase`, maintains a content
    :attr:`fingerprint` over the membership records (ignoring sequence
    numbers and arrival order) so converged replicas produce identical
    cache keys for shared group-derived artifacts.
    """

    def __init__(self) -> None:
        self._records: dict[str, tuple[int, frozenset[str]]] = {}
        self.version = 0
        #: Content digest of the current group state (written only here).
        self.fingerprint = 0
        self._parts: dict[str, int] = {}
        self._members_cache: dict[str, tuple[str, ...]] = {}

    def update(self, origin: str, seq: int, groups) -> bool:
        """Apply a membership update; True if new (should re-flood)."""
        current = self._records.get(origin)
        if current is not None and current[0] >= seq:
            return False
        new = frozenset(groups)
        self.version += 1
        if current is not None and current[1] == new:
            # A refresh: same interest, so every derived view stands.
            self._records[origin] = (seq, current[1])
            return True
        self._records[origin] = (seq, new)
        part = _group_part(origin, new)
        self.fingerprint ^= self._parts.get(origin, 0) ^ part
        self._parts[origin] = part
        self._members_cache.clear()
        return True

    def seq(self, origin: str) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def origins(self) -> list[str]:
        return list(self._records)

    def members_view(self, group: str) -> tuple[str, ...]:
        """Overlay nodes with clients in ``group`` as a sorted immutable
        tuple, cached until the next accepted update — the hashable form
        the route-computation engine keys shared artifacts on."""
        cached = self._members_cache.get(group)
        if cached is None:
            cached = tuple(sorted(
                origin
                for origin, (__, groups) in self._records.items()
                if group in groups
            ))
            self._members_cache[group] = cached
        return cached

    def members(self, group: str) -> list[str]:
        """Overlay nodes with clients in ``group`` (sorted, deterministic)."""
        return list(self.members_view(group))

    def groups_of(self, origin: str) -> frozenset[str]:
        entry = self._records.get(origin)
        return entry[1] if entry else frozenset()

    # ------------------------------------------------- warm-start support

    def export_state(self) -> dict[str, tuple[int, frozenset]]:
        """The record table as ``{origin: (seq, frozenset(groups))}``
        (insertion order preserved); see
        :meth:`TopologyDatabase.export_state`."""
        return dict(self._records)

    def load_state(self, records: Mapping, version: int,
                   memo: dict | None = None) -> None:
        """Install a snapshotted record table into an **empty** replica,
        deriving parts and fingerprint from the records (mirror of
        :meth:`TopologyDatabase.load_state`, ``memo`` entries being
        ``{origin: (record, (seq, members), part)}``)."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        memo = {} if memo is None else memo
        for origin, record in records.items():
            entry = memo.get(origin)
            if entry is None or entry[0] is not record:
                seq, groups = record
                members = frozenset(groups)
                entry = (record, (seq, members), _group_part(origin, members))
                memo.setdefault(origin, entry)
            self._records[origin] = entry[1]
            self._parts[origin] = entry[2]
            self.fingerprint ^= entry[2]
        self.version = version


class DedupCache:
    """Bounded memory of recently seen message keys with per-link send
    tracking, enabling redundant dissemination with de-duplication in
    the middle of the network (Sec I: flow-based processing).

    For each message key we remember which outgoing link bits the node
    has already used, so a copy arriving later over a second path is
    forwarded only on links not yet covered, and delivered only once.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._sent: dict[Hashable, int] = {}
        #: Insertion-ordered like ``_sent`` (a set iterates in hash
        #: order, so "the oldest half" of one is an arbitrary half).
        self._delivered: dict[Hashable, None] = {}

    def already_delivered(self, key: Hashable) -> bool:
        """Mark delivery; returns True if it was already delivered."""
        if key in self._delivered:
            return True
        self._delivered[key] = None
        if len(self._delivered) > self.capacity:
            self._evict(self._delivered)
        return False

    def links_sent(self, key: Hashable) -> int:
        """Bitmask of links this node has already forwarded ``key`` on."""
        return self._sent.get(key, 0)

    def mark_sent(self, key: Hashable, link_bits: int) -> None:
        self._sent[key] = self._sent.get(key, 0) | link_bits
        if len(self._sent) > self.capacity:
            self._evict(self._sent)

    @staticmethod
    def _evict(store: dict) -> None:
        # Drop the oldest half (dicts iterate in insertion order).
        for key in list(store)[: len(store) // 2]:
            del store[key]
