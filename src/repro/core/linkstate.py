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
from collections.abc import Hashable, Mapping, Set
from types import MappingProxyType

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


_INF = float("inf")
_NEVER = object()  # sentinel: cached view not built yet
_set = object.__setattr__


class _Record:
    """A frozen ``(origin, content)`` shared-state record whose share of
    a replica fingerprint (:attr:`part`) is derived on first use and
    cached on the object. The originator builds one per announcement;
    the flood carries it and every accepting replica stores it, so what
    a record means is derived once network-wide. Equality is content."""

    __slots__ = ("origin", "_body", "_part")

    def __init__(self, origin: str, body) -> None:
        _set(self, "origin", origin)
        _set(self, "_body", body)
        _set(self, "_part", None)

    @classmethod
    def of(cls, origin: str, content):
        """``content`` as ``origin``'s record: the object itself when it
        already is one, else a record wrapped around it once."""
        if type(content) is cls and content.origin == origin:
            return content
        return cls(origin, content)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def __iter__(self):
        return iter(self._body)

    def __len__(self) -> int:
        return len(self._body)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            other = other._body
        return self._body == other

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.origin!r}, {self._body!r})"

    @property
    def part(self) -> int:
        """This record's share of the replica fingerprint."""
        part = self._part
        if part is None:
            part = content_digest((self.origin, self._canonical()))
            _set(self, "_part", part)
        return part


class TopologyRecord(_Record, Mapping):
    """One origin's link-state record: a read-only ``{neighbor:
    cost-or-None}`` mapping (``None`` = link down) that also caches its
    adjacency :attr:`row` and its cost verdict (:attr:`valid`)."""

    __slots__ = ("_row", "_valid")

    def __init__(self, origin: str, costs: Mapping) -> None:
        super().__init__(origin, dict(costs))
        _set(self, "_row", None)
        _set(self, "_valid", None)

    def __getitem__(self, nbr: str) -> float | None:
        return self._body[nbr]

    def _canonical(self) -> tuple:
        return tuple(sorted(self._body.items()))

    @property
    def row(self) -> Mapping:
        """The read-only adjacency row: the up links, sorted."""
        row = self._row
        if row is None:
            costs = self._body
            row = MappingProxyType(
                {v: costs[v] for v in sorted(costs) if costs[v] is not None})
            _set(self, "_row", row)
        return row

    @property
    def valid(self) -> bool:
        """False when a cost is negative or not finite: such a record
        would raise out of whichever search first crossed that edge."""
        valid = self._valid
        if valid is None:
            valid = all(c is None or 0 <= c < _INF
                        for c in self._body.values())
            _set(self, "_valid", valid)
        return valid


class GroupRecord(_Record, Set):
    """One origin's group-interest record: a read-only set of the groups
    it has interested clients in."""

    __slots__ = ()

    def __init__(self, origin: str, groups) -> None:
        super().__init__(origin, frozenset(groups))

    def __contains__(self, group) -> bool:
        return group in self._body

    @property
    def members(self) -> frozenset[str]:
        return self._body

    def _canonical(self) -> tuple:
        return tuple(sorted(self._body))


class TopologyDatabase:
    """Per-node replica of the global connectivity graph.

    Records are keyed by origin node; each carries the origin's local
    view as a :class:`TopologyRecord` — shared with the flood and every
    replica that accepted it, so its part, row and cost verdict are
    derived once — and a sequence number. Higher sequence numbers win;
    stale or duplicate updates are ignored (and not re-flooded).

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
        self._records: dict[str, tuple[int, TopologyRecord]] = {}
        self.version = 0
        #: Content digest of the current connectivity graph (order- and
        #: sequence-number-independent; see class docstring). A plain
        #: attribute — every forwarding decision reads it — that only
        #: this class writes.
        self.fingerprint = 0
        #: The adjacency view, the origins whose content moved since it
        #: was built, the reverse view and the adjacency it reverses.
        self._adj_view: Mapping = MappingProxyType({})
        self._adj_stale: set[str] = set()
        self._rev_view: Mapping = MappingProxyType({})
        self._rev_from: Mapping = MappingProxyType({})
        self._sym_fp: object = _NEVER
        self._sym_view: Mapping = MappingProxyType({})

    def update(self, origin: str, seq: int, neighbor_costs: Mapping) -> bool:
        """Apply an update (``origin``'s :class:`TopologyRecord`, or a
        mapping wrapped into one); returns True if it was new (should
        re-flood). A newer record repeating the stored content (the
        periodic refresh) only advances seq and ``version``; one with a
        negative or non-finite cost is refused — it would otherwise
        raise out of whichever search first crossed that edge."""
        current = self._records.get(origin)
        if current is not None:
            if current[0] >= seq:
                return False
            stored = current[1]
            if stored is neighbor_costs or stored == neighbor_costs:
                self._records[origin] = (seq, stored)
                self.version += 1
                return True
        record = TopologyRecord.of(origin, neighbor_costs)
        if not record.valid:
            self.counters.add("lsu-rejected")
            return False
        self._records[origin] = (seq, record)
        self.version += 1
        old = current[1].part if current is not None else 0
        self.fingerprint ^= old ^ record.part
        self._adj_stale.add(origin)
        return True

    def record(self, origin: str) -> TopologyRecord | None:
        """The origin's current record (a read-only mapping that is
        never mutated, so it is a stable snapshot)."""
        entry = self._records.get(origin)
        return entry[1] if entry else None

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
                rows[origin] = self._records[origin][1].row
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
        """The record table as plain ``{origin: (seq, {nbr:
        cost-or-None})}`` (insertion order preserved), with no derived
        value attached. The cost dicts are the records' own, never
        mutated, so snapshot code serializes them without copying."""
        return {origin: (seq, record._body)
                for origin, (seq, record) in self._records.items()}

    def load_state(self, records: Mapping, version: int) -> None:
        """Install a ``{origin: (seq, costs)}`` record table into an
        **empty** replica, storing shared :class:`TopologyRecord` values
        as they are and wrapping any other mapping; fingerprint and
        views come from the records (nothing derived is trusted from a
        snapshot). ``version`` restores the replica's update counter."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        for origin, entry in records.items():
            record = TopologyRecord.of(origin, entry[1])
            self._records[origin] = (
                entry if record is entry[1] else (entry[0], record))
            self.fingerprint ^= record.part
        self._adj_view = MappingProxyType(
            {u: self._records[u][1].row for u in sorted(self._records)})
        self.version = version


class GroupDatabase:
    """Group State — shared global state #2 (Sec II-B).

    Tracks, per overlay node, the set of groups that node has interested
    clients in. Only node-level interest is shared (the two-level
    hierarchy keeps per-client membership local to each node).

    Like :class:`TopologyDatabase`, stores shared :class:`GroupRecord`
    values and maintains a content :attr:`fingerprint` over them
    (ignoring sequence numbers and arrival order) so converged replicas
    produce identical cache keys for shared group-derived artifacts.
    """

    def __init__(self) -> None:
        self._records: dict[str, tuple[int, GroupRecord]] = {}
        self.version = 0
        #: Content digest of the current group state (written only here).
        self.fingerprint = 0
        self._members_cache: dict[str, tuple[str, ...]] = {}

    def update(self, origin: str, seq: int, groups) -> bool:
        """Apply a membership update (``origin``'s :class:`GroupRecord`
        or group names wrapped into one); True if new (should re-flood)."""
        current = self._records.get(origin)
        if current is not None and current[0] >= seq:
            return False
        record = GroupRecord.of(origin, groups)
        self.version += 1
        if current is not None and current[1] == record:
            # A refresh: same interest, so every derived view stands.
            self._records[origin] = (seq, current[1])
            return True
        self._records[origin] = (seq, record)
        old = current[1].part if current is not None else 0
        self.fingerprint ^= old ^ record.part
        self._members_cache.clear()
        return True

    def record(self, origin: str) -> GroupRecord | None:
        """The origin's current record, or ``None``."""
        entry = self._records.get(origin)
        return entry[1] if entry else None

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
                for origin, (__, record) in self._records.items()
                if group in record.members
            ))
            self._members_cache[group] = cached
        return cached

    def members(self, group: str) -> list[str]:
        """Overlay nodes with clients in ``group`` (sorted, deterministic)."""
        return list(self.members_view(group))

    def groups_of(self, origin: str) -> frozenset[str]:
        entry = self._records.get(origin)
        return entry[1].members if entry else frozenset()

    # ------------------------------------------------- warm-start support

    def export_state(self) -> dict[str, tuple[int, frozenset]]:
        """The record table as plain ``{origin: (seq,
        frozenset(groups))}`` (insertion order preserved); see
        :meth:`TopologyDatabase.export_state`."""
        return {origin: (seq, record.members)
                for origin, (seq, record) in self._records.items()}

    def load_state(self, records: Mapping, version: int) -> None:
        """Install a ``{origin: (seq, groups)}`` record table into an
        **empty** replica (mirror of :meth:`TopologyDatabase.load_state`:
        shared :class:`GroupRecord` values are stored as they are)."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        for origin, entry in records.items():
            record = GroupRecord.of(origin, entry[1])
            self._records[origin] = (
                entry if record is entry[1] else (entry[0], record))
            self.fingerprint ^= record.part
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
