"""Shared global state (Sec II-B): the connectivity graph and group
interest, kept the same way.

Every overlay node maintains a record of its own links' state (up/down
and cost, where cost folds in measured latency and loss) and of the
groups its clients joined, and floods each to all other nodes as
sequence-numbered updates; every node holds a replica of all of them
(:class:`_Replica`). Because the overlay has only a few tens of nodes,
each node can hold the *global* connectivity graph and react to changes
within a hello-detection time — the basis of sub-second rerouting.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Set
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

    #: Any set of group names is a valid interest record.
    valid = True

    def __init__(self, origin: str, groups) -> None:
        super().__init__(origin, frozenset(groups))

    def __contains__(self, group) -> bool:
        return group in self._body

    def _canonical(self) -> tuple:
        return tuple(sorted(self._body))


class _Replica:
    """One node's replica of a shared global state (Sec II-B): the
    connectivity graph and group interest are kept the same way.

    Records are keyed by origin node; each carries the origin's latest
    announcement as a frozen :class:`_Record` (of :attr:`record_type`) —
    shared with the flood and every replica that accepted it, so its
    part and derived values are computed once — and a sequence number.
    Higher sequence numbers win; stale or duplicate updates are ignored
    (and not re-flooded).

    Alongside the local ``version`` counter (which ticks on *every*
    accepted update) the replica maintains an incrementally-updated
    content :attr:`fingerprint` — the XOR of its records' parts,
    covering content only: not sequence numbers, not arrival order. Two
    replicas that have converged on the same records therefore expose
    the same fingerprint even though their version counters differ,
    which is the cache key contract
    :class:`repro.core.compute.RouteComputeEngine` relies on. A periodic
    refresh that re-announces unchanged content bumps ``version`` but
    leaves the fingerprint (and thus every derived artifact) intact.
    The subclass keeps the derived views and learns which origins'
    content moved through :meth:`_moved`.
    """

    record_type: type[_Record]

    def __init__(self, counters: Counter | None = None) -> None:
        self.counters = counters if counters is not None else Counter()
        self._records: dict[str, tuple[int, _Record]] = {}
        self.version = 0
        #: Content digest of the current records (order- and
        #: sequence-number-independent; see class docstring). A plain
        #: attribute — every forwarding decision reads it — that only
        #: this class writes.
        self.fingerprint = 0

    def _moved(self, origin: str | None) -> None:
        """``origin``'s content moved (``None``: every origin's, after a
        load): views derived from it are stale."""
        raise NotImplementedError

    def update(self, origin: str, seq: int, content) -> bool:
        """Apply an update (``origin``'s record, or content wrapped into
        one); returns True if it was new (should re-flood). A newer
        record repeating the stored content (the periodic refresh) only
        advances seq and ``version``; an invalid one (a link-state cost
        that is negative or not finite) is refused — it would otherwise
        raise out of whichever search first crossed that edge."""
        current = self._records.get(origin)
        if current is not None and current[0] >= seq:
            return False
        stored = current[1] if current is not None else None
        # The flood re-sends the stored record, so identity settles a
        # refresh; an equal cost dict compares as it is, and other
        # content (group names in a list) once wrapped.
        if stored is None or not (stored is content or stored == content):
            record = self.record_type.of(origin, content)
            if stored is None or not stored == record:
                if not record.valid:
                    self.counters.add("lsu-rejected")
                    return False
                self._records[origin] = (seq, record)
                self.version += 1
                old = stored.part if stored is not None else 0
                self.fingerprint ^= old ^ record.part
                self._moved(origin)
                return True
        self._records[origin] = (seq, stored)
        self.version += 1
        return True

    def record(self, origin: str) -> _Record | None:
        """The origin's current record (frozen, so a stable snapshot)."""
        entry = self._records.get(origin)
        return entry[1] if entry else None

    def seq(self, origin: str) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def origins(self) -> list[str]:
        return list(self._records)

    # ------------------------------------------------- warm-start support

    def export_state(self) -> dict[str, tuple[int, object]]:
        """The record table as plain ``{origin: (seq, body)}`` — a cost
        dict or a frozenset of group names — in insertion order, with
        no derived value attached. The bodies are the records' own,
        never mutated, so snapshot code serializes them without
        copying."""
        return {origin: (seq, record._body)
                for origin, (seq, record) in self._records.items()}

    def load_state(self, records: Mapping, version: int) -> None:
        """Install a ``{origin: (seq, body)}`` record table into an
        **empty** replica, storing shared records as they are and
        wrapping any other body; the fingerprint and every view come
        from the records (nothing derived is trusted from a snapshot).
        ``version`` restores the replica's update counter."""
        if self._records:
            raise ValueError("load_state requires an empty database")
        for origin, entry in records.items():
            record = self.record_type.of(origin, entry[1])
            self._records[origin] = (
                entry if record is entry[1] else (entry[0], record))
            self.fingerprint ^= record.part
        self._moved(None)
        self.version = version


class TopologyDatabase(_Replica):
    """Per-node replica of the global connectivity graph (shared global
    state #1), of :class:`TopologyRecord` values.

    The derived views are patched, not rebuilt: changed content marks
    its origin stale and the next read rebuilds only stale rows
    (:meth:`load_state` builds every row at once). Rows are replaced,
    never mutated, under a fresh outer mapping per fingerprint (a
    pointer copy) — a view handed out earlier keeps describing the
    graph it was read from, and untouched rows keep their identity from
    one view to the next.

    ``counters`` (the owning network's bag; private when not given)
    receives ``lsu-rejected`` and ``topo.rows_patched`` — adjacency rows
    rebuilt because their origin's content changed (a row's first build
    is not a patch).
    """

    record_type = TopologyRecord

    def __init__(self, counters: Counter | None = None) -> None:
        super().__init__(counters)
        #: The adjacency view, the origins whose content moved since it
        #: was built, the reverse view and the adjacency it reverses,
        #: the symmetric view and the fingerprint it is of.
        self._adj_view: Mapping = MappingProxyType({})
        self._stale: set[str] = set()
        self._rev_view: Mapping = MappingProxyType({})
        self._rev_from: Mapping = MappingProxyType({})
        self._sym_fp: object = _NEVER
        self._sym_view: Mapping = MappingProxyType({})

    def _moved(self, origin: str | None) -> None:
        if origin is not None:
            self._stale.add(origin)
        else:  # a load: every row at once, in sorted order
            self._adj_view = MappingProxyType(
                {u: self._records[u][1].row for u in sorted(self._records)})

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
        stale = self._stale
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


class GroupDatabase(_Replica):
    """Group State — shared global state #2 (Sec II-B), of
    :class:`GroupRecord` values.

    Tracks, per overlay node, the set of groups that node has interested
    clients in. Only node-level interest is shared (the two-level
    hierarchy keeps per-client membership local to each node).
    """

    record_type = GroupRecord

    def __init__(self, counters: Counter | None = None) -> None:
        super().__init__(counters)
        self._members_cache: dict[str, tuple[str, ...]] = {}

    def _moved(self, origin: str | None) -> None:
        self._members_cache.clear()

    def members_view(self, group: str) -> tuple[str, ...]:
        """Overlay nodes with clients in ``group`` as a sorted immutable
        tuple, cached until content next moves — the hashable form the
        route-computation engine keys shared artifacts on."""
        cached = self._members_cache.get(group)
        if cached is None:
            cached = tuple(sorted(
                origin
                for origin, (__, record) in self._records.items()
                if group in record._body
            ))
            self._members_cache[group] = cached
        return cached

