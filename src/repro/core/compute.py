"""Content-addressed route-computation engine (shared across replicas).

The paper's scaling argument (Sec II-B) keeps overlays small enough
that *every* node holds the global connectivity graph and reacts to
flooded updates. The flip side is that a naive implementation performs
the same deterministic computations N times: every node derives
identical Dijkstra tables, multicast trees, and disjoint-path edge sets
from byte-identical database replicas. Determinism is already a hard
requirement (hop-by-hop multicast only composes into one tree if every
node computes the same tree), so the artifacts are *content-addressed*:
keyed by a fingerprint of the adjacency they were derived from, they
can be computed once and shared by every replica that has converged on
that adjacency.

:class:`RouteComputeEngine` is that shared memo. One engine is owned by
each :class:`repro.core.network.OverlayNetwork` and threaded into every
node's :class:`repro.core.routing.RoutingService`, which keeps only the
node-*relative* work local (next-hop extraction from a shared table,
cost baselines, degraded-link checks). Replicas that have diverged
(e.g. one node missed an LSU) present different fingerprints and simply
occupy different cache entries — sharing is an optimization, never a
consistency risk.

Cache effectiveness and cost are observable through four counters wired
into the owning network's :class:`repro.sim.trace.Counter` sink:

* ``route.compute`` — a fresh artifact was computed;
* ``route.hit`` — an artifact was served from the cache;
* ``route.evict`` — a whole fingerprint generation was evicted by the
  bounded LRU (churn-heavy scenarios retire old topologies);
* ``route.settled`` — nodes the next-hop tables settled: a
  :class:`NextHopTable` is searched only as far as it is asked.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from typing import Callable, Hashable, Iterable

from repro.alg.dijkstra import (
    EVERYTHING,
    ShortestPathSearch,
    dijkstra,
    reversed_graph,
)
from repro.alg.disjoint import node_disjoint_paths
from repro.alg.trees import multicast_tree
from repro.core import dissemination
from repro.sim.trace import Counter

#: Fingerprint generations a :class:`RouteComputeEngine` keeps (bounded
#: LRU: churn-heavy scenarios evict old topologies instead of growing
#: without limit).
ROUTE_CACHE_SIZE = 128

#: Dissemination-graph variants the engine can compute (the adaptive
#: policy picks among these per node; the graphs themselves are pure
#: functions of (adjacency, src, dst) and therefore shareable).
GRAPH_TWO_DISJOINT = "two-disjoint"
GRAPH_SOURCE_PROBLEM = "source-problem"
GRAPH_DESTINATION_PROBLEM = "destination-problem"
GRAPH_SRC_DST_PROBLEM = "src-dst-problem"

_GRAPH_FNS = {
    GRAPH_TWO_DISJOINT: dissemination.two_disjoint_paths_graph,
    GRAPH_SOURCE_PROBLEM: dissemination.source_problem_graph,
    GRAPH_DESTINATION_PROBLEM: dissemination.destination_problem_graph,
    GRAPH_SRC_DST_PROBLEM: dissemination.src_dst_problem_graph,
}


class NextHopTable(Mapping):
    """``next_hops(adj, dst)``, settled on demand: a search from ``dst``
    over the reversed graph (a settled node's predecessor is its next
    hop). :meth:`get` runs it only until the asked node is final and the
    next lookup resumes it — the full search paused, so every answer is
    the finished table's. Reading the table whole (iteration, ``len``,
    ``==``) finishes the search.

    ``reverse`` supplies ``adj`` reversed where the caller maintains it
    (a replica's ``reverse_adjacency``) — an immutable snapshot, because
    the search outlives the topology it was opened on.
    """

    __slots__ = ("_search", "_prev", "_counters")

    def __init__(self, adj: Mapping, dst: Hashable, counters: Counter,
                 reverse: Callable[[], Mapping] | None = None) -> None:
        self._search: ShortestPathSearch | None = ShortestPathSearch(
            reverse() if reverse is not None else reversed_graph(adj), dst
        )
        self._prev = self._search.prev
        self._counters = counters

    def _settle(self, until: Hashable = EVERYTHING) -> dict:
        search = self._search
        if search is not None:
            self._counters.add("route.settled", search.settle(until))
            if not search.heap:
                self._search = None  # finished: only the tree is kept
        return self._prev

    def get(self, node: Hashable, default=None):
        search = self._search
        if search is not None and node not in search.done:
            self._settle(node)
        return self._prev.get(node, default)

    def __getitem__(self, node: Hashable):
        self.get(node)
        return self._prev[node]

    def __iter__(self):
        return iter(self._settle())

    def __len__(self) -> int:
        return len(self._settle())


class RouteComputeEngine:
    """Memoizes routing artifacts by content fingerprint.

    The cache is a bounded LRU over *fingerprints* (one generation of
    shared state each); within a generation, artifacts are keyed by
    kind and parameters. Evicting a whole generation at once matches
    how the overlay actually churns: when the connectivity graph moves
    on, every artifact derived from the old graph goes stale together.

    Args:
        counters: Sink for ``route.compute`` / ``route.hit`` /
            ``route.evict``; a private :class:`Counter` is created when
            not given (standalone :class:`RoutingService` use).
        capacity: Maximum number of fingerprint generations retained.
    """

    def __init__(
        self,
        counters: Counter | None = None,
        capacity: int = ROUTE_CACHE_SIZE,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.counters = counters if counters is not None else Counter()
        self.capacity = capacity
        self._store: OrderedDict[int, dict] = OrderedDict()

    # ------------------------------------------------------------- memo

    def lookup(self, fingerprint: int, key: Hashable, compute: Callable):
        """The generic memo: the artifact named ``key`` for the shared
        state identified by ``fingerprint``, computing it with
        ``compute()`` on a miss."""
        entry = self._store.get(fingerprint)
        if entry is None:
            entry = {}
            self._store[fingerprint] = entry
            while len(self._store) > self.capacity:
                self._store.popitem(last=False)
                self.counters.add("route.evict")
        else:
            self._store.move_to_end(fingerprint)
        if key in entry:
            self.counters.add("route.hit")
            return entry[key]
        value = compute()
        self.counters.add("route.compute")
        entry[key] = value
        return value

    def generations(self) -> int:
        """Number of fingerprint generations currently cached."""
        return len(self._store)

    def prime(self, fingerprints: Iterable[int]) -> None:
        """Open (empty) generations for known fingerprints — used by the
        warm-start layer so a restored overlay's first lookups land in
        the same generation order an organic run would have produced.
        Artifacts themselves are *not* restored: they are deterministic
        derivations and recompute on first use (``route.compute``
        counters therefore restart from the snapshot's values, not
        zero)."""
        for fingerprint in fingerprints:
            if fingerprint not in self._store:
                self._store[fingerprint] = {}
                while len(self._store) > self.capacity:
                    self._store.popitem(last=False)
                    self.counters.add("route.evict")

    # -------------------------------------------------- typed artifacts

    def table(self, fingerprint: int, adj: Mapping, dst: Hashable,
              reverse: Callable[[], Mapping] | None = None) -> Mapping:
        """The network-wide next-hop table toward ``dst`` (every node
        extracts its own entry); see :class:`NextHopTable`."""
        return self.lookup(
            fingerprint, ("table", dst),
            lambda: NextHopTable(adj, dst, self.counters, reverse),
        )

    def distances(self, fingerprint: int, adj: Mapping, src: Hashable) -> Mapping:
        """Single-source shortest distances from ``src``."""
        return self.lookup(
            fingerprint, ("dist", src), lambda: dijkstra(adj, src)[0]
        )

    def tree(
        self,
        fingerprint: int,
        adj: Mapping,
        origin: Hashable,
        group: str,
        members: Iterable[Hashable],
    ) -> Mapping:
        """The deterministic multicast tree for (``origin``, ``group``).

        Callers pass a fingerprint covering *both* shared databases
        (connectivity XOR group state) so the key moves whenever either
        input does.
        """
        return self.lookup(
            fingerprint,
            ("tree", origin, group),
            lambda: multicast_tree(adj, origin, members),
        )

    def disjoint_edges(
        self, fingerprint: int, adj: Mapping, src: Hashable, dst: Hashable, k: int
    ) -> frozenset:
        """Undirected edge set of the union of ``k`` min-cost
        node-disjoint ``src``-``dst`` paths."""

        def compute() -> frozenset:
            edges: set = set()
            for path in node_disjoint_paths(adj, src, dst, k):
                edges |= {tuple(sorted(e)) for e in zip(path, path[1:])}
            return frozenset(edges)

        return self.lookup(fingerprint, ("disjoint", src, dst, k), compute)

    def graph_edges(
        self, fingerprint: int, adj: Mapping, kind: str, src: Hashable, dst: Hashable
    ) -> frozenset:
        """Undirected edge set of one dissemination-graph variant
        (``kind`` is one of the ``GRAPH_*`` constants)."""
        fn = _GRAPH_FNS[kind]
        return self.lookup(
            fingerprint,
            ("graph", kind, src, dst),
            lambda: frozenset(fn(adj, src, dst)),
        )
