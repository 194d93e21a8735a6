"""Dijkstra shortest paths over adjacency mappings.

Used by the underlay ISP routing tables and by the overlay's Link-State
routing service (Connectivity Graph Maintenance feeds the adjacency).
"""

from __future__ import annotations

import heapq
from types import MappingProxyType
from typing import Hashable, Mapping

Node = Hashable

_UNREACHED = float("inf")


EVERYTHING = object()  # ``settle(until=...)`` value that never pauses
_NO_EDGES: dict = {}


class ShortestPathSearch:
    """Dijkstra from ``src`` as a resumable search — this module's one
    settle loop. :meth:`settle` pauses once a given node is final
    (``dist`` / ``prev`` of a node in ``done`` never change again) and
    the next call resumes the same loop, so a paused search agrees with
    the finished one on everything it has settled."""

    __slots__ = ("adj", "dist", "prev", "done", "heap", "_counter")

    def __init__(self, adj: Mapping, src: Node) -> None:
        self.adj = adj
        self.dist: dict = {src: 0.0}
        self.prev: dict = {}
        self.done: set = set()
        #: The frontier; empty once every reachable node is settled.
        self.heap: list = [(0.0, 0, src)] if src in adj else []
        self._counter = 1  # tie-break so heterogeneous node types never compare

    def settle(self, until: Node = EVERYTHING) -> int:
        """Resume until ``until`` is settled (default: until the
        frontier is empty); returns how many nodes this call settled."""
        adj, dist, prev, done, heap = self.adj, self.dist, self.prev, self.done, self.heap
        counter = self._counter
        settled = 0
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            settled += 1
            for v, w in adj.get(u, _NO_EDGES).items():
                if w < 0:
                    raise ValueError(f"negative edge weight {w} on ({u!r}, {v!r})")
                nd = d + w
                if nd < dist.get(v, _UNREACHED):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, counter, v))
                    counter += 1
            if u == until:
                break
        self._counter = counter
        return settled


def dijkstra(adj: dict, src: Node) -> tuple[Mapping, Mapping]:
    """Single-source shortest distances and predecessors.

    Returns ``(dist, prev)`` where ``dist[v]`` is the shortest distance
    from ``src`` and ``prev[v]`` the predecessor of ``v`` on that path.
    Unreachable nodes are absent from both mappings. Both are returned
    as immutable views safe to cache and share across consumers.
    """
    search = ShortestPathSearch(adj, src)
    search.settle()
    return MappingProxyType(search.dist), MappingProxyType(search.prev)


def extract_path(prev: dict, src: Node, dst: Node) -> list | None:
    """Rebuild the node path ``src .. dst`` from a predecessor map."""
    if dst == src:
        return [src]
    if dst not in prev:
        return None
    path = [dst]
    node = dst
    while node != src:
        node = prev[node]
        path.append(node)
    path.reverse()
    return path


def shortest_path(adj: dict, src: Node, dst: Node) -> list | None:
    """Shortest node path from ``src`` to ``dst``, or ``None``."""
    __, prev = dijkstra(adj, src)
    return extract_path(prev, src, dst)


def path_cost(adj: dict, path: list) -> float:
    """Total weight of a node path under ``adj``."""
    return sum(adj[u][v] for u, v in zip(path, path[1:]))


def shortest_path_tree(adj: dict, src: Node) -> dict:
    """Map every reachable node to its shortest path from ``src``."""
    __, prev = dijkstra(adj, src)
    paths = {src: [src]}
    for node in prev:
        path = extract_path(prev, src, node)
        if path is not None:
            paths[node] = path
    return paths


def all_shortest_paths(adj: dict) -> dict:
    """All-pairs shortest node paths: ``paths[src][dst] -> list``."""
    return {src: shortest_path_tree(adj, src) for src in adj}


def reversed_graph(adj: Mapping) -> dict:
    """``{v: {u: w}}`` for every edge ``u -> v``: ``adj``'s nodes first,
    in its order, then pure targets as met; rows in ``adj``'s order."""
    reversed_adj: dict = {u: {} for u in adj}
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            reversed_adj.setdefault(v, {})[u] = w
    return reversed_adj


def next_hops(adj: dict, dst: Node) -> Mapping:
    """Routing table toward ``dst``: for every node, the next hop on its
    shortest path to ``dst``. Computed by running Dijkstra from ``dst``
    on the reversed graph (correct for asymmetric weights too), where a
    node's predecessor is its next hop in the forward graph. Returned
    as an immutable view safe to cache and share across consumers.
    """
    return dijkstra(reversed_graph(adj), dst)[1]
