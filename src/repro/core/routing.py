"""The routing level (Fig 2): Link-State and Source-Based routing.

Link-State routing forwards hop-by-hop along shortest paths (or
deterministic multicast trees / anycast targets) computed from the
shared connectivity graph. Source-Based routing implements the paper's
*unified bitmask mechanism*: the origin stamps each packet with a
bitmask naming exactly the set of overlay links it may traverse — which
expresses k node-disjoint paths, arbitrary dissemination graphs, and
constrained flooding with a single forwarding rule.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.compute import (
    GRAPH_DESTINATION_PROBLEM,
    GRAPH_SOURCE_PROBLEM,
    GRAPH_SRC_DST_PROBLEM,
    GRAPH_TWO_DISJOINT,
    RouteComputeEngine,
)
from repro.core.linkstate import GroupDatabase, TopologyDatabase
from repro.core.message import (
    ROUTING_ADAPTIVE,
    ROUTING_DISJOINT,
    ROUTING_FLOOD,
    ROUTING_GRAPH,
    ROUTING_PATH,
    ServiceSpec,
)

#: An edge is "degraded" when its cost exceeds its best-ever cost by
#: this factor (link costs fold measured loss, so loss shows up here).
DEGRADED_FACTOR = 1.5

_INF = float("inf")


class LinkIndex:
    """Stable numbering of the overlay's links for bitmask routing.

    The overlay topology (which node pairs have links) is fixed at
    deployment, so every node shares the same numbering; only link *state*
    changes at runtime. One bit per undirected overlay link (Sec II-B).
    """

    def __init__(self, links: Iterable[tuple[str, str]]) -> None:
        self._bit_of: dict[frozenset, int] = {}
        self._pair_of: list[tuple[str, str]] = []
        self._incident: dict[str, list[tuple[str, int]]] = {}
        for a, b in sorted(tuple(sorted(pair)) for pair in links):
            key = frozenset((a, b))
            if key in self._bit_of:
                raise ValueError(f"duplicate overlay link {a}-{b}")
            bit = len(self._pair_of)
            self._bit_of[key] = bit
            self._pair_of.append((a, b))
            self._incident.setdefault(a, []).append((b, bit))
            self._incident.setdefault(b, []).append((a, bit))

    def __len__(self) -> int:
        return len(self._pair_of)

    def bit(self, a: str, b: str) -> int:
        """Bit position of the a-b link."""
        return self._bit_of[frozenset((a, b))]

    def pair(self, bit: int) -> tuple[str, str]:
        return self._pair_of[bit]

    def incident(self, node: str) -> list[tuple[str, int]]:
        """(neighbor, bit) for every overlay link at ``node``."""
        return self._incident.get(node, [])

    def mask_of_edges(self, edges: Iterable[tuple[str, str]]) -> int:
        """Bitmask naming exactly ``edges`` (pairs in either order)."""
        mask = 0
        for a, b in edges:
            mask |= 1 << self.bit(a, b)
        return mask

    def full_mask(self) -> int:
        """All links — constrained flooding."""
        return (1 << len(self._pair_of)) - 1

    def edges_of_mask(self, mask: int) -> list[tuple[str, str]]:
        return [self._pair_of[i] for i in range(len(self._pair_of)) if mask >> i & 1]


class RoutingService:
    """Per-node *view* over network-wide shared route computation.

    Routing artifacts (next-hop tables, distance maps, multicast trees,
    dissemination edge sets) are computed by the content-addressed
    :class:`repro.core.compute.RouteComputeEngine`, keyed by the shared
    databases' content fingerprints — so every replica that has
    converged on the same state reuses one computation instead of
    repeating it per node. What stays local is exactly the node-relative
    part: extracting this node's next hop from a shared table, the
    best-ever cost baselines, degraded-link assessments (which depend on
    this node's observation history), and the final bitmask cache.
    Reactions to topology changes remain immediate: a flooded update
    moves the fingerprint, which invalidates every derived artifact at
    once.
    """

    def __init__(
        self,
        node_id: str,
        topo_db: TopologyDatabase,
        group_db: GroupDatabase,
        link_index: LinkIndex,
        engine: RouteComputeEngine | None = None,
    ) -> None:
        self.node_id = node_id
        self.topo = topo_db
        self.groups = group_db
        self.links = link_index
        #: Shared engine when deployed in an OverlayNetwork; a private
        #: one otherwise (standalone services still get memoization).
        self.engine = engine if engine is not None else RouteComputeEngine()
        self._fingerprint: int | None = None
        self._adj: dict = {}
        self._masks: dict[tuple, int] = {}
        #: Best-ever cost of every edge seen up, one row per origin:
        #: ``{u: {v: best}}``. A row first aliases the immutable
        #: adjacency row it was seen in and is copied only when one of
        #: its costs drops below the baseline (copy-on-write).
        self._cost_baselines: dict[str, Mapping] = {}

    # ------------------------------------------------------- state sync

    def _refresh(self) -> None:
        fingerprint = self.topo.fingerprint
        if self._fingerprint == fingerprint:
            return
        seen, self._adj = self._adj, self.topo.adjacency()
        self._masks.clear()
        self._fingerprint = fingerprint
        baselines = self._cost_baselines
        for u, nbrs in self._adj.items():
            # A row the replica did not patch is the same object as last
            # time and has nothing new to fold into the baselines.
            if seen.get(u) is nbrs:
                continue
            base = baselines.get(u)
            if base is None:
                baselines[u] = nbrs
                continue
            drops = {v: cost for v, cost in nbrs.items()
                     if cost < base.get(v, _INF)}
            if drops:
                baselines[u] = {**base, **drops}

    def _degraded_at(self, node: str) -> bool:
        """True if any link incident to ``node`` currently costs well
        above its best-ever cost (or is down while its peer is up)."""
        reported = self._adj.get(node, {})
        for v, baseline in self._cost_baselines.get(node, {}).items():
            current = reported.get(v)
            if current is None:
                return True  # a known link at this node is down
            if current > DEGRADED_FACTOR * baseline:
                return True
        return False

    def adjacency(self) -> dict:
        """The current (directed) routing adjacency — a read-only view
        shared with every consumer of the same replica; copy before
        mutating."""
        self._refresh()
        return self._adj

    # ------------------------------------------------- link-state unicast

    def next_hop(self, dst_node: str) -> str | None:
        """Next overlay hop from this node toward ``dst_node``."""
        self._refresh()
        table = self.engine.table(
            self._fingerprint, self._adj, dst_node, self.topo.reverse_adjacency
        )
        return table.get(self.node_id)

    def distance(self, src: str, dst: str) -> float | None:
        """Shortest-path cost between two overlay nodes, or None."""
        self._refresh()
        return self.engine.distances(self._fingerprint, self._adj, src).get(dst)

    # --------------------------------------------------------- multicast

    def multicast_children(self, origin: str, group: str) -> list[str]:
        """This node's children in the deterministic multicast tree for
        (``origin``, ``group``). Every node derives the same tree from
        the same shared state (sorted adjacency + deterministic
        Dijkstra), so hop-by-hop forwarding composes into one tree —
        converged replicas share one engine-owned artifact."""
        self._refresh()
        tree = self.engine.tree(
            self._fingerprint ^ self.groups.fingerprint,
            self._adj,
            origin,
            group,
            self.groups.members_view(group),
        )
        return list(tree.get(self.node_id, ()))

    def anycast_target(self, group: str) -> str | None:
        """The nearest overlay node with members of ``group`` (Sec II-B:
        anycast delivers to exactly one member)."""
        self._refresh()
        members = self.groups.members_view(group)
        if not members:
            return None
        if self.node_id in members:
            return self.node_id
        best: str | None = None
        best_dist = float("inf")
        for member in members:  # members is sorted -> deterministic
            dist = self.distance(self.node_id, member)
            if dist is not None and dist < best_dist:
                best, best_dist = member, dist
        return best

    # ------------------------------------------------------ source-based

    def source_bitmask(self, dst_node: str, service: ServiceSpec) -> int:
        """Bitmask for a source-routed message from this node.

        ``disjoint``: union of ``service.k`` min-cost node-disjoint
        paths; ``graph``: the src+dst problem dissemination graph;
        ``flood``: every overlay link (delivery then only requires one
        correct path to exist, Sec IV-B).
        """
        self._refresh()
        if service.routing == ROUTING_FLOOD:
            return self.links.full_mask()
        key = (dst_node, service.routing, service.k, service.param("path"))
        if key in self._masks:
            return self._masks[key]
        if service.routing == ROUTING_DISJOINT:
            edges = self.engine.disjoint_edges(
                self._fingerprint, self.topo.symmetric_adjacency(),
                self.node_id, dst_node, service.k,
            )
        elif service.routing == ROUTING_GRAPH:
            edges = self.engine.graph_edges(
                self._fingerprint, self.topo.symmetric_adjacency(),
                GRAPH_SRC_DST_PROBLEM, self.node_id, dst_node,
            )
        elif service.routing == ROUTING_ADAPTIVE:
            edges = self._adaptive_graph(dst_node)
        elif service.routing == ROUTING_PATH:
            path = service.param("path")
            if not path or path[0] != self.node_id or path[-1] != dst_node:
                raise ValueError(
                    f"source-path routing needs a 'path' param from "
                    f"{self.node_id!r} to {dst_node!r}, got {path!r}"
                )
            edges = {tuple(sorted(e)) for e in zip(path, path[1:])}
        else:
            raise ValueError(f"not a source-based routing service: {service.routing}")
        mask = self.links.mask_of_edges(edges)
        self._masks[key] = mask
        return mask

    def _adaptive_graph(self, dst_node: str) -> frozenset:
        """Targeted redundancy where the shared state shows trouble:
        two disjoint paths when the network looks clean, a source- /
        destination- / both-sides problem graph when links near those
        endpoints are degraded ([2]'s policy, approximated).

        The *choice* of graph depends on this node's local cost
        baselines and stays here; the chosen graph itself is a pure
        function of the shared adjacency, so nodes that reach the same
        assessment share one engine computation."""
        src_problem = self._degraded_at(self.node_id)
        dst_problem = self._degraded_at(dst_node)
        if src_problem and dst_problem:
            kind = GRAPH_SRC_DST_PROBLEM
        elif src_problem:
            kind = GRAPH_SOURCE_PROBLEM
        elif dst_problem:
            kind = GRAPH_DESTINATION_PROBLEM
        else:
            kind = GRAPH_TWO_DISJOINT
        return self.engine.graph_edges(
            self._fingerprint, self.topo.symmetric_adjacency(), kind,
            self.node_id, dst_node,
        )

    def group_bitmask(self, group: str, service: ServiceSpec) -> int:
        """Source-routed dissemination to every member node of a group:
        union of the per-destination bitmasks."""
        mask = 0
        for member in self.groups.members_view(group):
            if member == self.node_id:
                continue
            mask |= self.source_bitmask(member, service)
        return mask

    def bitmask_neighbors(self, bitmask: int, exclude_bit: int | None = None):
        """Neighbors of this node reachable over links named in
        ``bitmask`` (optionally excluding the arrival link's bit).
        Returns (neighbor, bit) pairs."""
        out = []
        for nbr, bit in self.links.incident(self.node_id):
            if exclude_bit is not None and bit == exclude_bit:
                continue
            if bitmask >> bit & 1:
                out.append((nbr, bit))
        return out
