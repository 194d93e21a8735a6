"""Fiber links and routing domains (ISP backbones, and the interdomain
"native Internet" domain built by :class:`repro.net.internet.Internet`).

The key behaviour reproduced here is *slow reconvergence*: when a fiber
fails, the domain keeps forwarding along stale routing tables — packets
die at the failed hop — until ``convergence_delay`` elapses and the
tables are recomputed. Inside an ISP this is seconds; for the
interdomain paths the paper cites 40 seconds to minutes of BGP
convergence. The overlay's sub-second rerouting (Sec II-A) is measured
against exactly this behaviour.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Callable, Hashable

from repro.alg.dijkstra import (
    ShortestPathSearch,
    dijkstra,
    extract_path,
    reversed_graph,
)
from repro.net.loss import LossModel, NoLoss
from repro.sim.events import Simulator

NodeId = Hashable

#: Direction constants for per-direction link queues.
FWD = 1
REV = -1


def _watched(slot: str) -> property:
    """A :class:`FiberLink` attribute whose changes are announced to
    the link's watchers *before* they land. Hot paths read the private
    slot directly; only the (rare) writers and cold readers pay for the
    property."""

    def get(self):
        return getattr(self, slot)

    def set(self, value) -> None:
        if value is not getattr(self, slot):
            for watcher in self._watchers:
                watcher()
            setattr(self, slot, value)

    return property(get, set)


class FiberLink:
    """A physical (bidirectional) fiber between two routers.

    One :class:`FiberLink` object may be referenced by several routing
    domains (its owning ISP's domain and the interdomain domain), so a
    physical cut affects every path that shares the fiber — this is what
    makes the disjointness audits of Fig 1 meaningful.

    Attributes:
        name: Stable identifier, e.g. ``"ispA:NYC-CHI"``.
        delay: One-way propagation delay in seconds.
        capacity_bps: Serialization rate; ``None`` means uncapped.
        loss: The link's loss process (replaceable at runtime).
        failed: Physical state; failed links drop every packet.

    ``failed`` and ``loss`` may be written by anyone at any time
    (``RoutingDomain.fail_link``, a test, a warm-start restore); each
    change first calls the link's watchers (:meth:`watch`), which is how
    a domain pins its pre-cut tables and how the Internet takes
    in-flight express transits back to the hop walk.
    """

    failed = _watched("_failed")
    loss = _watched("_loss")

    #: Packets queued beyond this many seconds of serialization delay
    #: are dropped (a bounded router queue).
    MAX_QUEUE_DELAY = 0.2

    def __init__(
        self,
        name: str,
        delay: float,
        capacity_bps: float | None = None,
        loss: LossModel | None = None,
        jitter: float = 0.0,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative link delay: {delay}")
        if jitter < 0:
            raise ValueError(f"negative jitter: {jitter}")
        self.name = name
        self.delay = delay
        self.capacity_bps = capacity_bps
        self._watchers: list[Callable[[], None]] = []
        self._loss = loss if loss is not None else NoLoss()
        #: Maximum extra per-packet queueing noise (uniform in
        #: [0, jitter]); large enough values reorder packets, which the
        #: recovery protocols must absorb without spurious requests.
        self.jitter = jitter
        self._failed = False
        #: Per-link loss RNG stream, filled in by the Internet on first
        #: traversal (cached here to keep the per-hop path lookup-free).
        self._loss_rng = None
        self._busy_until = {FWD: 0.0, REV: 0.0}
        self.bytes_carried = 0
        self.packets_carried = 0
        self.packets_dropped = 0
        #: Fluid traffic carried across the fiber (settled analytically
        #: by the fluid engine per rate interval — kept separate from
        #: the per-packet counters above so the two accounting domains
        #: never mix).
        self.fluid_bytes = 0.0

    def watch(self, watcher: Callable[[], None]) -> None:
        """Call ``watcher()`` just before :attr:`failed` or
        :attr:`loss` changes."""
        self._watchers.append(watcher)

    def traverse(
        self, now: float, wire_bytes: int, direction: int, rng: random.Random
    ) -> float | None:
        """Attempt to carry ``wire_bytes`` across the link.

        Returns the arrival time at the far end, or ``None`` if the
        packet is lost (failure, loss process, or queue overflow).
        """
        if self._failed:
            self.packets_dropped += 1
            return None
        if self._loss.should_drop(now, rng):
            self.packets_dropped += 1
            return None
        queue_delay = 0.0
        tx_delay = 0.0
        if self.capacity_bps is not None:
            tx_delay = wire_bytes * 8.0 / self.capacity_bps
            busy = self._busy_until[direction]
            queue_delay = max(0.0, busy - now)
            if queue_delay > self.MAX_QUEUE_DELAY:
                self.packets_dropped += 1
                return None
            self._busy_until[direction] = now + queue_delay + tx_delay
        self.bytes_carried += wire_bytes
        self.packets_carried += 1
        noise = rng.uniform(0.0, self.jitter) if self.jitter > 0 else 0.0
        return now + queue_delay + tx_delay + self.delay + noise

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "FAILED" if self.failed else "up"
        return f"<FiberLink {self.name} {self.delay * 1000:.1f}ms {state}>"


#: Underlay routing tables shared by content across the process: per
#: converged delay graph, its reversed graph and a ``{dst:
#: ShortestPathSearch}`` dict, taken by every :class:`RoutingDomain`
#: that converges on the same graph — the next sweep cell's fresh
#: underlay, a twin Internet on the same fibers, a forked worker. A
#: search is settled only as far as some domain has asked and answers
#: every domain alike (a paused search agrees with the finished one), so
#: which domain settled how far is invisible. Bounded (an ISP and the
#: native domain each take one graph per convergence): the least
#: recently taken graph goes first.
_TABLES: OrderedDict[tuple, tuple[dict, dict]] = OrderedDict()
TABLES_CAPACITY = 8


def _take_tables(key: tuple, adj: dict) -> tuple[dict, dict]:
    """``(reversed graph, {dst: search})`` for the delay adjacency
    ``adj``, keyed ``key`` = ``((u, ((v, delay), ...)), ...)`` in its
    order, which the searches' tie-breaks follow."""
    entry = _TABLES.get(key)
    if entry is None:
        entry = _TABLES[key] = (reversed_graph(adj), {})
        while len(_TABLES) > TABLES_CAPACITY:
            _TABLES.popitem(last=False)
    else:
        _TABLES.move_to_end(key)
    return entry


class RoutingDomain:
    """A routed graph of routers and fibers with delayed reconvergence.

    Forwarding is hop-by-hop through next-hop tables. Tables reflect the
    topology *as of the last convergence*: ``fail_link`` / ``repair_link``
    take effect on forwarding state only ``convergence_delay`` seconds
    later (the physical drop behaviour is immediate, via
    :attr:`FiberLink.failed`).
    """

    def __init__(
        self, name: str, sim: Simulator, convergence_delay: float = 10.0
    ) -> None:
        self.name = name
        self.sim = sim
        self.convergence_delay = convergence_delay
        self._adj: dict[NodeId, dict[NodeId, tuple[FiberLink, int]]] = {}
        #: The delay adjacency as of the last convergence, as the
        #: ``_TABLES`` key this domain built from its own
        #: fibers, and the store's ``(reversed graph, {dst: search})``
        #: entry for it; ``None`` = not taken yet (taken by the first
        #: table miss, or just before a fiber changes state).
        self._route_key: tuple | None = None
        self._route: tuple[dict, dict] | None = None
        #: Per destination, the search this domain forwards by: a
        #: reference into the shared entry, settled only as far as
        #: lookups have asked (a settled router's predecessor is its
        #: next hop). The domain's own dict — what is put here reaches
        #: no other domain.
        self._tables: dict[NodeId, ShortestPathSearch] = {}
        self._converge_listeners: list[Callable[[], None]] = []
        self._watchers: list[Callable[[], None]] = []
        self._pending_reconverge = False
        #: Bumped whenever the forwarding tables are recomputed; path
        #: caches stamped with it (``Internet._path_cache``) see
        #: stale-table forwarding exactly as hop-by-hop lookups do.
        self.tables_epoch = 0

    # ---------------------------------------------------------- topology

    def add_router(self, router: NodeId) -> None:
        self._adj.setdefault(router, {})

    @property
    def routers(self) -> list[NodeId]:
        return list(self._adj)

    def add_link(
        self,
        a: NodeId,
        b: NodeId,
        delay: float,
        capacity_bps: float | None = None,
        loss: LossModel | None = None,
        name: str | None = None,
        jitter: float = 0.0,
    ) -> FiberLink:
        """Create a new fiber between ``a`` and ``b`` and wire it in."""
        link = FiberLink(
            name or f"{self.name}:{a}-{b}", delay, capacity_bps, loss, jitter
        )
        self.add_link_object(a, b, link)
        return link

    def add_link_object(self, a: NodeId, b: NodeId, link: FiberLink) -> None:
        """Wire an existing fiber object between ``a`` and ``b`` (used by
        the interdomain domain to share fibers with ISP domains;
        orientation ``a -> b`` is the link's FWD direction)."""
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        self.add_router(a)
        self.add_router(b)
        self._adj[a][b] = (link, FWD)
        self._adj[b][a] = (link, REV)
        link.watch(self._fiber_changing)
        self._refresh_routing_now()

    def link_between(self, a: NodeId, b: NodeId) -> FiberLink | None:
        entry = self._adj.get(a, {}).get(b)
        return entry[0] if entry else None

    def links(self) -> list[FiberLink]:
        """All distinct fiber objects in the domain."""
        seen: dict[int, FiberLink] = {}
        for nbrs in self._adj.values():
            for link, __ in nbrs.values():
                seen[id(link)] = link
        return list(seen.values())

    # ----------------------------------------------------------- routing

    def _current_adjacency(self) -> dict:
        """Delay-weighted adjacency excluding failed links."""
        return {
            u: {
                v: link.delay
                for v, (link, __) in nbrs.items()
                if not link._failed
            }
            for u, nbrs in self._adj.items()
        }

    def _refresh_routing_now(self) -> None:
        """Converge on the topology as it is now (topology changes made
        while *building* the network converge instantly). The adjacency
        itself is rebuilt by whoever needs it first — a table miss, or
        :meth:`_fiber_changing` pinning the pre-change view — so wiring
        n fibers costs one rebuild, not n."""
        self._route_key = self._route = None
        self._tables.clear()
        self.tables_epoch += 1
        for watcher in self._watchers:
            watcher()

    def _fiber_changing(self) -> None:
        """One of the domain's fibers is about to be cut, repaired or
        given another loss process: the tables must keep describing the
        topology *before* the change until the domain reconverges."""
        self._routing_graph()
        for watcher in self._watchers:
            watcher()

    def _routing_graph(self) -> tuple[dict, dict]:
        """``_route``, taken for the live topology if not yet."""
        if self._route is None:
            adj = self._current_adjacency()
            self._route_key = key = tuple(
                (u, tuple(row.items())) for u, row in adj.items())
            self._route = _take_tables(key, adj)
        return self._route

    def watch(self, watcher: Callable[[], None]) -> None:
        """Call ``watcher()`` whenever something a datagram already in
        flight could notice is changing: a fiber's ``failed`` / ``loss``
        (just before the write) or the forwarding tables (just after
        they were rewritten)."""
        self._watchers.append(watcher)

    def next_hop(self, router: NodeId, dst: NodeId) -> NodeId | None:
        """Next hop from ``router`` toward ``dst`` per current tables —
        ``next_hops(adjacency, dst).get(router)``, settled only until
        ``router`` is final (a paused search agrees with the finished
        one on every node it has settled)."""
        table = self._tables.get(dst)
        if table is None:
            graph, shared = self._routing_graph()
            table = shared.get(dst)
            if table is None:
                table = shared[dst] = ShortestPathSearch(graph, dst)
            self._tables[dst] = table
        if router not in table.done and table.heap:
            table.settle(router)
        return table.prev.get(router)

    def current_path(self, src: NodeId, dst: NodeId) -> list[NodeId] | None:
        """The router path forwarding would take right now (may include a
        failed link if the domain has not reconverged yet)."""
        if src == dst:
            return [src]
        path = [src]
        node = src
        seen = {src}
        while node != dst:
            node = self.next_hop(node, dst)
            if node is None or node in seen:
                return None
            path.append(node)
            seen.add(node)
        return path

    def shortest_converged_path(self, src: NodeId, dst: NodeId) -> list | None:
        """Shortest path over the *live* topology (what tables will hold
        after convergence) — used for audits, not forwarding."""
        adj = self._current_adjacency()
        __, prev = dijkstra(adj, src)
        return extract_path(prev, src, dst)

    def link_on_path(self, u: NodeId, v: NodeId) -> tuple[FiberLink, int]:
        try:
            return self._adj[u][v]
        except KeyError:
            raise KeyError(
                f"no link between {u!r} and {v!r} in {self.name}") from None

    # ---------------------------------------------------------- failures

    def fail_link(self, a: NodeId, b: NodeId) -> None:
        """Cut the fiber between ``a`` and ``b`` (drops start now; the
        forwarding tables only heal after ``convergence_delay``)."""
        link = self.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r} in {self.name}")
        link.failed = True
        self._schedule_reconverge()

    def repair_link(self, a: NodeId, b: NodeId) -> None:
        """Repair the fiber (usable by forwarding only after convergence)."""
        link = self.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a!r} and {b!r} in {self.name}")
        link.failed = False
        self._schedule_reconverge()

    def notify_topology_changed(self) -> None:
        """Called by the Internet when a shared fiber changed state."""
        self._schedule_reconverge()

    def _schedule_reconverge(self) -> None:
        if self._pending_reconverge:
            return
        self._pending_reconverge = True
        self.sim.schedule(self.convergence_delay, self._reconverge)

    def _reconverge(self) -> None:
        self._pending_reconverge = False
        self._refresh_routing_now()
        for listener in self._converge_listeners:
            listener()

    def on_converge(self, listener: Callable[[], None]) -> None:
        """Register a callback fired whenever the domain reconverges."""
        self._converge_listeners.append(listener)
