"""Hybrid flow-level traffic: fluid bulk flows over the packet control plane.

The packet simulator pays O(messages) events for application traffic;
at a hundred thousand client flows that dominates the run even though
every one of those messages crosses a *converged, quiet* overlay. This
module adds the fluid half of a hybrid timeline:

* **Bulk flows** become :class:`FluidFlow` objects — piecewise-constant
  message rates. Between *re-solve boundaries* nothing about a flow's
  path or per-hop behaviour changes, so the interval is settled
  analytically: ``rate * dt`` messages, a delivered fraction from the
  links' loss models, and a constant latency from the path's delays,
  serialization, and analytic queueing.
* **The control plane stays packet-level.** Hellos, LSU/GSU floods,
  acks, and NM-Strikes run exactly as before — the fluid engine never
  touches their event stream. Sampled *probe* packets (see
  :class:`repro.analysis.workloads.CbrSource` with ``probe_every``) ride
  the packet path too, keeping real per-packet tail evidence inside a
  fluid run.

Re-solve boundaries — the only times fluid state is recomputed:

* flow start / stop / rate change (:meth:`FluidEngine.add_flow` /
  :meth:`FluidEngine.remove_flow` / :meth:`FluidEngine.set_rate`);
* topology or group *content* fingerprint movement (an accepted LSU/GSU
  that changes shared state — the same moment the packet pipeline's
  :class:`~repro.core.pipeline.ForwardingCache` generation moves);
* overlay carrier switches, fiber/site fail and repair, and underlay
  domain reconvergence (stale tables healing);
* deterministic loss-state boundaries
  (:meth:`repro.net.loss.LossModel.next_transition`, e.g. scheduled
  outage window edges), so no interval straddles a known transition;
* local group membership changes (session join/leave).

All triggers funnel through :meth:`FluidEngine.poke`, which coalesces
any number of same-instant causes into one settle + recompute via a
recycled zero-delay timer.

Path fidelity: fluid paths are resolved through the *same* memoized
decide stage packets use (:meth:`DataPlane.fluid_next_hop` /
:meth:`DataPlane.fluid_multicast_children`), so a fluid path assignment
is exactly as stale or fresh as a packet forwarding decision under the
same ForwardingCache generation. Per-link fluid rate sums feed an
analytic M/D/1-style queueing delay and a capacity-share delivered
fraction; loss models are applied as exact interval averages
(:meth:`LossModel.fluid_rate`).

Model limits (documented, by design):

* Only link-state unicast and multicast best-effort flows are fluid;
  anycast, source-based routing, and the recovery/ordering protocols
  keep their per-packet semantics (use packets, or probes).
* Fluid traffic does not occupy the packet path's serialization queues
  (and vice versa): on capacitated links the two accounting domains
  interact only through the analytic rate sums. Calibration scenarios
  therefore use uncapped or lightly loaded links for byte-level probe
  comparisons.
* Offered load on a path is not thinned by upstream loss when summing
  link rates (a small upper bound under the low loss rates the paper
  operates at).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.message import (
    Address,
    LINK_BEST_EFFORT,
    OVERLAY_HEADER_BYTES,
    ROUTING_LINK_STATE,
    ServiceSpec,
    flow_id,
)
from repro.net.backbone import FiberLink
from repro.net.packet import HEADER_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.client import OverlayClient
    from repro.core.network import OverlayNetwork

#: Link-level frame header bytes (matches ``Frame.wire_size``'s base).
FRAME_BASE = 16

_UNSET = object()


def validate_fluid_spec(dst: Address, service: ServiceSpec) -> None:
    """Reject (destination, service) combinations that have no fluid
    representation (see the module docstring's model limits)."""
    if service.routing != ROUTING_LINK_STATE:
        raise ValueError(
            f"fluid mode supports link-state routing only, not {service.routing!r}"
        )
    if service.link != LINK_BEST_EFFORT:
        raise ValueError(
            f"fluid mode models best-effort transport only, not {service.link!r}"
        )
    if dst.is_anycast:
        raise ValueError("anycast flows have no fluid representation")


class FluidFlow:
    """One modeled bulk flow: a piecewise-constant message rate.

    Created through :meth:`FluidEngine.add_flow`. Accumulates, per
    destination endpoint (``"node:port"`` — the same labels packet
    delivery records use), the settled rate intervals as
    ``(delivered_weight, latency)`` pairs plus the delivered total.
    """

    __slots__ = (
        "flow", "origin", "src", "dst", "dst_label", "service", "size",
        "rate", "active", "offered", "deliveries", "frame_wire",
        "dgram_wire", "started_at", "stopped_at", "_carry",
    )

    def __init__(self, origin: str, src: Address, dst: Address,
                 rate_pps: float, size: int, service: ServiceSpec) -> None:
        self.flow = flow_id(src, dst, service)
        self.origin = origin
        self.src = src
        self.dst = dst
        self.dst_label = str(dst)
        self.service = service
        self.size = size
        self.rate = rate_pps
        self.active = False
        #: Modeled messages offered so far — settled in *integer*
        #: message units at interval boundaries: each settlement floors
        #: ``rate * dt`` plus the carried sub-message remainder, and the
        #: fractional part carries into the next interval. Whole counts
        #: are exact floats (no ``0.9999...`` drift after millions of
        #: messages); only the trailing sub-message remainder at flow
        #: stop stays unoffered.
        self.offered = 0.0
        #: Sub-message remainder carried between settlements.
        self._carry = 0.0
        #: Per destination label: ``[delivered_total, [[weight, latency], ...]]``.
        self.deliveries: dict[str, list] = {}
        #: Overlay frame bytes per modeled message (what an OverlayLink
        #: counts) and underlay datagram bytes (what a fiber carries).
        self.frame_wire = FRAME_BASE + OVERLAY_HEADER_BYTES + size
        self.dgram_wire = self.frame_wire + HEADER_BYTES
        self.started_at: float | None = None
        self.stopped_at: float | None = None

    # ----------------------------------------------------------- results

    def delivered(self, destination: str) -> float:
        """Modeled messages delivered at ``destination`` so far."""
        agg = self.deliveries.get(destination)
        return agg[0] if agg is not None else 0.0

    def intervals(self, destination: str) -> list[tuple[float, float]]:
        """Settled ``(delivered_weight, latency)`` pairs at a destination."""
        agg = self.deliveries.get(destination)
        return [(w, lat) for w, lat in agg[1]] if agg is not None else []

    def destinations(self) -> list[str]:
        return list(self.deliveries)

    def _account(self, destination: str, weight: float, latency: float) -> None:
        agg = self.deliveries.get(destination)
        if agg is None:
            agg = self.deliveries[destination] = [0.0, []]
        agg[0] += weight
        intervals = agg[1]
        if intervals and intervals[-1][1] == latency:
            intervals[-1][0] += weight
        else:
            intervals.append([weight, latency])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "active" if self.active else "stopped"
        return f"<FluidFlow {self.flow} {self.rate}pps {state}>"


class _Edge:
    """One overlay hop of a flow's plan: the sending-side OverlayLink
    plus the underlay (fiber, direction) hops its carrier rides right
    now. ``broken`` marks hops where packets would die without reaching
    the far side (muted link, or no underlay route on the carrier)."""

    __slots__ = ("link", "fibers", "broken", "latency")

    def __init__(self, link, fibers) -> None:
        self.link = link
        self.broken = fibers is None or link.muted
        self.fibers = fibers if fibers is not None else ()
        self.latency = 0.0


class _PlanNode:
    """One overlay node in a flow's delivery plan (a path for unicast, a
    tree for multicast). ``parent``/``edge_idx`` index into the owning
    plan; ``ports`` are local endpoints to deliver to; ``latency`` is
    the cumulative source-to-delivery latency (static per interval)."""

    __slots__ = ("node_id", "parent", "edge_idx", "ports", "latency")

    def __init__(self, node_id: str, parent: int, edge_idx: int | None) -> None:
        self.node_id = node_id
        self.parent = parent
        self.edge_idx = edge_idx
        self.ports: tuple = ()
        self.latency = 0.0


class _Plan:
    """A flow's resolved delivery structure for the current interval."""

    __slots__ = ("nodes", "edges")

    def __init__(self) -> None:
        self.nodes: list[_PlanNode] = []
        self.edges: list[_Edge] = []

    def add_node(self, node_id: str, parent: int, edge_idx: int | None) -> int:
        self.nodes.append(_PlanNode(node_id, parent, edge_idx))
        return len(self.nodes) - 1

    def add_edge(self, edge: _Edge) -> int:
        self.edges.append(edge)
        return len(self.edges) - 1


class FluidEngine:
    """The fluid half of a hybrid run, attached to one overlay network.

    Obtain through :meth:`repro.core.network.OverlayNetwork.fluid_engine`
    (which registers it on the underlay's ``fluid_listeners``). While no
    engine is attached the listener list stays empty and every fluid
    hook in the packet path is a single falsy check — the packet-only
    timeline is untouched.
    """

    def __init__(self, network: "OverlayNetwork") -> None:
        self.network = network
        self.sim = network.sim
        self.internet = network.internet
        self.config = network.config
        self.counters = network.counters
        self.flows: dict[str, FluidFlow] = {}
        #: Per-flow plans and per-(fiber id, direction) ``(share, queue)``
        #: from the last recompute — constant within an interval.
        self._plans: dict[str, _Plan] = {}
        self._fiber_use: dict[tuple[int, int], tuple[float, float]] = {}
        #: Fiber up/down state captured at the last recompute. Settles
        #: price the *closing* interval, so they must read the state
        #: that was live during it — fail/repair hooks mutate the fiber
        #: synchronously and only then poke, and the deferred settle
        #: would otherwise wipe (or resurrect) the whole prior interval.
        self._fiber_failed: dict[int, bool] = {}
        self._last_settle = self.sim.now
        self._pending = False
        self.resolves = 0
        #: Recycled timers: one coalescing zero-delay re-solve, one for
        #: the next deterministic loss boundary. Creating them allocates
        #: no event sequence numbers, so attaching an idle engine does
        #: not perturb packet event ordering.
        self._resolve_timer = self.sim.timer(self._fire_resolve)
        self._boundary_timer = self.sim.timer(self._fire_boundary)
        self._subscribed: set[int] = set()
        self.internet.fluid_listeners.append(self)
        self._subscribe_domains()

    # ------------------------------------------------------ re-solve plumbing

    def _subscribe_domains(self) -> None:
        """Hook reconvergence of every routing domain currently built
        (called again after each recompute — the native interdomain
        domain is constructed lazily and may be rebuilt)."""
        domains = list(self.internet.isps.values())
        native = self.internet._native
        if native is not None:
            domains.append(native)
        for domain in domains:
            if id(domain) in self._subscribed:
                continue
            self._subscribed.add(id(domain))
            domain.on_converge(self._on_reconverge)

    def _on_reconverge(self) -> None:
        self.poke("underlay-reconverge")

    def poke(self, reason: str) -> None:
        """A re-solve boundary happened. Settles the closing interval
        and recomputes — coalesced, so any number of same-instant causes
        (one LSU flooding through N nodes, a site failure cutting M
        fibers) cost one re-solve."""
        self.counters.add("fluid.poke")
        self.counters.add(f"fluid.poke:{reason}")
        if self._pending:
            return
        self._pending = True
        self._resolve_timer.reschedule(0.0)

    def _fire_resolve(self) -> None:
        self._pending = False
        self._resolve()

    def _fire_boundary(self) -> None:
        self.counters.add("fluid.poke:loss-boundary")
        self._resolve()

    def _resolve(self) -> None:
        self._settle(self.sim.now)
        self._recompute()

    # ------------------------------------------------------- flow lifecycle

    def add_flow(
        self,
        client: "OverlayClient",
        dst: Address,
        rate_pps: float,
        size: int = 1200,
        service: ServiceSpec | None = None,
    ) -> FluidFlow:
        """Start a fluid flow from ``client`` to ``dst`` at ``rate_pps``
        modeled messages per second.

        Only link-state unicast/multicast best-effort flows have a fluid
        representation (see module docstring); anything else raises.
        """
        if rate_pps <= 0:
            raise ValueError("fluid rate must be positive")
        spec = service if service is not None else ServiceSpec()
        validate_fluid_spec(dst, spec)
        flow = FluidFlow(client.node.id, client.address, dst, rate_pps, size, spec)
        if flow.flow in self.flows:
            raise ValueError(f"fluid flow {flow.flow} already registered")
        self._settle(self.sim.now)
        flow.active = True
        flow.started_at = self.sim.now
        self.flows[flow.flow] = flow
        self.counters.add("fluid.flows-started")
        self.poke("flow-start")
        return flow

    def remove_flow(self, flow: FluidFlow) -> None:
        """Stop a fluid flow (settling the interval it closes)."""
        if not flow.active:
            return
        self._settle(self.sim.now)
        flow.active = False
        flow.stopped_at = self.sim.now
        del self.flows[flow.flow]
        self.counters.add("fluid.flows-stopped")
        self.poke("flow-stop")

    def set_rate(self, flow: FluidFlow, rate_pps: float) -> None:
        """Change a flow's modeled rate (a re-solve boundary)."""
        if rate_pps < 0:
            raise ValueError("fluid rate must be non-negative")
        self._settle(self.sim.now)
        flow.rate = rate_pps
        self.poke("rate-change")

    def settle_now(self) -> None:
        """Settle the open interval up to the current simulated time —
        call after ``sim.run`` before reading flow statistics."""
        self._settle(self.sim.now)

    # ------------------------------------------------------------ settlement

    def _settle(self, now: float) -> None:
        """Close the interval [last settle, now): credit every flow with
        ``rate * dt`` modeled messages, delivered per destination at the
        interval's survival probability and latency, and fold volumes
        into the flow tables and link/fiber byte counters."""
        t0 = self._last_settle
        if now <= t0:
            self._last_settle = now
            return
        dt = now - t0
        self._last_settle = now
        if not self._plans:
            return
        nodes = self.network.nodes
        counters = self.counters
        accounting = self.config.fluid_flow_accounting
        fiber_use = self._fiber_use
        # Interval survival per fiber (loss is direction-independent;
        # capacity share is per direction and folded in per edge below).
        # Up/down state comes from the recompute-time capture, not the
        # live fiber: a fail/repair lands mid-interval and must not
        # retroactively reprice the window before it.
        surv_memo: dict[int, float] = {}
        fiber_failed = self._fiber_failed
        total_offered = 0.0
        total_delivered = 0.0
        for fid, plan in self._plans.items():
            flow = self.flows.get(fid)
            if flow is None or flow.rate <= 0:
                continue
            # Integerize at the boundary: offer whole messages, carry
            # the fractional remainder forward. The 1e-9 guard absorbs
            # the multiply's rounding so an exact-looking 2.9999...97
            # still offers 3 (the drift this scheme exists to kill).
            raw = flow.rate * dt + flow._carry
            offered = float(int(raw + 1e-9))
            flow._carry = raw - offered
            if offered <= 0.0:
                continue
            flow.offered += offered
            total_offered += offered
            size = float(flow.size)
            frame_wire = float(flow.frame_wire)
            dgram_wire = float(flow.dgram_wire)
            edge_surv = []
            for edge in plan.edges:
                if edge.broken:
                    edge_surv.append(0.0)
                    continue
                s = 1.0
                for fiber, direction in edge.fibers:
                    key = id(fiber)
                    fs = surv_memo.get(key)
                    if fs is None:
                        if fiber_failed.get(key, fiber.failed):
                            fs = 0.0
                        else:
                            fs = max(0.0, 1.0 - fiber.loss.fluid_rate(t0, now))
                        surv_memo[key] = fs
                    share = fiber_use.get((key, direction), (1.0, 0.0))[0]
                    s *= fs * share
                edge_surv.append(s)
            arrive = [0.0] * len(plan.nodes)
            for i, pn in enumerate(plan.nodes):
                if pn.parent < 0:
                    frac = 1.0
                    if accounting:
                        nodes[pn.node_id].pipeline.classify_fluid(
                            flow.flow, flow.origin, flow.dst_label,
                            flow.service, "origin", offered, offered * size,
                        )
                else:
                    upstream = arrive[pn.parent]
                    edge = plan.edges[pn.edge_idx]
                    if upstream > 0.0 and not edge.broken:
                        sent = offered * upstream
                        edge.link.fluid_bytes_sent += sent * frame_wire
                        for fiber, __ in edge.fibers:
                            fiber.fluid_bytes += sent * dgram_wire
                    frac = upstream * edge_surv[pn.edge_idx]
                    if accounting and frac > 0.0:
                        nodes[pn.node_id].pipeline.classify_fluid(
                            flow.flow, flow.origin, flow.dst_label,
                            flow.service, "forwarded",
                            offered * frac, offered * frac * size,
                        )
                arrive[i] = frac
                if pn.ports and frac > 0.0:
                    delivered = offered * frac
                    if accounting:
                        nodes[pn.node_id].pipeline.classify_fluid(
                            flow.flow, flow.origin, flow.dst_label,
                            flow.service, "delivered",
                            delivered, delivered * size,
                        )
                    label = pn.node_id
                    for port in pn.ports:
                        flow._account(f"{label}:{port}", delivered, pn.latency)
                    total_delivered += delivered * len(pn.ports)
        if total_offered:
            counters.add("fluid.msgs-offered", total_offered)
        if total_delivered:
            counters.add("fluid.msgs-delivered", total_delivered)
        counters.add("fluid.intervals")

    # ------------------------------------------------------------- recompute

    def _recompute(self) -> None:
        """Re-solve the fluid system for the opening interval: resolve
        every flow's overlay path/tree through the packet pipeline's
        cached decide stage, sum per-(fiber, direction) fluid rates,
        derive analytic queueing/capacity terms, and precompute each
        destination's constant interval latency."""
        self.resolves += 1
        self.counters.add("fluid.resolve")
        now = self.sim.now
        nodes = self.network.nodes
        for node in nodes.values():
            for link in node.links.values():
                link.fluid_rate_bps = 0.0
        route_cache: dict[int, object] = {}
        plans: dict[str, _Plan] = {}
        use_acc: dict[tuple[int, int], list] = {}
        fiber_failed: dict[int, bool] = {}
        for flow in self.flows.values():
            plan = self._plan_flow(flow, route_cache)
            plans[flow.flow] = plan
            rate = flow.rate
            if rate <= 0:
                continue
            frame_bits = flow.frame_wire * 8.0
            dgram_bits = flow.dgram_wire * 8.0
            for edge in plan.edges:
                if edge.broken:
                    continue
                edge.link.fluid_rate_bps += rate * frame_bits
                for fiber, direction in edge.fibers:
                    if id(fiber) not in fiber_failed:
                        fiber_failed[id(fiber)] = fiber.failed
                    key = (id(fiber), direction)
                    acc = use_acc.get(key)
                    if acc is None:
                        acc = use_acc[key] = [fiber, 0.0, 0.0]
                    acc[1] += rate * dgram_bits
                    acc[2] += rate
        fiber_use: dict[tuple[int, int], tuple[float, float]] = {}
        boundary: float | None = None
        seen_fibers: set[int] = set()
        max_queue = FiberLink.MAX_QUEUE_DELAY
        for key, (fiber, bps, pps) in use_acc.items():
            cap = fiber.capacity_bps
            if cap is None or bps <= 0.0:
                share, queue = 1.0, 0.0
            elif bps >= cap:
                # Overloaded direction: the link delivers its capacity;
                # the excess is the fluid analogue of queue-tail drops.
                share = cap / bps
                queue = max_queue
            else:
                # M/D/1-style mean wait at the direction's utilization,
                # with the byte-weighted mean serialization time as the
                # service time; bounded by the packet path's queue cap.
                util = bps / cap
                service_time = (bps / pps) / cap
                queue = min(max_queue, service_time * util / (2.0 * (1.0 - util)))
                share = 1.0
            fiber_use[key] = (share, queue)
            fid = key[0]
            if fid not in seen_fibers:
                seen_fibers.add(fid)
                nxt = fiber.loss.next_transition(now)
                if nxt is not None and (boundary is None or nxt < boundary):
                    boundary = nxt
        self._fiber_use = fiber_use
        self._fiber_failed = fiber_failed
        proc = self.config.proc_delay
        hosts = self.internet.hosts
        for flow in self.flows.values():
            plan = plans[flow.flow]
            dgram_bits = flow.dgram_wire * 8.0
            for edge in plan.edges:
                if edge.broken:
                    continue
                link = edge.link
                lat = (hosts[link.node_host].access_delay
                       + hosts[link.nbr_host].access_delay)
                for fiber, direction in edge.fibers:
                    lat += fiber.delay + 0.5 * fiber.jitter
                    cap = fiber.capacity_bps
                    if cap is not None:
                        lat += dgram_bits / cap
                        lat += fiber_use[(id(fiber), direction)][1]
                edge.latency = lat
            plan_nodes = plan.nodes
            for pn in plan_nodes:
                if pn.parent < 0:
                    pn.latency = 0.0
                else:
                    pn.latency = (plan_nodes[pn.parent].latency
                                  + plan.edges[pn.edge_idx].latency + proc)
        self._plans = plans
        self._subscribe_domains()
        if boundary is not None and boundary > now:
            self._boundary_timer.reschedule(boundary - now)
        else:
            self._boundary_timer.cancel()

    # ---------------------------------------------------------- path solving

    def _resolve_link(self, link, route_cache: dict):
        """The (fiber, direction) hops an overlay link's current carrier
        rides, shared across flows within one recompute; ``None`` marks
        a hop where packets would die (muted endpoint / no route)."""
        key = id(link)
        fibers = route_cache.get(key, _UNSET)
        if fibers is _UNSET:
            if link.muted:
                fibers = None
            else:
                fibers = self.internet.fluid_route(
                    link.node_host, link.nbr_host, link.carrier
                )
            route_cache[key] = fibers
        return fibers

    def _plan_flow(self, flow: FluidFlow, route_cache: dict) -> _Plan:
        plan = _Plan()
        nodes = self.network.nodes
        origin = flow.origin
        dst = flow.dst
        if dst.is_multicast:
            self._grow_tree(
                plan, -1, None, origin, None, dst.group, origin, route_cache,
                {origin},
            )
            return plan
        root = plan.add_node(origin, -1, None)
        if dst.node == origin:
            if dst.port in nodes[origin].session.clients:
                plan.nodes[root].ports = (dst.port,)
            return plan
        current, cur_idx = origin, root
        seen = {origin}
        while True:
            node = nodes[current]
            nxt = node.pipeline.fluid_next_hop(dst.node)
            if nxt is None or nxt in seen:
                # No overlay route (or a transient loop): packets would
                # be dropped mid-path — the flow delivers nothing this
                # interval, with the partial path still carrying load.
                return plan
            link = node.links.get(nxt)
            if link is None:
                return plan
            edge_idx = plan.add_edge(
                _Edge(link, self._resolve_link(link, route_cache))
            )
            cur_idx = plan.add_node(nxt, cur_idx, edge_idx)
            seen.add(nxt)
            current = nxt
            if current == dst.node:
                if dst.port in nodes[current].session.clients:
                    plan.nodes[cur_idx].ports = (dst.port,)
                return plan

    def _grow_tree(
        self, plan: _Plan, parent_idx: int, parent_id: str | None,
        node_id: str, edge_idx: int | None, group: str, origin: str,
        route_cache: dict, seen: set,
    ) -> None:
        """Walk the deterministic (origin, group) multicast tree exactly
        as hop-by-hop packet forwarding would, via each node's cached
        decide stage."""
        nodes = self.network.nodes
        node = nodes[node_id]
        idx = plan.add_node(node_id, parent_idx, edge_idx)
        ports = tuple(e.port for e in node.session.members(group))
        if ports:
            plan.nodes[idx].ports = ports
        for child in node.pipeline.fluid_multicast_children(origin, group):
            if child == parent_id or child in seen:
                continue
            link = node.links.get(child)
            if link is None:
                continue
            seen.add(child)
            child_edge = plan.add_edge(
                _Edge(link, self._resolve_link(link, route_cache))
            )
            self._grow_tree(
                plan, idx, node_id, child, child_edge, group, origin,
                route_cache, seen,
            )

    # -------------------------------------------------------------- reporting

    def summary(self) -> dict:
        """Engine-level snapshot (surfaced by ``OverlayNetwork.status``)."""
        return {
            "flows": len(self.flows),
            "resolves": self.resolves,
            "offered": self.counters.get("fluid.msgs-offered"),
            "delivered": self.counters.get("fluid.msgs-delivered"),
        }
