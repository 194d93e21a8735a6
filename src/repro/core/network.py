"""Overlay deployment: assemble nodes and links over an Internet.

:class:`OverlayNetwork` instantiates one :class:`OverlayNode` per site,
wires :class:`OverlayLink` endpoints for every overlay edge (with the
multihomed carrier list for that pair of sites), and exposes the client
API plus the shared trace/counter sinks used by experiments.

Multiple overlays can run in parallel over the same Internet — simply
construct several :class:`OverlayNetwork` objects (Sec II-B: "multiple
overlays can even be run in parallel").
"""

from __future__ import annotations

import os
from operator import is_
from typing import Callable, Iterable, Sequence

from repro.core.client import OverlayClient
from repro.core.compute import RouteComputeEngine
from repro.core.config import OverlayConfig
from repro.core.link import OverlayLink
from repro.core.message import OverlayMessage
from repro.core.node import OverlayNode
from repro.core.routing import LinkIndex
from repro.net.internet import Internet
from repro.sim.trace import Counter, TraceCollector


def _check_fidelity(config: OverlayConfig) -> None:
    """The three ``columnar*`` fields are one bit — the batched tier is
    armed iff ``columnar_window`` is set — and must say the same thing.
    (A window that is set but not positive is rejected by
    :meth:`~repro.net.internet.Internet.enable_vectorized`.)"""
    columnar, vectorized = config.columnar, config.columnar_vectorized
    batched = config.columnar_window != 0
    if columnar == vectorized == batched:
        return
    if columnar and not (vectorized or batched):
        raise ValueError(
            "columnar=True on its own selected the timer-wheel engine, "
            "which was deleted: the heap is the one event engine. The "
            "batched tier is columnar=True, columnar_vectorized=True and "
            "columnar_window > 0 together"
        )
    raise ValueError(
        f"columnar={columnar}, columnar_vectorized={vectorized} and "
        f"columnar_window={config.columnar_window!r} disagree: the batched "
        "tier needs all three (columnar_window > 0), the exact tier none"
    )


class OverlayNetwork:
    """A deployed structured overlay.

    Args:
        internet: The underlay to deploy over.
        sites: Overlay node ids mapped to host names; a plain sequence
            of names uses each name as both node id and host.
        links: Overlay edges as (node_id, node_id) pairs. Keep them
            short (~10 ms) per Sec II-A — not a clique.
        config: Overlay tuning; defaults are the paper's operating point.
        carriers: Optional override ``{frozenset({a, b}): [carrier, ...]}``;
            by default each link may use every ISP shared by its two
            hosts, then the native interdomain path.
    """

    def __init__(
        self,
        internet: Internet,
        sites: Sequence[str] | dict[str, str],
        links: Iterable[tuple[str, str]],
        config: OverlayConfig | None = None,
        carriers: dict | None = None,
        keystore=None,
    ) -> None:
        self.internet = internet
        self.sim = internet.sim
        self.rngs = internet.rngs
        self.config = config if config is not None else OverlayConfig()
        _check_fidelity(self.config)
        if self.config.columnar_window:
            internet.enable_vectorized(self.config.columnar_window)
        self.trace = TraceCollector()
        self.counters = Counter()
        #: The runtime invariant auditor (:mod:`repro.audit`), armed by
        #: ``config.audit`` or ``REPRO_AUDIT=1`` and None otherwise —
        #: the audit-off path never imports the package and constructs
        #: the plain cache classes below (zero overhead when off).
        self.auditor = None
        if self.config.audit or os.environ.get("REPRO_AUDIT", "") not in ("", "0"):
            from repro.audit import (
                AuditedRouteComputeEngine,
                Auditor,
                audit_transits,
            )

            self.auditor = Auditor(counters=self.counters, network=self)
            audit_transits(internet, self.auditor)
        #: Network-wide content-addressed route computation: every
        #: node's RoutingService delegates here, so replicas that have
        #: converged on the same shared state reuse one Dijkstra table /
        #: multicast tree / dissemination edge set instead of each
        #: recomputing it. Cache effectiveness shows up in the
        #: ``route.compute`` / ``route.hit`` / ``route.evict`` counters.
        if self.auditor is not None:
            self.route_engine = AuditedRouteComputeEngine(
                self.auditor,
                counters=self.counters,
                capacity=self.config.route_cache_size,
            )
        else:
            self.route_engine = RouteComputeEngine(
                counters=self.counters,
                capacity=self.config.route_cache_size,
            )
        #: When set (a :class:`repro.security.crypto.KeyStore`), every
        #: frame is signed by its sending node and verified on receipt:
        #: only authorized overlay nodes can speak on the overlay
        #: (Sec IV-B). Compromised-but-valid nodes still pass — which is
        #: why the IT routing/fairness schemes exist on top.
        self.keystore = keystore
        if keystore is not None:
            for node_id in sites:  # dict iterates node ids too
                keystore.register(node_id)

        if isinstance(sites, dict):
            site_hosts = dict(sites)
        else:
            site_hosts = {name: name for name in sites}
        self.link_index = LinkIndex(links)
        self.nodes: dict[str, OverlayNode] = {
            node_id: OverlayNode(self, node_id, host)
            for node_id, host in site_hosts.items()
        }
        for bit in range(len(self.link_index)):
            a, b = self.link_index.pair(bit)
            self._wire_link(a, b, bit, carriers)
        self._next_auto_port = 50_000
        #: Lazily constructed fluid traffic engine (hybrid flow-level
        #: mode, :mod:`repro.core.fluid`); ``None`` until first use, in
        #: which case the packet timeline is byte-identical to a build
        #: without fluid support.
        self._fluid = None

    def _wire_link(self, a: str, b: str, bit: int, carriers: dict | None) -> None:
        node_a, node_b = self.nodes[a], self.nodes[b]
        if carriers is not None and frozenset((a, b)) in carriers:
            candidate = list(carriers[frozenset((a, b))])
        else:
            candidate = self.internet.carriers(node_a.host, node_b.host)
        link_ab = OverlayLink(
            self.sim, self.internet, a, node_a.host, b, node_b.host,
            candidate, bit, self.config, node_a._on_link_state_change,
        )
        link_ba = OverlayLink(
            self.sim, self.internet, b, node_b.host, a, node_a.host,
            candidate, bit, self.config, node_b._on_link_state_change,
        )
        link_ab.deliver_to_peer = node_b.receive_frame
        link_ba.deliver_to_peer = node_a.receive_frame
        if self.keystore is not None:
            link_ab.sign_frame = self._signer_for(a)
            link_ba.sign_frame = self._signer_for(b)
        node_a.links[b] = link_ab
        node_b.links[a] = link_ba

    def _signer_for(self, node_id: str):
        keystore = self.keystore

        def sign(frame):
            frame.auth = keystore.sign(
                node_id, (frame.proto, frame.ftype, frame.link_seq)
            )

        return sign

    # ----------------------------------------------------------- control

    def start(self) -> None:
        """Start every overlay daemon (hellos, state flooding)."""
        for node in self.nodes.values():
            node.start()

    def warm_up(self, duration: float = 2.0) -> None:
        """Start and run the simulation until links are up and the shared
        state has flooded — the steady state experiments begin from."""
        self.start()
        self.sim.run(until=self.sim.now + duration)

    def quiesce(self) -> float:
        """Run the simulation forward until only auto-periodic timer
        work remains queued (no in-flight datagrams, floods, or one-shot
        continuations) and return the quiesced instant — the moment a
        converged overlay can be snapshotted as pure timer schedule plus
        protocol state (:mod:`repro.core.warmstart`)."""
        from repro.sim.snapshot import quiesce

        return quiesce(self.sim)

    def converged(self) -> bool:
        """True when every link is up and every node's connectivity
        graph agrees (used by tests and warm-up assertions)."""
        for node in self.nodes.values():
            for link in node.links.values():
                if not link.up:
                    return False
        # Replicas holding the same records hold the same row objects,
        # so rows compare by identity first; only rows that differ in
        # identity are compared as neighbour sets.
        reference = origins = rows = None
        for node in self.nodes.values():
            adj = node.routing.adjacency()
            if reference is None:
                reference, origins, rows = adj, list(adj), list(adj.values())
                continue
            if adj is reference or (list(adj) == origins
                                    and all(map(is_, adj.values(), rows))):
                continue
            if len(adj) != len(reference):
                return False
            for u, row in adj.items():
                ref = reference.get(u)
                if row is not ref and (ref is None or row.keys() != ref.keys()):
                    return False
        return True

    # ----------------------------------------------------------- clients

    def client(
        self,
        node_id: str,
        port: int | None = None,
        on_message: Callable[[OverlayMessage], None] | None = None,
    ) -> OverlayClient:
        """Connect a client to ``node_id`` (auto-assigning a port if not
        given) — the equivalent of opening an overlay socket."""
        if port is None:
            port = self._next_auto_port
            self._next_auto_port += 1
        return OverlayClient(self.nodes[node_id], port, on_message)

    def node(self, node_id: str) -> OverlayNode:
        """The overlay daemon deployed at ``node_id``."""
        return self.nodes[node_id]

    # ------------------------------------------------------------- fluid

    def fluid_engine(self):
        """The overlay's fluid traffic engine
        (:class:`repro.core.fluid.FluidEngine`), created and registered
        on the underlay on first use. Until this is called, the overlay
        runs pure packet-level with zero fluid overhead."""
        if self._fluid is None:
            from repro.core.fluid import FluidEngine

            self._fluid = FluidEngine(self)
        return self._fluid

    # --------------------------------------------------------- adversary

    def compromise(self, node_id: str, behavior) -> None:
        """Install an adversarial behavior on one overlay node (Sec IV-B's
        threat model: the attacker holds the node's credentials)."""
        self.nodes[node_id].behavior = behavior

    def crash(self, node_id: str) -> None:
        """Fail-stop one overlay node (fault injection)."""
        self.nodes[node_id].crash()

    def recover(self, node_id: str) -> None:
        """Restart a crashed overlay node."""
        self.nodes[node_id].recover()

    # ----------------------------------------------------------- metrics

    def status(self) -> dict:
        """Operational snapshot of the whole overlay: per-node link
        states (carrier, cost, estimates), active-flow aggregates, the
        size of each node's forwarding-decision cache, and the global
        counters (including the data plane's ``fwd.hit`` / ``fwd.miss``
        / ``fwd.invalidate``) — what a deployment's status page shows."""
        nodes = {}
        for node_id, node in self.nodes.items():
            links = {}
            for nbr, link in node.links.items():
                links[nbr] = {
                    "up": link.up,
                    "carrier": link.carrier,
                    "latency_ms": (
                        link.latency_est * 1000 if link.latency_est else None
                    ),
                    "loss": round(link.loss_est, 4),
                    "cost": link.cost(),
                    "switches": link.switch_count,
                    "data_bytes": link.data_bytes_sent,
                }
            nodes[node_id] = {
                "crashed": node.crashed,
                "links": links,
                "clients": len(node.session.clients),
                "groups": sorted(node.session.local_groups()),
                "active_flows": len(node.flows.active(self.sim.now)),
                "flows_by_service": node.flows.by_service(self.sim.now),
                "fwd_decisions": len(node.pipeline.cache),
            }
        snapshot = {
            "time": self.sim.now,
            "converged": self.converged(),
            "nodes": nodes,
            "counters": self.counters.as_dict(),
        }
        if self._fluid is not None:
            snapshot["fluid"] = self._fluid.summary()
        return snapshot

    def format_status(self) -> str:
        """The :meth:`status` snapshot as readable text."""
        snapshot = self.status()
        lines = [
            f"overlay status @ t={snapshot['time']:.3f}s "
            f"(converged={snapshot['converged']})"
        ]
        for node_id, node in sorted(snapshot["nodes"].items()):
            state = "CRASHED" if node["crashed"] else "up"
            lines.append(
                f"  {node_id} [{state}] clients={node['clients']} "
                f"flows={node['active_flows']} groups={node['groups']}"
            )
            for nbr, link in sorted(node["links"].items()):
                lat = f"{link['latency_ms']:.1f}ms" if link["latency_ms"] else "?"
                lines.append(
                    f"    -> {nbr}: {'up' if link['up'] else 'DOWN'} "
                    f"via {link['carrier']} lat={lat} loss={link['loss']}"
                )
        return "\n".join(lines)

    def overlay_path(self, src: str, dst: str) -> list[str] | None:
        """Current overlay-level path from src's point of view."""
        node = self.nodes[src]
        path = [src]
        current = src
        seen = {src}
        while current != dst:
            current = self.nodes[current].routing.next_hop(dst)
            if current is None or current in seen:
                return None
            path.append(current)
            seen.add(current)
        return path
