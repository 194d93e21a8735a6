"""Flow-based processing state (Sec II-C).

"From a client's perspective, a flow consists of a source, one or more
destinations, and the overlay services selected for that flow. ...
Within the overlay, application data flows may be aggregated based on
their source and destination overlay nodes or the services they
select, with state maintenance and processing performed on the
aggregate flows."

Every overlay node keeps a :class:`FlowTable`: one entry per flow it
has introduced, forwarded, or delivered, with live counters. It is fed
exclusively by the *classify* stage of the node's data-plane pipeline
(:class:`repro.core.pipeline.DataPlane` calls :meth:`FlowTable.observe`
once per role a message takes at the node) — the single place
per-flow accounting happens. The aggregation views group entries the
two ways the paper names — by (source node, destination node) pair and
by selected services — and are what an operator (or the fairness
schedulers' audits) see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.message import OverlayMessage, ServiceSpec


@dataclass
class FlowEntry:
    """Live state for one application flow at one overlay node."""

    flow: str
    src_node: str
    dst: str
    service: ServiceSpec
    first_seen: float
    last_seen: float
    messages: int = 0
    bytes: int = 0
    #: Modeled (fluid) traffic volumes settled onto this flow entry per
    #: rate interval — fractional, kept apart from the per-packet
    #: integer counters above.
    fluid_messages: float = 0.0
    fluid_bytes: float = 0.0
    #: How this node has touched the flow: any of {"origin",
    #: "forwarded", "delivered"}.
    roles: set = field(default_factory=set)

    def touch_fluid(self, now: float, role: str, messages: float,
                    nbytes: float) -> None:
        self.last_seen = now
        self.fluid_messages += messages
        self.fluid_bytes += nbytes
        self.roles.add(role)


class FlowTable:
    """Per-node registry of active flows with aggregation views."""

    def __init__(self, idle_timeout: float = 30.0, capacity: int = 100_000):
        self.idle_timeout = idle_timeout
        self.capacity = capacity
        self._entries: dict[str, FlowEntry] = {}

    def observe(self, msg: OverlayMessage, now: float, role: str) -> FlowEntry:
        """Classify ``msg`` into its flow entry (created on first sight)
        and fold in the per-flow counters; returns the entry."""
        entry = self._entries.get(msg.flow)
        if entry is None:
            entry = FlowEntry(
                flow=msg.flow,
                src_node=msg.origin,
                dst=str(msg.dst),
                service=msg.service,
                first_seen=now,
                last_seen=now,
            )
            self._entries[msg.flow] = entry
            if len(self._entries) > self.capacity:
                self.expire(now)
        entry.last_seen = now
        entry.messages += 1
        entry.bytes += msg.size
        entry.roles.add(role)
        return entry

    def observe_fluid(
        self,
        flow: str,
        src_node: str,
        dst: str,
        service: ServiceSpec,
        now: float,
        role: str,
        messages: float,
        nbytes: float,
    ) -> FlowEntry:
        """Settle one fluid rate interval's volume into the flow's entry
        (created on first sight) — the fluid half of :meth:`observe`,
        fed by the data-plane pipeline's *classify* stage only."""
        entry = self._entries.get(flow)
        if entry is None:
            entry = FlowEntry(
                flow=flow,
                src_node=src_node,
                dst=dst,
                service=service,
                first_seen=now,
                last_seen=now,
            )
            self._entries[flow] = entry
            if len(self._entries) > self.capacity:
                self.expire(now)
        entry.touch_fluid(now, role, messages, nbytes)
        return entry

    # ------------------------------------------------------------ views

    def entry(self, flow: str) -> FlowEntry | None:
        return self._entries.get(flow)

    def active(self, now: float) -> list[FlowEntry]:
        """Flows seen within the idle timeout, busiest first (packet
        plus modeled fluid volume; identical ordering when fluid mode
        is off, since every fluid counter is then zero)."""
        horizon = now - self.idle_timeout
        live = [e for e in self._entries.values() if e.last_seen >= horizon]
        return sorted(live, key=lambda e: (-(e.bytes + e.fluid_bytes), e.flow))

    def by_node_pair(self, now: float) -> dict[tuple[str, str], dict]:
        """Aggregate flows by (source node, destination) — the transit
        aggregation the paper describes."""
        return self._aggregate(now, key=lambda e: (e.src_node, e.dst))

    def by_service(self, now: float) -> dict[tuple[str, str], dict]:
        """Aggregate flows by (routing, link protocol) selection."""
        return self._aggregate(
            now, key=lambda e: (e.service.routing, e.service.link)
        )

    def _aggregate(self, now: float, key) -> dict:
        result: dict = {}
        for entry in self.active(now):
            bucket = result.setdefault(
                key(entry),
                {"flows": 0, "messages": 0, "bytes": 0,
                 "fluid_messages": 0.0, "fluid_bytes": 0.0},
            )
            bucket["flows"] += 1
            bucket["messages"] += entry.messages
            bucket["bytes"] += entry.bytes
            bucket["fluid_messages"] += entry.fluid_messages
            bucket["fluid_bytes"] += entry.fluid_bytes
        return result

    # --------------------------------------------------------- lifecycle

    def expire(self, now: float) -> int:
        """Drop flows idle past the timeout; returns how many."""
        horizon = now - self.idle_timeout
        stale = [f for f, e in self._entries.items() if e.last_seen < horizon]
        for flow in stale:
            del self._entries[flow]
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)
