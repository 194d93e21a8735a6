"""The session interface (Fig 2, top level).

Manages client connections on virtual ports, local group membership
(the node-local half of the two-level hierarchy), and egress delivery:
unordered flows are handed to clients immediately; ordered flows pass
through a per-flow reorder buffer at the *final destination* only —
intermediate nodes forward out of order (Sec III-A), which is what makes
hop-by-hop recovery smooth.

For flows with a deadline, the reorder buffer will not wait for a
missing message beyond the point where the messages behind it would
blow their own deadlines; recovered messages arriving after later ones
were already delivered are discarded (Sec IV-A).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.message import OverlayMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import OverlayNode

MessageCallback = Callable[[OverlayMessage], None]


class ClientEndpoint:
    """A connected client on one virtual port."""

    def __init__(self, port: int, on_message: MessageCallback | None,
                 label: str) -> None:
        self.port = port
        self.on_message = on_message
        self.groups: set[str] = set()
        #: ``"node:port"`` — the destination of every delivery record.
        self.label = label


class ReorderBuffer:
    """Per-flow in-order delivery at the egress node."""

    def __init__(self, session: "SessionManager", endpoint: ClientEndpoint) -> None:
        self.session = session
        self.endpoint = endpoint
        self.next_seq: int | None = None  # synced to the first arrival
        self.pending: dict[int, OverlayMessage] = {}
        self._skip_event = None

    def push(self, msg: OverlayMessage) -> None:
        if self.next_seq is None:
            # Group receivers may join mid-stream: their in-order window
            # starts at the first sequence number they see. Unicast
            # flows are point-to-point and always start at 0 — their
            # first message may simply have been lost and recovered.
            self.next_seq = msg.seq if msg.dst.is_group else 0
        if msg.seq < self.next_seq:
            self.session.node.counters.add("late-discarded")
            return
        if msg.seq in self.pending:
            return
        self.pending[msg.seq] = msg
        self._flush()
        if self.pending and msg.service.deadline is not None:
            self._arm_skip(msg.service.deadline)

    def close(self) -> None:
        """The endpoint disconnected: stop the pending gap skip."""
        if self._skip_event is not None:
            self._skip_event.cancel()
            self._skip_event = None

    def _flush(self) -> None:
        while self.next_seq in self.pending:
            msg = self.pending.pop(self.next_seq)
            self.next_seq += 1
            self.session.hand_to_client(self.endpoint, msg)
        if not self.pending and self._skip_event is not None:
            self._skip_event.cancel()
            self._skip_event = None

    def _arm_skip(self, deadline: float) -> None:
        """Give up on a gap once the oldest *buffered* message would blow
        its own deadline by waiting longer."""
        if self._skip_event is not None:
            return
        oldest = min(self.pending.values(), key=lambda m: m.seq)
        fire_at = oldest.sent_at + deadline
        sim = self.session.node.sim
        delay = max(0.0, fire_at - sim.now)
        self._skip_event = sim.schedule(delay, self._skip)

    def _skip(self) -> None:
        self._skip_event = None
        if not self.pending:
            return
        skipped_to = min(self.pending)
        self.session.node.counters.add(
            "reorder-skipped", skipped_to - self.next_seq
        )
        self.next_seq = skipped_to
        self._flush()
        if self.pending:
            deadline = next(iter(self.pending.values())).service.deadline
            if deadline is not None:
                self._arm_skip(deadline)


class SessionManager:
    """Client connections and local delivery for one overlay node."""

    def __init__(self, node: "OverlayNode") -> None:
        self.node = node
        self.clients: dict[int, ClientEndpoint] = {}
        self._reorder: dict[tuple[int, str], ReorderBuffer] = {}
        #: group -> its local member endpoints in connection order,
        #: filled on first use and dropped whole whenever a connection
        #: or a membership changes.
        self._members: dict[str, tuple[ClientEndpoint, ...]] = {}

    # ------------------------------------------------------ connections

    def register(self, port: int, on_message: MessageCallback | None) -> ClientEndpoint:
        if port in self.clients:
            raise ValueError(f"port {port} already in use on {self.node.id}")
        endpoint = ClientEndpoint(port, on_message, f"{self.node.id}:{port}")
        self.clients[port] = endpoint
        self._members.clear()
        self._poke_fluid()
        return endpoint

    def unregister(self, port: int) -> None:
        endpoint = self.clients.pop(port, None)
        self._members.clear()
        # The port's in-order windows die with the connection: a later
        # client on the same port starts its flows afresh.
        for key in [k for k in self._reorder if k[0] == port]:
            self._reorder.pop(key).close()
        if endpoint is not None and endpoint.groups:
            self.node.originate_gsu()
        self._poke_fluid()

    def _poke_fluid(self) -> None:
        """Local endpoint/membership changes move fluid delivery plans
        (which endpoints a flow's weight lands on) without necessarily
        moving the shared group fingerprint — a re-solve boundary. The
        listener list is empty whenever fluid mode is off."""
        internet = self.node.network.internet
        if internet.fluid_listeners:
            internet._poke_fluid("membership")

    # ------------------------------------------------------ group state

    def join(self, port: int, group: str) -> None:
        """A local client joins a group; node-level interest is flooded
        only when it changes (two-level hierarchy, Sec II-B)."""
        had = self.has_members(group)
        self.clients[port].groups.add(group)
        self._members.clear()
        if not had:
            self.node.originate_gsu()
        else:
            self._poke_fluid()

    def leave(self, port: int, group: str) -> None:
        groups = self.clients[port].groups
        if group not in groups:
            return  # nothing changed: no GSU, no fluid re-solve
        groups.remove(group)
        self._members.clear()
        if not self.has_members(group):
            self.node.originate_gsu()
        else:
            self._poke_fluid()

    def local_groups(self) -> set[str]:
        groups: set[str] = set()
        for endpoint in self.clients.values():
            groups |= endpoint.groups
        return groups

    def members(self, group: str) -> tuple[ClientEndpoint, ...]:
        """Local endpoints joined to ``group``, in connection order."""
        found = self._members.get(group)
        if found is None:
            found = self._members[group] = tuple(
                e for e in self.clients.values() if group in e.groups
            )
        return found

    def has_members(self, group: str) -> bool:
        return bool(self.members(group))

    # --------------------------------------------------------- delivery

    def deliver_local(self, msg: OverlayMessage) -> None:
        """Egress fan-out to local clients — the back half of the
        pipeline's *deliver* stage (de-duplication and per-flow
        accounting already happened in
        :meth:`repro.core.pipeline.DataPlane.deliver`)."""
        targets = self._local_targets(msg)
        if not targets:
            self.node.counters.add("no-local-client")
            return
        for endpoint in targets:
            if msg.service.ordered:
                self._reorder_buffer(endpoint, msg.flow).push(msg)
            else:
                self.hand_to_client(endpoint, msg)

    def _local_targets(self, msg: OverlayMessage) -> tuple[ClientEndpoint, ...]:
        dst = msg.dst
        if dst.is_group:
            return self.members(dst.node)
        endpoint = self.clients.get(dst.port)
        return (endpoint,) if endpoint is not None else ()

    def _reorder_buffer(self, endpoint: ClientEndpoint, flow: str) -> ReorderBuffer:
        key = (endpoint.port, flow)
        if key not in self._reorder:
            self._reorder[key] = ReorderBuffer(self, endpoint)
        return self._reorder[key]

    def hand_to_client(self, endpoint: ClientEndpoint, msg: OverlayMessage) -> None:
        self.node.network.trace.record_delivery(
            msg.flow,
            msg.seq,
            msg.sent_at,
            self.node.sim._now,
            destination=endpoint.label,
            size=msg.size,
        )
        if endpoint.on_message is not None:
            endpoint.on_message(msg)
