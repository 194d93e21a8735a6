"""The client API — a socket-like interface to the overlay (Sec II-B).

A client connects to an overlay node (its access node), gets a virtual
port, and from then on sends and receives application messages. Every
:meth:`OverlayClient.send` names a destination address (unicast,
multicast, or anycast) and the :class:`~repro.core.message.ServiceSpec`
selecting the routing and link protocols for that flow — "each client
specifies the particular overlay services that should be used for its
flow".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.message import Address, OverlayMessage, ServiceSpec, flow_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import OverlayNode

#: The services of a flow that selected none (specs are immutable).
_DEFAULT_SERVICE = ServiceSpec()


class OverlayClient:
    """A client connected to one overlay node on a virtual port."""

    def __init__(
        self,
        node: "OverlayNode",
        port: int,
        on_message: Callable[[OverlayMessage], None] | None = None,
    ) -> None:
        self.node = node
        self.port = port
        #: This client's overlay address (node id + virtual port).
        self.address = Address(node.id, port)
        self._endpoint = node.session.register(port, on_message)
        #: What every message of a flow shares, resolved once per
        #: (destination, service): the flow id and the trace's
        #: destination label.
        self._flows: dict[tuple[Address, ServiceSpec], tuple[str, str]] = {}
        self._seq: dict[str, int] = {}

    # ---------------------------------------------------------- sending

    def send(
        self,
        dst: Address,
        payload: Any = None,
        size: int = 1000,
        service: ServiceSpec | None = None,
        done: Callable[[], None] | None = None,
    ) -> bool:
        """Send one message on the flow (self -> ``dst``, ``service``).

        Returns False if the overlay rejected the message at the source
        (no route, empty anycast group, or backpressure from an
        IT-Reliable flow's full buffer).
        """
        spec = service if service is not None else _DEFAULT_SERVICE
        key = (dst, spec)
        resolved = self._flows.get(key)
        if resolved is None:
            resolved = self._flows[key] = (
                flow_id(self.address, dst, spec), str(dst))
        flow, dst_label = resolved
        seq = self._seq.get(flow, 0)
        node = self.node
        msg = OverlayMessage(
            flow=flow,
            seq=seq,
            src=self.address,
            dst=dst,
            service=spec,
            origin=node.id,
            sent_at=node.sim._now,
            payload=payload,
            size=size,
        )
        accepted = node.pipeline.ingress(msg, done)
        if not accepted:
            # The message never entered the overlay: the flow's sequence
            # space stays gapless for the egress reorder buffers.
            return False
        self._seq[flow] = seq + 1
        node.network.trace.record_send(flow, seq, node.sim._now, size, dst_label)
        return True

    # ----------------------------------------------------------- groups

    def join(self, group: str) -> None:
        """Join a multicast/anycast group (receivers join; any client may
        send to a group without joining — Sec III-B)."""
        self.node.session.join(self.port, group)

    def leave(self, group: str) -> None:
        """Leave a previously joined group."""
        self.node.session.leave(self.port, group)

    def close(self) -> None:
        """Disconnect from the overlay, releasing the port and any
        group interest this client held."""
        self.node.session.unregister(self.port)
