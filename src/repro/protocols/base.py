"""Common machinery for link-level protocols."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.core.message import Frame, OverlayMessage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.link import OverlayLink
    from repro.core.node import OverlayNode

DoneFn = Callable[[], None]


def _epoch_index(epoch: str) -> int:
    """Monotonic per-node counter embedded in an epoch string."""
    return int(epoch.rsplit("#", 1)[1])


class LinkProtocol:
    """Base class: one instance per (node, neighbor, protocol).

    Subclasses implement :meth:`send` (routing level hands a message
    down) and :meth:`on_frame` (a frame arrived from the neighbor), and
    use :meth:`transmit` / :meth:`deliver_up` to talk to the wire and
    the routing level. ``verify_delay`` models per-message
    authentication cost (used by the intrusion-tolerant protocols).
    """

    name = "abstract"
    supports_backpressure = False

    def __init__(self, node: "OverlayNode", link: "OverlayLink") -> None:
        self.node = node
        self.link = link
        self.sim = node.sim
        self.config = node.config
        self.nbr = link.nbr_id
        self.counters = node.counters
        self.verify_delay = 0.0
        #: Instance epoch, stamped on every frame. A peer seeing a new
        #: epoch knows this side's protocol state restarted (e.g. after
        #: a daemon crash/recovery) and resets its own receiver state —
        #: otherwise the fresh instance's link sequence numbers would be
        #: mistaken for ancient duplicates.
        self.epoch = node.next_protocol_epoch()
        self._peer_epoch = None

    # ------------------------------------------------------------ hooks

    def send(self, msg: OverlayMessage) -> bool:
        """Accept a message for transmission. Returns False only when the
        protocol applies backpressure (see ``supports_backpressure``)."""
        raise NotImplementedError

    def on_frame(self, frame: Frame) -> None:
        """Handle a frame that arrived from the peer instance."""
        raise NotImplementedError

    def when_space(self, callback: DoneFn) -> None:
        """Invoke ``callback`` once the protocol can accept more traffic.
        Protocols without backpressure have space by definition."""
        callback()

    def epoch_guard(self, frame: Frame) -> bool:
        """Call at the top of :meth:`on_frame`. Returns False for frames
        from a *stale* peer instance (in flight when the peer restarted)
        — the caller must ignore them. A newer epoch resets
        receiver-side state once."""
        epoch = frame.info.get("ep")
        if epoch is None or epoch == self._peer_epoch:
            return True
        if self._peer_epoch is not None:
            if _epoch_index(epoch) < _epoch_index(self._peer_epoch):
                self.counters.add("protocol-stale-epoch-frame")
                return False
            self.counters.add("protocol-peer-restart")
            self.reset_peer_state()
        self._peer_epoch = epoch
        return True

    def reset_peer_state(self) -> None:
        """Discard receiver-side state about the peer (it restarted).
        Stateless protocols need not override."""

    # --------------------------------------------------------- plumbing

    def default(self, key: str, fallback: Any) -> Any:
        """Config-level default for this protocol (overridable per run
        via ``OverlayConfig.protocol_defaults``)."""
        return self.config.protocol_defaults.get(self.name, {}).get(key, fallback)

    def param(self, msg: OverlayMessage, key: str, fallback: Any) -> Any:
        """Per-flow tuning: message service params, then config defaults."""
        value = msg.service.param(key)
        if value is not None:
            return value
        return self.default(key, fallback)

    def transmit(
        self,
        ftype: str,
        msg: OverlayMessage | None = None,
        link_seq: int = 0,
        info: dict | None = None,
    ) -> None:
        """Send a frame of this protocol to the peer (epoch-stamped)."""
        if info is None:
            info = {"ep": self.epoch}
        else:
            info["ep"] = self.epoch
        # Positional (proto, ftype, src, dst, link_seq, msg, info): this
        # constructor runs once per frame, and keywords double its cost.
        self.link.transmit(
            Frame(self.name, ftype, self.node.id, self.nbr, link_seq, msg, info)
        )

    def deliver_up(self, msg: OverlayMessage, done: DoneFn | None = None) -> None:
        """Hand a message to the data-plane pipeline (which applies the
        per-node processing delay and climbs classify -> decide), paying
        the per-message authentication cost first when one is
        configured. The protocol passes its own link object so the
        pipeline learns the arrival bit without a neighbor lookup."""
        pipeline = self.node.pipeline
        if self.verify_delay > 0:
            self.sim.schedule(
                self.verify_delay, pipeline.receive_from_link, self.link, msg, done
            )
        else:
            pipeline.receive_from_link(self.link, msg, done)


class PacedSender:
    """Serializes outgoing frames at a configured access capacity.

    The intrusion-tolerant protocols schedule *which* message goes next
    (fair round-robin); the pacer decides *when* the link can take it.
    ``source()`` must return ``(wire_size, send_fn)`` or ``None``.
    """

    def __init__(self, sim, capacity_bps: float | None, source) -> None:
        self.sim = sim
        self.capacity_bps = capacity_bps
        self.source = source
        self._busy = False
        #: Recycled serialization timer — one object across all frames.
        self._tx_timer = sim.timer(self._tx_done)

    def kick(self) -> None:
        """Try to transmit the next frame (no-op while serializing)."""
        if self._busy:
            return
        item = self.source()
        if item is None:
            return
        wire_size, send_fn = item
        send_fn()
        if self.capacity_bps is None:
            # Uncapped: chain through a zero-delay event to stay fair.
            tx_time = 0.0
        else:
            tx_time = wire_size * 8.0 / self.capacity_bps
        self._busy = True
        self._tx_timer.reschedule(tx_time)

    def _tx_done(self) -> None:
        self._busy = False
        self.kick()
