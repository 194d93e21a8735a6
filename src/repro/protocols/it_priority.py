"""Intrusion-tolerant Priority messaging (Sec IV-B, [1]).

Timely service for monitoring-class traffic that stays fair even when a
compromised source launches a resource-consumption attack: each source
gets its own bounded buffer, the outgoing link serves active sources
round-robin, and when a source's buffer overflows, the *oldest
lowest-priority* message of that source is dropped — so a flooder only
ever floods itself.

Messages are authenticated; ``OverlayConfig.crypto_verify_delay``
models the per-message verification cost at each hop.
"""

from __future__ import annotations

from collections import deque

from repro.core.message import Frame, OverlayMessage
from repro.protocols.base import LinkProtocol, PacedSender

#: Per-source buffer bound (messages).
SOURCE_BUFFER = 64


class ITPriorityProtocol(LinkProtocol):
    """Per-source buffers + round-robin + priority drop."""

    name = "it-priority"

    def __init__(self, node, link) -> None:
        super().__init__(node, link)
        self.verify_delay = self.config.crypto_verify_delay
        self._queues: dict[str, deque[OverlayMessage]] = {}
        self._rr: deque[str] = deque()
        self._backlog = 0  # messages queued across all sources
        self._pacer = PacedSender(
            self.sim, self.config.access_capacity_bps, self._dequeue
        )
        self._link_seq = 0

    # ------------------------------------------------------------ sender

    def send(self, msg: OverlayMessage) -> bool:
        source = str(msg.src)
        queue = self._queues.get(source)
        if queue is None:
            queue = deque()
            self._queues[source] = queue
            self._rr.append(source)
        if len(queue) >= SOURCE_BUFFER:
            self._drop_for(queue, msg)
        else:
            queue.append(msg)
            self._backlog += 1
        self._pacer.kick()
        return True  # Priority messaging never blocks the caller.

    def _drop_for(self, queue: deque, msg: OverlayMessage) -> None:
        """Buffer full: drop this source's oldest lowest-priority message
        if the new one matters at least as much; otherwise drop the new
        one. Only *this source's* traffic pays (fairness)."""
        victim_idx = None
        victim_priority = None
        for idx, queued in enumerate(queue):  # oldest first
            if victim_priority is None or queued.service.priority < victim_priority:
                victim_idx = idx
                victim_priority = queued.service.priority
        if victim_priority is not None and msg.service.priority >= victim_priority:
            del queue[victim_idx]
            queue.append(msg)
        self.counters.add("it-priority-dropped")

    def _dequeue(self):
        """Round-robin across sources with queued messages."""
        if not self._backlog:
            return None  # a full turn of empty queues changes nothing
        for __ in range(len(self._rr)):
            source = self._rr[0]
            self._rr.rotate(-1)
            queue = self._queues.get(source)
            if queue:
                msg = queue.popleft()
                self._backlog -= 1
                seq = self._link_seq
                self._link_seq += 1
                return (
                    msg.wire_size,
                    lambda m=msg, s=seq: self.transmit("data", m, link_seq=s),
                )
        return None

    # ---------------------------------------------------------- receiver

    def on_frame(self, frame: Frame) -> None:
        if frame.ftype == "data" and frame.msg is not None:
            self.deliver_up(frame.msg)
