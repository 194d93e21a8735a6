"""Real-time audio-class link protocol (Fig 2's "Real-time Audio").

A middle ground between best-effort and full reliability: the receiver
asks once for a missing packet, the sender retransmits from a
time-bounded buffer, and nothing ever blocks or re-orders delivery.
Packets older than the usefulness window are simply forgotten.
"""

from __future__ import annotations

from repro.core.message import Frame, OverlayMessage
from repro.protocols.base import LinkProtocol

#: Sender keeps packets for retransmission at most this long.
BUFFER_AGE = 0.5

#: Receiver-side gap-detection delay before the single NACK.
NACK_DELAY = 0.002


class RealtimeProtocol(LinkProtocol):
    """Single-shot recovery from a time-bounded buffer."""

    name = "realtime"

    def __init__(self, node, link) -> None:
        super().__init__(node, link)
        self._next_seq = 0
        #: seq -> (send time, message) for seqs ``_oldest .. _next_seq - 1``:
        #: send times never decrease with seq, so the stale entries are
        #: always a prefix.
        self._buffer: dict[int, tuple[float, OverlayMessage]] = {}
        self._oldest = 0
        self._max_seen = -1
        self._received: set[int] = set()
        self._requested: set[int] = set()

    # ------------------------------------------------------------ sender

    def send(self, msg: OverlayMessage) -> bool:
        seq = self._next_seq
        self._next_seq += 1
        self._buffer[seq] = (self.sim._now, msg)
        self._prune()
        self.transmit("data", msg, link_seq=seq)
        return True

    def _prune(self) -> None:
        """Forget what is older than the usefulness window (the message
        just buffered never is, so the walk stops there at the latest)."""
        horizon = self.sim._now - BUFFER_AGE
        buffer = self._buffer
        seq = self._oldest
        while buffer[seq][0] < horizon:
            del buffer[seq]
            seq += 1
        self._oldest = seq

    def _on_nack(self, missing: list[int]) -> None:
        for seq in missing:
            entry = self._buffer.get(seq)
            if entry is not None:
                self.counters.add("realtime-retransmit")
                self.transmit("retrans", entry[1], link_seq=seq)

    # ---------------------------------------------------------- receiver

    def on_frame(self, frame: Frame) -> None:
        if not self.epoch_guard(frame):
            return
        if frame.ftype in ("data", "retrans"):
            self._on_data(frame)
        elif frame.ftype == "nack":
            self._on_nack(frame.info["missing"])

    def reset_peer_state(self) -> None:
        self._max_seen = -1
        self._received.clear()
        self._requested.clear()

    def _on_data(self, frame: Frame) -> None:
        seq = frame.link_seq
        if self._max_seen == -1 and seq > 32:
            self._max_seen = seq - 1  # mid-stream join: sync, no NACKs
        if seq in self._received:
            return
        self._received.add(seq)
        if seq > self._max_seen:
            gaps = [
                s
                for s in range(self._max_seen + 1, seq)
                if s not in self._received and s not in self._requested
            ]
            if gaps:
                self._requested.update(gaps)
                self.sim.schedule(NACK_DELAY, self._request, gaps)
            self._max_seen = seq
        if frame.msg is not None:
            self.deliver_up(frame.msg)
        if len(self._received) > 65536:
            floor = self._max_seen - 16384
            self._received = {s for s in self._received if s >= floor}
            self._requested = {s for s in self._requested if s >= floor}

    def _request(self, gaps: list[int]) -> None:
        still_missing = [s for s in gaps if s not in self._received]
        if still_missing:
            self.counters.add("realtime-nack")
            self.transmit("nack", info={"missing": still_missing})
