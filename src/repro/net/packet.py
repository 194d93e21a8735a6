"""Underlay datagram model.

The underlay offers an unreliable datagram service, exactly like UDP
over IP: the overlay's link level hands a :class:`Datagram` to
:meth:`repro.net.internet.Internet.send` and may or may not see it come
out at the destination host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_ids = itertools.count()

#: Fixed per-datagram header overhead (IP + UDP), bytes.
HEADER_BYTES = 28


@dataclass(slots=True)
class Datagram:
    """One underlay datagram.

    Attributes:
        src: Sending host name.
        dst: Receiving host name.
        payload: Opaque payload (the overlay message object).
        size: Payload size in bytes (header overhead added on the wire).
        sent_at: Stamped by the Internet when the datagram enters it.
        uid: Unique id, for tracing.
    """

    src: str
    dst: str
    payload: Any
    size: int
    sent_at: float = 0.0
    uid: int = field(default_factory=_ids.__next__)
    #: Internal: the queued event that fires this datagram's next step
    #: (a hop or its delivery). Every send, demotion and repush sets it;
    #: delivery and drop clear it. Never user-facing.
    _chain: Any = field(default=None, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        """Bytes occupied on the wire, including header overhead."""
        return self.size + HEADER_BYTES
