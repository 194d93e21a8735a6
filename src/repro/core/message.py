"""Overlay addressing, per-flow service selection, messages, and frames.

Addressing mimics IP-plus-port (Sec II-B): a client is identified by
the overlay node it connects to and a virtual port. Multicast and
anycast groups live in the same address space, distinguished by a
``mcast:`` / ``acast:`` name prefix instead of a node name.

A flow is (source address, destination address) plus the overlay
services the client selected for it (Sec II-C); every message is
self-describing, carrying its :class:`ServiceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

#: Bytes of overlay header per message on the wire.
OVERLAY_HEADER_BYTES = 32
#: Bytes of link-level header per frame on the wire.
LINK_HEADER_BYTES = 16

MCAST_PREFIX = "mcast:"
ACAST_PREFIX = "acast:"


@dataclass(frozen=True)
class Address:
    """An overlay endpoint: (node-or-group, virtual port).

    The kind flags are a function of ``node`` alone, so they are settled
    once at construction — every hop of every message reads them."""

    node: str
    port: int = 0
    is_multicast: bool = field(init=False, compare=False, repr=False)
    is_anycast: bool = field(init=False, compare=False, repr=False)
    is_group: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        mcast = self.node.startswith(MCAST_PREFIX)
        acast = self.node.startswith(ACAST_PREFIX)
        object.__setattr__(self, "is_multicast", mcast)
        object.__setattr__(self, "is_anycast", acast)
        object.__setattr__(self, "is_group", mcast or acast)

    @property
    def group(self) -> str:
        """The group name for group addresses (the full prefixed name)."""
        if not self.is_group:
            raise ValueError(f"{self} is not a group address")
        return self.node

    def __str__(self) -> str:
        return f"{self.node}:{self.port}"


# Routing services (Fig 2, routing level).
ROUTING_LINK_STATE = "link-state"  #: hop-by-hop shortest path / trees
ROUTING_DISJOINT = "disjoint"  #: source-based, k node-disjoint paths
ROUTING_FLOOD = "flood"  #: source-based constrained flooding
ROUTING_GRAPH = "graph"  #: source-based dissemination graph (src+dst)
#: Source-based dissemination graph chosen from *current* conditions:
#: redundancy is added around the source/destination only when the
#: shared connectivity graph shows degradation there ([2], Sec V-A).
ROUTING_ADAPTIVE = "adaptive-graph"
#: Source-based single explicit path: the flow pins the exact node path
#: via the ``path`` service param (used by ODSBR-style routing, Sec VI).
ROUTING_PATH = "source-path"

SOURCE_BASED = (
    ROUTING_DISJOINT,
    ROUTING_FLOOD,
    ROUTING_GRAPH,
    ROUTING_ADAPTIVE,
    ROUTING_PATH,
)

# Link-level protocols (Fig 2, link level). The names key into the
# protocol registry in :mod:`repro.protocols`.
LINK_BEST_EFFORT = "best-effort"
LINK_RELIABLE = "reliable"
LINK_REALTIME = "realtime"
LINK_NM_STRIKES = "nm-strikes"
LINK_SINGLE_STRIKE = "single-strike"
LINK_IT_PRIORITY = "it-priority"
LINK_IT_RELIABLE = "it-reliable"
LINK_FIFO = "fifo"  #: shared drop-tail queue; fairness baseline
LINK_FEC = "fec"  #: extension protocol: XOR-parity forward error correction


@dataclass(frozen=True)
class ServiceSpec:
    """The overlay services a client selects for one flow.

    Attributes:
        routing: One of the routing service names above.
        link: Link-level protocol name.
        k: Number of node-disjoint paths (``disjoint`` routing).
        ordered: Deliver in order at the egress node (final-destination
            buffering, Sec III-A).
        deadline: Seconds after sending at which a message stops being
            useful; ordered delivery will skip past messages this late,
            and deadline-aware protocols budget recovery inside it.
        priority: Message priority (IT-Priority messaging).
        params: Protocol tuning as a sorted tuple of (name, value) pairs
            (kept hashable so specs can key protocol aggregates).
    """

    routing: str = ROUTING_LINK_STATE
    link: str = LINK_BEST_EFFORT
    k: int = 2
    ordered: bool = False
    deadline: float | None = None
    priority: int = 1
    params: tuple = ()

    @staticmethod
    def make(routing: str = ROUTING_LINK_STATE, link: str = LINK_BEST_EFFORT,
             **kwargs: Any) -> "ServiceSpec":
        """Convenience constructor accepting params as keywords."""
        fields = {"k", "ordered", "deadline", "priority"}
        base = {k: v for k, v in kwargs.items() if k in fields}
        extra = tuple(sorted((k, v) for k, v in kwargs.items() if k not in fields))
        return ServiceSpec(routing=routing, link=link, params=extra, **base)

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def with_params(self, **kwargs: Any) -> "ServiceSpec":
        merged = dict(self.params)
        merged.update(kwargs)
        return replace(self, params=tuple(sorted(merged.items())))


@dataclass(slots=True)
class OverlayMessage:
    """One application message traversing the overlay.

    Attributes:
        flow: Flow identifier string (derived from src/dst/service).
        seq: Per-flow sequence number assigned at the origin.
        src: Source address.
        dst: Destination address (may be a group).
        service: Selected overlay services.
        origin: Overlay node that introduced the message.
        sent_at: Simulated time the client sent it.
        payload: Opaque application payload.
        size: Payload size in bytes.
        bitmask: For source-based routing, the set of overlay links the
            message may traverse (one bit per link, Sec II-B).
        target: For anycast, the member node selected as the delivery
            target (re-resolved mid-path if it becomes unreachable).
        ttl: Overlay-hop budget guarding against transient routing loops.
    """

    flow: str
    seq: int
    src: Address
    dst: Address
    service: ServiceSpec
    origin: str
    sent_at: float
    payload: Any = None
    size: int = 0
    bitmask: int = 0
    target: str | None = None
    ttl: int = 32

    @property
    def wire_size(self) -> int:
        return self.size + OVERLAY_HEADER_BYTES


@dataclass(slots=True)
class Frame:
    """A link-level frame between two neighboring overlay nodes.

    Frames carry either an :class:`OverlayMessage` (``msg``) or protocol
    control information (``info``). ``proto`` selects which protocol
    instance on the receiving node handles the frame; ``ftype`` is
    protocol-specific ("data", "ack", "nack", "req", ...).
    """

    proto: str
    ftype: str
    src_node: str
    dst_node: str
    link_seq: int = 0
    msg: OverlayMessage | None = None
    info: dict = field(default_factory=dict)
    #: Explicit wire size for frames whose cost is not captured by the
    #: default accounting (e.g. FEC parity frames).
    wire_override: int | None = None
    #: Authentication token (set when the overlay authenticates frames;
    #: Sec IV-B — every node can verify messages originate from
    #: authorized overlay nodes).
    auth: Any = None

    @property
    def wire_size(self) -> int:
        if self.wire_override is not None:
            return self.wire_override
        base = LINK_HEADER_BYTES
        if self.msg is not None:
            return base + self.msg.wire_size
        # Control frames: 8 bytes per info entry, where a nested mapping
        # (e.g. a hello's per-carrier feedback dict) counts per entry —
        # flattening it to one entry would undercount control bytes.
        entries = len(self.info)
        for value in self.info.values():
            if type(value) is dict:
                entries += len(value) - 1
        return base + 8 * max(1, entries)


def state_record_bytes(info: Mapping) -> int:
    """Wire bytes of one shared-state record inside a ``state`` control
    frame: 8 B per scalar — origin, seq, and one per entry of the record
    (a neighbour cost or a group name). The link header is paid once per
    frame, so a frame costs ``LINK_HEADER_BYTES`` + the sum of these."""
    return 8 * (2 + len(info["record"]))


def flow_id(src: Address, dst: Address, service: ServiceSpec) -> str:
    """Stable flow identifier for a (source, destination, service) triple."""
    return f"{src}->{dst}/{service.routing}/{service.link}"
