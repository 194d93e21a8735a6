"""The overlay node daemon (Fig 2).

An :class:`OverlayNode` is both a server (it accepts client connections
through its session interface) and a router (it forwards packets for
other overlay nodes). Incoming link-level frames are dispatched to the
control handler (hellos, link-state and group-state updates) or to the
per-(neighbor, protocol) link-protocol instance; data messages climb
the node's :class:`~repro.core.pipeline.DataPlane` — the explicit
classify -> decide -> dispatch / deliver stack of Sec II-C/II-D, which
owns per-flow accounting, the fingerprint-invalidated forwarding cache,
per-node processing delay, and adversary interception.

This module keeps the *control plane*: hello-driven link state, LSU/GSU
origination and flooding, database sync on adjacency bring-up, crash /
recovery, and the (neighbor, protocol) instance registry.

Shared state travels packed (DESIGN.md "State flood packing"): flooding
and database sync only *queue* records into a per-neighbour outbox, and
one zero-delay flush per node per simulated instant packs each outbox
into ``state`` control frames of at most :data:`STATE_FRAME_BYTES`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.link import OverlayLink
from repro.core.flows import FlowTable
from repro.core.linkstate import GroupDatabase, TopologyDatabase
from repro.core.message import (
    LINK_HEADER_BYTES,
    Frame,
    OverlayMessage,
    state_record_bytes,
)
from repro.core.pipeline import DataPlane
from repro.core.routing import RoutingService
from repro.core.session import SessionManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.network import OverlayNetwork

DoneFn = Callable[[], None]

#: Interval for checking advertised-vs-measured link cost drift.
METRIC_CHECK_INTERVAL = 1.0

#: Largest ``state`` control frame on the wire, link header included
#: (one underlay MTU's worth of records, as Spines packs them). A single
#: record larger than this still travels, alone in its frame.
STATE_FRAME_BYTES = 1400


def _pack(pending: dict[tuple[str, str], dict]):
    """Split one outbox, in queueing order, into ``(records, wire
    bytes)`` bundles that respect :data:`STATE_FRAME_BYTES`."""
    batch: list[tuple[str, dict]] = []
    size = LINK_HEADER_BYTES
    for (kind, __), info in pending.items():
        nbytes = state_record_bytes(info)
        if batch and size + nbytes > STATE_FRAME_BYTES:
            yield batch, size
            batch, size = [], LINK_HEADER_BYTES
        batch.append((kind, info))
        size += nbytes
    yield batch, size


class OverlayNode:
    """One overlay daemon, living on an underlay host."""

    def __init__(self, network: "OverlayNetwork", node_id: str, host: str) -> None:
        self.network = network
        self.id = node_id
        self.host = host
        self.sim = network.sim
        self.config = network.config
        self.counters = network.counters

        if network.auditor is not None:  # the plain classes when off
            from repro.audit import AuditedGroupDatabase, AuditedTopologyDatabase

            self.topo_db = AuditedTopologyDatabase(
                network.auditor, network.counters)
            self.group_db = AuditedGroupDatabase(
                network.auditor, network.counters)
        else:
            self.topo_db = TopologyDatabase(network.counters)
            self.group_db = GroupDatabase(network.counters)
        #: The shared-state replicas by record kind (Sec II-B): one
        #: origination, flood, apply and sync path serves both.
        self.replicas = {"lsu": self.topo_db, "gsu": self.group_db}
        self.routing = RoutingService(
            node_id, self.topo_db, self.group_db, network.link_index,
            engine=network.route_engine,
        )
        self.session = SessionManager(self)
        #: Flow-based processing state (Sec II-C): every flow this node
        #: originates, forwards, or delivers, with live counters.
        self.flows = FlowTable()
        self.links: dict[str, OverlayLink] = {}
        self.protocols: dict[tuple[str, str], object] = {}
        #: Adversary hook (see :mod:`repro.security.adversary`); ``None``
        #: for correct nodes. Interception attaches inside the pipeline.
        self.behavior = None
        #: The data-plane stack (classify/decide/dispatch/deliver) with
        #: its fingerprint-invalidated forwarding cache.
        self.pipeline = DataPlane(self)

        #: Shared-state records waiting for this instant's flush:
        #: ``{neighbor: {(kind, origin): info}}`` — a later record of the
        #: same kind and origin replaces the earlier one in place.
        self._outbox: dict[str, dict[tuple[str, str], dict]] = {}
        self._flush_armed = False
        self._superseded = 0

        #: This node's last originated seq per record kind.
        self._seqs = dict.fromkeys(self.replicas, 0)
        self._advertised: dict[str, float | None] = {}
        self._started = False
        self._refresh_timer = None
        self._metric_timer = None
        self._protocol_epochs = 0
        self.crashed = False

    def next_protocol_epoch(self) -> str:
        """Unique epoch for a fresh protocol instance (see
        :meth:`repro.protocols.base.LinkProtocol.epoch_guard`)."""
        self._protocol_epochs += 1
        return f"{self.id}#{self._protocol_epochs}"

    # ----------------------------------------------------------- startup

    def start(self) -> None:
        """Start the daemon: hello probing on every link plus the
        initial and periodic link-state/group-state floods."""
        if self._started:
            return
        self._started = True
        for link in self.links.values():
            link.start()
        self._refresh_tick()
        self._refresh_timer = self.sim.schedule_periodic(
            self.config.lsu_refresh, self._refresh_tick
        )
        self._metric_timer = self.sim.schedule_periodic(
            METRIC_CHECK_INTERVAL, self._metric_tick
        )

    def _refresh_tick(self) -> None:
        """Announce both records (periodically, at start and recovery)."""
        self.originate_lsu()
        self.originate_gsu()

    def _metric_tick(self) -> None:
        """Originate a fresh LSU when measured link costs have drifted
        from what we last advertised (loss storms reroute via this)."""
        threshold = self.config.cost_change_threshold
        for nbr, link in self.links.items():
            old = self._advertised.get(nbr)
            new = link.cost()
            if old is None or new is None:
                changed = (old is None) != (new is None)
            else:
                changed = abs(new - old) > threshold * max(old, 1e-9)
            if changed:
                self.originate_lsu()
                break

    # ------------------------------------------------------ shared state

    def originate_lsu(self) -> None:
        """Flood this node's current link-state record (Connectivity
        Graph Maintenance)."""
        costs = {nbr: link.cost() for nbr, link in self.links.items()}
        self._advertised = costs
        self._originate("lsu", costs)

    def originate_gsu(self) -> None:
        """Flood this node's group-interest record (Group State)."""
        self._originate("gsu", self.session.local_groups())

    def _originate(self, kind: str, content) -> None:
        """Flood this node's ``kind`` record with ``content``. The flood
        carries one record value that every accepting replica stores; a
        refresh re-sends the stored one."""
        self._seqs[kind] += 1
        db = self.replicas[kind]
        record = db.record(self.id)
        if record != content:
            record = db.record_type(self.id, content)
        info = {"origin": self.id, "seq": self._seqs[kind], "record": record}
        self._apply(kind, info)
        self._flood(kind, info)

    def _apply(self, kind: str, info: dict) -> bool:
        """Fold one shared-state record into the local replica; True if
        it was new (should re-flood)."""
        db = self.replicas[kind]
        fluid = self.network.internet.fluid_listeners
        before = db.fingerprint if fluid else 0
        accepted = db.update(info["origin"], info["seq"], info["record"])
        # Content (not just version) moved: the forwarding-cache
        # generation this node's fluid path assignments were resolved
        # under is stale — same invalidation moment the packet pipeline
        # sees (a fluid re-solve boundary).
        if accepted and fluid and db.fingerprint != before:
            self.network.internet._poke_fluid(kind)
        return accepted

    def _flood(self, kind: str, info: dict, exclude: str | None = None) -> None:
        for nbr in self.links:
            if nbr != exclude:
                self._queue(nbr, kind, info)

    def _queue(self, nbr: str, kind: str, info: dict) -> None:
        """Put one record into ``nbr``'s outbox and make sure this
        instant's flush is scheduled. The flush is armed when the first
        record is queued, so it fires after every delivery already
        queued for this instant and the bundle leaves at the simulated
        time the individual records would have."""
        if self.crashed:
            return
        pending = self._outbox.get(nbr)
        if pending is None:
            pending = self._outbox[nbr] = {}
        key = (kind, info["origin"])
        if key in pending:
            self._superseded += 1
        pending[key] = info
        if not self._flush_armed:
            self._flush_armed = True
            self.sim.schedule(0.0, self._flush)

    def _flush(self) -> None:
        """Pack every outbox into ``state`` frames of at most
        :data:`STATE_FRAME_BYTES` and transmit them."""
        self._flush_armed = False
        outbox, self._outbox = self._outbox, {}
        records = frames = 0
        for nbr, pending in outbox.items():
            link = self.links[nbr]
            for batch, size in _pack(pending):
                link.transmit(Frame(
                    proto="control", ftype="state", src_node=self.id,
                    dst_node=nbr, info={"records": batch}, wire_override=size,
                ))
                frames += 1
            records += len(pending)
        if frames:
            self.counters.add("flood.records", records)
            self.counters.add("flood.frames", frames)
        if self._superseded:
            self.counters.add("flood.superseded", self._superseded)
            self._superseded = 0

    def _on_link_state_change(self, link: OverlayLink) -> None:
        self.counters.add(f"link-{'up' if link.up else 'down'}")
        self.originate_lsu()
        if link.up:
            # Adjacency bring-up: exchange full databases with the new
            # neighbor (as OSPF does), so a freshly (re)started or
            # long-partitioned node is consistent within one RTT instead
            # of waiting out the periodic refresh — transient routing
            # loops through stale state die here.
            self._sync_neighbor(link)

    def _sync_neighbor(self, link: OverlayLink) -> None:
        nbr = link.nbr_id
        for kind, db in self.replicas.items():
            for origin in db.origins():
                self._queue(nbr, kind, {"origin": origin, "seq": db.seq(origin),
                                        "record": db.record(origin)})

    # ------------------------------------------------- warm-start support

    def warm_state(self) -> dict:
        """Snapshot this node's control-plane scalars (JSON-shaped).
        Database records, link endpoint state, and timer schedules are
        captured by the snapshot layer, which owns their shared /
        queue-resident parts."""
        return {
            **{f"{kind}_seq": seq for kind, seq in self._seqs.items()},
            "advertised": dict(self._advertised),
            "protocol_epochs": self._protocol_epochs,
        }

    def restore_warm(self, state: dict) -> None:
        """Install a :meth:`warm_state` snapshot into this (unstarted)
        node and mark it started — link state, databases, and timers
        are restored separately by the snapshot layer."""
        if self._started:
            raise RuntimeError(f"node {self.id} already started")
        self._started = True
        self._seqs = {kind: state[f"{kind}_seq"] for kind in self._seqs}
        self._advertised = dict(state["advertised"])
        self._protocol_epochs = state["protocol_epochs"]

    # ---------------------------------------------------------- receive

    def crash(self) -> None:
        """Fail-stop the daemon: it stops sending (hellos included) and
        ignores everything it receives. Neighbors detect the silence
        within the hello-miss budget and the overlay routes around it;
        :meth:`recover` brings the node back with fresh state."""
        self.crashed = True
        self._outbox.clear()  # queued records die with the daemon
        for link in self.links.values():
            link.muted = True

    def recover(self) -> None:
        """Restart a crashed daemon (protocol state was lost)."""
        self.crashed = False
        self.protocols.clear()
        for link in self.links.values():
            link.muted = False
        self._refresh_tick()

    def receive_frame(self, frame: Frame) -> None:
        """Entry point for every frame arriving from the underlay."""
        if self.crashed:
            return
        if self.network.keystore is not None and not self._authenticate(frame):
            self.counters.add("auth-rejected")
            return
        if self.behavior is not None and not self.pipeline.intercept_frame(frame):
            return
        if frame.proto == "control":
            self._handle_control(frame)
            return
        protocol = self.protocol_for(frame.src_node, frame.proto)
        protocol.on_frame(frame)

    def receive_hello(self, link, carrier: str, seq: int, ts: float,
                      feedback: dict, wire: int) -> None:
        """Entry point for a hello neighbor ``link`` sent without a
        frame (``Internet.send_hello``): a keystore or a behaviour here
        reads it as the frame :meth:`receive_frame` takes."""
        if self.behavior is not None or self.network.keystore is not None:
            self.receive_frame(link.hello_frame(carrier, seq, ts, feedback,
                                                wire))
        elif not self.crashed:
            self.links[link.node_id].hello(carrier, seq, ts, feedback)

    def _authenticate(self, frame: Frame) -> bool:
        """Sec IV-B: with a keystore deployed, a frame is accepted only
        if it carries a valid signature by its claimed sending node.
        (A *compromised* node holds valid credentials and passes — that
        is exactly why the IT services exist.)"""
        keystore = self.network.keystore
        if keystore is None:
            return True
        if frame.auth is None:
            return False
        return (
            frame.auth.identity == frame.src_node
            and keystore.verify(frame.auth, (frame.proto, frame.ftype, frame.link_seq))
        )

    def _handle_control(self, frame: Frame) -> None:
        if frame.ftype == "hello":
            link = self.links.get(frame.src_node)
            if link is not None:
                link.on_hello(frame.info)
        elif frame.ftype == "state":
            for kind, info in frame.info["records"]:
                if kind not in self.replicas:
                    self.counters.add("unknown-control")
                elif self._apply(kind, info):
                    self._flood(kind, info, exclude=frame.src_node)
        else:
            self.counters.add("unknown-control")

    # ------------------------------------------------------- link level

    def protocol_for(self, nbr: str, proto_name: str):
        """The (neighbor, protocol) aggregate instance, created on first
        use (flows selecting the same protocol share it — Sec II-C's
        aggregate-flow processing)."""
        key = (nbr, proto_name)
        protocol = self.protocols.get(key)
        if protocol is None:
            from repro.protocols import create_protocol

            link = self.links.get(nbr)
            if link is None:
                raise KeyError(f"{self.id} has no overlay link to {nbr}")
            protocol = self.protocols[key] = create_protocol(proto_name, self, link)
        return protocol

    # -------------------------------------------------------- data plane

    def deliver_up(self, from_nbr: str, msg: OverlayMessage,
                   done: DoneFn | None = None) -> None:
        """Called by link protocols when a data message is ready for the
        routing level — enters the pipeline (which pays the per-node
        processing delay)."""
        self.pipeline.receive(from_nbr, msg, done)
