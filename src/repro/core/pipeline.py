"""Flow-based data-plane pipeline (Sec II-C/II-D, Figs 2-3).

The paper's per-hop architecture is *flow-based processing*: every
message is classified into a flow and climbs a fixed stack at every
overlay node it touches. :class:`DataPlane` makes that stack explicit —
one instance per node, four named stages:

* **classify** — flow lookup/creation in the node's
  :class:`~repro.core.flows.FlowTable`, with per-flow counters and role
  accounting (origin / forwarded / delivered);
* **decide** — the routing-level forwarding decision: which neighbors
  (if any) the message goes to and whether it is delivered locally.
  Decisions come from the node's
  :class:`~repro.core.routing.RoutingService` but are memoized in a
  per-node :class:`ForwardingCache` keyed by the shared databases'
  content fingerprints, so converged steady-state forwarding is a dict
  hit instead of a route-table walk;
* **dispatch** — hand-off to the per-(neighbor, protocol) link
  instance, including adversary forward-interception (the single
  attach point for :class:`~repro.security.adversary.NodeBehavior`
  drop/delay/duplicate hooks on the send side);
* **deliver** — network-wide de-duplication, exact per flow
  (:class:`FlowSeqs`), plus the session interface at destination nodes.

Per-node processing delay (< 1 ms, Sec II-D) is paid once per hop, at
pipeline entry from a link protocol (:meth:`DataPlane.receive`), and
per-flow bookkeeping lives *only* here — node / link / session no
longer keep their own copies.

Cache invalidation rule
-----------------------

A forwarding decision is a pure function of (a) the shared connectivity
graph, (b) the shared group state, and (c) the node's identity plus its
per-generation cost baselines (adaptive routing) — all covered by the
PR-1 content fingerprints: any LSU/GSU that changes replica *content*
moves ``topo_db.fingerprint`` / ``group_db.fingerprint``. The cache
therefore keys every decision under the XOR of the two fingerprints
(its *generation*) and drops the whole decision table the moment the
generation moves (churn, partitions, cost drift) — there is no
per-entry invalidation to get wrong. Effectiveness and churn cost are
observable as ``fwd.hit`` / ``fwd.miss`` / ``fwd.invalidate``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.message import (
    Frame,
    LINK_IT_PRIORITY,
    LINK_IT_RELIABLE,
    OverlayMessage,
    SOURCE_BASED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.node import OverlayNode

DoneFn = Callable[[], None]

_MISS = object()  # sentinel: decision not cached (None is a valid decision)

#: Bound on a node's :class:`ForwardingCache`; the table is cleared
#: when it is exceeded.
FORWARDING_CACHE_SIZE = 65_536


class ForwardingCache:
    """Memoized forwarding decisions, invalidated wholesale by content
    fingerprint generation.

    Entries are keyed by (decision kind, destination/service
    parameters) — *not* by flow id, so flows sharing a destination and
    routing service share one decision (the paper's aggregate-flow
    processing, Sec II-C). The cache never invalidates entries
    individually: when the generation (the XOR of the topology and
    group content fingerprints) moves, every decision derived from the
    old shared state is stale together and the table is cleared in one
    ``fwd.invalidate``.

    Args:
        counters: Sink for ``fwd.hit`` / ``fwd.miss`` /
            ``fwd.invalidate`` / ``fwd.overflow``.
        capacity: Bound on cached decisions; exceeding it clears the
            table (counted as ``fwd.overflow``) — decisions rebuild on
            the next messages.
    """

    __slots__ = ("counters", "capacity", "_generation", "_decisions")

    def __init__(self, counters, capacity: int = FORWARDING_CACHE_SIZE):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.counters = counters
        self.capacity = capacity
        self._generation: int | None = None
        self._decisions: dict = {}

    def lookup(self, generation: int, key, compute: Callable):
        """The decision named ``key`` for shared-state ``generation``,
        computing (and caching) it on a miss."""
        if generation != self._generation:
            if self._decisions:
                self.counters.add("fwd.invalidate")
                self._decisions.clear()
            self._generation = generation
        value = self._decisions.get(key, _MISS)
        if value is not _MISS:
            self.counters.add("fwd.hit")
            return value
        self.counters.add("fwd.miss")
        value = compute()
        if len(self._decisions) >= self.capacity:
            self.counters.add("fwd.overflow")
            self._decisions.clear()
        self._decisions[key] = value
        return value

    def __len__(self) -> int:
        return len(self._decisions)


#: How far behind the highest seq a node forwarded on a flow it still
#: knows which links each seq went out on. A later copy is forwarded
#: once more along its bitmask (but its arrival link) and is still
#: delivered at most once. 16x the largest lag the goldens and the
#: benchmark workloads show (4 seqs).
SENT_WINDOW = 64


class FlowSeqs:
    """One node's de-duplication state for one flow (Sec I: redundant
    dissemination with de-duplication in the middle of the network).

    Client seqs are gapless from 0 (a message rejected at ingress uses
    none up), so ``top`` (one past the highest seq delivered here) and
    ``holes`` (the seqs below it never delivered) are exact with no
    capacity: RFC 4303 §3.4.3's anti-replay window without the window.
    ``masks`` holds the links each seq within :data:`SENT_WINDOW` of
    ``sent_top`` (the highest seq forwarded here) went out or came in on.
    """

    __slots__ = ("top", "holes", "masks", "sent_top")

    def __init__(self) -> None:
        self.top = 0
        self.holes: set[int] = set()
        self.masks: dict[int, int] = {}
        self.sent_top = -1

    def first_delivery(self, seq: int) -> bool:
        """Mark ``seq`` delivered; False if it already was."""
        top = self.top
        if seq >= top:
            if seq > top:
                self.holes.update(range(top, seq))
            self.top = seq + 1
            return True
        if seq in self.holes:
            self.holes.remove(seq)
            return True
        return False

    def unsent(self, seq: int, arrived: int, targets: tuple) -> Sequence:
        """The ``(neighbor, bit)`` pairs of ``targets`` that ``seq`` has
        not been forwarded on yet, all marked as forwarded now together
        with the ``arrived`` link bits."""
        masks = self.masks
        if seq > self.sent_top:
            self.sent_top = seq
            if len(masks) >= 2 * SENT_WINDOW:
                masks = self.masks = {s: m for s, m in masks.items()
                                      if s > seq - SENT_WINDOW}
        elif seq <= self.sent_top - SENT_WINDOW:
            return targets
        sent = masks.get(seq, 0) | arrived
        fresh = [pair for pair in targets if not sent >> pair[1] & 1]
        for __, bit in fresh:
            sent |= 1 << bit
        masks[seq] = sent
        return fresh


class DataPlane:
    """The explicit per-hop stack of one overlay node.

    Owns the hot path end to end: messages enter at :meth:`ingress`
    (local client) or :meth:`receive` (link protocol, paying the
    per-node processing delay), climb classify -> decide, and leave
    through :meth:`dispatch` (next hop) and/or :meth:`deliver` (local
    session). Adversary interception attaches here and only here — on
    the receive side via :meth:`intercept_frame`, on the send side
    inside :meth:`dispatch`.
    """

    def __init__(self, node: "OverlayNode") -> None:
        self.node = node
        self.sim = node.sim
        self.config = node.config
        self.counters = node.counters
        self.routing = node.routing
        self.session = node.session
        self.flows = node.flows
        #: De-duplication state by flow.
        self.seqs: defaultdict[str, FlowSeqs] = defaultdict(FlowSeqs)
        #: The *classify* stage: flow lookup/creation plus per-flow
        #: counters, called once per role a message takes at this node.
        self._classify = node.flows.observe
        self._topo = node.topo_db
        self._groups = node.group_db
        auditor = node.network.auditor
        if auditor is not None:
            # Audited overlays memoize through the coherence-checking
            # cache variant; the plain class below is untouched when
            # auditing is off (zero overhead — this branch is the only
            # cost, paid once at construction).
            from repro.audit import AuditedForwardingCache

            self.cache = AuditedForwardingCache(auditor, node)
        else:
            self.cache = ForwardingCache(node.counters)

    # ----------------------------------------------------------- entries

    def ingress(self, msg: OverlayMessage, done: DoneFn | None = None) -> bool:
        """A local client introduces ``msg`` into the overlay. Returns
        False if the message was rejected immediately (backpressure)."""
        msg.origin = self.node.id
        msg.sent_at = self.sim._now
        if msg.service.routing in SOURCE_BASED:
            msg.bitmask = self._origin_bitmask(msg)
            if msg.bitmask == 0 and not msg.dst.is_group and msg.dst.node != self.node.id:
                self.counters.add("no-overlay-route")
                return False
        if msg.dst.is_anycast:
            msg.target = self._anycast_target(msg.dst.group)
            if msg.target is None:
                self.counters.add("anycast-no-member")
                return False
        self._classify(msg, self.sim._now, "origin")
        sign_delay = self._sign_delay(msg)
        if sign_delay > 0:
            self.sim.schedule(sign_delay, self._run, msg, None, None, done)
            return True
        return self._run(msg, None, None, done)

    def receive(self, from_nbr: str, msg: OverlayMessage,
                done: DoneFn | None = None) -> None:
        """Entry point for data messages arriving from a neighbor named
        by id — applies the per-node processing delay (Sec II-D) before
        the message climbs the stack."""
        arrival_bit = None
        link = self.node.links.get(from_nbr)
        if link is not None:
            arrival_bit = link.bit
        self.sim.schedule(
            self.config.proc_delay, self._run, msg, from_nbr, arrival_bit, done
        )

    def receive_from_link(self, link, msg: OverlayMessage,
                          done: DoneFn | None = None) -> None:
        """Hot-path variant of :meth:`receive` for link protocols, which
        already hold their :class:`~repro.core.link.OverlayLink` — the
        arrival bit is read off the link, skipping the neighbor lookup."""
        self.sim.schedule(
            self.config.proc_delay, self._run, msg, link.nbr_id, link.bit, done
        )

    def intercept_frame(self, frame: Frame) -> bool:
        """Receive-side adversary interception (Sec IV-B threat model):
        returns False when a compromised node's behaviour swallows the
        frame before any processing."""
        behavior = self.node.behavior
        if behavior is not None and not behavior.on_receive_frame(self.node, frame):
            self.counters.add("adversary-swallowed")
            return False
        return True

    def _sign_delay(self, msg: OverlayMessage) -> float:
        if msg.service.link in (LINK_IT_PRIORITY, LINK_IT_RELIABLE):
            return self.config.crypto_sign_delay
        return 0.0

    # ---------------------------------------------------------- classify

    def classify_fluid(self, flow: str, src_node: str, dst: str, service,
                       role: str, messages: float, nbytes: float):
        """*classify* stage for fluid traffic: the fluid engine settles
        each rate interval into the same per-node flow table packets
        feed, so operators see one aggregate view. Counts are modeled
        (fractional) message/byte volumes, not per-packet events."""
        return self.flows.observe_fluid(
            flow, src_node, dst, service, self.sim.now, role, messages, nbytes
        )

    # ------------------------------------------------------ fluid decide

    def fluid_next_hop(self, dst_node: str) -> str | None:
        """Decide-stage entry for the fluid engine's path walk: the
        *same* memoized unicast decision packets use, so fluid path
        assignments hit, miss, and invalidate with the ForwardingCache
        generation exactly as packet decisions do."""
        return self._next_hop(dst_node)

    def fluid_multicast_children(self, origin: str, group: str) -> tuple:
        """Decide-stage entry for fluid multicast tree walks (cached
        per generation like the packet path's)."""
        return self._multicast_children(origin, group)

    # ------------------------------------------------------------ decide

    def _run(
        self,
        msg: OverlayMessage,
        from_nbr: str | None,
        arrival_bit: int | None,
        done: DoneFn | None = None,
    ) -> bool:
        """Climb the stack for one message: classify (forwarded role),
        decide, then dispatch/deliver. Returns False only for an
        immediate origin-side rejection."""
        if from_nbr is not None:
            msg.ttl -= 1
            if msg.ttl <= 0:
                self.counters.add("overlay-ttl-exceeded")
                return True
            self.counters.add("forwarded")
            self._classify(msg, self.sim._now, "forwarded")
        if msg.service.routing in SOURCE_BASED:
            self._forward_source_based(msg, arrival_bit, done)
            return True
        return self._forward_link_state(msg, from_nbr, done)

    def _decide(self, key, compute):
        """The memoized decision ``key`` under the current generation:
        topology XOR group content fingerprint, so either database
        moving invalidates."""
        return self.cache.lookup(
            self._topo.fingerprint ^ self._groups.fingerprint, key, compute
        )

    def _next_hop(self, dst_node: str) -> str | None:
        """Cached link-state unicast decision: next hop toward a node."""
        return self._decide(
            ("ucast", dst_node), lambda: self.routing.next_hop(dst_node)
        )

    def _multicast_children(self, origin: str, group: str) -> tuple:
        """Cached multicast decision: this node's children in the
        (origin, group) tree."""
        return self._decide(
            ("mcast", origin, group),
            lambda: tuple(self.routing.multicast_children(origin, group)),
        )

    def _anycast_target(self, group: str) -> str | None:
        """Cached anycast decision: the nearest member node."""
        return self._decide(
            ("acast", group), lambda: self.routing.anycast_target(group)
        )

    def _reachable(self, target: str) -> bool:
        """Cached reachability (anycast mid-path re-resolution check)."""
        return self._decide(
            ("reach", target),
            lambda: self.routing.distance(self.node.id, target) is not None,
        )

    def _bitmask_targets(self, bitmask: int, arrival_bit: int | None) -> tuple:
        """Cached source-based decision: (neighbor, bit) pairs named by
        ``bitmask`` at this node (excluding the arrival link)."""
        return self._decide(
            ("sb", bitmask, arrival_bit),
            lambda: tuple(self.routing.bitmask_neighbors(bitmask, arrival_bit)),
        )

    def _origin_bitmask(self, msg: OverlayMessage) -> int:
        """Cached origin-side dissemination decision: the bitmask of
        overlay links a source-routed message may traverse."""
        service = msg.service
        if msg.dst.is_group:
            return self._decide(
                ("gmask", msg.dst.group, service),
                lambda: self.routing.group_bitmask(msg.dst.group, service),
            )
        return self._decide(
            ("smask", msg.dst.node, service),
            lambda: self.routing.source_bitmask(msg.dst.node, service),
        )

    # --------------------------------------------- decide -> dispatch glue

    def _forward_link_state(
        self, msg: OverlayMessage, from_nbr: str | None, done: DoneFn | None
    ) -> bool:
        if msg.dst.is_multicast:
            self._forward_multicast(msg, from_nbr, done)
            return True
        if msg.dst.is_anycast:
            return self._forward_anycast(msg, done)
        if msg.dst.node == self.node.id:
            self.deliver(msg)
            done and done()
            return True
        nxt = self._next_hop(msg.dst.node)
        if nxt is None:
            self.counters.add("no-overlay-route")
            done and done()
            return False
        return self.dispatch(nxt, msg, done)

    def _forward_multicast(
        self, msg: OverlayMessage, from_nbr: str | None, done: DoneFn | None
    ) -> None:
        group = msg.dst.node
        if self.session.has_members(group):
            self.deliver(msg)
        children = [
            c for c in self._multicast_children(msg.origin, group)
            if c != from_nbr
        ]
        if not children:
            done and done()
            return
        tracker = _AcceptTracker(len(children), done)
        for child in children:
            self.dispatch(child, msg, tracker.accept_one)

    def _forward_anycast(self, msg: OverlayMessage, done: DoneFn | None) -> bool:
        if msg.target == self.node.id:
            self.deliver(msg)
            done and done()
            return True
        if msg.target is None or not self._reachable(msg.target):
            msg.target = self._anycast_target(msg.dst.group)
            if msg.target is None:
                self.counters.add("anycast-no-member")
                done and done()
                return False
            if msg.target == self.node.id:
                self.deliver(msg)
                done and done()
                return True
        nxt = self._next_hop(msg.target)
        if nxt is None:
            self.counters.add("no-overlay-route")
            done and done()
            return False
        return self.dispatch(nxt, msg, done)

    def _forward_source_based(
        self, msg: OverlayMessage, arrival_bit: int | None, done: DoneFn | None
    ) -> None:
        if self._is_local_destination(msg):
            self.deliver(msg)
        targets = self.seqs[msg.flow].unsent(
            msg.seq, 0 if arrival_bit is None else 1 << arrival_bit,
            self._bitmask_targets(msg.bitmask, arrival_bit))
        if not targets:
            done and done()
            return
        tracker = _AcceptTracker(len(targets), done)
        for nbr, __ in targets:
            self.dispatch(nbr, msg, tracker.accept_one)

    def _is_local_destination(self, msg: OverlayMessage) -> bool:
        if msg.dst.is_multicast:
            return self.session.has_members(msg.dst.group)
        if msg.dst.is_anycast:
            return msg.target == self.node.id
        return msg.dst.node == self.node.id

    # ---------------------------------------------------------- dispatch

    def dispatch(
        self,
        nbr: str,
        msg: OverlayMessage,
        accepted: DoneFn | None = None,
        intercept: bool = True,
    ) -> bool:
        """*dispatch* stage: hand ``msg`` to the per-(neighbor, protocol)
        link instance, honoring backpressure. ``intercept=False`` skips
        the adversary hook (used by behaviours re-injecting messages
        they already intercepted, e.g. delayed or duplicated copies)."""
        node = self.node
        if intercept and node.behavior is not None:
            if not node.behavior.on_forward(node, msg, nbr):
                self.counters.add("adversary-dropped")
                # Report acceptance so upstream state is released; the
                # adversary is *lying*, which is exactly the threat the
                # redundant dissemination schemes are built for.
                accepted and accepted()
                return True
        protocol = node.protocol_for(nbr, msg.service.link)
        ok = protocol.send(msg)
        if ok:
            accepted and accepted()
            return True
        if accepted is not None and getattr(protocol, "supports_backpressure", False):
            protocol.when_space(lambda: self.dispatch(nbr, msg, accepted))
            return True
        self.counters.add("send-rejected")
        return False

    # ----------------------------------------------------------- deliver

    def deliver(self, msg: OverlayMessage) -> None:
        """*deliver* stage: network-wide de-duplication (redundantly
        transmitted or adversarially duplicated copies reach the client
        exactly once, however late), then the session interface."""
        if not self.seqs[msg.flow].first_delivery(msg.seq):
            self.counters.add("duplicate-suppressed")
            return
        self._classify(msg, self.sim._now, "delivered")
        self.session.deliver_local(msg)


class _AcceptTracker:
    """Invokes ``done`` once all of N downstream accepts have happened."""

    __slots__ = ("remaining", "done")

    def __init__(self, n: int, done: DoneFn | None) -> None:
        self.remaining = n
        self.done = done

    def accept_one(self) -> None:
        self.remaining -= 1
        if self.remaining == 0 and self.done is not None:
            self.done()
