"""The multi-ISP Internet: hosts, carriers, and datagram delivery.

Hosts (overlay nodes and clients live on hosts) attach to one or more
ISP backbones — the paper's *multihoming*. A datagram is sent via a
chosen **carrier**:

* an ISP name — an *on-net* path staying inside that provider (both
  hosts must be attached to it), routed by the ISP's own domain; or
* :data:`NATIVE` — the end-to-end "native Internet" path crossing
  providers through peering points, routed by an interdomain domain
  whose tables take ~40 s to reconverge after a failure (the BGP
  behaviour of Sec II-A).

Physical fibers are shared between an ISP's domain and the interdomain
domain, so one cut affects every path over that fiber.

There is one datagram send path: :meth:`Internet.send` is
:meth:`Internet.send_via` over a cached :class:`Channel`. From there a
datagram walks fiber by fiber (one ``_hop`` event per router) or, over
a quiet transit (every fiber crossing on it decided), is settled in one
step (``_transit``) at its send or at a hop and demoted back to the
walk when the underlay changes (``_demote_transits``);
``datagram._chain`` is the one queued event that fires its next step,
so a hop only re-queues its own event. An overlay hello settled at its
send (``send_hello``) is no datagram. The batched tier
(:meth:`Internet.enable_vectorized`) is the same lanes on a grid: every
landing instant, a walked fiber's or a settled transit's, is rounded
up to its window.

The contract with the walk is what ``tests/test_underlay_model.py``
checks on twin stacks, and nothing beyond it: the same fates and
instants, counters, per-fiber totals once drained, heap accounting and
conservation, and the same order of callbacks on a schedule whose sends,
changes, markers and run boundaries tie on a grid — except the one case
DESIGN.md "Per-hop budget" documents. Ties at intermediate hops (fiber
delays on that grid) are outside it.
"""

from __future__ import annotations

from math import ceil
from typing import Any, Callable

from repro.net.backbone import FiberLink, RoutingDomain
from repro.net.loss import LossModel
from repro.net.packet import HEADER_BYTES, Datagram
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Counter

#: Carrier name selecting the end-to-end interdomain path.
NATIVE = "native"

#: Drop reasons reported to ``on_drop`` callbacks and counted.
DROP_NO_ROUTE = "no-route"
DROP_LINK = "link-loss"
DROP_TTL = "ttl-exceeded"

_MAX_HOPS = 64

DeliverFn = Callable[[Datagram], None]
DropFn = Callable[[Datagram, str], None]


class _PathProfile:
    """A resolved underlay transit: the router it starts from, the
    ordered fibers (and the router at the far end of each) the current
    forwarding tables would walk. It records nothing about the fibers'
    state: whoever settles on it reads that live. Profiles live in
    :attr:`Internet._path_cache`."""

    __slots__ = ("domain", "start", "links", "routers", "n_hops")

    def __init__(self, domain, start, links, routers, n_hops):
        self.domain = domain
        self.start = start
        self.links = links
        self.routers = routers
        self.n_hops = n_hops


class Channel:
    """A pre-resolved (src host, dst host, carrier) sending context.

    Resolving a carrier — picking the routing domain and the source /
    destination router labels — costs several dict lookups per datagram.
    For fixed channels like an overlay link's hello stream, the overlay
    fetches a :class:`Channel` once via :meth:`Internet.channel` and
    sends through it (:meth:`Internet.send_via`, :meth:`~Internet.send_hello`),
    skipping per-frame resolution. Channels are invalidated wholesale (see
    :attr:`Internet.channel_gen`) when the carrier structure changes —
    a new ISP, peering, or host attachment — or a host's access delay
    does.
    """

    __slots__ = ("src", "dst", "domain", "src_label", "dst_label",
                 "src_access", "dst_access", "path_key")

    def __init__(self, src: str, dst: str, domain, src_label, dst_label,
                 src_access: float, dst_access: float) -> None:
        self.src = src
        self.dst = dst
        self.domain = domain
        self.src_label = src_label
        self.dst_label = dst_label
        self.src_access = src_access
        self.dst_access = dst_access
        #: The whole transit's key in :attr:`Internet._path_cache`.
        self.path_key = (domain, src_label, dst_label)


class Host:
    """A machine at the edge of (or inside) a data center.

    Attributes:
        name: Unique host name.
        attachments: ``{isp_name: router}`` — the data-center routers this
            host is homed on.
        access_delay: One-way host-to-router delay in seconds.
    """

    def __init__(self, name: str, access_delay: float = 0.0005,
                 internet: "Internet | None" = None) -> None:
        self._internet = internet
        self.name = name
        self.access_delay = access_delay
        self.attachments: dict[str, Any] = {}

    def __setattr__(self, name: str, value: Any) -> None:
        # A Channel holds both ends' access delays: a new one re-resolves
        # every channel (reads stay plain attribute loads).
        object.__setattr__(self, name, value)
        if name == "access_delay" and self._internet is not None:
            self._internet._invalidate_channels()

    @property
    def primary_isp(self) -> str:
        if not self.attachments:
            raise RuntimeError(f"host {self.name} is not attached to any ISP")
        return next(iter(self.attachments))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Host {self.name} @ {self.attachments}>"


class Internet:
    """Container for ISP domains, peering, hosts, and datagram delivery."""

    def __init__(
        self,
        sim: Simulator,
        rngs: RngRegistry,
        native_convergence_delay: float = 40.0,
    ) -> None:
        self.sim = sim
        self.rngs = rngs
        self.native_convergence_delay = native_convergence_delay
        self.isps: dict[str, RoutingDomain] = {}
        self.hosts: dict[str, Host] = {}
        self.counters = Counter()
        self._peerings: list[tuple[str, Any, str, Any, FiberLink]] = []
        self._native: RoutingDomain | None = None
        #: Bumped whenever carrier resolution may change (new ISP,
        #: peering, attachment, access delay); cached :class:`Channel`
        #: holders compare against it and re-fetch when stale.
        self.channel_gen = 0
        self._channels: dict[tuple[str, str, str], Channel] = {}
        #: One stable bound method for the hop callback — allocated once
        #: instead of per ``send`` (bound-method creation is measurable
        #: at datagram rates).
        self._hop_cb = self._hop
        self._deliver_cb = self._deliver
        self._hello_cb = self._deliver_hello
        #: The batched tier's window in seconds, set by
        #: :meth:`enable_vectorized`; 0 on the exact tier. When > 0,
        #: every landing instant is rounded up to the window grid — an
        #: approximation validated statistically (see
        #: :mod:`repro.analysis.calibrate`), never byte-identical.
        self.columnar_window = 0.0
        #: Resolved transit profiles, keyed
        #: ``(domain, router, dst_label)`` → ``(tables_epoch, profile or
        #: None)``. The stamp makes reconvergence (or any table rebuild)
        #: invalidate them, so a settled transit sees exactly the stale
        #: tables a hop-by-hop walk sees. Keyed on the domain *object*:
        #: a dropped native domain's ``id`` can be handed to its
        #: replacement.
        self._path_cache: dict[tuple, tuple] = {}
        #: Fluid engines (:class:`repro.core.fluid.FluidEngine`) whose
        #: rate intervals depend on this underlay. Empty (the default)
        #: costs one truthiness check on the rare mutation paths below —
        #: the fluid-off packet path is untouched.
        self.fluid_listeners: list = []

    def _poke_fluid(self, reason: str) -> None:
        """Tell registered fluid engines the underlay changed in a way
        that can move fluid rates/paths (fiber fail/repair, domain
        reconvergence) — a re-solve boundary, not a per-packet event."""
        for engine in self.fluid_listeners:
            engine.poke(reason)

    def _fibers_changed(self, reason: str) -> None:
        """Fibers were cut or repaired: the interdomain tables start
        their (slower) reconvergence and fluid engines re-solve."""
        if self._native is not None:
            self._native.notify_topology_changed()
        if self.fluid_listeners:
            self._poke_fluid(reason)

    # --------------------------------------------------------- building

    def add_isp(self, name: str, convergence_delay: float = 10.0) -> RoutingDomain:
        """Create an ISP backbone domain."""
        if name == NATIVE:
            raise ValueError(f"{NATIVE!r} is reserved for the interdomain carrier")
        if name in self.isps:
            raise ValueError(f"duplicate ISP {name!r}")
        domain = RoutingDomain(name, self.sim, convergence_delay)
        domain.watch(self._demote_transits)
        self.isps[name] = domain
        self._native = None
        self._invalidate_channels()
        return domain

    def _invalidate_channels(self) -> None:
        self._channels.clear()
        self.channel_gen += 1

    def add_peering(
        self,
        isp_a: str,
        router_a: Any,
        isp_b: str,
        router_b: Any,
        delay: float = 0.0002,
    ) -> FiberLink:
        """Connect two ISPs at colocated routers (interdomain hand-off)."""
        link = FiberLink(f"peer:{isp_a}:{router_a}~{isp_b}:{router_b}", delay)
        self._peerings.append((isp_a, router_a, isp_b, router_b, link))
        self._native = None
        self._invalidate_channels()
        return link

    def add_host(self, name: str, access_delay: float = 0.0005) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(name, access_delay, self)
        self.hosts[name] = host
        return host

    def attach(self, host_name: str, isp: str, router: Any) -> None:
        """Home ``host_name`` on ``router`` of ``isp`` (multihoming = call
        once per provider)."""
        host = self.hosts[host_name]
        domain = self.isps[isp]
        if router not in domain._adj:
            domain.add_router(router)
        host.attachments[isp] = router
        self._invalidate_channels()

    @property
    def native(self) -> RoutingDomain:
        """The interdomain routing domain (built lazily)."""
        if self._native is None:
            self._native = self._build_native()
        return self._native

    def _build_native(self) -> RoutingDomain:
        domain = RoutingDomain(NATIVE, self.sim, self.native_convergence_delay)
        from repro.net.backbone import FWD

        for isp_name, isp in self.isps.items():
            for u, nbrs in isp._adj.items():
                for v, (link, direction) in nbrs.items():
                    if direction == FWD:
                        domain.add_link_object((isp_name, u), (isp_name, v), link)
        for isp_a, ra, isp_b, rb, link in self._peerings:
            domain.add_link_object((isp_a, ra), (isp_b, rb), link)
        domain.watch(self._demote_transits)
        return domain

    # -------------------------------------------------------- carriers

    def carriers(self, src: str, dst: str) -> list[str]:
        """Carriers usable between two hosts: shared ISPs (on-net, in
        attachment order) followed by :data:`NATIVE`."""
        a, b = self.hosts[src], self.hosts[dst]
        shared = [isp for isp in a.attachments if isp in b.attachments]
        return shared + [NATIVE]

    def _resolve(self, src: str, dst: str, carrier: str):
        a, b = self.hosts[src], self.hosts[dst]
        if carrier == NATIVE:
            src_label = (a.primary_isp, a.attachments[a.primary_isp])
            dst_label = (b.primary_isp, b.attachments[b.primary_isp])
            return self.native, src_label, dst_label
        if carrier not in a.attachments or carrier not in b.attachments:
            raise ValueError(
                f"carrier {carrier!r} does not connect {src!r} and {dst!r}"
            )
        return self.isps[carrier], a.attachments[carrier], b.attachments[carrier]

    def current_route(self, src: str, dst: str, carrier: str) -> list | None:
        """Router labels the carrier would use right now (None if no route)."""
        domain, s, d = self._resolve(src, dst, carrier)
        return domain.current_path(s, d)

    def fiber_route(self, src: str, dst: str, carrier: str) -> list[FiberLink]:
        """The fiber objects along the current route (for disjointness
        audits). Empty if there is no route."""
        return [link for link, __ in self.fluid_route(src, dst, carrier) or ()]

    def fluid_route(
        self, src: str, dst: str, carrier: str
    ) -> list[tuple[FiberLink, int]] | None:
        """The (fiber, direction) hops fluid traffic between two hosts
        rides right now on ``carrier``, or ``None`` when the carrier's
        tables currently have no route (fluid then delivers nothing —
        the same outcome packets see, without per-datagram events).
        Directions matter because fluid rate sums, like the packet
        path's serialization queues, are per link *direction*."""
        path = self.current_route(src, dst, carrier)
        if path is None:
            return None
        if len(path) < 2:
            return []
        domain, __, __ = self._resolve(src, dst, carrier)
        return [domain.link_on_path(u, v) for u, v in zip(path, path[1:])]

    # -------------------------------------------------------- failures

    def fail_fiber(self, isp: str, a: Any, b: Any) -> None:
        """Cut a fiber. The owning ISP reconverges on its own schedule;
        the interdomain tables reconverge on the (slower) BGP schedule."""
        self.isps[isp].fail_link(a, b)
        self._fibers_changed("fiber-fail")

    def repair_fiber(self, isp: str, a: Any, b: Any) -> None:
        self.isps[isp].repair_link(a, b)
        self._fibers_changed("fiber-repair")

    def fail_site(self, router: Any) -> list[tuple[str, Any, Any]]:
        """A whole data center goes dark: every fiber touching
        ``router`` fails in every ISP (Fig 1's strongest failure mode
        short of partition). Returns the (isp, a, b) triples cut, for
        symmetric repair."""
        cut = []
        for isp_name, isp in self.isps.items():
            for nbr in list(isp._adj.get(router, {})):
                link = isp.link_between(router, nbr)
                if link is not None and not link.failed:
                    isp.fail_link(router, nbr)
                    cut.append((isp_name, router, nbr))
        if cut:
            self._fibers_changed("site-fail")
        return cut

    def repair_site(self, cut: list[tuple[str, Any, Any]]) -> None:
        """Undo a :meth:`fail_site` (pass its return value)."""
        for isp, a, b in cut:
            self.isps[isp].repair_link(a, b)
        if cut:
            self._fibers_changed("site-repair")

    def set_isp_loss(self, isp: str, factory: Callable[[], LossModel]) -> None:
        """Give every fiber of ``isp`` a fresh loss model from ``factory``
        (models are stateful, hence one instance per link)."""
        for link in self.isps[isp].links():
            link.loss = factory()

    # --------------------------------------------------------- sending

    def channel(self, src: str, dst: str, carrier: str) -> Channel:
        """The pre-resolved sending context for (src, dst, carrier) —
        cached; cleared when the carrier structure changes (compare
        :attr:`channel_gen` to detect staleness of a held reference)."""
        key = (src, dst, carrier)
        chan = self._channels.get(key)
        if chan is None:
            domain, src_label, dst_label = self._resolve(src, dst, carrier)
            chan = Channel(
                src, dst, domain, src_label, dst_label,
                self.hosts[src].access_delay, self.hosts[dst].access_delay,
            )
            self._channels[key] = chan
        return chan

    def send(
        self,
        src: str,
        dst: str,
        payload: Any,
        size: int,
        carrier: str,
        on_deliver: DeliverFn,
        on_drop: DropFn | None = None,
    ) -> Datagram:
        """Inject a datagram; ``on_deliver(datagram)`` fires at the
        destination host if it survives, ``on_drop(datagram, reason)``
        (if given) fires when it dies. :meth:`send_via` over the cached
        :meth:`channel` — there is no other send path."""
        return self.send_via(self.channel(src, dst, carrier), payload, size,
                             on_deliver, on_drop)

    def send_via(
        self,
        chan: Channel,
        payload: Any,
        size: int,
        on_deliver: DeliverFn,
        on_drop: DropFn | None = None,
    ) -> Datagram:
        """Send through a pre-resolved :class:`Channel` — the one send
        path (:meth:`send` resolves a cached channel and calls this).
        A datagram with a quiet transit ahead of its first hop
        (``src_access`` from now) settles here (:meth:`_settle`);
        anything else queues that hop. Either way ``datagram._chain`` is
        the event that fires its next step."""
        # Reads the simulator's _now directly: this is the per-frame
        # fast path, and the property indirection shows up in profiles.
        datagram = Datagram(chan.src, chan.dst, payload, size,
                            sent_at=self.sim._now)
        add = self.counters.add
        add("datagrams-sent")
        add("bytes-sent", size + HEADER_BYTES)
        if self._settle(chan.path_key, datagram, on_deliver, on_drop, 0,
                        None, self.sim._now + chan.src_access):
            return datagram
        event = self.sim.schedule(
            chan.src_access,
            self._hop_cb,
            chan.domain,
            chan.src_label,
            chan.dst_label,
            datagram,
            on_deliver,
            on_drop,
            0,
        )
        datagram._chain = event
        return datagram

    def send_hello(self, chan: Channel, link, carrier: str, seq: int,
                   feedback: dict, wire: int) -> None:
        """Send overlay ``link``'s hello ``seq`` on ``carrier`` (Sec
        II-A) as :meth:`send_via` sends ``link.hello_frame(...)`` — the
        same counts, taken before the settle step, and the same seqs —
        but over a quiet transit as one :meth:`_deliver_hello` event: no
        frame, no datagram."""
        now = self.sim._now
        add = self.counters.add
        add("datagrams-sent")
        add("bytes-sent", wire + HEADER_BYTES)
        start = now + chan.src_access
        landed = self._transit(chan.path_key, 0, wire + HEADER_BYTES,
                               chan.dst_access, start)
        if landed is not None:
            self.sim.schedule_at(landed[1], self._hello_cb, link, carrier,
                                 seq, now, feedback, wire, landed[0], start)
            return
        datagram = Datagram(chan.src, chan.dst, link.hello_frame(
            carrier, seq, now, feedback, wire), wire, sent_at=now)
        datagram._chain = self.sim.schedule(
            chan.src_access, self._hop_cb, chan.domain, chan.src_label,
            chan.dst_label, datagram, link._deliver_fn, None, 0)

    def _deliver_hello(self, link, carrier: str, seq: int, ts: float,
                       feedback: dict, wire: int, profile, start) -> None:
        """:meth:`_deliver` for a hello sent without a datagram; the
        ``profile`` and ``start`` are for :meth:`_demote_transits` only."""
        self.counters.add("datagrams-delivered")
        link.hello_to_peer(link, carrier, seq, ts, feedback, wire)

    def _hop(
        self,
        domain: RoutingDomain,
        router: Any,
        dst_label: Any,
        datagram: Datagram,
        on_deliver: DeliverFn,
        on_drop: DropFn | None,
        hops: int,
    ) -> None:
        # ``datagram._chain`` is the event firing this hop (every send,
        # demotion and repush sets it): each step re-queues it.
        chain = datagram._chain
        if router == dst_label:
            # Source and destination share a router: recycle the chain's
            # event for the delivery (fresh seq at the same allocation
            # point — identical ordering to scheduling a new event).
            self.sim.repush(
                chain, self.sim._now + self.hosts[datagram.dst].access_delay,
                self._deliver_cb, (datagram, on_deliver),
            )
            return
        if hops >= _MAX_HOPS:
            self._drop(datagram, DROP_TTL, on_drop)
            return
        nxt = domain.next_hop(router, dst_label)
        if nxt is None:
            self._drop(datagram, DROP_NO_ROUTE, on_drop)
            return
        if nxt != dst_label and self._settle(
                (domain, router, dst_label), datagram, on_deliver, on_drop,
                hops, chain, self.sim._now):
            return
        link, direction = domain.link_on_path(router, nxt)
        # The loss stream for a link never changes identity; cache it on
        # the link itself rather than re-deriving "loss:<name>" per hop.
        rng = link._loss_rng
        if rng is None:
            rng = link._loss_rng = self.rngs.stream(f"loss:{link.name}")
        arrival = link.traverse(
            self.sim._now, datagram.size + HEADER_BYTES, direction, rng)
        if arrival is None:
            self._drop(datagram, DROP_LINK, on_drop)
            return
        w = self.columnar_window
        if w:
            arrival = ceil(arrival / w) * w
        if nxt == dst_label:
            # The fiber just crossed ends at the destination router: all
            # that is left is the constant egress access delay, so the
            # chain goes straight to the delivery instant — k fibers
            # cost k + 1 events, not k + 2.
            self.sim.repush(
                chain, arrival + self.hosts[datagram.dst].access_delay,
                self._deliver_cb, (datagram, on_deliver),
            )
            return
        self.sim.repush(
            chain, arrival, None,
            (domain, nxt, dst_label, datagram, on_deliver, on_drop, hops + 1),
        )

    def _transit(self, key: tuple, hops: int, wire: int, dst_access: float,
                 start: float) -> tuple | None:
        """The one settle step, which datagrams (:meth:`_settle`) and
        hellos (:meth:`send_hello`) ride and the audit wraps. If ``key``
        = ``(domain, router, dst_label)`` is a quiet transit from a hop
        at ``start`` — fibers to go inside the hop budget, each un-cut,
        jitter-free, uncapped and certain to pass at its crossing
        instant (``loss.certain_pass``) — count ``wire`` bytes on each
        and return ``(profile, t)``: the instant the walk would land it,
        ``dst_access`` after its last fiber (the walk's own floats, one
        add per fiber), rounded up to the batched tier's grid. Else
        ``None``, having touched nothing."""
        entry = self._path_cache.get(key)
        if entry is None or entry[0] != key[0].tables_epoch:
            entry = self._resolve_path(*key)
        profile = entry[1]
        if profile is None or not profile.n_hops \
                or hops + profile.n_hops > _MAX_HOPS:
            return None
        t = start
        for link in profile.links:
            if link._failed or link.jitter or link.capacity_bps is not None \
                    or not link._loss.certain_pass(t):
                return None
            t = t + link.delay
        for link in profile.links:
            link.packets_carried += 1
            link.bytes_carried += wire
        t = t + dst_access
        w = self.columnar_window
        if w:
            t = ceil(t / w) * w
        return profile, t

    def _settle(self, key: tuple, datagram: Datagram, on_deliver: DeliverFn,
                on_drop: DropFn | None, hops: int, chain, start: float) -> bool:
        """Settle ``datagram`` at router ``key[1]``, whose hop fires at
        ``start``, if the rest of its way is a quiet transit
        (:meth:`_transit`): queue its delivery by recycling ``chain`` —
        the hop settling it — or, from a send, as a new event that takes
        the seq the first hop would have had. Returns False, having
        touched nothing, for anything else. The delivery event carries
        what :meth:`_demote_transits` needs to put the datagram back on
        the walk: the start hop's instant, the profile, ``on_drop``, the
        hops at the start and the start hop's seq."""
        landed = self._transit(key, hops, datagram.size + HEADER_BYTES,
                               self.hosts[datagram.dst].access_delay, start)
        if landed is None:
            return False
        profile, t = landed
        sim = self.sim
        if chain is None:
            datagram._chain = sim.schedule_at(
                t, self._deliver_cb, datagram, on_deliver, start, profile,
                on_drop, hops, sim._seq)
        else:
            sim.repush(chain, t, self._deliver_cb, (
                datagram, on_deliver, start, profile, on_drop, hops,
                chain.seq))
        return True

    def _deliver(self, datagram: Datagram, on_deliver: DeliverFn,
                 *transit) -> None:
        """Hand ``datagram`` to its destination host. ``transit`` (see
        :meth:`_settle`) rides on a quiet transit's event for
        :meth:`_demote_transits` only; a delivery does not look at it."""
        # Break the datagram <-> chain-event reference cycle so both die
        # by refcount, not in a gc sweep.
        datagram._chain = None
        self.counters.add("datagrams-delivered")
        on_deliver(datagram)

    def _demote_transits(self) -> None:
        """The underlay is changing under datagrams in flight — a fiber
        is about to be cut, repaired or given another loss process, or
        a domain's tables were just rewritten: put every quiet transit
        back on the hop walk. Each is found on the event queue (none is
        tracked while nothing changes), placed from its start hop's
        instant and its fibers' delays — the crossing instants the
        walk's own events would have had — relieved of the counters of
        the fibers it has not reached, and re-queued as a plain ``_hop``
        at the next router, so a drop at a cut fiber, forwarding by
        stale tables and rerouting by fresh ones happen when and where
        they always did. A transit settled at its send whose start hop
        has not come up yet — later than now, or now but after this
        point of the instant's (time, seq) order — goes back to that
        hop, under that hop's own seq. A transit already on its last
        fiber is left alone: nothing it has yet to do reads the
        underlay. A hello's event (:meth:`send_hello`) first becomes, at
        its own (time, seq), the delivery of the datagram its frame
        would have ridden."""
        sim = self.sim
        now = sim._now
        deliver = self._deliver_cb
        demoted = []
        for event, live in sim.iter_queued():
            if not live:
                continue
            if event.fn is self._hello_cb:
                link, carrier, seq, ts, feedback, wire, profile, start = event.args
                datagram = Datagram(link.node_host, link.nbr_host, link.hello_frame(
                    carrier, seq, ts, feedback, wire), wire, sent_at=ts)
                datagram._chain = event
                event.fn = deliver
                event.args = (datagram, link._deliver_fn, start, profile, None,
                              0, event.seq)
            elif event.fn is not deliver or len(event.args) == 2:
                continue
            __, __, t0, profile, __, __, seq0 = event.args
            if t0 > now or t0 == now and sim._firing < seq0:
                demoted.append((t0, seq0, 0, event))
                continue
            links = profile.links
            # ``at`` = when the walk's hop at router ``crossed`` would
            # fire; hops due strictly before now have fired.
            at = t0 + links[0].delay
            crossed = 1
            while crossed < profile.n_hops and at < now:
                at = at + links[crossed].delay
                crossed += 1
            if crossed < profile.n_hops:
                demoted.append((at, event.seq, crossed, event))
        demoted.sort(key=lambda row: row[:2])
        for at, __, crossed, event in demoted:
            datagram, on_deliver, __, profile, on_drop, hops, __ = event.args
            wire = datagram.size + HEADER_BYTES
            for link in profile.links[crossed:]:
                link.packets_carried -= 1
                link.bytes_carried -= wire
            args = (profile.domain,
                    profile.routers[crossed - 1] if crossed else profile.start,
                    profile.routers[-1], datagram, on_deliver, on_drop,
                    hops + crossed)
            if crossed:
                event.cancel()
                datagram._chain = sim.schedule_at(at, self._hop_cb, *args)
            else:
                datagram._chain = sim.requeue(event, at, self._hop_cb, *args)

    def _drop(self, datagram: Datagram, reason: str, on_drop: DropFn | None) -> None:
        datagram._chain = None
        self.counters.add(f"drop:{reason}")
        if on_drop is not None:
            on_drop(datagram, reason)

    # ------------------------------------ transit profiles, batched tier

    def _path_profile(
        self, domain: RoutingDomain, router: Any, dst_label: Any
    ) -> _PathProfile | None:
        """Resolve the current forwarding path ``router -> dst_label``
        into a transit profile, or ``None`` when there is none to settle
        on: a routing loop in the (possibly stale) tables, or no route
        at all. A cut, lossy, jittery or queued fiber does *not*
        disqualify a path — the lanes read fiber state live, so a
        profile holds for as long as the tables it was resolved from."""
        links: list = []
        routers: list = []
        seen = {router}
        cur = router
        while cur != dst_label:
            nxt = domain.next_hop(cur, dst_label)
            if nxt is None or nxt in seen:
                return None
            link = domain.link_on_path(cur, nxt)[0]
            links.append(link)
            routers.append(nxt)
            seen.add(nxt)
            cur = nxt
        return _PathProfile(
            domain, router, tuple(links), tuple(routers), len(links))

    def _resolve_path(self, domain: RoutingDomain, router: Any,
                      dst_label: Any) -> tuple:
        """(Re)fill the :attr:`_path_cache` entry for ``router ->
        dst_label`` from the domain's current tables."""
        entry = self._path_cache[(domain, router, dst_label)] = (
            domain.tables_epoch,
            self._path_profile(domain, router, dst_label),
        )
        return entry

    def prime_path(self, chan: Channel) -> None:
        """Pre-resolve the transit profile for a channel.

        A no-op unless the batched tier is armed (it leaves the exact
        tier's work as it is). Benchmarks prime every steady-state
        channel after a warm start for the same reason they pre-fill
        Dijkstra tables: a restored overlay should not pay lazy cache
        fills inside the measured window that an organically-warmed
        overlay already paid during warm-up."""
        if self.columnar_window:
            self._resolve_path(*chan.path_key)

    def enable_vectorized(self, window: float) -> None:
        """Arm the batched approximate tier with window ``window``
        (seconds): the exact tier's lanes, with every landing instant
        rounded up to the window grid — a walked fiber's arrival in
        :meth:`_hop` and a settled transit's landing in
        :meth:`_transit`. A datagram therefore lands at most one window
        late per fiber it crosses. Validated statistically against the
        exact tier by :mod:`repro.analysis.calibrate`, never
        byte-identical."""
        if not window > 0.0:
            raise ValueError(
                "columnar_vectorized requires columnar_window > 0 — "
                "window 0 is the byte-identical exact mode, which the "
                "batched tier cannot honour"
            )
        if self.columnar_window:
            if window != self.columnar_window:
                raise ValueError(
                    f"the batched tier is armed with window "
                    f"{self.columnar_window}, not {window}")
            return
        self.columnar_window = window
