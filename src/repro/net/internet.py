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
"""

from __future__ import annotations

from math import ceil
from typing import Any, Callable

from repro.net.backbone import FiberLink, RoutingDomain
from repro.net.loss import LossModel, NoLoss
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


def _quiet(links) -> bool:
    """Whether crossing each of ``links`` right now would only add its
    delay and bump two counters: un-cut, loss-free, jitter-free and
    uncapped, all read live. The one predicate of both one-step lanes —
    the exact tier's quiet transit and the batched tier's quiet
    channel."""
    for link in links:
        if link._failed or link.jitter or link.capacity_bps is not None \
                or type(link._loss) is not NoLoss:
            return False
    return True


class _PathProfile:
    """A resolved underlay transit: the router it starts from, the
    ordered fibers (and the router at the far end of each) the current
    forwarding tables would walk, and their summed delay. It records
    nothing about the fibers' state: whoever settles on it asks
    :func:`_quiet` at that instant. Both tiers read the same profiles
    out of :attr:`Internet._path_cache`."""

    __slots__ = ("domain", "start", "links", "routers", "total_delay",
                 "n_hops")

    def __init__(self, domain, start, links, routers, total_delay, n_hops):
        self.domain = domain
        self.start = start
        self.links = links
        self.routers = routers
        self.total_delay = total_delay
        self.n_hops = n_hops


class Channel:
    """A pre-resolved (src host, dst host, carrier) sending context.

    Resolving a carrier — picking the routing domain and the source /
    destination router labels — costs several dict lookups per datagram.
    For fixed channels like an overlay link's hello stream, the overlay
    fetches a :class:`Channel` once via :meth:`Internet.channel` and
    sends through :meth:`Internet.send_via`, skipping per-frame
    resolution. Channels are invalidated wholesale (see
    :attr:`Internet.channel_gen`) when the carrier structure changes —
    a new ISP, peering, or host attachment.
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

    def __init__(self, name: str, access_delay: float = 0.0005) -> None:
        self.name = name
        self.access_delay = access_delay
        self.attachments: dict[str, Any] = {}

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
        #: peering, attachment); cached :class:`Channel` holders compare
        #: against it and re-fetch when stale.
        self.channel_gen = 0
        self._channels: dict[tuple[str, str, str], Channel] = {}
        #: One stable bound method for the hop callback — allocated once
        #: instead of per ``send`` (bound-method creation is measurable
        #: at datagram rates).
        self._hop_cb = self._hop
        self._deliver_cb = self._deliver
        #: The batched tier's coalescing window in seconds, set by
        #: :meth:`enable_vectorized`; 0 on the exact tier. When > 0, hop
        #: arrivals are quantized up to the window grid and quiet
        #: channel sends settle in one step into per-instant bulk
        #: deliveries — an approximation validated statistically (see
        #: :mod:`repro.analysis.calibrate`), never byte-identical.
        self.columnar_window = 0.0
        #: The batched tier's pending bulk deliveries, keyed by
        #: quantized delivery instant → the queued :meth:`_bulk_deliver`
        #: event whose ``args[0]`` collects that instant's
        #: ``(datagram, on_deliver)`` rows. An entry whose event is no
        #: longer queued (``sim.clear()`` dropped it) is replaced.
        self._vec_deliveries: dict[float, Any] = {}
        #: Resolved transit profiles of both tiers, keyed
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
        host = Host(name, access_delay)
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
        path = self.current_route(src, dst, carrier)
        if not path or len(path) < 2:
            return []
        domain, __, __ = self._resolve(src, dst, carrier)
        return [domain.link_on_path(u, v)[0] for u, v in zip(path, path[1:])]

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
        if self._native is not None:
            self._native.notify_topology_changed()
        if self.fluid_listeners:
            self._poke_fluid("fiber-fail")

    def repair_fiber(self, isp: str, a: Any, b: Any) -> None:
        self.isps[isp].repair_link(a, b)
        if self._native is not None:
            self._native.notify_topology_changed()
        if self.fluid_listeners:
            self._poke_fluid("fiber-repair")

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
        if self._native is not None and cut:
            self._native.notify_topology_changed()
        if cut and self.fluid_listeners:
            self._poke_fluid("site-fail")
        return cut

    def repair_site(self, cut: list[tuple[str, Any, Any]]) -> None:
        """Undo a :meth:`fail_site` (pass its return value)."""
        for isp, a, b in cut:
            self.isps[isp].repair_link(a, b)
        if self._native is not None and cut:
            self._native.notify_topology_changed()
        if cut and self.fluid_listeners:
            self._poke_fluid("site-repair")

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
        (if given) fires when it dies."""
        domain, src_label, dst_label = self._resolve(src, dst, carrier)
        datagram = Datagram(src, dst, payload, size, sent_at=self.sim.now)
        self.counters.add("datagrams-sent")
        self.counters.add("bytes-sent", datagram.wire_size)
        access = self.hosts[src].access_delay
        if not access and not self.columnar_window and self._settle(
                (domain, src_label, dst_label), datagram, on_deliver,
                on_drop, 0, None):
            return datagram
        event = self.sim.schedule(
            access,
            self._hop_cb,
            domain,
            src_label,
            dst_label,
            datagram,
            on_deliver,
            on_drop,
            0,
        )
        datagram._chain = event
        return datagram

    def send_via(
        self,
        chan: Channel,
        payload: Any,
        size: int,
        on_deliver: DeliverFn,
        on_drop: DropFn | None = None,
    ) -> Datagram:
        """:meth:`send` through a pre-resolved :class:`Channel` — the
        control-plane fast path (identical delivery semantics, counters,
        and event ordering; no per-frame carrier resolution). On the
        batched tier a quiet channel settles here in one step."""
        # Reads the simulator's _now directly: this is the per-frame
        # fast path, and the property indirection shows up in profiles.
        datagram = Datagram(chan.src, chan.dst, payload, size,
                            sent_at=self.sim._now)
        add = self.counters.add
        add("datagrams-sent")
        add("bytes-sent", size + HEADER_BYTES)
        w = self.columnar_window
        if not w:
            if not chan.src_access and self._settle(
                    chan.path_key, datagram, on_deliver, on_drop, 0, None):
                return datagram
        elif self.sim._running and chan.src_access <= w:
            # Quiet-channel lane (batched tier): a channel whose every
            # fiber is quiet right now has a fixed outcome, so the send
            # settles here — per-fiber counters plus one row of the bulk
            # delivery at the quantized arrival instant (the access
            # delay, inside the window, is absorbed by the
            # quantization). Anything else takes the hop walk below.
            entry = self._path_cache.get(chan.path_key)
            if entry is None or entry[0] != chan.domain.tables_epoch:
                entry = self._resolve_path(*chan.path_key)
            profile = entry[1]
            if profile is not None and profile.n_hops <= _MAX_HOPS \
                    and _quiet(profile.links):
                wire = size + HEADER_BYTES
                for link in profile.links:
                    link.packets_carried += 1
                    link.bytes_carried += wire
                now = self.sim._now
                t = ceil((now + profile.total_delay + chan.dst_access) / w) * w
                if t < now:
                    t = now
                event = self._vec_deliveries.get(t)
                if event is None or not event._queued:
                    event = self._vec_deliveries[t] = self.sim.schedule_at(
                        t, self._bulk_deliver, [])
                event.args[0].append((datagram, on_deliver))
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
        if router == dst_label:
            dst_host = self.hosts[datagram.dst]
            chain = datagram._chain
            if chain is not None:
                # Recycle the chain's event for the final delivery step
                # (fresh seq at the same allocation point — identical
                # ordering to scheduling a new event).
                self.sim.repush(
                    chain, self.sim._now + dst_host.access_delay,
                    self._deliver_cb, (datagram, on_deliver),
                )
            else:
                self.sim.schedule(
                    dst_host.access_delay, self._deliver_cb, datagram,
                    on_deliver,
                )
            return
        if hops >= _MAX_HOPS:
            self._drop(datagram, DROP_TTL, on_drop)
            return
        nxt = domain.next_hop(router, dst_label)
        if nxt is None:
            self._drop(datagram, DROP_NO_ROUTE, on_drop)
            return
        if nxt != dst_label and self.columnar_window == 0.0:
            chain = datagram._chain
            if chain is not None and self._settle(
                    (domain, router, dst_label), datagram, on_deliver,
                    on_drop, hops, chain):
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
        chain = datagram._chain
        if chain is not None:
            if nxt == dst_label:
                # The fiber just crossed ends at the destination router:
                # all that is left is the constant egress access delay,
                # so the chain goes straight to the delivery instant —
                # k fibers cost k + 1 events, not k + 2.
                self.sim.repush(
                    chain, arrival + self.hosts[datagram.dst].access_delay,
                    self._deliver_cb, (datagram, on_deliver),
                )
                return
            self.sim.repush(
                chain, arrival, None,
                (domain, nxt, dst_label, datagram, on_deliver, on_drop, hops + 1),
            )
        else:
            self.sim.schedule_at(
                arrival,
                self._hop_cb,
                domain,
                nxt,
                dst_label,
                datagram,
                on_deliver,
                on_drop,
                hops + 1,
            )

    def _settle(self, key: tuple, datagram: Datagram, on_deliver: DeliverFn,
                on_drop: DropFn | None, hops: int, chain) -> bool:
        """Settle a quiet transit in one step, if ``key`` = ``(domain,
        router, dst_label)`` is one: two or more fibers to go, and on
        every one of them — un-cut, loss-free, jitter-free, uncapped, as
        of this instant — the walk would only add a constant and bump
        two counters. Counts the datagram on all of them and queues its
        delivery at the instant the walk would reach it (the same
        floats: one add per fiber, in order), by recycling ``chain`` —
        the hop settling it — or, from a send, as a new event that
        takes the seq the access hop would have had. Returns False,
        having touched nothing, for anything else. The one settle step
        of the exact tier: the hop walk and both sends call it, and the
        audit wraps it.

        The delivery event carries what :meth:`_demote_transits` needs
        to put the datagram back on the walk should the underlay change
        before it lands: the start instant, the profile, ``on_drop``,
        the hops at the start and the seq of the start's hop."""
        entry = self._path_cache.get(key)
        if entry is None or entry[0] != key[0].tables_epoch:
            entry = self._resolve_path(*key)
        profile = entry[1]
        if profile is None or profile.n_hops < 2 \
                or hops + profile.n_hops > _MAX_HOPS \
                or not _quiet(profile.links):
            return False
        wire = datagram.size + HEADER_BYTES
        sim = self.sim
        t = t0 = sim._now
        for link in profile.links:
            link.packets_carried += 1
            link.bytes_carried += wire
            t = t + link.delay
        t = t + self.hosts[datagram.dst].access_delay
        if chain is None:
            datagram._chain = sim.schedule_at(
                t, self._deliver_cb, datagram, on_deliver, t0, profile,
                on_drop, hops, sim._seq)
        else:
            sim.repush(chain, t, self._deliver_cb, (
                datagram, on_deliver, t0, profile, on_drop, hops, chain.seq))
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
        tracked while nothing changes), placed from its start instant
        and its fibers' delays — the crossing instants the walk's own
        events would have had — relieved of the counters of the fibers
        it has not reached, and re-queued as a plain ``_hop`` at the
        next router, so a drop at a cut fiber, forwarding by stale
        tables and rerouting by fresh ones happen when and where they
        always did. A transit settled at its send whose start hop has
        not come up yet in this instant's (time, seq) order goes back to
        that hop, under that hop's own seq. A transit already on its
        last fiber is left alone: nothing it has yet to do reads the
        underlay."""
        sim = self.sim
        now = sim._now
        deliver = self._deliver_cb
        demoted = []
        for event, live in sim.iter_queued():
            if not live or event.fn is not deliver or len(event.args) == 2:
                continue
            __, __, t0, profile, __, __, seq0 = event.args
            if t0 == now and sim._firing < seq0:
                demoted.append((now, seq0, 0, event))
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
        disqualify a path — the lanes read fiber state live
        (:func:`_quiet`), so a profile holds for as long as the tables
        it was resolved from."""
        links: list = []
        routers: list = []
        total_delay = 0.0
        seen = {router}
        cur = router
        while cur != dst_label:
            nxt = domain.next_hop(cur, dst_label)
            if nxt is None or nxt in seen:
                return None
            link = domain.link_on_path(cur, nxt)[0]
            links.append(link)
            routers.append(nxt)
            total_delay += link.delay
            seen.add(nxt)
            cur = nxt
        return _PathProfile(
            domain, router, tuple(links), tuple(routers), total_delay,
            len(links))

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

        A no-op unless the batched tier is armed. Benchmarks prime
        every steady-state channel after a warm start for the same
        reason they pre-fill Dijkstra tables: a restored overlay should
        not pay lazy cache fills inside the measured window that an
        organically-warmed overlay already paid during warm-up."""
        if self.columnar_window:
            self._resolve_path(*chan.path_key)

    def enable_vectorized(self, window: float) -> None:
        """Arm the batched approximate tier with coalescing window
        ``window`` (seconds). Every hop arrival is quantized up to the
        window grid, and a :meth:`send_via` made inside a run whose
        channel is quiet end to end settles in one step: its delivery
        joins every other delivery landing on the same grid instant in
        one bulk event (:meth:`_bulk_deliver`), scheduled when the
        instant's first row is appended. Everything else — loss,
        jitter, capacity, cut fibers, routing loops, TTL — takes the
        ordinary hop walk with quantized arrivals. A datagram therefore
        lands at most one window late per fiber it walks, or one window
        per transit on the quiet-channel lane. Validated statistically
        against the exact tier by :mod:`repro.analysis.calibrate`, never
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

    def _bulk_deliver(self, rows) -> None:
        """One event for every batched-tier delivery landing at this
        instant — the quiet-channel lane's :meth:`_deliver`."""
        del self._vec_deliveries[self.sim._now]
        add = self.counters.add
        for datagram, on_deliver in rows:
            add("datagrams-delivered")
            on_deliver(datagram)
