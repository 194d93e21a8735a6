"""Per-layer counters, read from the repo's public surfaces.

:func:`snapshot` reads additive raw counts off one overlay (the
overlay/trace/internet :class:`~repro.sim.trace.Counter` bags, the
simulator, link endpoints, fibers, topology replicas); a window's
counters are the difference of two snapshots. :func:`derive` turns raw
counts into the named per-layer metrics of ``BENCHMARK.json`` — the
ratios are taken once, over the whole window, never averaged.
"""

from __future__ import annotations

RETRANSMITS = (
    "reliable-retransmit", "reliable-tail-retransmit", "realtime-retransmit",
    "strikes-retransmit", "it-reliable-retransmit",
)
DUPLICATES = ("reliable-duplicate", "strikes-duplicate", "duplicate-suppressed")

#: Counter metrics every workload reports (zero where a layer idles).
COUNTER_METRICS = (
    "sim.events", "sim.events_per_s", "sim.timer_fired", "sim.pending_end",
    "net.datagrams_sent", "net.datagrams_delivered", "net.drop_share",
    "net.fiber_bytes",
    "core.link.frames_sent", "core.link.control_share", "core.link.down",
    "core.link.up", "core.link.carrier_switches",
    "protocols.retransmits", "protocols.recovered", "protocols.duplicates",
    "protocols.late_discarded",
    "core.linkstate.topo_generations",
    "core.routing.computes", "core.routing.hits", "core.routing.evictions",
    "core.routing.hit_ratio",
    "core.pipeline.forwarded", "core.pipeline.fwd_hit_ratio",
    "core.pipeline.fwd_invalidations", "core.pipeline.no_route_drops",
    "core.session.delivered", "core.session.on_time_share",
    "core.warmstart.construct_s", "core.warmstart.capture_s",
    "core.warmstart.restore_s",
    "analysis.cells_executed", "analysis.cells_cached",
    "analysis.cells_journaled", "analysis.cell_wall_sum_s",
    "analysis.overhead_ms_per_cell", "analysis.cached_pass_ms",
    "analysis.resume_pass_s", "analysis.pool_warm_s",
)


def snapshot(overlay) -> dict[str, float]:
    """Additive raw counts of one overlay, now."""
    sim = overlay.sim
    inet = overlay.internet
    bag: dict[str, float] = {}
    for counter in (overlay.counters, overlay.trace.counters):
        for name, value in counter.as_dict().items():
            bag[name] = bag.get(name, 0.0) + value
    net = inet.counters.as_dict()
    links = [link for node in overlay.nodes.values()
             for link in node.links.values()]
    fibers = {id(fiber): fiber
              for domain in inet.isps.values() for fiber in domain.links()}
    return {
        "sim.events": float(sim.events_processed),
        "sim.timer_fired": float(sim.timer_stats()["timer.fired"]),
        "net.sent": net.get("datagrams-sent", 0.0),
        "net.delivered": net.get("datagrams-delivered", 0.0),
        "net.fiber_bytes": float(sum(f.bytes_carried for f in fibers.values())),
        "link.frames": float(sum(link.frames_sent for link in links)),
        "link.data_frames": float(sum(link.data_frames_sent for link in links)),
        "link.down": bag.get("link-down", 0.0),
        "link.up": bag.get("link-up", 0.0),
        "link.switches": float(sum(link.switch_count for link in links)),
        "proto.retransmits": sum(bag.get(name, 0.0) for name in RETRANSMITS),
        "proto.recovered": bag.get("fec-recovered", 0.0),
        "proto.duplicates": sum(bag.get(name, 0.0) for name in DUPLICATES),
        "proto.late": bag.get("late-discarded", 0.0),
        "topo.versions": float(sum(node.topo_db.version
                                   for node in overlay.nodes.values())),
        "route.compute": bag.get("route.compute", 0.0),
        "route.hit": bag.get("route.hit", 0.0),
        "route.evict": bag.get("route.evict", 0.0),
        "fwd.forwarded": bag.get("forwarded", 0.0),
        "fwd.hit": bag.get("fwd.hit", 0.0),
        "fwd.miss": bag.get("fwd.miss", 0.0),
        "fwd.invalidate": bag.get("fwd.invalidate", 0.0),
        "fwd.no_route": bag.get("no-overlay-route", 0.0),
    }


def delta(after: dict, before: dict) -> dict[str, float]:
    return {name: after[name] - before.get(name, 0.0) for name in after}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def derive(raw: dict, run_wall_s: float, extra: dict | None = None) -> dict:
    """The named per-layer counter metrics of one window. ``raw`` is a
    :func:`delta` (or a sum of deltas, for the sweep); ``extra`` holds
    the metrics that do not come off an overlay (session deliveries,
    warm-start and sweep-engine timings, the simulator's end queue)."""
    get = lambda name: float(raw.get(name, 0.0))  # noqa: E731
    metrics = {name: 0.0 for name in COUNTER_METRICS}
    metrics.update({
        "sim.events": get("sim.events"),
        "sim.events_per_s": _ratio(get("sim.events"), run_wall_s),
        "sim.timer_fired": get("sim.timer_fired"),
        "net.datagrams_sent": get("net.sent"),
        "net.datagrams_delivered": get("net.delivered"),
        "net.drop_share": _ratio(get("net.sent") - get("net.delivered"),
                                 get("net.sent")),
        "net.fiber_bytes": get("net.fiber_bytes"),
        "core.link.frames_sent": get("link.frames"),
        "core.link.control_share": _ratio(
            get("link.frames") - get("link.data_frames"), get("link.frames")),
        "core.link.down": get("link.down"),
        "core.link.up": get("link.up"),
        "core.link.carrier_switches": get("link.switches"),
        "protocols.retransmits": get("proto.retransmits"),
        "protocols.recovered": get("proto.recovered"),
        "protocols.duplicates": get("proto.duplicates"),
        "protocols.late_discarded": get("proto.late"),
        "core.linkstate.topo_generations": get("topo.versions"),
        "core.routing.computes": get("route.compute"),
        "core.routing.hits": get("route.hit"),
        "core.routing.evictions": get("route.evict"),
        "core.routing.hit_ratio": _ratio(
            get("route.hit"), get("route.hit") + get("route.compute")),
        "core.pipeline.forwarded": get("fwd.forwarded"),
        "core.pipeline.fwd_hit_ratio": _ratio(
            get("fwd.hit"), get("fwd.hit") + get("fwd.miss")),
        "core.pipeline.fwd_invalidations": get("fwd.invalidate"),
        "core.pipeline.no_route_drops": get("fwd.no_route"),
    })
    for name, value in (extra or {}).items():
        if name not in metrics:
            raise KeyError(f"undeclared counter metric {name!r}")
        metrics[name] = float(value)
    return metrics
