"""The five workloads of the benchmark.

Each ``run_<workload>(ctx)`` sets its overlay up, runs one measured
window of a *fixed amount of work* (a fixed simulated duration, or a
fixed cell grid), collects what the modelled overlay did, checks it,
and returns one outcome dict. Sizes are frozen constants tuned once so
a window costs about ``catalog.RUN_SECONDS`` of host time on the
reference machine; ``--seconds`` scales them, it never turns a run into
"as much as fits".

Inputs come from the seed and from nothing else: fiber length, flow
rates and phases, loss draws, fault targets, cell parameters.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.runner import (
    SweepCache,
    journal_path,
    run_sweep,
    shutdown_pool,
    source_fingerprint,
    warm_pool,
)
from repro.analysis.scenarios import continental_scenario
from repro.analysis.sweep import Cell, Sweep
from repro.analysis.workloads import CbrSource
from repro.core.message import (
    LINK_BEST_EFFORT,
    LINK_FEC,
    LINK_IT_PRIORITY,
    LINK_NM_STRIKES,
    LINK_REALTIME,
    LINK_RELIABLE,
    ROUTING_DISJOINT,
    Address,
    ServiceSpec,
)
from repro.core.warmstart import SnapshotStore, ensure_warm, warm_key
from repro.net.loss import GilbertElliottLoss
from repro.net.topologies import US_CITIES, site_name

from perf import cells, counters, mesh
from perf.catalog import CAL_DELIVERY_TOL, CAL_P50_TOL_MS
from perf.measure import (
    P99_MIN_SAMPLES,
    HostWindow,
    delivery_metrics,
    latency_ms,
    peak_rss_mb,
    reap_children,
)
from perf.tiers import BATCHED_WINDOW, config_for
from perf.trace import Spans, profiled

MESH_N = 200
#: Simulated instant the mesh windows open (see ``_run_mesh``).
MESH_WINDOW_START_S = 4.6
STORM_N = 100
WARMUP_S = 2.0
SERVICES_WARMUP_S = 60.0
#: Set-ups shorter than two seconds are run this many times and enter
#: ``setup_s`` as their median.
SETUP_REPEATS = 3


@dataclass
class Ctx:
    workload: str
    seed: int
    size: float
    tmp: Path
    spawned_at: float
    profile: bool = False
    workers: int = 2
    spans: Spans = field(init=False)
    started_at: float = field(init=False)

    def __post_init__(self) -> None:
        self.started_at = time.time()
        self.spans = Spans(f"{self.workload}:{self.seed}", self.spawned_at)


class SetupClock:
    """``setup_s``: subprocess start -> traffic attached to a converged
    overlay. The part before the workload function runs (interpreter,
    imports) is taken once; the build/converge/prime part is run
    ``repeats`` times and enters as its median; what follows it on the
    way to the window (a lead-in of idle simulated time, attaching the
    traffic) is added on top."""

    def __init__(self, ctx: Ctx) -> None:
        self.pre_s = ctx.started_at - ctx.spawned_at
        self.builds: list[float] = []
        self.attach_s = 0.0

    def build(self, fn, repeats: int = 1):
        state = None
        for _ in range(repeats):
            state = None  # let the previous overlay go before the next
            started = time.perf_counter()
            state = fn()
            self.builds.append(time.perf_counter() - started)
        return state

    def attach(self, fn):
        started = time.perf_counter()
        state = fn()
        self.attach_s += time.perf_counter() - started
        return state

    @property
    def setup_s(self) -> float:
        return self.pre_s + statistics.median(self.builds) + self.attach_s


def _measure(ctx: Ctx, overlay, body):
    """Run ``body`` as the measured window of ``overlay``: host cost,
    the raw counter delta, the trace marks at window start, and (traced
    run) the layer fold."""
    trace = overlay.trace
    marks = (len(trace.sends), len(trace.records))
    before = counters.snapshot(overlay)
    gc.collect()
    with ctx.spans.span("run_window"):
        with profiled(ctx.profile) as prof:
            with HostWindow() as host:
                body()
    raw = counters.delta(counters.snapshot(overlay), before)
    return host, raw, marks, prof.get("fold")


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _outcome(ctx: Ctx, clock: SetupClock, host: HostWindow, sim: dict,
             samples: int, metrics: dict, fold, checks: list,
             attempted: int, failed: int, digest: str | None,
             info: dict) -> dict:
    """Assemble one workload outcome. A failed check fails every op."""
    correct = all(c["ok"] for c in checks)
    _check(checks, "p99_sample_count", True,
           f"{samples} samples" if samples >= P99_MIN_SAMPLES
           else f"only {samples} samples: p99 printed, not resolved")
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "size": ctx.size,
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed if correct else attempted),
        "e2e": {
            "setup_s": clock.setup_s,
            "run_wall_s": host.wall_s,
            "cpu_s": host.cpu_s,
            "peak_rss_mb": peak_rss_mb(),
            **sim,
        },
        "samples": samples,
        "counters": metrics,
        "fold": fold,
        "checks": checks,
        "trace_digest": digest,
        "spans": ctx.spans.rows,
        "info": info,
    }


def _sim_metrics(offered: int, delivered: int, latencies: list[float],
                 drill: dict) -> dict:
    return {
        "delivered_share": delivered / offered if offered else 0.0,
        "deliver_p50_ms": latency_ms(latencies, 0.50),
        "deliver_p99_ms": latency_ms(latencies, 0.99),
        "outage_s": drill.get("outage_s") or 0.0,
        "reconverge_s": drill.get("reconverge_s") or 0.0,
    }


def _drill_checks(checks: list, drill: dict, overlay) -> None:
    _check(checks, "drill_ran", "error" not in drill, drill.get("error", ""))
    reconverged = drill.get("reconverge_s") is not None
    _check(checks, "drill_reconverged", reconverged,
           "" if reconverged else "overlay did not reconverge inside the cap")
    _check(checks, "converged_at_end", overlay.converged())


# ------------------------------------------------------------- mesh_*


def _run_mesh(ctx: Ctx, tier: str) -> dict:
    """``mesh_exact`` / ``mesh_batched``: the n=200 mesh carrying the
    64-flow CBR fleet in steady state."""
    n = MESH_N
    rnd = random.Random(ctx.seed)
    fiber_delay = mesh.fiber_delay_for(rnd)
    flows = mesh.fleet_flows(n, rnd)
    spec = mesh.mesh_spec(n, ctx.seed, fiber_delay)
    fingerprint = source_fingerprint()
    clock = SetupClock(ctx)
    warm: dict = {}

    def build(build_tier: str):
        with ctx.spans.span("build_overlay"):
            return mesh.build_mesh(n, build_tier, ctx.seed, fiber_delay)

    def set_up():
        if tier == "exact":
            with ctx.spans.span("converge"):
                overlay, info = ensure_warm(
                    lambda: build("exact"), spec, WARMUP_S,
                    source_fingerprint=fingerprint, construct=True)
            warm.update(construct_s=info["construct_s"])
        else:
            # A positive coalescing window cannot construct: build an
            # exact twin, capture it, restore into the batched twin.
            store = SnapshotStore(ctx.tmp / "twin_store")
            key = warm_key(spec, config_for("exact"), fingerprint)
            with ctx.spans.span("converge"):
                twin, made = ensure_warm(
                    lambda: build("exact"), spec, WARMUP_S, store=store,
                    source_fingerprint=fingerprint, construct=True, key=key)
                overlay, info = ensure_warm(
                    lambda: build("batched"), spec, WARMUP_S, store=store,
                    source_fingerprint=fingerprint, key=key)
            if info["warm_source"] != "snapshot":
                raise RuntimeError(f"batched twin warmed {info['warm_source']}")
            warm.update(construct_s=made["construct_s"],
                        capture_s=made["capture_s"],
                        restore_s=info["restore_s"], twin=twin)
        if info["warm_source"] == "organic":
            raise RuntimeError("mesh fell back to an organic storm")
        with ctx.spans.span("prime"):
            mesh.prime_tables(overlay)
        return overlay

    overlay = clock.build(set_up, SETUP_REPEATS if tier == "exact" else 1)
    sim = overlay.sim
    # The drill runs before the window, not after it: every node
    # refreshes its link-state record at t = 5, 10, ... and that flood
    # is most of this workload's cost, so the window is placed to hold
    # one flood however much it is shortened, and the drill to miss it.
    with ctx.spans.span("fault_drill"):
        probe = flows[0]
        drill = mesh.reroute_drill(overlay, probe.src, probe.dst, rnd)
        if sim.now > MESH_WINDOW_START_S:
            raise RuntimeError(f"drill ran past the window start: {sim.now}")
    with ctx.spans.span("lead_in"):
        clock.attach(lambda: sim.run(until=MESH_WINDOW_START_S))
    with ctx.spans.span("attach_traffic"):
        sources = clock.attach(lambda: mesh.attach_flows(
            overlay, flows, ctx.size - mesh.DRAIN_S))

    host, raw, marks, fold = _measure(
        ctx, overlay, lambda: sim.run(until=sim.now + ctx.size))
    pending_end = sim.pending_events

    with ctx.spans.span("collect"):
        trace = overlay.trace
        got = delivery_metrics(trace.sends[marks[0]:], trace.records[marks[1]:])
        offered = got["accepted"] + sum(s.rejected for s in sources)

    checks: list = []
    with ctx.spans.span("verify"):
        _check(checks, "loss_free_flows_deliver_all",
               got["delivered"] == offered,
               f"{got['delivered']} of {offered} delivered")
        _drill_checks(checks, drill, overlay)
        if tier == "batched":
            _verify_against_exact(checks, warm.pop("twin"), flows, sources,
                                  got, overlay, fiber_delay)
    metrics = counters.derive(raw, host.wall_s, {
        "sim.pending_end": pending_end,
        "core.session.delivered": got["delivered"],
        "core.session.on_time_share": 1.0,
        "core.warmstart.construct_s": warm.get("construct_s", 0.0),
        "core.warmstart.capture_s": warm.get("capture_s", 0.0),
        "core.warmstart.restore_s": warm.get("restore_s", 0.0),
    })
    return _outcome(
        ctx, clock, host,
        _sim_metrics(offered, got["delivered"], got["latencies"], drill),
        got["delivered"], metrics, fold, checks, offered,
        offered - got["delivered"],
        got["trace_digest"] if tier == "exact" else None,
        {"tier": tier, "n": n, "fiber_delay_s": fiber_delay, "drill": drill,
         "setup_builds_s": clock.builds},
    )


TWIN_RUN_S = 1.6


def _verify_against_exact(checks: list, twin, flows, sources, got: dict,
                          overlay, fiber_delay: float) -> None:
    """Hold the batched tier against the exact tier inside one run: the
    exact twin the set-up constructed carries the same fleet for a
    moment (per-flow latency is constant on the loss-free mesh, so one
    delivery per flow is a full reference, and every flow sends at the
    same rate, so the median over flows is the fleet's p50)."""
    mesh.prime_tables(twin)
    twin_sources = mesh.attach_flows(twin, flows, TWIN_RUN_S - mesh.DRAIN_S)
    twin.sim.run(until=twin.sim.now + TWIN_RUN_S)

    def per_flow(records, flow_sources) -> dict:
        """Mean latency per fleet flow, keyed by the flow's index (flow
        ids carry auto-assigned ports, which differ between twins)."""
        index = {source.flow: i for i, source in enumerate(flow_sources)}
        sums: dict = {}
        for r in records:
            i = index.get(r.flow)
            if i is not None:
                total, count = sums.get(i, (0.0, 0))
                sums[i] = (total + r.delivered_at - r.sent_at, count + 1)
        return {i: total / count for i, (total, count) in sums.items()}

    exact = per_flow(twin.trace.records, twin_sources)
    batched = per_flow(overlay.trace.records, sources)
    missing = [flow for flow in exact if flow not in batched]
    _check(checks, "batched_has_every_exact_flow", not missing and bool(exact),
           f"{len(missing)} of {len(exact)} flows missing")
    # Per flow, the tier's own bound: every fiber hop may round its
    # arrival up by at most one coalescing window.
    over = [i for i in exact if i in batched and abs(batched[i] - exact[i])
            > BATCHED_WINDOW * (exact[i] / fiber_delay)]
    _check(checks, "batched_flows_within_window_bound", not over,
           f"{len(over)} flows beyond one window per fiber hop")
    p50_exact = statistics.median(exact.values()) if exact else 0.0
    p50_batched = latency_ms(got["latencies"], 0.50) / 1000.0
    _check(checks, "batched_p50_within_calibration",
           abs(p50_batched - p50_exact) * 1000.0 <= CAL_P50_TOL_MS,
           f"p50 {p50_batched * 1000:.3f} ms vs exact {p50_exact * 1000:.3f} ms")
    twin_share = len(twin.trace.records) / max(1, len(twin.trace.sends))
    share = got["delivered"] / max(1, got["accepted"])
    _check(checks, "batched_delivery_within_calibration",
           abs(share - twin_share) <= CAL_DELIVERY_TOL,
           f"batched {share:.4f} vs exact {twin_share:.4f}")


def run_mesh_exact(ctx: Ctx) -> dict:
    return _run_mesh(ctx, "exact")


def run_mesh_batched(ctx: Ctx) -> dict:
    return _run_mesh(ctx, "batched")


# --------------------------------------------------------- storm_churn

STORM_PROBES = 16
STORM_PROBE_PPS = 50.0
STORM_FAULT_PERIOD_S = 0.6
STORM_MAX_CUTS = 3
#: The last fault lands this long before the window ends: repair-all,
#: the reconvergence poll, and the drain follow it.
STORM_TAIL_S = 3.0


def _storm_probes(n: int, rnd: random.Random) -> list[mesh.Flow]:
    flows = []
    for j in range(STORM_PROBES):
        src = (6 * j) % n
        dst = (src + 37 + (5 * j) % 20) % n
        flows.append(mesh.Flow(mesh.site(src, n), mesh.site(dst, n),
                               *mesh.draw_rate_phase(rnd, STORM_PROBE_PPS)))
    return flows


class Churn:
    """The fault script of ``storm_churn``: every period one fault lands
    on the path of the next probe flow — a fiber cut somewhere along
    one of its overlay links (at most ``STORM_MAX_CUTS`` outstanding,
    the oldest repaired first), every fourth time a crash of one of its
    transit nodes (the previous crash recovers then).

    The script is laid out once, from the paths of the converged
    overlay, and which hop, fiber and node a fault takes is a function
    of its index, not of the seed: on the circulant mesh that keeps the
    routing work the same from seed to seed, while fiber length, probe
    rates and probe phases (the seeded inputs) still move every
    simulated-time result."""

    def __init__(self, overlay, probes: list[mesh.Flow], count: int) -> None:
        self.overlay = overlay
        self.cuts: deque = deque()
        self.crashed: str | None = None
        self.log: list[tuple] = []
        endpoints = {f.src for f in probes} | {f.dst for f in probes}
        inet = overlay.internet
        self.script: list[tuple] = []
        for k in range(count):
            flow = probes[k % len(probes)]
            path = overlay.overlay_path(flow.src, flow.dst)
            transit = [p for p in path[1:-1] if p not in endpoints]
            if k % 4 == 3 and transit:
                self.script.append(("crash", transit[k % len(transit)]))
                continue
            hop = k % (len(path) - 1)
            link = overlay.nodes[path[hop]].links[path[hop + 1]]
            route = inet.current_route(link.node_host, link.nbr_host, mesh.ISP)
            at = (k // 2) % (len(route) - 1)
            self.script.append(("cut", (route[at], route[at + 1])))

    def schedule(self) -> None:
        for k, fault in enumerate(self.script):
            self.overlay.sim.schedule((k + 1) * STORM_FAULT_PERIOD_S,
                                      self._apply, *fault)

    def _apply(self, kind: str, target) -> None:
        overlay = self.overlay
        inet = overlay.internet
        now = overlay.sim.now
        if kind == "crash":
            if self.crashed is not None:
                overlay.recover(self.crashed)
            self.crashed = target
            overlay.crash(target)
        elif target in self.cuts:
            kind = "skip"
        else:
            if len(self.cuts) >= STORM_MAX_CUTS:
                inet.repair_fiber(mesh.ISP, *self.cuts.popleft())
            inet.fail_fiber(mesh.ISP, *target)
            self.cuts.append(target)
        self.log.append((now, kind, str(target)))

    def repair_all(self) -> None:
        while self.cuts:
            self.overlay.internet.repair_fiber(mesh.ISP, *self.cuts.popleft())
        if self.crashed is not None:
            self.overlay.recover(self.crashed)
            self.crashed = None


def run_storm_churn(ctx: Ctx) -> dict:
    """``storm_churn``: the n=100 mesh started cold (the organic
    link-state storm is the set-up), then seeded churn aimed at the
    probe flows, repair-all, and the reconvergence poll."""
    n = STORM_N
    rnd = random.Random(ctx.seed)
    fiber_delay = mesh.fiber_delay_for(rnd)
    probes = _storm_probes(n, rnd)
    clock = SetupClock(ctx)

    def set_up():
        with ctx.spans.span("build_overlay"):
            overlay = mesh.build_mesh(n, "exact", ctx.seed, fiber_delay)
        with ctx.spans.span("converge"):
            overlay.warm_up(WARMUP_S)
        if not overlay.converged():
            raise RuntimeError("cold storm did not converge in the warm-up")
        with ctx.spans.span("prime"):
            mesh.prime_tables(overlay)
        return overlay

    overlay = clock.build(set_up)
    sim = overlay.sim
    faults = int((ctx.size - STORM_TAIL_S) / STORM_FAULT_PERIOD_S)
    with ctx.spans.span("attach_traffic"):
        sources = clock.attach(lambda: mesh.attach_flows(
            overlay, probes, ctx.size - mesh.DRAIN_S))
        churn = Churn(overlay, probes, faults)
        churn.schedule()
    reconverge: list = []
    repair_jitter = rnd.uniform(0.0, mesh.DRILL_JITTER_S)

    def window() -> None:
        end = sim.now + ctx.size
        sim.run(until=end - STORM_TAIL_S + STORM_FAULT_PERIOD_S + repair_jitter)
        churn.repair_all()
        reconverge.append(mesh.poll_reconverged(overlay))
        sim.run(until=end)

    host, raw, marks, fold = _measure(ctx, overlay, window)
    pending_end = sim.pending_events

    with ctx.spans.span("collect"):
        trace = overlay.trace
        got = delivery_metrics(trace.sends[marks[0]:], trace.records[marks[1]:])
        offered = got["accepted"] + sum(s.rejected for s in sources)
        arrivals: dict = {}
        for r in trace.records[marks[1]:]:
            arrivals.setdefault(r.flow, []).append(r.delivered_at)
        # The typical worst interruption of a probe: the median over
        # the probes of each one's longest delivery gap (the single
        # worst gap hangs on one flow's luck and is kept as info).
        gaps = sorted(mesh.longest_gap(t) for t in arrivals.values())
        drill = {"outage_s": statistics.median(gaps) if gaps else 0.0,
                 "reconverge_s": reconverge[0]}
    checks: list = []
    with ctx.spans.span("verify"):
        _check(checks, "every_probe_delivers", len(arrivals) == len(probes),
               f"{len(arrivals)} of {len(probes)} probe flows delivered")
        _check(checks, "faults_injected",
               sum(1 for e in churn.log if e[1] in ("cut", "crash")) > 0,
               f"{faults} fault slots")
        _drill_checks(checks, drill, overlay)
    metrics = counters.derive(raw, host.wall_s, {
        "sim.pending_end": pending_end,
        "core.session.delivered": got["delivered"],
        "core.session.on_time_share": 1.0,
    })
    # Probes ride best-effort link-state routing: what a cut swallows
    # before the overlay reroutes is the service working as specified,
    # so it shows in delivered_share, not as failed operations.
    return _outcome(
        ctx, clock, host,
        _sim_metrics(offered, got["delivered"], got["latencies"], drill),
        got["delivered"], metrics, fold, checks, offered, 0,
        got["trace_digest"],
        {"tier": "exact", "n": n, "fiber_delay_s": fiber_delay,
         "fault_slots": faults, "fault_log": churn.log[:64],
         "probe_longest_gaps_s": gaps},
    )


# ------------------------------------------------------ services_lossy

SERVICE_RATE_PPS = 50.0
SERVICE_SIZE_B = 1200
MCAST_RATE_PPS = 400.0
MCAST_GROUP = "mcast:perf"
MCAST_PORT = 40
MCAST_RECEIVERS = 8
DEADLINE_S = 0.2
#: (name, spec, guaranteed): one flow per link protocol at every site.
SERVICES = (
    ("reliable", ServiceSpec(link=LINK_RELIABLE, ordered=True), True),
    ("realtime", ServiceSpec(link=LINK_REALTIME, deadline=DEADLINE_S), False),
    ("nm-strikes", ServiceSpec(link=LINK_NM_STRIKES, deadline=DEADLINE_S),
     False),
    ("fec", ServiceSpec(link=LINK_FEC), False),
    ("it-priority", ServiceSpec(routing=ROUTING_DISJOINT, link=LINK_IT_PRIORITY,
                                k=2), False),
    ("best-effort", ServiceSpec(link=LINK_BEST_EFFORT), False),
)
#: Floor on the delivery share of a flow whose service promises
#: timeliness, not completeness, under the injected bursty loss.
TIMELY_FLOOR = 0.90
MCAST_FLOOR = 0.99
MCAST_BURST_SLACK = 25


def _ge_loss() -> GilbertElliottLoss:
    return GilbertElliottLoss(mean_good=2.0, mean_bad=0.05, bad_loss=0.5)


def run_services_lossy(ctx: Ctx) -> dict:
    """``services_lossy``: the 12-city two-ISP continental overlay under
    Gilbert-Elliott loss, every site sourcing one flow per link
    protocol, plus one multicast stream to eight receivers."""
    rnd = random.Random(ctx.seed)
    clock = SetupClock(ctx)
    sites = [site_name(city) for city in US_CITIES]

    def set_up():
        with ctx.spans.span("build_overlay"):
            scn = continental_scenario(
                ctx.seed, loss_factory=_ge_loss, config=config_for("exact"),
                warmup=0.0)
        # The long warm-up lets hello loss/latency estimators and the
        # carrier choice settle before anything is measured.
        with ctx.spans.span("converge"):
            scn.run_for(SERVICES_WARMUP_S)
        if not scn.overlay.converged():
            raise RuntimeError("continental overlay did not converge")
        return scn

    scn = clock.build(set_up, SETUP_REPEATS)
    overlay, sim = scn.overlay, scn.sim
    send_for = ctx.size - mesh.DRAIN_S
    flows: list[tuple] = []  # (service name, guaranteed, source, sink)

    def attach():
        for i, src in enumerate(sites):
            for k, (name, spec, guaranteed) in enumerate(SERVICES):
                dst = sites[(i + 1 + 2 * k) % len(sites)]
                overlay.client(dst, 100 + 10 * i + k)
                rate, phase = mesh.draw_rate_phase(rnd, SERVICE_RATE_PPS)
                source = CbrSource(
                    sim, overlay.client(src), Address(dst, 100 + 10 * i + k),
                    rate_pps=rate, size=SERVICE_SIZE_B, service=spec,
                    duration=send_for - phase).start(delay=phase)
                flows.append((name, guaranteed, source,
                              f"{dst}:{100 + 10 * i + k}"))
        receivers = []
        for dst in sites[2:2 + MCAST_RECEIVERS]:
            overlay.client(dst, MCAST_PORT).join(MCAST_GROUP)
            receivers.append(f"{dst}:{MCAST_PORT}")
        stream = CbrSource(
            sim, overlay.client(sites[0]), Address(MCAST_GROUP, MCAST_PORT),
            rate_pps=MCAST_RATE_PPS, size=SERVICE_SIZE_B,
            service=ServiceSpec(link=LINK_RELIABLE),
            duration=send_for).start()
        return stream, receivers

    with ctx.spans.span("attach_traffic"):
        stream, receivers = clock.attach(attach)

    host, raw, marks, fold = _measure(
        ctx, overlay, lambda: sim.run(until=sim.now + ctx.size))
    pending_end = sim.pending_events

    with ctx.spans.span("collect"):
        trace = overlay.trace
        records = trace.records[marks[1]:]
        got = delivery_metrics(trace.sends[marks[0]:], records)
        by_sink: dict = {}
        for r in records:
            by_sink.setdefault((r.flow, r.destination), []).append(r)
        offered = (sum(s.sent + s.rejected for _, _, s, _ in flows)
                   + (stream.sent + stream.rejected) * len(receivers))
        deadlined = on_time = 0
        for name, _, source, sink in flows:
            deadline = source.service.deadline
            if deadline is not None:
                deadlined += source.sent
                on_time += sum(1 for r in by_sink.get((source.flow, sink), ())
                               if r.delivered_at - r.sent_at <= deadline)
    with ctx.spans.span("fault_drill"):
        drill = mesh.reroute_drill(
            overlay, site_name("SEA"), site_name("MIA"), rnd)

    checks: list = []
    failed = 0
    with ctx.spans.span("verify"):
        for name, guaranteed, source, sink in flows:
            got_flow = by_sink.get((source.flow, sink), [])
            if guaranteed:
                seqs = [r.seq for r in got_flow]
                failed += source.sent + source.rejected - len(got_flow)
                _check(checks, f"{name}_complete_in_order@{source.client.address}",
                       seqs == list(range(source.sent)) and not source.rejected,
                       f"{len(seqs)} of {source.sent} delivered")
            else:
                share = len(got_flow) / max(1, source.sent)
                _check(checks, f"{name}_floor@{source.client.address}",
                       share >= TIMELY_FLOOR and not source.rejected,
                       f"share {share:.4f}")
        # One unrecovered loss burst is a few dozen messages: a stream
        # too short for that to stay under 1 % gets the burst as slack.
        slack = max((1.0 - MCAST_FLOOR) * stream.sent, MCAST_BURST_SLACK)
        for sink in receivers:
            missing = stream.sent - len(by_sink.get((stream.flow, sink), ()))
            _check(checks, f"multicast_floor@{sink}", missing <= slack,
                   f"{missing} of {stream.sent} missing")
        _drill_checks(checks, drill, overlay)
    metrics = counters.derive(raw, host.wall_s, {
        "sim.pending_end": pending_end,
        "core.session.delivered": got["delivered"],
        "core.session.on_time_share": on_time / deadlined if deadlined else 1.0,
    })
    # Only the reliable flows promise completeness; the loss the other
    # services let through shows in delivered_share and in the floors.
    return _outcome(
        ctx, clock, host,
        _sim_metrics(offered, got["delivered"], got["latencies"], drill),
        got["delivered"], metrics, fold,
        _fold_checks(checks), offered, failed, got["trace_digest"],
        {"tier": "exact", "drill": drill, "setup_builds_s": clock.builds},
    )


def _fold_checks(checks: list) -> list:
    """Keep every failed check, and one summary row per passed family
    (``<family>@<where>``), so 80 per-flow rows read as a handful."""
    kept, families = [], {}
    for check in checks:
        family = check["name"].split("@")[0]
        if not check["ok"] or "@" not in check["name"]:
            kept.append(check)
        else:
            families[family] = families.get(family, 0) + 1
    for family, count in families.items():
        kept.append({"name": family, "ok": True, "detail": f"{count} passed"})
    return kept


# ------------------------------------------------------ sweep_campaign

SWEEP_N = 64
SWEEP_NAME = "perf_sweep_campaign"


def _sweep_grid(ctx: Ctx, key: str, fiber_delay: float) -> Sweep:
    """The campaign grid: mostly short steady cells over rate x traffic
    shape x placement, and every seventh cell a reroute drill."""
    count = max(4, int(round(ctx.size)))
    grid = []
    for index in range(count):
        kind = "fault" if index % 7 == 3 else "steady"
        params = {
            "kind": kind,
            "n": SWEEP_N,
            "mesh_seed": ctx.seed,
            "fiber_delay": fiber_delay,
            "rate_pps": (20.0, 40.0)[index % 2],
            "poisson": bool((index // 2) % 2),
            "offset": (index * 5) % SWEEP_N,
        }
        grid.append(Cell(key=(index, kind), params=params, warm_key=key))
    return Sweep(name=SWEEP_NAME, run_cell=cells.run_cell, cells=grid,
                 master_seed=ctx.seed)


def _table_bytes(result) -> bytes:
    table = result.as_table(strict=False)
    return json.dumps({str(k): v for k, v in table.items()},
                      sort_keys=True).encode()


def _truncate_to_half(store: SweepCache, sweep: Sweep) -> tuple[int, int]:
    """Keep the first half of the campaign journal; drop the result
    cache of the half that left the journal *and* of the first quarter,
    so the resumed pass is served by cache, by journal, and by
    re-simulation. Returns (cells kept in the journal, cache files
    dropped)."""
    jpath = journal_path(sweep.name, store.root)
    lines = jpath.read_text().splitlines()
    keep = len(lines) // 2
    jpath.write_text("".join(line + "\n" for line in lines[:keep]))
    dropped = 0
    for line in lines[:keep // 2] + lines[keep:]:
        path = jpath.parent / f"{json.loads(line)['digest']}.json"
        if path.exists():
            path.unlink()
            dropped += 1
    return keep, dropped


def run_sweep_campaign(ctx: Ctx) -> dict:
    """``sweep_campaign``: ``run_sweep`` over a grid of small cells that
    all restore one convergence snapshot — cold, resumed from a
    half-truncated journal, then fully cached."""
    rnd = random.Random(ctx.seed)
    fiber_delay = mesh.fiber_delay_for(rnd)
    spec = mesh.mesh_spec(SWEEP_N, ctx.seed, fiber_delay)
    fingerprint = source_fingerprint()
    key = warm_key(spec, config_for("exact"), fingerprint)
    clock = SetupClock(ctx)
    snapshots = SnapshotStore()  # REPRO_WARMSTART_DIR: the private tmp
    store = SweepCache()         # REPRO_SWEEP_CACHE: the private tmp
    warm: dict = {}

    def set_up():
        def build():
            with ctx.spans.span("build_overlay"):
                return mesh.build_mesh(SWEEP_N, "exact", ctx.seed, fiber_delay)

        # Organic on purpose: this is the storm a campaign pays once.
        with ctx.spans.span("converge"):
            __, info = ensure_warm(build, spec, WARMUP_S, store=snapshots,
                                   source_fingerprint=fingerprint, key=key)
        warm.update(capture_s=info.get("capture_s", 0.0),
                    source=info["warm_source"])
        with ctx.spans.span("prime"):
            started = time.perf_counter()
            warm_pool(ctx.workers)
            warm["pool_warm_s"] = time.perf_counter() - started

    clock.build(set_up)
    with ctx.spans.span("attach_traffic"):
        sweep = clock.attach(lambda: _sweep_grid(ctx, key, fiber_delay))
    n_cells = len(sweep.cells)
    passes: dict = {}

    def timed_pass(name: str, resume: bool):
        started = time.perf_counter()
        result = run_sweep(sweep, workers=ctx.workers, cache=store,
                           resume=resume)
        passes[name] = (result, time.perf_counter() - started)

    gc.collect()
    with ctx.spans.span("run_window"):
        with profiled(ctx.profile) as prof:
            with HostWindow() as host:
                timed_pass("cold", resume=False)
                kept, dropped = _truncate_to_half(store, sweep)
                timed_pass("resume", resume=True)
                timed_pass("cached", resume=True)
                host.stop_wall()
                # CPU of the workers only shows once they are reaped.
                shutdown_pool()
                reaped = reap_children()

    cold, cold_wall = passes["cold"]
    resumed, resume_wall = passes["resume"]
    cached, cached_wall = passes["cached"]
    with ctx.spans.span("collect"):
        values = [r.value for r in cold.results if r.ok]
        offered = sum(v["offered"] for v in values)
        delivered = sum(v["delivered"] for v in values)
        latencies = sorted(x for v in values for x in v["latencies"])
        drills = [v for v in values if v["kind"] == "fault"]
        drill = {
            "outage_s": statistics.fmean(v["outage_s"] for v in drills)
            if drills else 0.0,
            "reconverge_s": statistics.fmean(
                v["reconverge_s"] for v in drills) if drills else 0.0,
        }
        raw = cold.counters
        cell_wall = cold.wall_s
    checks: list = []
    with ctx.spans.span("verify"):
        failed_cells = len(cold.failed) + len(resumed.failed) + len(cached.failed)
        _check(checks, "zero_failed_cells", failed_cells == 0,
               "; ".join(str(r.error)[-200:] for r in cold.failed[:2]))
        _check(checks, "cold_pass_executes_all", cold.executed == n_cells,
               f"executed {cold.executed} of {n_cells}")
        _check(checks, "resume_executes_only_missing_half",
               resumed.executed == n_cells - kept,
               f"executed {resumed.executed}, cached {resumed.cached}, "
               f"journaled {resumed.journaled}, missing {n_cells - kept}")
        _check(checks, "resume_serves_from_the_journal",
               resumed.journaled == kept // 2,
               f"journaled {resumed.journaled} of {kept // 2}")
        _check(checks, "cached_pass_executes_none", cached.executed == 0,
               f"executed {cached.executed}")
        tables = {name: _table_bytes(result)
                  for name, (result, _) in passes.items()}
        _check(checks, "tables_byte_identical",
               tables["cold"] == tables["resume"] == tables["cached"])
        _check(checks, "cells_restore_the_snapshot",
               all(v["warm_source"] == "snapshot" for v in values),
               str(sorted({v["warm_source"] for v in values})))
        _check(checks, "steady_cells_deliver_all",
               all(v["delivered"] == v["offered"]
                   for v in values if v["kind"] == "steady"))
        _check(checks, "drill_cells_reconverge",
               all(v["reconverged"] for v in drills) and bool(drills))
        _check(checks, "workers_reaped", reaped)
    metrics = counters.derive(raw, host.wall_s, {
        "core.session.delivered": delivered,
        "core.session.on_time_share": 1.0,
        "core.warmstart.capture_s": warm["capture_s"],
        "core.warmstart.restore_s": raw.get("warm.restore_s", 0.0) / n_cells,
        "analysis.cells_executed": cold.executed + resumed.executed,
        "analysis.cells_cached": resumed.cached + cached.cached,
        "analysis.cells_journaled": resumed.journaled + cached.journaled,
        "analysis.cell_wall_sum_s": cell_wall,
        "analysis.overhead_ms_per_cell": 1000.0 * (
            max(1, ctx.workers) * cold_wall - cell_wall) / n_cells,
        "analysis.cached_pass_ms": 1000.0 * cached_wall,
        "analysis.resume_pass_s": resume_wall,
        "analysis.pool_warm_s": warm["pool_warm_s"],
    })
    # Ops: every cell of every pass, plus the messages of the steady
    # cells (what a drill cell loses while it reroutes is its subject).
    steady = [v for v in values if v["kind"] == "steady"]
    steady_offered = sum(v["offered"] for v in steady)
    return _outcome(
        ctx, clock, host,
        _sim_metrics(offered, delivered, latencies, drill),
        delivered, metrics, prof.get("fold"), checks,
        steady_offered + 3 * n_cells,
        steady_offered - sum(v["delivered"] for v in steady) + failed_cells,
        hashlib.blake2b(tables["cold"], digest_size=16).hexdigest(),
        {"tier": "exact", "n": SWEEP_N, "cells": n_cells,
         "fiber_delay_s": fiber_delay, "warm_source": warm["source"],
         "cold_wall_s": cold_wall, "journal_kept": kept,
         "cache_dropped": dropped},
    )


RUNNERS = {
    "mesh_exact": run_mesh_exact,
    "mesh_batched": run_mesh_batched,
    "storm_churn": run_storm_churn,
    "services_lossy": run_services_lossy,
    "sweep_campaign": run_sweep_campaign,
}
