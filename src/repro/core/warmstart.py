"""Converged-overlay warm start: snapshot/restore and constructed
convergence.

The paper's service-level results all assume a *converged* link-state
substrate; reaching it organically is a flood storm replayed once per
run. With the flood packed into per-instant bundles
(:mod:`repro.core.node`) the n=1000 storm on the scaling mesh (five
fibers per overlay link) is 4.5 M events, 106 host seconds on a 2-vCPU
2.1 GHz Xeon VM (one run; unpacked it was 12.3 M events / 87 s already
at n=300, against 0.88 M / 8.6 s packed). This module makes
convergence a reusable artifact, two ways:

**Tier 1 — snapshot/restore** (:func:`capture` / :func:`restore`).
After :func:`repro.sim.snapshot.quiesce` drives the simulation to an
instant where only periodic control timers remain queued, the
overlay's full warm state — per-node link-state/group databases (with
canonically recomputed blake2b content fingerprints), link endpoint
and carrier-monitor state, fiber counters, RNG stream positions, and
the pending timer schedule — serializes to a versioned, JSON-shaped
payload. Restored into a *fresh* overlay on the same topology, the
continuation is byte-identical to the straight-through run: the
restored simulator replays the exact sequence numbers.

**Tier 2 — constructed convergence** (:func:`converged_payload`).
For static, loss-free, uniform topologies the converged state is a
*computable* function of the topology spec: hello grids and arrival
instants follow exact float folds, carrier monitors fold a known
latency series, link-up instants and final LSU sequence numbers drop
out of the hello arithmetic. Scaffolding-style (Berns,
arXiv:2109.14126), a payload in the capture format is synthesized —
skipping the storm — and validated by fingerprint equality against an
organically converged twin plus a settle-window fixed-point check
(`tests/test_warmstart.py`). Constructed payloads reproduce *protocol*
state exactly; historical traffic statistics (bytes/frames/datagram
counters, event counts) are explicitly not replayed.

:func:`restore` is the only installer of warm state, for either tier,
and every adopted timer carries its seq. A stored payload that decodes
but that :func:`restore` rejects is a miss for :func:`ensure_warm`.

Snapshots live in a gitignored store (:class:`SnapshotStore`, default
``.warmstart/``) keyed by :func:`warm_key` — blake2b of (topology
spec, :class:`~repro.core.config.OverlayConfig`, repro-tree source
fingerprint) — so sweep campaigns and the scaling bench share one
warm-up across fidelity tiers. Stale-source snapshots are never restored.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import time as _time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Callable

from repro.core.fileio import atomic_write
from repro.core.link import _CarrierMonitor
from repro.core.linkstate import GroupRecord, TopologyRecord
from repro.net.backbone import FWD, REV
from repro.net.loss import NoLoss
from repro.sim import snapshot as snap
from repro.sim.events import SimulationError

#: On-disk payload format; bumped on any incompatible schema change.
FORMAT_VERSION = 1

#: Default snapshot directory (gitignored), overridable via env.
DEFAULT_STORE_DIR = ".warmstart"
ENV_STORE_DIR = "REPRO_WARMSTART_DIR"
#: When set (non-empty, non-"0"), existing snapshots are ignored and
#: deleted — the warm-start analogue of the sweep cache's ``--fresh``.
ENV_FRESH = "REPRO_WARMSTART_FRESH"

#: Snapshots decoded in this process, keyed by the blake2b of the
#: file's bytes: ``[payload, its shared records or None]``. A sweep
#: worker decodes its campaign's snapshot once, not once per cell, and
#: every cell's restore stores the same record values. Bounded: the
#: least recently loaded goes first.
_DECODED: OrderedDict[bytes, list] = OrderedDict()
DECODED_CAPACITY = 4


class WarmStartError(RuntimeError):
    """An overlay cannot be captured, restored, or constructed warm."""


# --------------------------------------------------------------- keying


def warm_key(spec, config, source_fingerprint: str = "") -> str:
    """Content key for one warm-start artifact: blake2b over the
    topology spec, the overlay config, and the repro-tree source
    fingerprint. The batched tier's ``columnar*`` fields and ``audit``
    are excluded — fidelity and observer choices that do not move the
    converged state, which is exactly what lets every tier (exact,
    batched, fluid) share one snapshot."""
    cfg = dataclasses.asdict(config)
    cfg.pop("columnar", None)
    cfg.pop("columnar_window", None)
    cfg.pop("columnar_vectorized", None)
    cfg.pop("audit", None)
    defaults = cfg.pop("protocol_defaults", None) or {}
    blob = repr((
        spec,
        sorted(cfg.items()),
        sorted((k, sorted(v.items()) if isinstance(v, dict) else v)
               for k, v in defaults.items()),
        source_fingerprint,
    ))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


# -------------------------------------------------------------- helpers


def _all_fibers(internet) -> dict:
    """Every distinct fiber reachable from the internet's domains,
    keyed by name (ISP fibers are shared with the interdomain domain —
    one object, one entry)."""
    fibers: dict[str, object] = {}
    domains = list(internet.isps.values()) + [internet.native]
    for domain in domains:
        for fiber in domain.links():
            known = fibers.get(fiber.name)
            if known is None:
                fibers[fiber.name] = fiber
            elif known is not fiber:
                raise WarmStartError(
                    f"two distinct fibers share the name {fiber.name!r}"
                )
    return fibers


def _load_counter(counter, values: dict) -> None:
    counter._values.clear()
    for name, value in values.items():
        counter._values[name] = value


def _check_steady_state(overlay) -> None:
    """The capture/restore contract: a bare converged control plane —
    no clients, traffic, faults, adversaries, crypto, or fluid mode."""
    if overlay.keystore is not None:
        raise WarmStartError("cannot warm-start an overlay with a keystore")
    if overlay._fluid is not None or overlay.internet.fluid_listeners:
        raise WarmStartError("cannot warm-start with a fluid engine active")
    if overlay.trace.sends or overlay.trace.records:
        raise WarmStartError("cannot warm-start after application traffic")
    for node in overlay.nodes.values():
        if node.crashed:
            raise WarmStartError(f"node {node.id} is crashed")
        if node.behavior is not None:
            raise WarmStartError(f"node {node.id} has an adversary behavior")
        if node.protocols:
            raise WarmStartError(f"node {node.id} has live protocol instances")
        if node.session.clients:
            raise WarmStartError(f"node {node.id} has connected clients")
        if len(node.flows):
            raise WarmStartError(f"node {node.id} has flow-table state")
    domains = list(overlay.internet.isps.values())
    if overlay.internet._native is not None:
        domains.append(overlay.internet._native)
    for domain in domains:
        if domain._pending_reconverge:
            raise WarmStartError(
                f"domain {domain.name} has a pending reconvergence"
            )


def _check_fresh(overlay) -> None:
    sim = overlay.sim
    if sim._seq or sim.now or sim.events_processed:
        raise WarmStartError("restore requires a fresh simulator")
    for node in overlay.nodes.values():
        if node._started:
            raise WarmStartError(f"node {node.id} already started")


def _payload(overlay, t0: float, fingerprints: tuple, key: str,
             source_fingerprint: str, **parts) -> dict:
    """A payload in the one format, shared by :func:`capture` and
    :func:`converged_payload`: the caller's ``parts`` (clock, databases,
    node and link state, timers), plus the parts read off the live
    overlay as they stand — RNG stream positions, fiber state, counters,
    route generations and the next auto port."""
    return {
        "format": FORMAT_VERSION,
        "meta": {
            "key": key,
            "source_fingerprint": source_fingerprint,
            "t0": t0,
            "master_seed": overlay.rngs.master_seed,
            "topo_fingerprint": fingerprints[0],
            "group_fingerprint": fingerprints[1],
        },
        **parts,
        "rng": overlay.rngs.export_states(),
        "fibers": {
            name: {
                "failed": fiber.failed,
                "busy": [fiber._busy_until[FWD], fiber._busy_until[REV]],
                "bytes_carried": fiber.bytes_carried,
                "packets_carried": fiber.packets_carried,
                "packets_dropped": fiber.packets_dropped,
                "fluid_bytes": fiber.fluid_bytes,
            }
            for name, fiber in _all_fibers(overlay.internet).items()
        },
        "counters": {
            "overlay": overlay.counters.as_dict(),
            "internet": overlay.internet.counters.as_dict(),
            "trace": overlay.trace.counters.as_dict(),
        },
        "route_generations": list(overlay.route_engine._store),
        "next_auto_port": overlay._next_auto_port,
    }


# -------------------------------------------------------------- capture


def capture(overlay, key: str = "", source_fingerprint: str = "") -> dict:
    """Quiesce a converged overlay and serialize its warm state.

    Returns the versioned JSON-shaped payload (:data:`FORMAT_VERSION`).
    The overlay keeps running afterwards — capture only advances the
    clock to the quiesced instant (``meta.t0``), which is where a
    restored twin resumes.
    """
    _check_steady_state(overlay)
    sim = overlay.sim
    t0 = snap.quiesce(sim)
    queued = snap.queued_auto_timers(sim)
    for node in overlay.nodes.values():
        # Every armed flush is one-shot work quiesce has run; records
        # left behind would be state the payload does not carry.
        if node._outbox:
            raise WarmStartError(
                f"node {node.id} holds unflushed shared-state records"
            )

    entries: list[dict] = []
    owned: set[int] = set()
    for node_id, node in overlay.nodes.items():
        if not node._started:
            raise WarmStartError(f"node {node_id} never started")
        owners = [(link, nbr, ("hello", "check"))
                  for nbr, link in node.links.items()]
        for owner, nbr, kinds in owners + [(node, None, ("refresh", "metric"))]:
            for kind in kinds:
                timer = getattr(owner, f"_{kind}_timer")
                if timer is None or not timer.active:
                    where = node_id if nbr is None else f"{node_id}->{nbr}"
                    raise WarmStartError(f"{kind} timer of {where} is not armed")
                owned.add(id(timer))
                entries.append({"kind": kind, "node": node_id, "nbr": nbr,
                                **snap.timer_schedule(timer)})
    foreign = [t for t in queued if id(t) not in owned]
    if foreign or len(queued) != len(owned):
        raise WarmStartError(
            f"queued timer schedule does not match the overlay's own "
            f"timers ({len(queued)} queued, {len(owned)} owned, "
            f"{len(foreign)} foreign) — is another overlay sharing this "
            f"simulator?"
        )

    nodes = list(overlay.nodes.values())
    ref = nodes[0]
    topo_fp = ref.topo_db.fingerprint
    group_fp = ref.group_db.fingerprint
    for node in nodes:
        if (node.topo_db.fingerprint != topo_fp
                or node.group_db.fingerprint != group_fp):
            raise WarmStartError(
                f"replica databases disagree at {node.id} — the overlay "
                "has not converged; run the warm-up longer"
            )

    topo_records = {
        origin: [seq, costs]
        for origin, (seq, costs) in ref.topo_db.export_state().items()
    }
    group_records = {
        origin: [seq, sorted(groups)]
        for origin, (seq, groups) in ref.group_db.export_state().items()
    }
    return _payload(
        overlay, t0, (topo_fp, group_fp), key, source_fingerprint,
        clock=snap.capture_clock(sim),
        topo={
            "records": topo_records,
            "versions": {n.id: n.topo_db.version for n in nodes},
            "order": {n.id: n.topo_db.origins() for n in nodes},
        },
        groups={
            "records": group_records,
            "versions": {n.id: n.group_db.version for n in nodes},
            "order": {n.id: n.group_db.origins() for n in nodes},
        },
        nodes={n.id: n.warm_state() for n in nodes},
        links={
            n.id: {nbr: link.warm_state() for nbr, link in n.links.items()}
            for n in nodes
        },
        timers=entries,
    )


# -------------------------------------------------------------- restore


def _adopt_schedule(overlay, entries: list[dict]) -> None:
    """Re-arm a snapshot's timer schedule into the restored overlay, in
    ascending-seq order, each timer with its own seq."""
    sim = overlay.sim
    for entry in sorted(entries, key=lambda e: e["seq"]):
        kind = entry["kind"]
        owner = overlay.nodes[entry["node"]]  # refresh / metric timers
        if kind in ("hello", "check"):
            owner = owner.links[entry["nbr"]]
        elif kind not in ("refresh", "metric"):
            raise WarmStartError(f"unknown timer kind {kind!r} in snapshot")
        tick = getattr(owner, f"_{kind}_tick")
        setattr(owner, f"_{kind}_timer", sim.adopt_periodic(
            entry["time"], entry["interval"], tick, seq=entry["seq"],
            fired=entry["fired"], rearmed=entry["rearmed"]))


def _shared_records(payload: dict) -> dict:
    """``{kind: {origin: (seq, record)}}`` for a payload: built once per
    decoded snapshot and kept with it (records are frozen values, so
    the overlays of every restore may share them), or afresh for a
    payload that did not come out of :meth:`SnapshotStore.load`."""
    entry = next((e for e in _DECODED.values() if e[0] is payload), None)
    if entry is not None and entry[1] is not None:
        return entry[1]
    shared = {
        kind: {origin: (seq, record(origin, body))
               for origin, (seq, body) in payload[kind]["records"].items()}
        for kind, record in (("topo", TopologyRecord), ("groups", GroupRecord))
    }
    if entry is not None:
        entry[1] = shared
    return shared


def restore(overlay, payload: dict) -> float:
    """Install a :func:`capture` payload into a fresh, unstarted
    overlay on the same topology; returns the resumed instant ``t0``.

    The restored overlay may run either tier regardless of which
    produced the snapshot; restores are seq-exact. Restored
    database fingerprints are recomputed canonically and checked
    against the snapshot's — a corrupt or mismatched payload fails
    loudly instead of silently diverging. ``payload`` is only read:
    one decoded snapshot serves every restore in the process.
    """
    if payload.get("format") != FORMAT_VERSION:
        raise WarmStartError(
            f"snapshot format {payload.get('format')!r} != {FORMAT_VERSION}"
        )
    _check_steady_state(overlay)
    _check_fresh(overlay)
    sim = overlay.sim
    internet = overlay.internet

    if set(payload["nodes"]) != set(overlay.nodes):
        raise WarmStartError("snapshot node set does not match the overlay")
    for node_id, links in payload["links"].items():
        if set(links) != set(overlay.nodes[node_id].links):
            raise WarmStartError(
                f"snapshot link set of {node_id} does not match the overlay"
            )

    sim.restore_clock(**payload["clock"])
    overlay.rngs.import_states(payload["rng"])

    # One record value per origin, shared by every replica (each part
    # and row is derived once, from the record itself); per-node
    # insertion order is replayed so ``origins()`` — the database-sync
    # iteration order — matches the organic run.
    shared = _shared_records(payload)
    for node_id, node in overlay.nodes.items():
        node.restore_warm(payload["nodes"][node_id])
        for kind, db in (("topo", node.topo_db), ("groups", node.group_db)):
            db.load_state(
                {o: shared[kind][o] for o in payload[kind]["order"][node_id]},
                payload[kind]["versions"][node_id],
            )
        for nbr, link in node.links.items():
            link.restore_warm(payload["links"][node_id][nbr])

    _adopt_schedule(overlay, payload["timers"])

    fibers = _all_fibers(internet)
    if set(fibers) != set(payload["fibers"]):
        raise WarmStartError("snapshot fiber set does not match the underlay")
    for name, state in payload["fibers"].items():
        fiber = fibers[name]
        fiber.failed = state["failed"]
        fiber._busy_until = {FWD: state["busy"][0], REV: state["busy"][1]}
        fiber.bytes_carried = state["bytes_carried"]
        fiber.packets_carried = state["packets_carried"]
        fiber.packets_dropped = state["packets_dropped"]
        fiber.fluid_bytes = state["fluid_bytes"]

    _load_counter(overlay.counters, payload["counters"]["overlay"])
    _load_counter(internet.counters, payload["counters"]["internet"])
    _load_counter(overlay.trace.counters, payload["counters"]["trace"])
    overlay._next_auto_port = payload["next_auto_port"]
    overlay.route_engine.prime(payload.get("route_generations", []))

    meta = payload["meta"]
    for node in overlay.nodes.values():
        if node.topo_db.fingerprint != meta["topo_fingerprint"]:
            raise WarmStartError(
                f"restored topology fingerprint mismatch at {node.id}"
            )
        if node.group_db.fingerprint != meta["group_fingerprint"]:
            raise WarmStartError(
                f"restored group fingerprint mismatch at {node.id}"
            )
    if not overlay.converged():
        raise WarmStartError("restored overlay failed the convergence check")
    return meta["t0"]


# ------------------------------------------------- constructed (tier 2)


def _grid(first: float, interval: float, t0: float) -> tuple[int, float]:
    """Replay ``schedule_periodic``'s float fold: firings at ``first``,
    then repeated ``+= interval``. Returns (count of firings <= t0,
    next firing time) with the exact floats the live timer would hold."""
    t = first
    fired = 0
    while t <= t0:
        fired += 1
        t = t + interval
    return fired, t


def _uniform_profile(overlay) -> tuple[float, tuple, float, int]:
    """The single (src_access, fiber delays, dst_access, carrier count)
    every overlay-link carrier path must share for constructed
    convergence (shared instants = shared link-up arithmetic). Raises
    :class:`WarmStartError` when the topology is not constructible."""
    internet = overlay.internet
    profile = None
    carriers = None
    for node in overlay.nodes.values():
        for link in node.links.values():
            if carriers is None:
                carriers = len(link.carriers)
            elif len(link.carriers) != carriers:
                raise WarmStartError(
                    "constructed convergence needs a uniform carrier count"
                )
            for carrier in link.carriers:
                domain, s, d = internet._resolve(
                    link.node_host, link.nbr_host, carrier
                )
                path = domain.current_path(s, d)
                if path is None:
                    raise WarmStartError(
                        f"no route for {link.node_id}->{link.nbr_id} "
                        f"via {carrier}"
                    )
                fibers = [
                    domain.link_on_path(u, v)[0]
                    for u, v in zip(path, path[1:])
                ]
                for fiber in fibers:
                    if fiber.failed:
                        raise WarmStartError(f"fiber {fiber.name} is failed")
                    if fiber.capacity_bps is not None or fiber.jitter:
                        raise WarmStartError(
                            f"fiber {fiber.name} has capacity/jitter — "
                            "queueing state is not constructible"
                        )
                    if type(fiber.loss) is not NoLoss:
                        raise WarmStartError(
                            f"fiber {fiber.name} has a loss process — "
                            "stochastic state is not constructible"
                        )
                prof = (
                    internet.hosts[link.node_host].access_delay,
                    tuple(fiber.delay for fiber in fibers),
                    internet.hosts[link.nbr_host].access_delay,
                )
                if profile is None:
                    profile = prof
                elif prof != profile:
                    raise WarmStartError(
                        "constructed convergence needs every carrier path "
                        f"uniform: {prof} != {profile}"
                    )
    if profile is None:
        raise WarmStartError("overlay has no links to construct")
    return (*profile, carriers)


def converged_payload(overlay, warmup: float, key: str = "",
                      source_fingerprint: str = "") -> dict:
    """The :func:`capture` payload of the converged state a
    ``warm_up(warmup)`` + quiesce run would reach, computed from the
    topology spec — no flood storm. :func:`restore` installs it; this
    function only reads ``overlay`` (a fresh one on that topology).

    Only static, loss-free, capacity-free, jitter-free topologies whose
    carrier paths are uniform qualify (everything else raises
    :class:`WarmStartError`; callers fall back to tier-1 snapshots or
    the organic storm). The construction replays the exact float
    arithmetic of the live protocol — hello tick grids, per-hop arrival
    folds, carrier-monitor EWMA folds — so database content, advertised
    costs, carrier estimates, and the timer schedule are equal to the
    organic run's, validated by content-fingerprint equality in the
    test suite. Historical traffic statistics (byte/frame/datagram
    counters, processed-event counts) are *not* replayed: constructed
    payloads carry those at zero (``link-up`` excepted), which is the
    documented difference from an organic warm-up. Timers carry seqs
    ``0..k-1`` in the organic per-instant order, and ``clock.seq`` is k.
    """
    config = overlay.config
    if overlay.internet.columnar_window:
        raise WarmStartError(
            "constructed convergence requires columnar_window == 0"
        )
    if warmup <= 0:
        raise WarmStartError(f"warmup must be positive ({warmup})")
    if config.miss_threshold < 2 or config.recover_threshold < 1:
        raise WarmStartError("non-default hello thresholds not supported")
    if config.carrier_loss_switch <= 0:
        raise WarmStartError("carrier_loss_switch <= 0 would flap carriers")

    src_access, delays, dst_access, n_carriers = _uniform_profile(overlay)

    def arrive(t: float) -> float:
        # send_via fires the first hop at now + src_access; each fiber
        # arrives at ((now + 0.0) + 0.0 + delay) + 0.0 (loss-free,
        # uncapped, jitter-free traverse); delivery adds dst_access.
        a = t + src_access
        for d in delays:
            a = a + d
        return a + dst_access

    interval = config.hello_interval
    ticks: list[float] = []
    t = 0.0
    while t <= warmup:
        ticks.append(t)
        t = t + interval
    latency = arrive(0.0) - 0.0
    if latency >= interval:
        raise WarmStartError(
            "hello latency >= hello interval — arrival/tick interleaving "
            "is not constructible"
        )
    # The (tick, carrier) position where the recover_threshold-th fresh
    # hello lands: link-up instant for every endpoint at once.
    up_tick = (config.recover_threshold - 1) // n_carriers
    if up_tick >= len(ticks):
        raise WarmStartError(
            f"warmup {warmup} too short: links come up at hello tick "
            f"{up_tick}, only {len(ticks)} ticks fit"
        )

    # Fold the carrier monitor exactly as arriving hellos would; every
    # (endpoint, carrier) shares this series on a uniform topology.
    monitor = _CarrierMonitor()
    advertised_est = None
    for k, tick in enumerate(ticks):
        arrival = arrive(tick)
        monitor.observe(k, arrival - tick, arrival,
                        config.loss_alpha, config.latency_alpha)
        if k == up_tick:
            advertised_est = monitor.latency_est
    # warm_up(warmup) leaves the clock at exactly ``warmup``; quiesce
    # only moves it when the final tick's arrivals are still in flight.
    last_arrival = arrive(ticks[-1])
    t0 = last_arrival if last_arrival > warmup else warmup
    if monitor.loss_est != 0.0 or monitor.version != 0:
        raise WarmStartError("loss-free monitor fold moved — bug")
    # Advertised costs must survive every metric drift check between
    # link-up and t0, or the organic run would have re-advertised.
    drift = abs(monitor.latency_est - advertised_est)
    if drift > 0.5 * config.cost_change_threshold * advertised_est:
        raise WarmStartError(
            "latency estimate drifts past the metric re-advertise "
            "threshold — constructed LSUs would diverge from organic"
        )
    advertised_cost = advertised_est * (
        1.0 + config.loss_cost_factor * 0.0
    )

    refresh_fired, refresh_next = _grid(
        0.0 + config.lsu_refresh, config.lsu_refresh, t0
    )
    if refresh_fired:
        raise WarmStartError(
            f"warmup {warmup} crosses the LSU refresh period "
            f"({config.lsu_refresh}) — refresh floods are not constructible"
        )
    hello_fired, hello_next = _grid(0.0, interval, t0)
    check_fired, check_next = _grid(0.0 + interval, interval, t0)
    from repro.core.node import METRIC_CHECK_INTERVAL

    metric_fired, metric_next = _grid(
        0.0 + METRIC_CHECK_INTERVAL, METRIC_CHECK_INTERVAL, t0
    )

    n_ticks = len(ticks)
    node_ids = list(overlay.nodes)
    degree = {nid: len(overlay.nodes[nid].links) for nid in node_ids}
    costs = {nid: {nbr: advertised_cost for nbr in overlay.nodes[nid].links}
             for nid in node_ids}
    topo_fp = group_fp = 0
    for nid in node_ids:
        topo_fp ^= TopologyRecord(nid, costs[nid]).part
        group_fp ^= GroupRecord(nid, ()).part
    # Local version counters tick once per *accepted* update; how many
    # of each origin's intermediate LSU generations a replica accepted
    # is a flood-race artifact nothing reads back — use the all-accepted
    # upper bound. Group state has exactly one generation per origin.
    topo_version = sum(1 + degree[nid] for nid in node_ids)

    rx_state = [n_ticks - 1, last_arrival, monitor.loss_est,
                monitor.latency_est, monitor.version]

    def link_state(link) -> dict:
        # What the warm-up moves; the rest (mute, carrier choice and
        # switches, traffic statistics) keeps its fresh value.
        names = link.carriers
        return {
            **link.warm_state(),
            "up": True,
            "hello_seq": {name: n_ticks for name in names},
            "rx": {name: list(rx_state) for name in names},
            "peer_feedback": {name: 0.0 for name in names},
            "last_rx_time": last_arrival,
            "feedback": {name: 0.0 for name in names},
            "feedback_version": 0,
            "hello_wire": 16 + 8 * (3 + len(names)),
        }

    # Timer seqs in the organic steady-state per-instant order: at
    # every shared tick instant the failure checks fire before the
    # hellos (checks re-arm first), so all checks, then all hellos,
    # then the per-node metric/refresh cadences.
    def timer(kind, nid, nbr, time, every, fired):
        return {"kind": kind, "node": nid, "nbr": nbr, "time": time,
                "interval": every, "fired": fired, "rearmed": fired}

    timers = [
        timer(kind, nid, nbr, time, interval, fired)
        for kind, time, fired in (("check", check_next, check_fired),
                                  ("hello", hello_next, hello_fired))
        for nid in node_ids for nbr in overlay.nodes[nid].links
    ] + [
        entry for nid in node_ids for entry in (
            timer("metric", nid, None, metric_next, METRIC_CHECK_INTERVAL,
                  metric_fired),
            timer("refresh", nid, None, refresh_next, config.lsu_refresh, 0),
        )
    ]
    for seq, entry in enumerate(timers):
        entry["seq"] = seq
    fired = sum(entry["fired"] for entry in timers)

    order = dict.fromkeys(node_ids, node_ids)  # every replica: origin order
    payload = _payload(
        overlay, t0, (topo_fp, group_fp), key, source_fingerprint,
        clock={"now": t0, "seq": len(timers), "processed": 0,
               "timer_fired": fired, "timer_rearmed": fired},
        topo={"records": {n: [1 + degree[n], costs[n]] for n in node_ids},
              "versions": dict.fromkeys(node_ids, topo_version),
              "order": order},
        groups={"records": {n: [1, []] for n in node_ids},
                "versions": dict.fromkeys(node_ids, len(node_ids)),
                "order": order},
        nodes={
            nid: {"lsu_seq": 1 + degree[nid], "gsu_seq": 1,
                  "advertised": costs[nid], "protocol_epochs": 0}
            for nid in node_ids
        },
        links={
            nid: {nbr: link_state(link)
                  for nbr, link in overlay.nodes[nid].links.items()}
            for nid in node_ids
        },
        timers=timers,
    )
    counters = payload["counters"]["overlay"]
    counters["link-up"] = counters.get("link-up", 0.0) + sum(degree.values())
    return payload


# ---------------------------------------------------------------- store


class SnapshotStore:
    """Gitignored on-disk snapshot cache (gzip JSON, atomic writes).

    Keyed by :func:`warm_key`; a snapshot whose recorded source
    fingerprint differs from the caller's current one is *stale* and is
    never restored (mirroring the sweep cache's contract). Setting
    ``REPRO_WARMSTART_FRESH`` (the sweep ``--fresh`` flag does this)
    deletes on sight instead of loading.

    A load reads the file's bytes every time but decodes them once per
    process: payloads are memoized by the blake2b of those bytes
    (:data:`DECODED_CAPACITY` of them), so a rewritten file decodes
    afresh and a corrupt one is a miss however often a good one with
    the same key was read. A loaded payload is shared and read-only.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get(ENV_STORE_DIR) or DEFAULT_STORE_DIR
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json.gz"

    @staticmethod
    def _fresh_requested() -> bool:
        return os.environ.get(ENV_FRESH, "") not in ("", "0")

    def load(self, key: str, source_fingerprint: str | None = None) -> dict | None:
        """The stored payload for ``key``, or ``None`` when absent,
        unreadable, format-incompatible, stale-sourced, or invalidated
        by ``REPRO_WARMSTART_FRESH``."""
        path = self.path(key)
        if self._fresh_requested():
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # missing
        digest = hashlib.blake2b(blob, digest_size=16).digest()
        entry = _DECODED.get(digest)
        if entry is None:
            try:
                payload = json.loads(gzip.decompress(blob))
            except (OSError, ValueError, EOFError, zlib.error):
                return None  # truncated, bit-flipped or not JSON
            if (not isinstance(payload, dict)
                    or payload.get("format") != FORMAT_VERSION
                    or not isinstance(payload.get("meta"), dict)):
                return None
            entry = _DECODED[digest] = [payload, None]
            while len(_DECODED) > DECODED_CAPACITY:
                _DECODED.popitem(last=False)
        else:
            _DECODED.move_to_end(digest)
        payload = entry[0]
        if (source_fingerprint is not None
                and payload["meta"].get("source_fingerprint")
                != source_fingerprint):
            return None
        return payload

    def save(self, key: str, payload: dict) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(key)

        def write(tmp: Path) -> None:
            with gzip.open(tmp, "wt", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))

        atomic_write(path, write)
        return path


# ------------------------------------------------------------ front door


def ensure_warm(
    build: Callable[[], object],
    spec,
    warmup: float,
    *,
    store: SnapshotStore | None = None,
    source_fingerprint: str = "",
    construct: bool = False,
    key: str | None = None,
) -> tuple[object, dict]:
    """Produce a warm (converged, quiesced) overlay the cheapest way
    available, and say how.

    ``build()`` must return a fresh, unstarted overlay for ``spec``.
    The warm path is tried in order: **snapshot** (store hit for the
    :func:`warm_key` of (spec, config, source)), **constructed**
    (``construct=True`` and the topology qualifies: its
    :func:`converged_payload` is restored and stored as is), **organic**
    (run the storm, then capture into the store for next time). A
    stored payload :func:`restore` rejects is a miss, overwritten.

    Returns ``(overlay, info)`` where ``info`` records ``warm_source``
    (``"snapshot"`` / ``"constructed"`` / ``"organic"``), ``t0``, the
    snapshot ``key``, why a stored payload was ``rejected``, and
    wall-clock costs: ``restore_s``, ``construct_s``, or ``warm_s`` +
    ``capture_s`` (the save alone, after a construct) as applicable.
    """
    overlay = build()
    if key is None:
        key = warm_key(spec, overlay.config, source_fingerprint)
    info: dict = {"key": key}

    if store is not None:
        payload = store.load(key, source_fingerprint)
        if payload is not None:
            started = _time.perf_counter()
            try:
                info["t0"] = restore(overlay, payload)
            except (WarmStartError, SimulationError, LookupError,
                    TypeError, ValueError) as exc:
                # A payload that decodes but lies (an edited record,
                # another topology's node set, a mistyped field): a miss.
                info["rejected"] = f"{type(exc).__name__}: {exc}"
                overlay = build()  # restore may have half-installed it
            else:
                info["restore_s"] = _time.perf_counter() - started
                info["warm_source"] = "snapshot"
                return overlay, info

    if construct:
        started = _time.perf_counter()
        try:
            payload = converged_payload(
                overlay, warmup, key=key, source_fingerprint=source_fingerprint
            )
        except WarmStartError:
            pass
        else:
            info["t0"] = restore(overlay, payload)
            info["construct_s"] = _time.perf_counter() - started
            info["warm_source"] = "constructed"
            if store is not None:
                # Persist the constructed state so configs that cannot
                # construct themselves (a positive columnar_window, say)
                # can restore it under the same tier-normalized key.
                started = _time.perf_counter()
                store.save(key, payload)
                info["capture_s"] = _time.perf_counter() - started
            return overlay, info

    started = _time.perf_counter()
    overlay.warm_up(warmup)
    info["warm_s"] = _time.perf_counter() - started
    started = _time.perf_counter()
    payload = capture(overlay, key=key, source_fingerprint=source_fingerprint)
    if store is not None:
        store.save(key, payload)
    info["capture_s"] = _time.perf_counter() - started
    info["t0"] = payload["meta"]["t0"]
    info["warm_source"] = "organic"
    return overlay, info
