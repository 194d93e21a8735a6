"""Warm-start subsystem: snapshot/restore round trips, constructed
convergence, the snapshot store, and the sweep-engine plumbing.

The contract under test (DESIGN.md "Warm-start and convergence
snapshots"):

* a :func:`~repro.core.warmstart.capture` payload restored into a
  fresh twin produces a **byte-identical continuation** — deliveries,
  counters, and event sequence numbers match a straight-through run
  exactly;
* :func:`~repro.core.warmstart.converged_payload` synthesizes, from
  the topology spec alone, a payload that :func:`restore` turns into
  the very state an organic ``warm_up`` + ``quiesce`` reaches: equal
  database fingerprints, equal timer schedules, identical
  continuations — and a settle window moves nothing (the constructed
  state is a fixed point); ``capture`` right after that restore gives
  the payload back;
* the :class:`~repro.core.warmstart.SnapshotStore` never serves
  stale-source, format-incompatible or corrupt payloads (a corrupt
  file is a miss, not an exception), ``REPRO_WARMSTART_FRESH``
  invalidates on sight, and a stored payload that decodes but that
  ``restore`` rejects is a miss ``ensure_warm`` re-warms over;
* sweep cells carrying a ``warm_key`` fold it into the cache digest,
  hand it to ``run_cell``, and force fresh warm-starts when the
  result cache is disabled (``--fresh`` semantics).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.runner import WARMSTART_FRESH_ENV, SweepCache, run_sweep
from repro.analysis.sweep import Cell, Sweep
from repro.analysis.workloads import CbrSource
from repro.audit import assert_identical
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.core.warmstart import (
    FORMAT_VERSION,
    SnapshotStore,
    WarmStartError,
    _check_fresh,
    capture,
    converged_payload,
    ensure_warm,
    restore,
    warm_key,
)
from repro.net.internet import Internet
from repro.net.loss import BernoulliLoss
from repro.sim import snapshot as snap
from repro.sim.events import SimulationError, Simulator
from repro.sim.rng import RngRegistry

SEED = 4242
N = 10
WARMUP = 2.0


def _mesh(n: int = N, *, lossy: bool = False,
          ragged: bool = False) -> OverlayNetwork:
    """A fresh, unstarted ring+chords overlay (the scaling-leg shape at
    test size). ``lossy`` puts a loss process on one fiber and
    ``ragged`` makes one fiber slower — both disqualify tier-2."""
    sim = Simulator()
    rngs = RngRegistry(SEED)
    inet = Internet(sim, rngs)
    domain = inet.add_isp("mesh", convergence_delay=10.0)
    fibers = sorted(
        {tuple(sorted((f"r{i:02d}", f"r{(i + d) % n:02d}")))
         for i in range(n) for d in (1, 3)}
    )
    for i in range(n):
        domain.add_router(f"r{i:02d}")
    for j, (a, b) in enumerate(fibers):
        loss = BernoulliLoss(0.2) if lossy and j == 0 else None
        delay = 0.020 if ragged and j == 0 else 0.010
        domain.add_link(a, b, delay, None, loss)
    for i in range(n):
        inet.add_host(f"n{i:02d}", access_delay=0.0)
        inet.attach(f"n{i:02d}", "mesh", f"r{i:02d}")
    sites = [f"n{i:02d}" for i in range(n)]
    links = [(f"n{a[1:]}", f"n{b[1:]}") for a, b in fibers]
    return OverlayNetwork(inet, sites, links)


def _drive(overlay: OverlayNetwork, duration: float = 1.5) -> list[tuple]:
    """A deterministic measured window: two CBR flows, exact-time
    delivery trace."""
    sim = overlay.sim
    deliveries: list[tuple] = []

    def receiver(site):
        return lambda msg: deliveries.append(
            (site, msg.origin, msg.flow, msg.seq, sim.now)
        )

    for src, sink in (("n00", "n05"), ("n03", "n08")):
        overlay.client(sink, 7, on_message=receiver(sink))
        CbrSource(sim, overlay.client(src), Address(sink, 7),
                  rate_pps=10.0).start()
    sim.run(until=sim.now + duration)
    return deliveries


def _schedule(overlay: OverlayNetwork, with_seq: bool = True) -> list[tuple]:
    """The armed auto-timer schedule as a sorted comparison key."""
    entries = []
    for node in overlay.nodes.values():
        for nbr, link in node.links.items():
            for kind, timer in (("hello", link._hello_timer),
                                ("check", link._check_timer)):
                entries.append((kind, node.id, nbr, snap.timer_schedule(timer)))
        for kind, timer in (("refresh", node._refresh_timer),
                            ("metric", node._metric_timer)):
            entries.append((kind, node.id, None, snap.timer_schedule(timer)))
    rows = []
    for kind, nid, nbr, entry in entries:
        row = (kind, nid, nbr, entry["time"], entry["interval"],
               entry["fired"], entry["rearmed"])
        rows.append(row + (entry["seq"],) if with_seq else row)
    return sorted(rows)


def _organic_capture():
    """One organically warmed mesh, its snapshot, and its continuation
    trace — the reference every restored twin is compared against."""
    overlay = _mesh()
    overlay.warm_up(WARMUP)
    payload = capture(overlay, key="test", source_fingerprint="fp0")
    deliveries = _drive(overlay)
    return overlay, payload, deliveries


# -------------------------------------------------- tier 1: round trips


#: The heap is the one engine; the ``[recycled]`` id is kept so the
#: suite's test ids stay stable.
@pytest.mark.parametrize("engine", ["recycled"])
def test_restore_continuation_is_byte_identical(engine):
    organic, payload, organic_deliveries = _organic_capture()
    twin = _mesh()
    t0 = restore(twin, payload)
    assert t0 == payload["meta"]["t0"]
    assert twin.sim.now == organic.sim.now - 1.5  # resumed at capture's t0
    assert twin.converged()
    twin_deliveries = _drive(twin)
    assert_identical(twin_deliveries, organic_deliveries, label="deliveries")
    assert twin.counters.as_dict() == organic.counters.as_dict()
    assert twin.internet.counters.as_dict() == organic.internet.counters.as_dict()
    assert twin.sim.now == organic.sim.now
    # Restores are seq-exact: the allocator state itself is reproduced.
    assert twin.sim._seq == organic.sim._seq
    assert twin.sim.events_processed == organic.sim.events_processed


def test_restore_supports_a_fluid_continuation():
    # The fluid engine attaches *after* warm-up (steady-state capture
    # forbids live fluid state); a restored twin must carry fluid bulk
    # traffic exactly like an organically warmed overlay does.
    organic = _mesh()
    organic.warm_up(WARMUP)
    payload = capture(organic)
    twin = _mesh()
    restore(twin, payload)

    def fluid_drive(overlay):
        sim = overlay.sim
        deliveries: list[tuple] = []
        overlay.client("n05", 9, on_message=lambda msg: deliveries.append(
            (msg.origin, msg.flow, msg.seq, sim.now)))
        CbrSource(sim, overlay.client("n00"), Address("n05", 9),
                  rate_pps=50.0, fluid=overlay.fluid_engine()).start()
        sim.run(until=sim.now + 1.5)
        overlay.fluid_engine().settle_now()
        return deliveries, overlay.counters.as_dict()

    twin_out = fluid_drive(twin)
    organic_out = fluid_drive(organic)
    assert twin_out == organic_out
    assert twin_out[1]["fluid.flows-started"] == 1.0


def test_timer_schedule_survives_the_round_trip():
    organic, payload, __ = _organic_capture()
    # The payload's entries are exactly the armed schedule...
    stored = sorted(
        (e["kind"], e["node"], e["nbr"], e["time"], e["interval"],
         e["fired"], e["rearmed"], e["seq"])
        for e in payload["timers"]
    )
    twin = _mesh()
    restore(twin, payload)
    # ...and the restored overlay re-arms precisely that schedule, with
    # every timer actually queued (not just recorded on an attribute).
    assert _schedule(twin) == stored
    assert len(snap.queued_auto_timers(twin.sim)) == len(stored)


def test_rng_stream_positions_survive_the_round_trip():
    overlay = _mesh()
    overlay.warm_up(WARMUP)
    probe = overlay.rngs.stream("probe")
    burned = [probe.random() for __ in range(3)]
    payload = capture(overlay)
    twin = _mesh()
    restore(twin, payload)
    assert twin.rngs.master_seed == overlay.rngs.master_seed
    restored = twin.rngs.stream("probe")
    assert [restored.random() for __ in range(5)] == \
        [probe.random() for __ in range(5)]
    # A fresh stream would have replayed the burned prefix instead.
    assert restored.random() != burned[0]


def test_restore_rejects_bad_payloads_and_dirty_targets():
    __, payload, __ = _organic_capture()
    warmed = _mesh()
    warmed.warm_up(WARMUP)
    with pytest.raises(WarmStartError, match="fresh"):
        restore(warmed, payload)
    with pytest.raises(WarmStartError, match="format"):
        restore(_mesh(), {**payload, "format": 999})
    with pytest.raises(WarmStartError, match="node set"):
        restore(_mesh(n=8), payload)
    # The clock primitive itself refuses a simulator with history.
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    with pytest.raises(SimulationError, match="fresh"):
        sim.restore_clock(1.0, 5)
    # Every adopted timer carries its snapshotted seq.
    with pytest.raises(TypeError, match="seq"):
        Simulator().adopt_periodic(1.0, 0.5, lambda: None)


# ---------------------------------------- tier 2: constructed convergence


def _construct(overlay: OverlayNetwork, warmup: float = WARMUP) -> float:
    """Warm ``overlay`` the tier-2 way: synthesize, then restore."""
    return restore(overlay, converged_payload(overlay, warmup))


def test_constructed_equals_organic_state():
    organic = _mesh()
    organic.warm_up(WARMUP)
    t0_organic = organic.quiesce()
    twin = _mesh()
    t0 = _construct(twin)
    assert t0 == t0_organic == twin.sim.now
    assert twin.converged()
    for nid, node in organic.nodes.items():
        built = twin.nodes[nid]
        assert built.topo_db.fingerprint == node.topo_db.fingerprint
        assert built.group_db.fingerprint == node.group_db.fingerprint
        assert built.warm_state() == node.warm_state()
        for nbr, link in node.links.items():
            organic_link = link.warm_state()
            built_link = built.links[nbr].warm_state()
            # Historical traffic statistics are documented as not
            # replayed; everything protocol-visible must be equal.
            for stat in ("bytes_sent", "frames_sent",
                         "data_bytes_sent", "data_frames_sent"):
                organic_link.pop(stat), built_link.pop(stat)
            assert built_link == organic_link
    assert _schedule(twin, with_seq=False) == \
        _schedule(organic, with_seq=False)


def test_constructed_continuation_matches_organic():
    organic = _mesh()
    organic.warm_up(WARMUP)
    organic.quiesce()
    twin = _mesh()
    _construct(twin)
    assert_identical(_drive(twin), _drive(organic), label="deliveries")


def test_constructed_state_is_a_settle_fixed_point():
    overlay = _mesh()
    _construct(overlay)
    fingerprints = [
        (n.topo_db.fingerprint, n.group_db.fingerprint)
        for n in overlay.nodes.values()
    ]
    overlay.sim.run(until=overlay.sim.now + 1.5)  # hello/check/metric ticks
    assert overlay.converged()
    assert fingerprints == [
        (n.topo_db.fingerprint, n.group_db.fingerprint)
        for n in overlay.nodes.values()
    ]
    assert all(
        link.warm_state()["switch_count"] == 0
        for node in overlay.nodes.values() for link in node.links.values()
    )


def test_constructed_rejects_unconstructible_topologies():
    with pytest.raises(WarmStartError, match="loss"):
        _construct(_mesh(lossy=True))
    with pytest.raises(WarmStartError, match="uniform"):
        _construct(_mesh(ragged=True))
    with pytest.raises(WarmStartError, match="refresh"):
        _construct(_mesh(), OverlayConfig().lsu_refresh + 1.0)
    warmed = _mesh()
    warmed.warm_up(WARMUP)
    with pytest.raises(WarmStartError, match="fresh"):
        _construct(warmed)


def test_constructed_payload_round_trips_through_restore_and_capture():
    overlay = _mesh()
    payload = converged_payload(overlay, WARMUP, key="k", source_fingerprint="fp0")
    _check_fresh(overlay)  # synthesizing only reads the overlay
    restore(overlay, payload)
    again = capture(overlay, key="k", source_fingerprint="fp0")
    for p in (again, payload):
        p["timers"] = sorted(p["timers"], key=lambda e: e["seq"])
    assert again == payload
    assert [e["seq"] for e in payload["timers"]] == \
        list(range(payload["clock"]["seq"]))


def test_stored_constructed_payload_restores_the_constructed_run(
        tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    spec = ("mesh", N, SEED, WARMUP)
    built, info = ensure_warm(_mesh, spec, WARMUP, store=store,
                              source_fingerprint="fp0", construct=True)
    assert info["warm_source"] == "constructed" and "capture_s" in info
    twin, again = ensure_warm(_mesh, spec, WARMUP, store=store,
                              source_fingerprint="fp0", construct=True)
    assert again["warm_source"] == "snapshot" and again["t0"] == info["t0"]
    assert_identical(_drive(twin), _drive(built), label="deliveries")


# ----------------------------------------------------- store + front door


def test_store_round_trip_and_staleness(tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    __, payload, __ = _organic_capture()
    store = SnapshotStore(tmp_path)
    key = payload["meta"]["key"]
    path = store.save(key, payload)
    assert path == store.path(key) and path.exists()
    loaded = store.load(key, "fp0")
    assert loaded == __import__("json").loads(
        __import__("json").dumps(payload))  # JSON-shaped, loads losslessly
    twin = _mesh()
    restore(twin, loaded)
    assert twin.converged()
    # Stale source fingerprint: never served.
    assert store.load(key, "fp-moved") is None
    # Unknown key / format bump: never served.
    assert store.load("nope", "fp0") is None
    store.save("v999", {**payload, "format": 999})
    assert store.load("v999", "fp0") is None
    # REPRO_WARMSTART_FRESH deletes on sight.
    monkeypatch.setenv(WARMSTART_FRESH_ENV, "1")
    assert store.load(key, "fp0") is None
    assert not store.path(key).exists()
    monkeypatch.setenv(WARMSTART_FRESH_ENV, "0")  # "0" means off
    store.save(key, payload)
    assert store.load(key, "fp0") is not None


def _corrupt_truncated(store, key):
    raw = store.path(key).read_bytes()
    store.path(key).write_bytes(raw[: len(raw) // 2])


def _corrupt_bit_flipped(store, key):
    raw = bytearray(store.path(key).read_bytes())
    raw[len(raw) // 2] ^= 0xFF  # inside the deflate stream
    store.path(key).write_bytes(bytes(raw))


def _corrupt_not_a_dict(store, key):
    store.save(key, [FORMAT_VERSION, "fp0"])


def _corrupt_no_meta(store, key):
    store.save(key, {"format": FORMAT_VERSION})


@pytest.mark.parametrize("corrupt", [
    _corrupt_truncated, _corrupt_bit_flipped,
    _corrupt_not_a_dict, _corrupt_no_meta,
], ids=["truncated", "bit_flipped", "not_a_dict", "no_meta"])
def test_store_load_returns_none_on_a_corrupt_file(tmp_path, monkeypatch,
                                                  corrupt):
    """An unreadable snapshot is a miss, never an exception: the caller
    falls back and re-captures."""
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    store.save("k", {"format": FORMAT_VERSION,
                     "meta": {"source_fingerprint": "fp0"},
                     "pad": list(range(2000))})
    assert store.load("k", "fp0") is not None
    corrupt(store, "k")
    assert store.load("k", "fp0") is None
    assert store.load("k") is None


def test_concurrent_saves_of_one_key_never_tear(tmp_path, monkeypatch):
    """Writers of one key each publish a whole file (a shared tmp name
    let them interleave into one torn file, or fail its rename), and a
    reader only ever loads one of the payloads written."""
    import threading

    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    payloads = [{"format": FORMAT_VERSION, "meta": {"writer": w},
                 "pad": [w] * 20_000} for w in range(4)]
    store.save("k", payloads[0])
    errors: list = []
    loaded: list = []
    writing = threading.Event()

    def writer(payload):
        try:
            for _ in range(10):
                store.save("k", payload)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader():
        while writing.is_set():
            loaded.append(store.load("k"))

    writers = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    writing.set()
    watcher = threading.Thread(target=reader)
    watcher.start()
    for thread in writers:
        thread.start()
    for thread in writers:
        thread.join()
    writing.clear()
    watcher.join()
    assert errors == []
    assert loaded and all(payload in payloads for payload in loaded)
    assert store.load("k") in payloads
    assert not list(tmp_path.glob("*.tmp"))


def test_a_failed_save_leaves_no_tmp_and_the_old_file(tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    good = {"format": FORMAT_VERSION, "meta": {}}
    store.save("k", good)
    with pytest.raises(TypeError):
        store.save("k", {"format": FORMAT_VERSION, "meta": {}, "x": object()})
    assert store.load("k") == good
    assert [p.name for p in tmp_path.iterdir()] == [store.path("k").name]


def test_ensure_warm_recaptures_over_a_corrupt_snapshot(tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    spec = ("mesh", N, SEED, WARMUP)
    __, info = ensure_warm(_mesh, spec, WARMUP, store=store,
                           source_fingerprint="fp0")
    _corrupt_bit_flipped(store, info["key"])
    overlay, again = ensure_warm(_mesh, spec, WARMUP, store=store,
                                 source_fingerprint="fp0")
    assert again["warm_source"] != "snapshot" and overlay.converged()
    assert store.load(info["key"], "fp0") is not None


def _lie_edited_record(store, key):
    payload = json.loads(json.dumps(store.load(key, "fp0")))
    record = payload["topo"]["records"]["n03"][1]
    record[next(iter(record))] *= 2.0
    store.save(key, payload)


def _lie_other_node_set(store, key):
    other = _mesh(n=8)
    other.warm_up(WARMUP)
    store.save(key, capture(other, key=key, source_fingerprint="fp0"))


@pytest.mark.parametrize("lie, construct", [
    (_lie_edited_record, False), (_lie_other_node_set, True),
], ids=["edited_record", "other_node_set"])
def test_ensure_warm_rewarms_over_a_payload_restore_rejects(
        tmp_path, monkeypatch, lie, construct):
    """A stored payload that decodes but lies is a miss, not a crash:
    the overlay is rebuilt, warmed the next way, and the file
    overwritten, so the next call is a snapshot hit."""
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    spec = ("mesh", N, SEED, WARMUP)
    __, info = ensure_warm(_mesh, spec, WARMUP, store=store,
                           source_fingerprint="fp0")
    lie(store, info["key"])
    with pytest.raises(WarmStartError):
        restore(_mesh(), store.load(info["key"], "fp0"))
    overlay, again = ensure_warm(_mesh, spec, WARMUP, store=store,
                                 source_fingerprint="fp0", construct=construct)
    assert again["warm_source"] == ("constructed" if construct else "organic")
    assert "rejected" in again and overlay.converged()
    hit, third = ensure_warm(_mesh, spec, WARMUP, store=store,
                             source_fingerprint="fp0")
    assert third["warm_source"] == "snapshot" and "rejected" not in third
    assert_identical(_drive(hit), _drive(overlay), label="deliveries")


def test_warm_key_ignores_engine_and_tracks_spec():
    spec = ("mesh", N, SEED, WARMUP)
    base = warm_key(spec, OverlayConfig(), "fp0")
    batched = OverlayConfig(columnar=True, columnar_window=0.00025,
                            columnar_vectorized=True)
    assert warm_key(spec, batched, "fp0") == base
    assert warm_key(spec, OverlayConfig(audit=True), "fp0") == base
    assert warm_key(("mesh", N + 1, SEED, WARMUP), OverlayConfig(), "fp0") != base
    assert warm_key(spec, OverlayConfig(hello_interval=0.2), "fp0") != base
    assert warm_key(spec, OverlayConfig(), "fp1") != base


def test_ensure_warm_prefers_snapshot_then_constructed(tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SnapshotStore(tmp_path)
    spec = ("mesh", N, SEED, WARMUP)
    overlay, info = ensure_warm(_mesh, spec, WARMUP, store=store,
                                source_fingerprint="fp0")
    assert info["warm_source"] == "organic" and overlay.converged()
    assert store.path(info["key"]).exists()
    hit, info2 = ensure_warm(_mesh, spec, WARMUP, store=store,
                             source_fingerprint="fp0")
    assert info2["warm_source"] == "snapshot" and info2["key"] == info["key"]
    assert hit.converged() and info2["t0"] == info["t0"]
    # No store: constructed wins when the topology qualifies...
    built, info3 = ensure_warm(_mesh, spec, WARMUP, construct=True)
    assert info3["warm_source"] == "constructed" and built.converged()
    # ...and an unconstructible topology falls back to organic.
    fallback, info4 = ensure_warm(
        lambda: _mesh(lossy=True), spec, WARMUP, construct=True
    )
    assert info4["warm_source"] == "organic" and fallback.converged()


# ------------------------------------------------------- sweep plumbing


def _warm_probe_cell(seed: int, x: int, warm_key: str | None = None):
    return {
        "x": x,
        "warm_key_seen": warm_key or "",
        "fresh_env": os.environ.get(WARMSTART_FRESH_ENV, ""),
    }


def _warm_sweep(with_keys: bool) -> Sweep:
    return Sweep(
        name="test_warm_plumbing",
        run_cell=_warm_probe_cell,
        cells=[
            Cell(key=(x,), params={"x": x}, seed=99,
                 warm_key=f"wk-{x}" if with_keys else None)
            for x in (1, 2)
        ],
        master_seed=98,
    )


def test_cell_warm_key_reaches_run_cell_and_forces_fresh(monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    # Cache disabled == a --fresh run: snapshots must be invalidated too.
    table = run_sweep(_warm_sweep(True), workers=0, cache=False).as_table()
    assert table[(1,)]["warm_key_seen"] == "wk-1"
    assert table[(2,)]["warm_key_seen"] == "wk-2"
    assert all(v["fresh_env"] == "1" for v in table.values())
    assert WARMSTART_FRESH_ENV not in os.environ  # restored afterwards
    # Key-less cells never get the kwarg and never force freshness.
    table = run_sweep(_warm_sweep(False), workers=0, cache=False).as_table()
    assert all(v["warm_key_seen"] == "" for v in table.values())
    assert all(v["fresh_env"] == "" for v in table.values())


def test_cell_warm_key_folds_into_cache_digest(tmp_path, monkeypatch):
    monkeypatch.delenv(WARMSTART_FRESH_ENV, raising=False)
    store = SweepCache(tmp_path)
    keyed, plain = _warm_sweep(True), _warm_sweep(False)
    for sweep in (keyed, plain):
        digests = [store.digest(sweep, cell, 99, 0, "fp") for cell in sweep.cells]
        assert len(set(digests)) == len(digests)
    for keyed_cell, plain_cell in zip(keyed.cells, plain.cells):
        assert store.digest(keyed, keyed_cell, 99, 0, "fp") != \
            store.digest(plain, plain_cell, 99, 0, "fp")
    # A cached warm-keyed run is served without re-forcing freshness.
    first = run_sweep(keyed, workers=0, cache=store, fingerprint="fp")
    assert first.executed == 2 and first.cached == 0
    second = run_sweep(keyed, workers=0, cache=store, fingerprint="fp")
    assert second.cached == 2
    assert second.as_table() == first.as_table()
