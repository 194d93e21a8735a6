"""Sweep engine: serial/parallel equivalence, seeds, cache, failures.

The engine's contract (DESIGN.md "Experiment engine"):

* ``workers=0`` and ``workers=N`` produce byte-identical tables — a
  cell is a pure function of ``(seed, params)``, so where it runs can
  never change what it computes;
* per-cell seeds derive via blake2b of ``"{master}:{key}"`` (the
  RngRegistry discipline, distinct hash family) and are stable forever;
* the result cache is keyed by cell spec + source fingerprint — hits
  are byte-identical, fingerprint moves invalidate everything;
* failures surface as failed *cells*, never hung *runs* — including a
  worker process dying outright.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.metrics import ReplicateStat, replicate_stats
from repro.analysis.runner import (
    SweepCache,
    WORKERS_ENV,
    resolve_workers,
    run_sweep,
    source_fingerprint,
)
from repro.analysis.sweep import (
    Cell,
    Sweep,
    SweepError,
    cell_seed,
    counters_of,
    grid,
    with_counters,
)


# Cells must be top-level functions: workers unpickle them by reference.

def _arith_cell(seed: int, x: int, scale: float):
    rnd = (seed % 9973) / 9973.0
    return {"y": x * scale + rnd, "x": x}


def _sim_cell(seed: int, ticks: int):
    from repro.sim.events import Simulator

    sim = Simulator()
    for i in range(ticks):
        sim.schedule(0.001 * (i + 1), lambda: None)
    sim.run(until=1.0)
    return with_counters({"ticks": ticks}, sim)


def _flaky_cell(seed: int, mode: str):
    if mode == "raise":
        raise ValueError(f"boom seed={seed}")
    if mode == "die":
        os._exit(13)
    return {"ok": 1.0}


def _arith_sweep(pin: int | None = 4501) -> Sweep:
    return Sweep(
        name="test_arith",
        run_cell=_arith_cell,
        cells=[Cell(key=(x, s), params={"x": x, "scale": s}, seed=pin)
               for x in (1, 2, 3) for s in (0.5, 2.0)],
        master_seed=4500,
    )


def _dump(result) -> str:
    """Canonical bytes of a table (keys stringified for JSON)."""
    table = result.as_table()
    return json.dumps({str(k): v for k, v in table.items()}, sort_keys=True)


# ------------------------------------------------------- serial == parallel

def test_serial_and_parallel_tables_are_byte_identical():
    sweep = _arith_sweep()
    serial = run_sweep(sweep, workers=0, cache=False)
    pooled = run_sweep(sweep, workers=2, cache=False)
    assert _dump(serial) == _dump(pooled)
    assert list(serial.as_table()) == [c.key for c in sweep.cells]
    assert list(pooled.as_table()) == [c.key for c in sweep.cells]
    assert serial.executed == len(sweep.cells)
    assert pooled.executed == len(sweep.cells)


def test_parallel_respects_declared_order_not_completion_order():
    # Cells with very different costs: completion order differs from
    # declared order, collection must not.
    sweep = Sweep(
        name="test_order",
        run_cell=_sim_cell,
        cells=[Cell(key=t, params={"ticks": t}) for t in (500, 1, 200, 5)],
        master_seed=1,
    )
    pooled = run_sweep(sweep, workers=2, cache=False)
    assert list(pooled.as_table()) == [500, 1, 200, 5]


# -------------------------------------------------------------------- seeds

def test_cell_seed_is_stable_forever():
    # Pinned: these exact values are the cache-compatibility contract.
    assert cell_seed(7, ("a", 1)) == 18109028095814720206
    assert cell_seed(7, "a|1") == 18109028095814720206  # label form
    assert cell_seed(7, ("a", 1), replicate=1) != cell_seed(7, ("a", 1))


def test_cell_seed_varies_by_master_key_and_replicate():
    seeds = {
        cell_seed(1, "k"), cell_seed(2, "k"), cell_seed(1, "j"),
        cell_seed(1, "k", 1), cell_seed(1, "k", 2),
    }
    assert len(seeds) == 5


def test_pinned_seed_is_used_verbatim_for_replicate_zero():
    sweep = _arith_sweep(pin=4501)
    cell = sweep.cells[0]
    assert sweep.seed_for(cell, 0) == 4501
    assert sweep.seed_for(cell, 1) == cell_seed(4501, cell.key, 1)
    unpinned = _arith_sweep(pin=None)
    assert unpinned.seed_for(unpinned.cells[0], 0) == cell_seed(
        4500, unpinned.cells[0].key
    )


# -------------------------------------------------------------------- cache

def test_cache_hit_miss_and_fingerprint_invalidation(tmp_path):
    sweep = _arith_sweep()
    store = SweepCache(tmp_path)
    cold = run_sweep(sweep, workers=0, cache=store, fingerprint="v1")
    assert (cold.executed, cold.cached) == (len(sweep.cells), 0)
    warm = run_sweep(sweep, workers=0, cache=store, fingerprint="v1")
    assert (warm.executed, warm.cached) == (0, len(sweep.cells))
    assert _dump(warm) == _dump(cold)  # hits are byte-identical
    # A moved source fingerprint makes every entry unreachable.
    fresh = run_sweep(sweep, workers=0, cache=store, fingerprint="v2")
    assert (fresh.executed, fresh.cached) == (len(sweep.cells), 0)


def test_cache_disabled_always_executes(tmp_path):
    sweep = _arith_sweep()
    for _ in range(2):
        result = run_sweep(sweep, workers=0, cache=False)
        assert result.cached == 0


def test_source_fingerprint_tracks_extra_files(tmp_path):
    base = source_fingerprint()
    assert base == source_fingerprint()  # memoized, stable in-process
    extra = tmp_path / "bench_mod.py"
    extra.write_text("A = 1\n")
    with_extra = source_fingerprint((str(extra),))
    assert with_extra != base


# ----------------------------------------------------------------- failures

def test_in_cell_exception_becomes_failed_cell_not_crash():
    sweep = Sweep(
        name="test_raise",
        run_cell=_flaky_cell,
        cells=[
            Cell(key="good-1", params={"mode": "ok"}),
            Cell(key="bad", params={"mode": "raise"}),
            Cell(key="good-2", params={"mode": "ok"}),
        ],
        master_seed=9,
    )
    result = run_sweep(sweep, workers=0, cache=False)
    assert [r.key for r in result.failed] == ["bad"]
    assert "ValueError" in result.failed[0].error
    # Healthy cells still report.
    assert result.as_table(strict=False) == {"good-1": {"ok": 1.0},
                                             "good-2": {"ok": 1.0}}
    with pytest.raises(SweepError, match="bad"):
        result.as_table()


def test_worker_death_fails_the_cell_not_the_run():
    # os._exit(13) kills the worker process outright (no exception, no
    # cleanup) — the engine must convert that into failed cells and
    # return, never hang. Pool breakage may take neighbouring in-flight
    # cells down with the dead one; the contract is completion +
    # attribution, not isolation.
    sweep = Sweep(
        name="test_die",
        run_cell=_flaky_cell,
        cells=[
            Cell(key="doomed", params={"mode": "die"}),
            Cell(key="bystander", params={"mode": "ok"}),
        ],
        master_seed=9,
    )
    result = run_sweep(sweep, workers=2, cache=False)
    assert len(result.results) == 2
    assert "doomed" in {r.key for r in result.failed}
    with pytest.raises(SweepError):
        result.raise_failures()


# --------------------------------------------------------------- replicates

def test_replicates_aggregate_to_mean_and_spread():
    sweep = _arith_sweep()
    result = run_sweep(sweep, workers=0, replicates=3, cache=False)
    assert len(result.results) == 3 * len(sweep.cells)
    table = result.as_table()
    cell = table[(1, 0.5)]
    stat = cell["y"]
    assert isinstance(stat, ReplicateStat)
    assert stat.n == 3
    # Replicate 0 runs the canonical pinned seed; its value equals the
    # single-run table exactly.
    single = run_sweep(sweep, workers=0, replicates=1, cache=False)
    r0 = [r for r in result.results if r.key == (1, 0.5) and r.replicate == 0]
    assert r0[0].seed == 4501
    assert r0[0].value == single.as_table()[(1, 0.5)]
    # The mean is the mean of the actual replicate values.
    values = sorted(
        r.value["y"] for r in result.results if r.key == (1, 0.5)
    )
    assert stat.mean == pytest.approx(sum(values) / 3)
    assert str(stat) == f"{stat.mean:.3f} ±{stat.spread:.3f}"


def test_replicate_stats_helper():
    stat = replicate_stats([1.0, 2.0, 3.0])
    assert stat.mean == pytest.approx(2.0)
    assert stat.spread == pytest.approx(1.0)
    assert float(stat) == stat.mean
    assert replicate_stats([5.0]).spread == 0.0
    with pytest.raises(ValueError):
        replicate_stats([])


# ----------------------------------------------------------------- counters

def test_counters_cross_the_process_boundary_and_aggregate():
    sweep = Sweep(
        name="test_counters",
        run_cell=_sim_cell,
        cells=[Cell(key=t, params={"ticks": t}) for t in (3, 5)],
        master_seed=2,
    )
    for workers in (0, 2):
        result = run_sweep(sweep, workers=workers, cache=False)
        assert result.counters["sim.events"] == 8.0
        assert "timer.fired" in result.counters
        stats = result.stats()
        assert stats["sweep.cells"] == 2.0
        assert stats["sweep.executed"] == 2.0
        assert stats["sweep.workers"] == float(workers)


def test_counters_of_walks_scenarios():
    from repro.analysis.scenarios import line_scenario

    scn = line_scenario(11, n_hops=1)
    scn.run_for(1.0)
    counters = counters_of(scn)
    assert counters["sim.events"] == scn.sim.events_processed
    assert counters_of(scn, scn.overlay, scn.sim) == counters  # dedup


# -------------------------------------------------------------- environment

def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers() == 3
    assert resolve_workers(1) == 1  # explicit beats env
    assert resolve_workers(0) == 0  # zero forces serial
    monkeypatch.delenv(WORKERS_ENV)
    assert resolve_workers() >= 0  # cpu-count heuristic, never negative
    with pytest.raises(ValueError):
        resolve_workers(-1)


def test_grid_helper_is_cartesian_in_declaration_order():
    assert grid(a=[1, 2], b=["x", "y"]) == [
        {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
        {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
    ]


# ------------------------------------------------------- PR-5 regressions

def _fresh_fingerprint(root):
    """source_fingerprint with the in-process memoization bypassed —
    the memo is correct in production (the tree cannot change under a
    running process) but these tests edit the tree mid-test."""
    from repro.analysis.runner import _FINGERPRINT_CACHE

    _FINGERPRINT_CACHE.clear()
    return source_fingerprint(root=root)


def test_source_fingerprint_covers_non_python_files(tmp_path):
    """Regression: the fingerprint hashed only ``*.py``, so editing a
    bundled data file silently kept serving stale cached cells."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "mod.py").write_text("A = 1\n")
    (root / "topo.json").write_text('{"nodes": 3}\n')
    before = _fresh_fingerprint(root)
    (root / "topo.json").write_text('{"nodes": 4}\n')
    assert _fresh_fingerprint(root) != before


def test_source_fingerprint_ignores_bytecode_churn(tmp_path):
    root = tmp_path / "pkg"
    (root / "__pycache__").mkdir(parents=True)
    (root / "mod.py").write_text("A = 1\n")
    before = _fresh_fingerprint(root)
    (root / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\x00\x01")
    (root / "mod.pyc").write_bytes(b"\x02")
    assert _fresh_fingerprint(root) == before


def test_fingerprint_extras_folds_in_bench_util(tmp_path):
    from repro.analysis.runner import fingerprint_extras

    assert fingerprint_extras(None) == ()
    bench = tmp_path / "bench_x.py"
    bench.write_text("pass\n")
    assert fingerprint_extras(str(bench)) == (str(bench),)
    util = tmp_path / "bench_util.py"
    util.write_text("pass\n")
    assert fingerprint_extras(str(bench)) == (str(bench), str(util))


def test_fresh_and_resume_are_mutually_exclusive():
    """With the cache off no journal is opened, so ``--fresh --resume``
    is refused instead of silently dropping ``--resume``."""
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
    try:
        from bench_util import add_sweep_args
    finally:
        sys.path.pop(0)
    parser = argparse.ArgumentParser()
    add_sweep_args(parser)
    assert parser.parse_args(["--fresh"]).fresh
    assert parser.parse_args(["--resume"]).resume
    with pytest.raises(SystemExit):
        parser.parse_args(["--fresh", "--resume"])


def _none_cell(seed: int, bad: bool):
    """A cell that 'succeeds' but returns garbage when ``bad``."""
    if bad:
        return None
    return {"m": float(seed % 7)}


def test_aggregate_skips_non_dict_replicate_values():
    """Regression: a replicate that returned ``None`` (success, garbage
    value) crashed ``_aggregate`` with an AttributeError instead of
    being skipped."""
    from repro.analysis.sweep import _aggregate

    merged = _aggregate([{"m": 1.0}, None, {"m": 3.0}])
    stat = merged["m"]
    assert isinstance(stat, ReplicateStat)
    assert stat.mean == pytest.approx(2.0)
    assert stat.n == 2


def test_as_table_non_strict_skips_failed_replicates():
    sweep = Sweep(
        name="flaky-agg",
        run_cell=_flaky_cell,
        cells=[Cell(key="good", params={"mode": "ok"}),
               Cell(key="bad", params={"mode": "raise"})],
    )
    result = run_sweep(sweep, workers=0, cache=False, replicates=2)
    assert len(result.failed) == 2  # both replicates of the bad cell
    assert result.stats()["sweep.failed"] == 2.0
    with pytest.raises(SweepError):
        result.as_table()
    table = result.as_table(strict=False)
    assert list(table) == ["good"]
    assert isinstance(table["good"]["ok"], ReplicateStat)


# ------------------------------------------------ PR-10 campaign engine

def _pid_cell(seed: int, x: int):
    return {"pid": float(os.getpid()), "x": float(x)}


def _pid_sweep(n: int = 6, name: str = "test_pids") -> Sweep:
    return Sweep(
        name=name,
        run_cell=_pid_cell,
        cells=[Cell(key=i, params={"x": i}) for i in range(n)],
        master_seed=7,
    )


def test_workers_are_persistent_across_cells_and_sweeps():
    """The pool is warm and module-level: one worker runs many cells,
    and a second ``run_sweep`` call reuses the same worker processes
    instead of paying pool + import setup again."""
    from repro.analysis.runner import shutdown_pool, warm_pool

    shutdown_pool()  # deterministic start: this test owns the pool
    try:
        assert warm_pool(2) == 2
        first = run_sweep(_pid_sweep(), workers=2, cache=False, journal=False)
        pids1 = {r.value["pid"] for r in first.results}
        assert len(pids1) <= 2 < len(first.results)  # reuse across cells
        second = run_sweep(_pid_sweep(), workers=2, cache=False, journal=False)
        pids2 = {r.value["pid"] for r in second.results}
        assert pids1 & pids2  # reuse across run_sweep calls
    finally:
        shutdown_pool()


def test_pool_is_rebuilt_after_worker_death():
    """A BrokenProcessPool poisons the executor; the next parallel run
    must get a fresh pool and succeed, not inherit the corpse."""
    from repro.analysis.runner import shutdown_pool

    doomed = Sweep(
        name="test_die_rebuild",
        run_cell=_flaky_cell,
        cells=[Cell(key="doomed", params={"mode": "die"})],
        master_seed=9,
    )
    try:
        broken = run_sweep(doomed, workers=2, cache=False, journal=False)
        assert broken.failed
        healthy = run_sweep(_pid_sweep(), workers=2, cache=False,
                            journal=False)
        healthy.raise_failures()
        assert healthy.executed == len(healthy.results)
    finally:
        shutdown_pool()


def _restoring_cell(seed: int, root: str, sink: int):
    """A cell on one shared convergence snapshot: restore it, carry a
    flow for a moment, report simulated-time facts only."""
    import random

    from repro.analysis.workloads import PoissonSource
    from repro.core.message import Address
    from repro.core.warmstart import SnapshotStore, ensure_warm
    from tests.test_warmstart import WARMUP, _mesh

    overlay, info = ensure_warm(_mesh, ("sweep-mesh",), WARMUP,
                                store=SnapshotStore(root), key="campaign")
    sim = overlay.sim
    got = []
    dst = f"n{sink:02d}"
    overlay.client(dst, 9, on_message=lambda m: got.append(sim.now))
    PoissonSource(sim, random.Random(seed), overlay.client("n00"),
                  Address(dst, 9), rate_pps=40.0, duration=0.3).start()
    sim.run(until=sim.now + 0.5)
    return {"source": info["warm_source"], "delivered": got}


def test_snapshot_restoring_cells_match_wherever_and_whenever_they_run(
        tmp_path):
    """A worker keeps what it decoded and the underlay tables it settled
    from one cell to the next; no cell's table may tell which worker ran
    it, or whether another campaign ran before it in the process."""
    from repro.core.warmstart import SnapshotStore, ensure_warm
    from tests.test_warmstart import WARMUP, _mesh

    __, info = ensure_warm(_mesh, ("sweep-mesh",), WARMUP,
                           store=SnapshotStore(tmp_path), key="campaign")
    assert info["warm_source"] == "organic"
    sweep = Sweep(
        name="test_restoring",
        run_cell=_restoring_cell,
        cells=[Cell(key=(i,), params={"root": str(tmp_path), "sink": 3 + i})
               for i in range(6)],
        master_seed=3301,
    )
    first = run_sweep(sweep, workers=0, cache=False, journal=False)
    pooled = run_sweep(sweep, workers=2, cache=False, journal=False)
    again = run_sweep(sweep, workers=0, cache=False, journal=False)
    assert _dump(first) == _dump(pooled) == _dump(again)
    table = first.as_table()
    assert all(v["source"] == "snapshot" and v["delivered"]
               for v in table.values())


def test_batched_tables_are_byte_identical_to_serial():
    sweep = _arith_sweep()
    serial = run_sweep(sweep, workers=0, cache=False)
    for batch in (2, 3, len(sweep.cells)):
        batched = run_sweep(sweep, workers=2, cache=False, journal=False,
                            batch=batch)
        assert _dump(batched) == _dump(serial)
        assert list(batched.as_table()) == [c.key for c in sweep.cells]


def test_auto_batch_heuristic():
    from repro.analysis.runner import MAX_BATCH, _auto_batch

    assert _auto_batch(4, 8) == 1       # grid no wider than the pool
    assert _auto_batch(8, 2) == 1       # still ~4 tasks per worker
    assert _auto_batch(1000, 4) == 63   # amortize submit/IPC overhead
    assert _auto_batch(10**6, 8) == MAX_BATCH  # bounded loss granularity


# -------------------------------------------------- journal and resume

def test_journal_resume_reruns_only_missing_cells(tmp_path):
    """Kill-and-resume: truncate the journal (plus a torn tail, as a
    real SIGKILL leaves) and check the resumed run serves the surviving
    entries and simulates exactly the missing cells, byte-identically."""
    sweep = _arith_sweep()
    jpath = tmp_path / "journal.jsonl"
    full = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                     fingerprint="fp")
    lines = jpath.read_text().splitlines()
    assert len(lines) == len(sweep.cells)
    jpath.write_text("\n".join(lines[:3]) + "\n" + '{"digest": "to')
    resumed = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                        fingerprint="fp", resume=True)
    assert resumed.journaled == 3
    assert resumed.executed == len(sweep.cells) - 3
    assert _dump(resumed) == _dump(full)
    assert resumed.stats()["sweep.journaled"] == 3.0
    # The resumed journal is complete again: a second resume simulates 0.
    again = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                      fingerprint="fp", resume=True)
    assert (again.executed, again.journaled) == (0, len(sweep.cells))


#: A campaign in a child interpreter: ``kill`` runs the pooled sweep and
#: dies hard (``os._exit(3)``, as a preempted host would) once three
#: cells have executed; ``resume`` serves the journal and runs the rest.
#: The coordinator's status file lists the pool workers that ran cells.
_CAMPAIGN_CHILD = """
import json, os, sys
from repro.analysis.coordinator import Coordinator
from repro.analysis.runner import run_sweep
from tests.test_sweep_engine import _arith_sweep, _dump

mode, journal, status = sys.argv[1:]

def kill(coord):
    if coord.executed >= 3:
        coord.maybe_report(force=True)
        os._exit(3)

coord = Coordinator(status_path=status,
                    on_cell=kill if mode == "kill" else None)
result = run_sweep(_arith_sweep(), workers=2, cache=False, journal=journal,
                   fingerprint="fp", resume=mode == "resume",
                   coordinator=coord)
print(json.dumps({"executed": result.executed,
                  "journaled": result.journaled, "table": _dump(result)}))
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie awaiting its reaper does not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _campaign_child(mode: str, tmp_path) -> tuple[int, str]:
    """Run one campaign child in its own session and check that every
    pool worker its status file lists ends within 5 s of the child,
    however the child ended. Returns the exit code and the output."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    status, out = tmp_path / f"{mode}.json", tmp_path / f"{mode}.out"
    # Output goes to a file: a pipe would stay open in the workers.
    with open(out, "w") as sink:
        child = subprocess.Popen(
            [sys.executable, "-c", _CAMPAIGN_CHILD, mode,
             str(tmp_path / "journal.jsonl"), str(status)],
            cwd=root, env=env, stdout=sink, stderr=subprocess.STDOUT,
            start_new_session=True)
    try:
        child.wait(timeout=120)
        pids = json.loads(status.read_text())["worker_pids"]
        assert pids and child.pid not in pids, (pids, out.read_text())
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, (
                f"pool workers {pids} outlived their campaign")
            time.sleep(0.05)
    finally:
        # Cleanup only: whatever of the session a failed check left.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return child.returncode, out.read_text()


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
def test_hard_killed_pooled_campaign_resumes_only_missing_cells(tmp_path):
    """A pooled campaign killed outright keeps every cell that landed
    before the kill; a resume in a fresh interpreter simulates only the
    cells missing from the journal and prints the serial table."""
    cells = len(_arith_sweep().cells)
    code, __ = _campaign_child("kill", tmp_path)
    assert code == 3
    landed = (tmp_path / "journal.jsonl").read_text().splitlines()
    assert 3 <= len(landed) < cells
    code, out = _campaign_child("resume", tmp_path)
    assert code == 0
    resumed = json.loads(out.splitlines()[-1])
    assert resumed["journaled"] == len(landed)
    assert resumed["executed"] == cells - len(landed)
    serial = run_sweep(_arith_sweep(), workers=0, cache=False, journal=False)
    assert resumed["table"] == _dump(serial)


def test_journal_moves_with_the_source_fingerprint(tmp_path):
    """A journal written under one fingerprint must not serve cells
    after the source tree changes — same contract as the cache."""
    sweep = _arith_sweep()
    jpath = tmp_path / "journal.jsonl"
    run_sweep(sweep, workers=0, cache=False, journal=jpath, fingerprint="v1")
    stale = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                      fingerprint="v2", resume=True)
    assert (stale.executed, stale.journaled) == (len(sweep.cells), 0)


def test_fresh_run_truncates_journal_resume_appends(tmp_path):
    sweep = _arith_sweep()
    jpath = tmp_path / "journal.jsonl"
    run_sweep(sweep, workers=0, cache=False, journal=jpath, fingerprint="fp")
    run_sweep(sweep, workers=0, cache=False, journal=jpath, fingerprint="fp")
    # Second non-resume run truncated: one record per cell, not two.
    assert len(jpath.read_text().splitlines()) == len(sweep.cells)


def _ki_cell(seed: int, trip_file: str = "", name: str = ""):
    if trip_file and name == "trip" and os.path.exists(trip_file):
        raise KeyboardInterrupt
    return {"name_len": float(len(name))}


def test_interrupt_returns_partial_result_and_resume_completes(tmp_path):
    """Satellite: Ctrl-C mid-sweep keeps every completed cell (persisted
    to the journal the moment it landed), marks the rest failed on a
    partial ``interrupted`` result, and ``resume`` finishes the job."""
    flag = tmp_path / "flag"
    flag.write_text("1")
    jpath = tmp_path / "journal.jsonl"
    cells = [Cell(key=k, params={"trip_file": str(flag), "name": k})
             for k in ("a", "trip", "b")]
    sweep = Sweep(name="test_interrupt", run_cell=_ki_cell, cells=cells,
                  master_seed=3)
    partial = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                        fingerprint="fp")
    assert partial.interrupted
    assert len(partial.results) == 3
    assert partial.executed == 1  # "a" landed before the interrupt
    assert {r.key for r in partial.failed} == {"trip", "b"}
    assert all("interrupted" in r.error for r in partial.failed)
    flag.unlink()
    resumed = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                        fingerprint="fp", resume=True)
    assert not resumed.interrupted
    resumed.raise_failures()
    assert resumed.journaled == 1  # "a" served from the journal
    assert resumed.executed == 2  # the interrupted cells re-ran


def test_interrupt_in_pool_cancels_and_returns_partial(tmp_path):
    """A KeyboardInterrupt raised in a worker propagates to the
    collector, which cancels pending work and returns a partial result
    instead of hanging or discarding completed cells."""
    from repro.analysis.runner import shutdown_pool

    flag = tmp_path / "flag"
    flag.write_text("1")
    cells = [Cell(key=k, params={"trip_file": str(flag), "name": k})
             for k in ("a", "trip", "b", "c")]
    sweep = Sweep(name="test_pool_interrupt", run_cell=_ki_cell, cells=cells,
                  master_seed=3)
    try:
        partial = run_sweep(sweep, workers=2, cache=False, journal=False)
        assert partial.interrupted
        assert len(partial.results) == 4
        assert "trip" in {r.key for r in partial.failed}
    finally:
        shutdown_pool()


# ------------------------------------------------------ runner bugfixes

def test_store_tmp_names_are_unique_and_never_leak(tmp_path):
    """Regression: ``path.with_suffix(".tmp")`` was shared by every
    concurrent writer of one digest — interleaved writes could publish
    a torn file. Tmp names are now unique per process *and* per call,
    and no tmp droppings survive a store."""
    from repro.core.fileio import _unique_tmp

    target = tmp_path / "abc123.json"
    names = {_unique_tmp(target) for _ in range(50)}
    assert len(names) == 50
    assert all(n.parent == target.parent for n in names)  # same fs: atomic
    sweep = _arith_sweep()
    store = SweepCache(tmp_path)
    for _ in range(2):
        run_sweep(sweep, workers=0, cache=store, fingerprint="fp")
    leftovers = [p for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []


def test_workers_env_non_integer_raises_clear_error(monkeypatch):
    """Regression: a non-integer REPRO_BENCH_WORKERS crashed with a
    bare ``ValueError: invalid literal`` that never named the knob."""
    monkeypatch.setenv(WORKERS_ENV, "lots")
    with pytest.raises(ValueError, match=r"REPRO_BENCH_WORKERS.*'lots'"):
        resolve_workers()


def _guard_cell(seed: int, inner: bool = False, warm_key: str | None = None):
    from repro.analysis.runner import WARMSTART_FRESH_ENV

    env = os.environ.get(WARMSTART_FRESH_ENV, "unset")
    if inner:
        nested = Sweep(
            name="guard-inner",
            run_cell=_guard_cell,
            cells=[Cell(key="i", params={}, warm_key="wk-inner")],
            master_seed=1,
        )
        run_sweep(nested, workers=0, cache=False, journal=False)
    return {"env": env}


def test_warmstart_fresh_guard_is_reentrant(monkeypatch):
    """Regression: the flat save/restore around fresh-forced sweeps
    clobbered the user's value when a sweep ran inside another sweep's
    scope — the guard must restore the original only at depth 0."""
    from repro.analysis.runner import WARMSTART_FRESH_ENV, _FRESH_GUARD

    assert _FRESH_GUARD.depth == 0
    monkeypatch.setenv(WARMSTART_FRESH_ENV, "0")
    outer = Sweep(
        name="guard-outer",
        run_cell=_guard_cell,
        cells=[Cell(key="o", params={"inner": True}, warm_key="wk-outer")],
        master_seed=1,
    )
    result = run_sweep(outer, workers=0, cache=False, journal=False)
    result.raise_failures()
    # Forced on while the (nested) sweeps ran...
    assert result.as_table()["o"]["env"] == "1"
    # ...and the pre-existing value survived both scopes unwinding.
    assert os.environ[WARMSTART_FRESH_ENV] == "0"
    assert _FRESH_GUARD.depth == 0


# --------------------------------------------------------- coordinator

def test_coordinator_snapshot_and_status_file(tmp_path):
    from repro.analysis.coordinator import Coordinator
    from repro.analysis.sweep import CellResult

    ticks = iter(range(100))
    lines: list[str] = []
    seen: list[int] = []
    status = tmp_path / "status.json"
    coord = Coordinator(status_path=status, progress=True, interval_s=0.0,
                        on_cell=lambda c: seen.append(c.done),
                        out=lines.append, clock=lambda: float(next(ticks)))
    coord.start("camp", total=4, workers=2)
    coord.record(CellResult(key="a", replicate=0, seed=1,
                            value={}, wall_s=0.5), pid=101)
    coord.record(CellResult(key="b", replicate=0, seed=2, cached=True), pid=101)
    coord.record(CellResult(key="c", replicate=0, seed=3, journaled=True))
    coord.record(CellResult(key="d", replicate=0, seed=4, error="boom"),
                 pid=102)
    coord.pool_restart()
    coord.finish()
    snap = json.loads(status.read_text())
    assert (snap["done"], snap["executed"], snap["cached"],
            snap["journaled"], snap["failed"]) == (4, 1, 1, 1, 1)
    assert snap["pending"] == 0 and snap["finished"]
    assert snap["worker_pids"] == [101, 102]
    assert snap["worker_restarts"] == 1  # the explicit pool rebuild
    assert snap["slowest_cells"][0]["cell"] == "a#r0"
    assert seen == [1, 2, 3, 4]  # on_cell hook fired per landed cell
    assert any("camp" in line and "4/4" in line for line in lines)
    assert not list(tmp_path.glob("*.tmp"))


def test_campaign_options_scopes_resume(tmp_path):
    from repro.analysis.runner import _CAMPAIGN_OPTIONS, campaign_options

    sweep = _arith_sweep()
    jpath = tmp_path / "journal.jsonl"
    run_sweep(sweep, workers=0, cache=False, journal=jpath, fingerprint="fp")
    with campaign_options(resume=True):
        resumed = run_sweep(sweep, workers=0, cache=False, journal=jpath,
                            fingerprint="fp")
        assert (resumed.executed, resumed.journaled) == (0, len(sweep.cells))
    assert _CAMPAIGN_OPTIONS["resume"] is False  # restored on exit
