"""Sweep execution: persistent worker pool, streaming collector,
campaign journal + resume, fingerprinted result cache.

The grid benchmarks are embarrassingly parallel — every
:class:`~repro.analysis.sweep.Cell` is an independent deterministic
simulation — and the ROADMAP's fuzz/mobility campaigns push the same
engine to 10^3-10^5 cells per run. :func:`run_sweep` is built for that
scale:

* **persistent warm workers** — cells run on a module-level
  ``ProcessPoolExecutor`` that is created once per process and *reused
  across sweeps*: workers pre-import the ``repro`` tree in their
  initializer and stay alive across cells and runs, so per-worker
  import/setup cost is paid once per campaign instead of once per
  ``run_sweep`` call. ``workers=0`` runs cells serially in-process (the
  debugging path and the byte-identity reference). A pool poisoned by a
  worker death (``BrokenProcessPool``) is discarded and rebuilt on the
  next parallel run;
* **cell batching** — small cells are grouped into one task per batch
  under a cost heuristic (:func:`_auto_batch`): enough cells per task
  to amortize submit/IPC overhead, while keeping several tasks per
  worker in flight for load balancing and streaming granularity. Both
  paths execute the identical ``run_cell(seed, **params)`` pure
  function and collect results in declared cell order, so the printed
  tables are **byte-identical** however cells are batched or fanned
  out — the correctness contract pinned by
  ``tests/test_sweep_engine.py``;
* **streaming collection** — results come back via ``as_completed``
  and every completed cell is *finalized the moment it lands*: written
  to the result cache, appended to the campaign journal, and folded
  into the :class:`~repro.analysis.coordinator.Coordinator` status
  surface. Nothing waits for the gather at the end, so an interrupt or
  crash loses only in-flight cells;
* **campaign journal + resume** — an append-only
  ``.sweep_cache/<sweep>/journal.jsonl`` records one JSON line per
  landed (cell, replicate): digest, key, seed, value, counters, wall
  clock, error. ``resume=True`` reloads it and re-runs *only* the
  cells missing from the journal (failed and torn entries re-run;
  journal-served cells count as ``journaled``, never as simulations),
  composing with the fingerprint cache below — a digest folds the
  source fingerprint, so a stale journal can no more serve a stale
  result than the cache can;
* **interrupt safety** — a ``KeyboardInterrupt`` mid-run cancels
  pending work, harvests any batches that already finished, and
  returns a *partial* :class:`~repro.analysis.sweep.SweepResult`
  (``interrupted=True``) with unfinished cells marked failed. Every
  completed cell was already persisted to cache and journal when it
  landed, so ``--resume`` picks up exactly where the interrupt hit;
* **memoization** — each (cell spec, seed, replicate) result persists
  under ``.sweep_cache/``, keyed by a blake2b fingerprint of the
  ``repro`` source tree plus the module defining ``run_cell``. An
  unchanged benchmark re-run loads every cell from cache (0
  simulations); editing any source file moves the fingerprint and
  re-simulates everything — stale results can never be served.

Cached and journaled payloads go through a JSON round-trip, which is
exact for the str/int/float metric dicts cells return (Python floats
serialize via shortest-round-trip repr), so a cache or journal hit is
also byte-identical to a fresh run. Cells whose values do not survive
JSON are simply never cached or journaled.

Worker failures surface as *failed cells*, never hung runs: an
exception inside ``run_cell`` is caught in the worker and carried back
as a traceback string, and a hard worker death (``os._exit``, signal)
turns into ``BrokenProcessPool`` on the affected futures, which the
collector converts into per-cell errors (and a pool rebuild).
"""

from __future__ import annotations

import atexit
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Mapping

from repro.analysis.coordinator import Coordinator
from repro.core.fileio import atomic_write
from repro.analysis.sweep import (
    Cell,
    CellOutput,
    CellResult,
    Sweep,
    SweepResult,
    key_label,
)

#: Default cache directory (relative to the working directory; override
#: with the ``REPRO_SWEEP_CACHE`` environment variable).
DEFAULT_CACHE_DIR = ".sweep_cache"

#: Environment variable consulted when ``workers`` is not given.
WORKERS_ENV = "REPRO_BENCH_WORKERS"

#: Upper bound on the default worker count — sweeps are memory-bound
#: long before they are 32-wide, and the pool should never starve the
#: machine it shares.
MAX_DEFAULT_WORKERS = 8

#: Mirrors :data:`repro.core.warmstart.ENV_FRESH` (kept as a literal so
#: the sweep engine does not import the overlay stack).
WARMSTART_FRESH_ENV = "REPRO_WARMSTART_FRESH"

#: Batching cost heuristic: aim for this many tasks per worker so the
#: pool load-balances and results stream at cell granularity, while
#: per-task submit/pickle overhead amortizes over the batch.
BATCH_OVERSUBSCRIPTION = 4

#: Never batch more cells than this into one task — a batch is the unit
#: of loss on interrupt/worker death, and the unit of streaming latency.
MAX_BATCH = 64

#: Campaign journal filename (one per sweep, under the cache root).
JOURNAL_NAME = "journal.jsonl"


def _cell_params(cell: Cell) -> dict:
    """The keyword arguments ``run_cell`` receives for ``cell`` — its
    declared params plus the warm-start snapshot key, when one is set."""
    params = dict(cell.params)
    if cell.warm_key is not None:
        params["warm_key"] = cell.warm_key
    return params


def resolve_workers(workers: int | None = None) -> int:
    """The worker count to use: explicit value, else ``REPRO_BENCH_WORKERS``,
    else an ``os.cpu_count()``-based default (0 — serial in-process — on
    a single-core machine, where a pool only adds overhead)."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None and env.strip() != "":
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer worker count "
                    f"(0 = serial in-process), got {env!r}"
                ) from None
        else:
            cpus = os.cpu_count() or 1
            workers = 0 if cpus <= 1 else min(cpus, MAX_DEFAULT_WORKERS)
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


# --------------------------------------------------------------- fingerprint

_FINGERPRINT_CACHE: dict[tuple, str] = {}


def source_fingerprint(extra_paths: tuple = (), root: str | Path | None = None) -> str:
    """blake2b over the ``repro`` source tree (+ any extra files).

    The digest covers **every file** under the installed ``repro``
    package — not just ``*.py``, so edits to bundled non-Python inputs
    (topology/data files, templates) invalidate cached cells too — as
    (relative path, content) pairs in sorted order. Bytecode caches
    (``__pycache__``, ``*.pyc``) are excluded: they churn without any
    semantic change. ``extra_paths`` lets the runner fold in the
    benchmark module that defines ``run_cell`` plus the shared
    ``bench_util.py`` helpers it imports; ``root`` overrides the tree
    to hash (tests use a temporary tree).
    """
    key = (None if root is None else str(root), *(str(p) for p in extra_paths))
    cached = _FINGERPRINT_CACHE.get(key)
    if cached is not None:
        return cached
    digest = hashlib.blake2b(digest_size=16)
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    else:
        root = Path(root).resolve()
    files = sorted(
        path for path in root.rglob("*")
        if path.is_file()
        and "__pycache__" not in path.parts
        and path.suffix != ".pyc"
    )
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    for extra in sorted(str(p) for p in extra_paths):
        path = Path(extra)
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


def fingerprint_extras(source_file: str | None) -> tuple:
    """The extra files to fold into the cache fingerprint for a
    ``run_cell`` defined in ``source_file``: the module itself plus the
    shared ``bench_util.py`` sitting next to it (bench modules import
    its helpers, so an edit there must invalidate their cached cells
    exactly like an edit to the bench module itself)."""
    if not source_file:
        return ()
    extras = [source_file]
    util = Path(source_file).with_name("bench_util.py")
    if util.is_file():
        extras.append(str(util))
    return tuple(extras)


# --------------------------------------------------------------------- cache

def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def cell_digest(sweep: Sweep, cell: Cell, seed: int, replicate: int,
                fingerprint: str) -> str:
    """Stable digest of one (sweep, cell spec, seed, replicate, source
    fingerprint) — the key both the result cache and the campaign
    journal address results by. The fingerprint is folded in, so a
    source edit strands every old cache entry *and* journal line."""
    spec = repr((
        sweep.name,
        key_label(cell.key),
        sorted((name, repr(value)) for name, value in cell.params.items()),
        seed,
        replicate,
        *((cell.warm_key,) if cell.warm_key is not None else ()),
    ))
    blake = hashlib.blake2b(digest_size=16)
    blake.update(spec.encode())
    blake.update(fingerprint.encode())
    return blake.hexdigest()


class SweepCache:
    """Content-fingerprinted result store under ``root``.

    One JSON file per (sweep, cell spec, seed, replicate, source
    fingerprint). The fingerprint is part of the digest, so a source
    edit makes every old entry unreachable (stale files linger only as
    dead bytes — clear them with ``rm -rf .sweep_cache``).
    """

    def __init__(self, root: str | Path | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_CACHE_DIR)
        self.root = Path(root)

    def digest(self, sweep: Sweep, cell: Cell, seed: int, replicate: int,
               fingerprint: str) -> str:
        return cell_digest(sweep, cell, seed, replicate, fingerprint)

    def _path(self, sweep: Sweep, digest: str) -> Path:
        return self.root / _safe_name(sweep.name) / f"{digest}.json"

    def load(self, sweep: Sweep, digest: str) -> dict | None:
        path = self._path(sweep, digest)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or "value" not in payload:
            return None
        return payload

    def store(self, sweep: Sweep, digest: str, value: Any,
              counters: Mapping[str, float]) -> bool:
        payload = {"value": value, "counters": dict(counters)}
        try:
            text = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError):
            return False  # non-JSON cell values are simply never cached
        path = self._path(sweep, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            atomic_write(path, lambda tmp: tmp.write_text(text + "\n"))
        except OSError:
            return False
        return True


def _as_cache(cache: Any) -> SweepCache | None:
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


# ------------------------------------------------------------------- journal

def journal_path(sweep_name: str, root: str | Path | None = None) -> Path:
    """Where the campaign journal for ``sweep_name`` lives (under the
    cache root by default, next to the sweep's cached cells)."""
    if root is None:
        root = os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_CACHE_DIR)
    return Path(root) / _safe_name(sweep_name) / JOURNAL_NAME


def load_journal(path: str | Path) -> dict[str, dict]:
    """Read a campaign journal back as ``{digest: record}``.

    Tolerant by construction: blank lines, torn tails from a killed
    run, and non-JSON garbage are skipped (those cells simply re-run);
    later lines for the same digest win (a resumed run may re-land a
    cell that a previous run recorded as failed).
    """
    entries: dict[str, dict] = {}
    try:
        fh = open(path)
    except OSError:
        return entries
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail from a kill — that cell re-runs
            if isinstance(record, dict) and record.get("digest"):
                entries[record["digest"]] = record
    return entries


class _JournalWriter:
    """Append-only jsonl sink, flushed per record so a killed run's
    journal contains every cell that landed before the kill."""

    def __init__(self, path: Path, resume: bool) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A fresh campaign truncates; a resumed one appends (the prior
        # run's landed cells must stay replayable after this run too).
        self._fh = open(self.path, "a" if resume else "w")
        if resume and self._fh.tell() > 0:
            # Heal a torn tail first: a kill mid-write can leave the
            # file without a trailing newline, and appending straight
            # onto that fragment would corrupt the first new record.
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                torn = probe.read(1) != b"\n"
            if torn:
                self._fh.write("\n")
                self._fh.flush()

    def append(self, record: dict) -> bool:
        try:
            text = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError):
            return False  # non-JSON values are never journaled
        self._fh.write(text + "\n")
        self._fh.flush()
        return True

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass


# ---------------------------------------------------------- campaign options

#: Process-wide defaults consumed by :func:`run_sweep` when the caller
#: does not pass ``resume``/``coordinator`` explicitly — the seam that
#: lets ``sweep_main``'s shared ``--resume``/``--status-file`` flags
#: reach every declared sweep bench without touching its signature.
_CAMPAIGN_OPTIONS: dict[str, Any] = {
    "resume": False,
    "status_file": None,
    "progress": False,
}


@contextmanager
def campaign_options(resume: bool = False, status_file: str | None = None,
                     progress: bool = False):
    """Scope campaign-level defaults (resume, status surface) around a
    block of ``run_sweep`` calls."""
    saved = dict(_CAMPAIGN_OPTIONS)
    _CAMPAIGN_OPTIONS.update(
        resume=resume, status_file=status_file, progress=progress
    )
    try:
        yield
    finally:
        _CAMPAIGN_OPTIONS.update(saved)


class _FreshGuard:
    """Reentrant scope for ``REPRO_WARMSTART_FRESH``.

    The old save/restore pair was nesting-unsafe: a sweep launched
    while another sweep was unwinding (e.g. from a ``finally`` window)
    saved/restored a value the outer scope was about to change,
    clobbering it. Depth counting makes the scope idempotent: only the
    outermost push saves the user's original value, and only the
    matching pop restores it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.depth = 0
        self._saved: str | None = None

    def push(self) -> None:
        if self.depth == 0:
            self._saved = os.environ.get(self.name)
            os.environ[self.name] = "1"
        self.depth += 1

    def pop(self) -> None:
        if self.depth <= 0:  # pragma: no cover - defensive
            return
        self.depth -= 1
        if self.depth == 0:
            if self._saved is None:
                os.environ.pop(self.name, None)
            else:
                os.environ[self.name] = self._saved
            self._saved = None


_FRESH_GUARD = _FreshGuard(WARMSTART_FRESH_ENV)


# ----------------------------------------------------------- persistent pool

def _pool_context():
    """Prefer fork (cheap, inherits imported bench modules); fall back
    to spawn — either way the initializer below makes workers warm."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _warm_worker(paths: list[str]) -> None:
    """Worker initializer: make the parent's import roots (src/,
    benchmarks/) visible and pre-import the ``repro`` tree once, so the
    first cell a worker runs pays no import/setup cost. Under fork the
    imports are inherited and this is near-free; under spawn it is the
    whole point."""
    for path in paths:
        if path not in sys.path:
            sys.path.append(path)
    try:
        import repro.analysis.scenarios  # noqa: F401  (pulls sim/net/core)
        import repro.analysis.workloads  # noqa: F401
        import repro.core.warmstart  # noqa: F401
    except Exception:  # pragma: no cover - env without repro on path
        pass  # the real cell will surface the real error


class _PoolHandle:
    """One persistent ``ProcessPoolExecutor`` plus its health flag."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.broken = False
        self.pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_pool_context(),
            initializer=_warm_worker,
            initargs=(list(sys.path),),
        )


_POOL: _PoolHandle | None = None


def _get_pool(workers: int) -> tuple[_PoolHandle, bool]:
    """The shared pool (created/rebuilt as needed). Returns the handle
    and whether a broken pool was just replaced (a worker restart the
    coordinator should know about)."""
    global _POOL
    restarted = False
    if _POOL is not None:
        # Belt and braces: trust our own flag, but also the executor's
        # internal broken state, in case a breakage surfaced somewhere
        # our collectors never saw it.
        broken = _POOL.broken or bool(getattr(_POOL.pool, "_broken", False))
        if broken or _POOL.workers != workers:
            restarted = broken
            _POOL.pool.shutdown(wait=False, cancel_futures=True)
            _POOL = None
    if _POOL is None:
        _POOL = _PoolHandle(workers)
    return _POOL, restarted


def shutdown_pool() -> None:
    """Tear the persistent pool down (tests, interpreter exit)."""
    global _POOL
    if _POOL is not None:
        _POOL.pool.shutdown(wait=False, cancel_futures=True)
        _POOL = None


atexit.register(shutdown_pool)


def _warm_probe(_: int) -> int:
    return os.getpid()


def warm_pool(workers: int | None = None) -> int:
    """Spin the persistent pool up ahead of time (pool creation plus
    one no-op round through the workers), so the first timed sweep of a
    campaign measures steady-state fan-out rather than setup. Returns
    the resolved worker count (0 = serial, nothing to warm)."""
    workers = resolve_workers(workers)
    if workers <= 0:
        return 0
    handle, __ = _get_pool(workers)
    list(handle.pool.map(_warm_probe, range(workers)))
    return workers


# ----------------------------------------------------------------- execution

def _execute_job(run_cell, seed: int, params: dict) -> tuple:
    """Run one cell (in a worker or in-process) and return a small
    picklable ``(value, counters, error, wall_s)`` record."""
    started = time.perf_counter()
    try:
        output = run_cell(seed, **params)
    except Exception:
        return None, {}, traceback.format_exc(limit=8), time.perf_counter() - started
    wall = time.perf_counter() - started
    if isinstance(output, CellOutput):
        return output.value, output.counters, None, wall
    return output, {}, None, wall


def _execute_batch(run_cell, jobs: list, fresh: bool) -> tuple:
    """Run a batch of cells in one worker task.

    ``jobs`` is ``[(slot, seed, params), ...]`` in declared order;
    returns ``(pid, [(slot, value, counters, error, wall_s), ...])``.
    ``fresh`` scopes ``REPRO_WARMSTART_FRESH`` around the batch *inside
    the worker* — persistent workers outlive any parent-side env
    save/restore, so the flag must travel with the work.
    """
    if fresh:
        _FRESH_GUARD.push()
    try:
        records = []
        for slot, seed, params in jobs:
            records.append((slot, *_execute_job(run_cell, seed, params)))
        return os.getpid(), records
    finally:
        if fresh:
            _FRESH_GUARD.pop()


def _auto_batch(n_pending: int, workers: int) -> int:
    """Cost heuristic for cells per task: single-cell tasks while the
    grid is no wider than the pool (zero added latency), otherwise
    enough cells per task that submit/pickle overhead amortizes while
    ~:data:`BATCH_OVERSUBSCRIPTION` tasks per worker stay in flight."""
    if n_pending <= workers:
        return 1
    return max(1, min(
        MAX_BATCH,
        math.ceil(n_pending / (workers * BATCH_OVERSUBSCRIPTION)),
    ))


def run_sweep(
    sweep: Sweep,
    workers: int | None = None,
    replicates: int = 1,
    cache: Any = True,
    fingerprint: str | None = None,
    *,
    resume: bool | None = None,
    journal: Any = None,
    batch: int | None = None,
    coordinator: Coordinator | None = None,
) -> SweepResult:
    """Execute every (cell, replicate) of ``sweep``, streaming results
    into cache/journal/coordinator as they land, and collect them in
    declared order.

    Args:
        workers: ``0`` = serial in-process (the debugging path and the
            byte-identity reference); ``N >= 1`` = the persistent
            process pool at width N. ``None`` resolves via
            :func:`resolve_workers`.
        replicates: Seeds per cell. Replicate 0 is the cell's canonical
            seed (tables with ``replicates=1`` are byte-identical to
            the pre-engine benchmarks); replicates 1..N-1 derive fresh
            seeds per :meth:`Sweep.seed_for`.
        cache: ``True`` = default :class:`SweepCache`; a path or
            :class:`SweepCache` to use that store; ``False``/``None``
            disables caching (benchmark timing legs use this).
        fingerprint: Override the source-tree fingerprint (tests use
            this to exercise invalidation).
        resume: Serve cells recorded in the campaign journal instead of
            re-running them (failed/torn entries re-run). ``None``
            takes the :func:`campaign_options` default (off).
        journal: ``None`` = journal iff caching is on (default path
            under the cache root); ``True`` = default path even with
            caching off; a path = journal there; ``False`` = no
            journal. A fresh (non-resume) run truncates the journal.
        batch: Cells per worker task; ``None`` = :func:`_auto_batch`.
        coordinator: Explicit :class:`Coordinator` (kill hooks, tests).
            ``None`` builds one from :func:`campaign_options` when a
            status file or progress output was requested.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    workers = resolve_workers(workers)
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if resume is None:
        resume = bool(_CAMPAIGN_OPTIONS["resume"])
    store = _as_cache(cache)

    # Journal resolution: default on whenever results are being cached
    # (the journal lives next to the cached cells), explicit path/True
    # to journal without a cache, False to disable outright.
    jpath: Path | None = None
    if journal is None:
        if store is not None:
            jpath = journal_path(sweep.name, store.root)
    elif journal is True:
        jpath = journal_path(sweep.name, store.root if store else None)
    elif journal:
        jpath = Path(journal)

    if fingerprint is None and (store is not None or jpath is not None):
        fingerprint = source_fingerprint(
            fingerprint_extras(inspect.getsourcefile(sweep.run_cell))
        )

    jobs: list[tuple[int, Cell, int, int]] = []  # (slot, cell, replicate, seed)
    for cell in sweep.cells:
        for replicate in range(replicates):
            jobs.append((len(jobs), cell, replicate, sweep.seed_for(cell, replicate)))

    journaled_entries: dict[str, dict] = (
        load_journal(jpath) if (jpath is not None and resume) else {}
    )

    results: list[CellResult | None] = [None] * len(jobs)
    pending: list[tuple[int, Cell, int, int, str | None]] = []
    for slot, cell, replicate, seed in jobs:
        digest = None
        if fingerprint is not None:
            digest = cell_digest(sweep, cell, seed, replicate, fingerprint)
        if store is not None and digest is not None:
            payload = store.load(sweep, digest)
            if payload is not None:
                results[slot] = CellResult(
                    key=cell.key, replicate=replicate, seed=seed,
                    value=payload["value"],
                    counters=dict(payload.get("counters", {})),
                    cached=True,
                )
                continue
        record = journaled_entries.get(digest) if digest is not None else None
        if record is not None and record.get("error") is None:
            results[slot] = CellResult(
                key=cell.key, replicate=replicate, seed=seed,
                value=record.get("value"),
                counters=dict(record.get("counters", {})),
                journaled=True,
            )
            continue
        pending.append((slot, cell, replicate, seed, digest))

    coord = coordinator
    if coord is None and (_CAMPAIGN_OPTIONS["status_file"]
                          or _CAMPAIGN_OPTIONS["progress"]):
        coord = Coordinator(
            status_path=_CAMPAIGN_OPTIONS["status_file"],
            progress=bool(_CAMPAIGN_OPTIONS["progress"]),
        )
    if coord is not None:
        coord.start(sweep.name, len(jobs), workers)
        for result in results:
            if result is not None:
                coord.record(result)

    writer = _JournalWriter(jpath, resume) if jpath is not None else None
    finalized: set[int] = set()
    interrupted = False

    def finalize(slot: int, cell: Cell, replicate: int, seed: int,
                 digest: str | None, value, counters, error, wall,
                 pid: int | None = None) -> None:
        """Land one cell the moment its result exists: record, cache,
        journal, coordinate — streaming, not gathering."""
        result = CellResult(
            key=cell.key, replicate=replicate, seed=seed, value=value,
            counters=dict(counters or {}), error=error, wall_s=wall,
        )
        results[slot] = result
        finalized.add(slot)
        if error is None and store is not None and digest is not None:
            store.store(sweep, digest, value, counters or {})
        if writer is not None and digest is not None:
            writer.append({
                "digest": digest,
                "key": key_label(cell.key),
                "replicate": replicate,
                "seed": seed,
                "value": value,
                "counters": dict(counters or {}),
                "error": error,
                "wall_s": wall,
            })
        if coord is not None:
            coord.record(result, pid)

    # A sweep run with caching disabled is a --fresh run: warm-start
    # snapshots must not be served either, or a stale convergence
    # artifact would survive the very flag meant to invalidate it.
    warm_cells = any(cell.warm_key is not None for cell in sweep.cells)
    fresh_forced = bool(pending) and warm_cells and store is None

    try:
        if pending and workers == 0:
            if fresh_forced:
                _FRESH_GUARD.push()
            try:
                for slot, cell, replicate, seed, digest in pending:
                    value, counters, error, wall = _execute_job(
                        sweep.run_cell, seed, _cell_params(cell)
                    )
                    finalize(slot, cell, replicate, seed, digest,
                             value, counters, error, wall, pid=os.getpid())
            except KeyboardInterrupt:
                interrupted = True
            finally:
                if fresh_forced:
                    _FRESH_GUARD.pop()
        elif pending:
            interrupted = _run_pooled(
                sweep, pending, workers, batch, fresh_forced, finalize, coord
            )
    finally:
        if interrupted:
            error = ("interrupted: KeyboardInterrupt before this cell "
                     "completed (resume re-runs it)")
            for slot, cell, replicate, seed, digest in pending:
                if slot not in finalized:
                    finalize(slot, cell, replicate, seed, digest,
                             None, {}, error, 0.0)
        if writer is not None:
            writer.close()
        if coord is not None:
            coord.finish(interrupted=interrupted)

    return SweepResult(sweep, [r for r in results if r is not None],
                       replicates=replicates, workers=workers,
                       interrupted=interrupted)


def _run_pooled(sweep: Sweep, pending: list, workers: int,
                batch: int | None, fresh_forced: bool, finalize,
                coord: Coordinator | None) -> bool:
    """Fan ``pending`` out over the persistent pool, streaming each
    batch through ``finalize`` as it completes. Returns True when a
    KeyboardInterrupt cut the run short (pending work cancelled,
    finished batches harvested)."""
    handle, restarted = _get_pool(workers)
    if restarted and coord is not None:
        coord.pool_restart()
    size = batch if batch is not None else _auto_batch(len(pending), workers)
    futures = {}
    for start in range(0, len(pending), size):
        group = pending[start:start + size]
        payload = [(slot, seed, _cell_params(cell))
                   for slot, cell, __, seed, __d in group]
        try:
            future = handle.pool.submit(
                _execute_batch, sweep.run_cell, payload, fresh_forced
            )
        except BrokenExecutor as exc:
            # A worker died between submits (a just-submitted batch ran
            # os._exit before we finished fanning out): the pool is
            # poisoned, so this and later batches fail as cells — same
            # attribution contract as a future-level breakage.
            handle.broken = True
            if coord is not None:
                coord.pool_restart()
            error = f"{type(exc).__name__}: {exc}"
            for slot, cell, replicate, seed, digest in group:
                finalize(slot, cell, replicate, seed, digest,
                         None, {}, error, 0.0)
            continue
        futures[future] = group

    def land(group, pid, records) -> None:
        by_slot = {rec[0]: rec[1:] for rec in records}
        for slot, cell, replicate, seed, digest in group:
            value, counters, error, wall = by_slot[slot]
            finalize(slot, cell, replicate, seed, digest,
                     value, counters, error, wall, pid=pid)

    collected: set = set()
    try:
        for future in as_completed(futures):
            group = futures[future]
            collected.add(future)
            try:
                pid, records = future.result()
            except KeyboardInterrupt:
                raise
            except BaseException as exc:  # BrokenProcessPool, pickling, ...
                if isinstance(exc, BrokenExecutor):
                    handle.broken = True
                    if coord is not None:
                        coord.pool_restart()
                error = f"{type(exc).__name__}: {exc}"
                for slot, cell, replicate, seed, digest in group:
                    finalize(slot, cell, replicate, seed, digest,
                             None, {}, error, 0.0)
                continue
            land(group, pid, records)
    except KeyboardInterrupt:
        # Cancel what has not started, harvest what already finished —
        # every harvested cell still goes through cache/journal — and
        # let the caller mark the rest failed. The pool survives (it is
        # the campaign's, not this run's).
        for future in futures:
            future.cancel()
        for future, group in futures.items():
            if future in collected or not future.done() or future.cancelled():
                continue
            try:
                pid, records = future.result()
            except BaseException:
                continue  # swept up as interrupted by the caller
            land(group, pid, records)
        return True
    return False
