"""Campaign status surface: per-cell/per-worker health for long sweeps.

A fuzz or mobility campaign is 10^3-10^5 cells streaming through the
sweep engine for minutes to hours. The engine itself stays silent until
the end; the :class:`Coordinator` is the operational window into a
running campaign:

* **console progress** — a throttled one-line summary (cells
  done/failed/cached/journaled, throughput, ETA) printed as results
  stream in, plus a final line when the run completes or is
  interrupted;
* **JSON status file** — the same snapshot written atomically (unique
  tmp name + ``os.replace``, so a concurrent reader never sees a torn
  file) every report interval. Point a dashboard, a CI tail step, or a
  second terminal at it — this is the long-poll "coordinator" surface
  the ROADMAP's campaign item asks for;
* **worker health** — the set of worker pids observed on completed
  cells plus pool restarts, so a crashing worker (or a pool that had to
  be rebuilt after a ``BrokenProcessPool``) is visible while the
  campaign is still running;
* **slowest cells** — the top-N cells by wall clock, the first place to
  look when a grid's cost is dominated by a few pathological points.

The runner (:func:`repro.analysis.runner.run_sweep`) drives the
lifecycle: ``start`` once, ``record`` per landed cell (streamed, not
gathered), ``finish`` at the end. ``on_cell`` is an optional hook
called after every recorded cell — tests and the bench's forced-kill
CI leg use it to act mid-campaign at a deterministic point.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.fileio import atomic_write

#: Keep this many slowest cells in the status snapshot.
DEFAULT_SLOWEST = 5

#: Default seconds between throttled reports (console + status file).
DEFAULT_INTERVAL_S = 5.0


class Coordinator:
    """Aggregates streamed cell results into a live campaign snapshot.

    Args:
        status_path: Where to write the JSON status snapshot (``None``
            disables the file).
        progress: Print throttled console progress lines.
        interval_s: Minimum seconds between throttled reports; the
            final report always fires.
        track_slowest: How many slowest cells to keep.
        on_cell: Optional callback invoked with this coordinator after
            every recorded cell (kill-switch / test hook).
        out: Console sink (``print``-compatible; tests capture it).
        clock: Monotonic clock (tests pin it).
    """

    def __init__(
        self,
        status_path: str | Path | None = None,
        progress: bool = False,
        interval_s: float = DEFAULT_INTERVAL_S,
        track_slowest: int = DEFAULT_SLOWEST,
        on_cell: Callable[["Coordinator"], None] | None = None,
        out: Callable[[str], None] = print,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.status_path = None if status_path is None else Path(status_path)
        self.progress = progress
        self.interval_s = interval_s
        self.track_slowest = track_slowest
        self.on_cell = on_cell
        self.out = out
        self.clock = clock
        self.sweep_name = ""
        self.total = 0
        self.workers = 0
        self.done = 0
        self.executed = 0
        self.cached = 0
        self.journaled = 0
        self.failed = 0
        self.interrupted = False
        self.pids: set[int] = set()
        self.pool_restarts = 0
        self.slowest: list[tuple[float, str]] = []
        self._started = 0.0
        self._last_report = float("-inf")
        self._finished = False

    # ---------------------------------------------------------- lifecycle

    def start(self, sweep_name: str, total: int, workers: int) -> None:
        """Begin a campaign of ``total`` (cell, replicate) jobs."""
        self.sweep_name = sweep_name
        self.total = total
        self.workers = workers
        self._started = self.clock()
        self._finished = False

    def record(self, result: Any, pid: int | None = None) -> None:
        """Fold one landed :class:`~repro.analysis.sweep.CellResult` in
        the moment it streams back (worker completion order, not
        declared order)."""
        self.done += 1
        if not result.ok:
            self.failed += 1
        elif result.cached:
            self.cached += 1
        elif getattr(result, "journaled", False):
            self.journaled += 1
        else:
            self.executed += 1
        if pid is not None:
            self.pids.add(pid)
        if result.wall_s > 0:
            from repro.analysis.sweep import key_label

            label = f"{key_label(result.key)}#r{result.replicate}"
            self.slowest.append((result.wall_s, label))
            self.slowest.sort(reverse=True)
            del self.slowest[self.track_slowest:]
        if self.on_cell is not None:
            self.on_cell(self)
        self.maybe_report()

    def pool_restart(self) -> None:
        """The runner replaced a broken worker pool."""
        self.pool_restarts += 1

    def finish(self, interrupted: bool = False) -> None:
        """Final report (always emitted, throttle bypassed)."""
        self.interrupted = interrupted
        self._finished = True
        self.maybe_report(force=True)

    # ---------------------------------------------------------- reporting

    @property
    def pending(self) -> int:
        return max(0, self.total - self.done)

    @property
    def worker_restarts(self) -> int:
        """Distinct pids beyond the pool width, plus pool rebuilds."""
        return max(0, len(self.pids) - self.workers) + self.pool_restarts

    def snapshot(self) -> dict:
        """The machine-readable status record (written to the status
        file; stable keys — CI and dashboards consume this)."""
        elapsed = max(0.0, self.clock() - self._started)
        rate = self.done / elapsed if elapsed > 0 else 0.0
        eta = self.pending / rate if rate > 0 else None
        return {
            "sweep": self.sweep_name,
            "total": self.total,
            "done": self.done,
            "executed": self.executed,
            "cached": self.cached,
            "journaled": self.journaled,
            "failed": self.failed,
            "pending": self.pending,
            "elapsed_s": elapsed,
            "cells_per_s": rate,
            "eta_s": eta,
            "workers": self.workers,
            "worker_pids": sorted(self.pids),
            "worker_restarts": self.worker_restarts,
            "slowest_cells": [
                {"cell": label, "wall_s": wall} for wall, label in self.slowest
            ],
            "interrupted": self.interrupted,
            "finished": self._finished,
        }

    def maybe_report(self, force: bool = False) -> None:
        """Emit a console line / status-file write, at most once per
        ``interval_s`` unless forced."""
        now = self.clock()
        if not force and now - self._last_report < self.interval_s:
            return
        self._last_report = now
        snap = self.snapshot()
        if self.progress:
            self.out(self._format_line(snap))
        if self.status_path is not None:
            self._write_status(snap)

    def _format_line(self, snap: dict) -> str:
        state = "interrupted" if snap["interrupted"] else (
            "done" if snap["finished"] else "running")
        eta = "" if snap["eta_s"] is None or snap["finished"] else (
            f", eta {snap['eta_s']:.0f}s")
        health = f"{snap['workers']} worker(s)"
        if snap["worker_restarts"]:
            health += f", {snap['worker_restarts']} restart(s)"
        slow = ""
        if snap["slowest_cells"]:
            top = snap["slowest_cells"][0]
            slow = f" | slowest {top['cell']} {top['wall_s']:.2f}s"
        return (
            f"[sweep {snap['sweep']}] {snap['done']}/{snap['total']} "
            f"({snap['executed']} simulated, {snap['cached']} cached, "
            f"{snap['journaled']} journaled, {snap['failed']} failed)"
            f" {state} at {snap['cells_per_s']:.1f} cells/s{eta}"
            f" | {health}{slow}"
        )

    def _write_status(self, snap: dict) -> None:
        path = self.status_path
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(snap, indent=2, sort_keys=True) + "\n"
        with contextlib.suppress(OSError):
            atomic_write(path, lambda tmp: tmp.write_text(text))
