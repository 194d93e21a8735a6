"""Shared machinery for the experiment benchmarks.

Each ``bench_*.py`` reproduces one experiment from DESIGN.md's index.
A benchmark (a) runs the experiment once under pytest-benchmark (the
timing it reports is the wall-clock cost of the whole experiment), (b)
prints the table/series the paper's claim is phrased in, and (c)
asserts the *shape* of the result — who wins, by roughly what factor —
as a regression check. Absolute numbers live in EXPERIMENTS.md.

Grid-shaped experiments declare their cells as a
:class:`repro.analysis.sweep.Sweep` and run through
:func:`repro.analysis.runner.run_sweep`: cells fan out over a process
pool (``--workers`` / ``REPRO_BENCH_WORKERS``; 0 = serial in-process)
and completed cells are served from the fingerprinted ``.sweep_cache/``
unless the source tree changed.
"""

from __future__ import annotations

import argparse
import os
from contextlib import contextmanager
from typing import Any, Callable

#: Counter families uniformly surfaced into ``benchmark.extra_info``
#: when an experiment hands back a Scenario/overlay handle or a
#: SweepResult — observability parity across every bench, instead of
#: each bench hand-picking keys.
COUNTER_PREFIXES = ("route.", "fwd.", "timer.", "sim.", "sweep.")


def run_experiment(benchmark, fn: Callable[[], Any]):
    """Run ``fn`` exactly once under the benchmark fixture and return its
    result. Experiments are full simulations — repeating them for timing
    statistics would add minutes for no insight.

    The result may be:

    * a plain dict — its scalar entries land in ``extra_info``;
    * a :class:`~repro.analysis.sweep.SweepResult` — the engine's
      aggregated ``route.*`` / ``fwd.*`` / ``timer.*`` / ``sim.*``
      counters and ``sweep.*`` stats land in ``extra_info``;
    * a Scenario / OverlayNetwork / Simulator handle, or a
      ``(value, handle)`` tuple — the handle's counters land in
      ``extra_info`` and (for tuples) only ``value`` is returned.
    """
    result_box = {}

    def once():
        result_box["result"] = fn()

    benchmark.pedantic(once, rounds=1, iterations=1)
    result = result_box["result"]
    if isinstance(result, tuple) and len(result) == 2:
        value, handle = result
        _record_counters(benchmark, handle)
        return value
    _record_counters(benchmark, result)
    if isinstance(result, dict):
        benchmark.extra_info.update(
            {k: v for k, v in result.items() if isinstance(v, (int, float, str))}
        )
    return result


def _record_counters(benchmark, handle) -> None:
    counters: dict[str, float] = {}
    if hasattr(handle, "as_table") and hasattr(handle, "stats"):  # SweepResult
        counters.update(handle.counters)
        counters.update(handle.stats())
    elif hasattr(handle, "counters") or hasattr(handle, "sim") or (
        hasattr(handle, "events_processed") and hasattr(handle, "timer_stats")
    ):
        from repro.analysis.sweep import counters_of

        counters.update(counters_of(handle))
    if not counters:
        return
    benchmark.extra_info.update({
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(COUNTER_PREFIXES) and isinstance(value, (int, float))
    })


# -------------------------------------------------------------------- tables

def format_table(title: str, headers: list[str], rows: list[tuple]) -> str:
    """Render an aligned results table. Numeric columns (ints, floats,
    mean ± spread replicate cells) right-align; text columns left-align.
    Width computation always goes through :func:`_fmt`, so mixed
    str/float rows and replicate cells can never skew a column."""
    columns = len(headers)
    widths, numeric = [], []
    for i, header in enumerate(headers):
        cells = [row[i] for row in rows if i < len(row)]
        widths.append(max(
            len(str(header)), max((len(_fmt(c)) for c in cells), default=0)
        ))
        numeric.append(bool(cells) and all(_is_numeric_cell(c) for c in cells))
    lines = [f"\n== {title} =="]

    def render(cells) -> str:
        parts = []
        for i in range(columns):
            text = _fmt(cells[i]) if i < len(cells) else ""
            parts.append(
                text.rjust(widths[i]) if numeric[i] else text.ljust(widths[i])
            )
        return "  ".join(parts).rstrip()

    lines.append(render(headers))
    for row in rows:
        lines.append(render(row))
    return "\n".join(lines)


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print an aligned results table (visible with ``pytest -s``)."""
    print(format_table(title, headers, rows))


def _is_numeric_cell(cell) -> bool:
    if isinstance(cell, (int, float)):  # bools count as ints on purpose
        return True
    # ReplicateStat (mean ± spread) without importing repro eagerly.
    return hasattr(cell, "mean") and hasattr(cell, "spread")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def ms(seconds: float | None) -> float:
    """Seconds -> milliseconds (None -> nan) for table cells."""
    if seconds is None:
        return float("nan")
    return seconds * 1000.0


# ---------------------------------------------------------------- arguments

def add_workers_arg(parser) -> None:
    """Install the shared ``--workers N`` option (0 = serial in-process;
    default from ``REPRO_BENCH_WORKERS`` or a cpu-count heuristic)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool width for sweep cells; 0 forces the serial "
        "in-process path (debugging). Default: $REPRO_BENCH_WORKERS, "
        "else an os.cpu_count()-based value",
    )


def add_sweep_args(parser) -> None:
    """Install the shared sweep options: ``--workers``,
    ``--replicates N``, ``--fresh`` (ignore the result cache),
    ``--resume`` (serve cells from the campaign journal), and
    ``--status-file`` (live campaign status JSON). ``--fresh`` and
    ``--resume`` exclude each other: with the cache off no journal is
    opened, so there would be nothing to resume from."""
    add_workers_arg(parser)
    parser.add_argument(
        "--replicates",
        type=int,
        default=1,
        metavar="N",
        help="seeds per cell; N > 1 prints mean ± spread cells "
        "(replicate 0 is the canonical pinned seed)",
    )
    cache_mode = parser.add_mutually_exclusive_group()
    cache_mode.add_argument(
        "--fresh",
        action="store_true",
        help="ignore .sweep_cache/ and re-simulate every cell",
    )
    cache_mode.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed/interrupted campaign: serve completed "
        "cells from .sweep_cache/<sweep>/journal.jsonl and re-run only "
        "the missing ones",
    )
    parser.add_argument(
        "--status-file",
        metavar="PATH",
        default=None,
        help="write a live campaign status snapshot (JSON, atomically "
        "replaced) to PATH while the sweep runs",
    )


def sweep_main(doc: str | None, run: Callable[..., Any],
               show: Callable[[Any], None]) -> Any:
    """Standard ``__main__`` for a sweep-backed bench: parse the shared
    flags, run the sweep (optionally under ``--profile``), print the
    table via ``show``, and report the engine's cache/fan-out stats."""
    parser = argparse.ArgumentParser(description=doc)
    add_sweep_args(parser)
    add_profile_arg(parser)
    add_audit_arg(parser)
    args = parser.parse_args()
    enable_audit(args.audit)
    from repro.analysis.runner import campaign_options

    with campaign_options(
        resume=args.resume,
        status_file=args.status_file,
        progress=bool(args.status_file) or args.resume,
    ):
        result = maybe_profile(
            args.profile, run,
            workers=args.workers, replicates=args.replicates,
            cache=not args.fresh,
        )
    show(result)
    stats = result.stats()
    print(
        f"\nsweep: {int(stats['sweep.cells'])} cells x "
        f"{int(stats['sweep.replicates'])} replicate(s), "
        f"{int(stats['sweep.executed'])} simulated, "
        f"{int(stats['sweep.cached'])} from cache, "
        f"{int(stats['sweep.journaled'])} from journal, "
        f"workers={int(stats['sweep.workers'])}"
    )
    finish_audit(result)
    return result


# ----------------------------------------------------------------- auditing

#: Where :func:`finish_audit` writes the machine-readable audit report
#: (repo root; the CI ``audit-smoke`` leg uploads it as an artifact).
AUDIT_REPORT_PATH = os.path.join(
    os.path.dirname(__file__), "..", "AUDIT_report.json"
)


def add_audit_arg(parser) -> None:
    """Install the shared ``--audit`` option: arm the runtime invariant
    auditor (:mod:`repro.audit`) for this run and print its report at
    the end (pair with :func:`enable_audit` / :func:`finish_audit`)."""
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run with the runtime invariant auditor armed "
        "(equivalent to REPRO_AUDIT=1) and print the audit report; "
        "exits non-zero on any violation",
    )


def enable_audit(on: bool) -> None:
    """Arm the auditor for the rest of this process when ``on`` (the
    ``--audit`` flag) — must run *before* the experiment constructs its
    overlays. Also resets the process-wide auditor registry so the
    final report covers exactly this run."""
    if on:
        os.environ["REPRO_AUDIT"] = "1"
    from repro.audit import audit_enabled, reset_auditors

    if audit_enabled():
        reset_auditors()


def finish_audit(result: Any = None) -> None:
    """If the auditor is armed, run the post-hoc checks over every
    audited overlay this process built, print the merged report, write
    the JSON artifact to :data:`AUDIT_REPORT_PATH`, and exit non-zero
    on any violation.

    ``result`` may be a :class:`~repro.analysis.sweep.SweepResult`:
    cells that ran in pool workers audited themselves in their own
    process, and their ``audit.check`` / ``audit.violation`` totals
    come back through the cell counters — those are folded into the
    pass/fail decision here (their full violation records stay in the
    worker; re-run with ``--workers 0`` to see them localized).
    """
    from repro.audit import audit_enabled, collect_report

    if not audit_enabled():
        return
    report = collect_report()
    worker_checks = worker_violations = 0
    counters = getattr(result, "counters", None)
    if isinstance(counters, dict):
        worker_checks = int(counters.get("audit.check", 0))
        worker_violations = int(counters.get("audit.violation", 0))
    print(report.format())
    if worker_checks:
        print(
            f"   (cell counters report {worker_checks} checks, "
            f"{worker_violations} violation(s), including worker processes)"
        )
    path = os.path.normpath(AUDIT_REPORT_PATH)
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"audit report written to {path}")
    if report.violations or worker_violations:
        raise SystemExit(
            f"audit: {len(report.violations) + worker_violations} "
            "violation(s) — see report above"
        )


# ---------------------------------------------------------------- profiling

def add_profile_arg(parser) -> None:
    """Install the shared ``--profile PATH`` option on a bench's
    argument parser (pair with :func:`maybe_profile`)."""
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="run under cProfile and dump the stats to PATH "
        "(inspect with `python -m pstats PATH`)",
    )


#: Active ``--profile`` session (set by :func:`maybe_profile`): the
#: outer whole-run profiler plus one accumulating profiler per
#: :func:`bench_phase` name. ``None`` when not profiling.
_PROFILE_SESSION: dict | None = None


@contextmanager
def bench_phase(name: str):
    """Mark a benchmark phase (``"warmup"``, ``"measured"``, ...).

    Without ``--profile`` this is free. Under ``--profile PATH`` each
    phase name accumulates its own profile, dumped to ``PATH.<name>``
    next to the whole-run stats — so the warm-up storm (or its
    snapshot restore) and the measured steady-state window can be
    inspected separately. cProfile does not nest: the outer profiler
    pauses while a phase profiler runs, so ``PATH`` itself covers
    exactly the un-phased remainder.
    """
    session = _PROFILE_SESSION
    if session is None:
        yield
        return
    import cProfile

    session["profile"].disable()
    inner = session["phases"].get(name)
    if inner is None:
        inner = session["phases"][name] = cProfile.Profile()
    inner.enable()
    try:
        yield
    finally:
        inner.disable()
        session["profile"].enable()


def maybe_profile(path: str | None, fn: Callable[..., Any], *args, **kwargs):
    """Call ``fn(*args, **kwargs)``, under cProfile when ``path`` is
    given (the stats are dumped to ``path``; any :func:`bench_phase`
    blocks inside ``fn`` additionally dump per-phase stats to
    ``path.<phase>``). Returns ``fn``'s result either way — profiled
    timings are for hotspot hunting, not for the numbers a bench
    reports."""
    global _PROFILE_SESSION
    if path is None:
        return fn(*args, **kwargs)
    import cProfile

    profile = cProfile.Profile()
    _PROFILE_SESSION = {"profile": profile, "phases": {}}
    try:
        result = profile.runcall(fn, *args, **kwargs)
    finally:
        session = _PROFILE_SESSION
        _PROFILE_SESSION = None
    profile.dump_stats(path)
    print(f"profile written to {path}")
    for name, phase_profile in sorted(session["phases"].items()):
        phase_path = f"{path}.{name}"
        phase_profile.dump_stats(phase_path)
        print(f"phase profile ({name}) written to {phase_path}")
    return result
