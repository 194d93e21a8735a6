#!/usr/bin/env python3
"""Run the benchmark.

Pipeline form (what ``BENCHMARK.json``'s ``command`` expands to)::

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.

Human form::

    python3 perf/run.py --all --seed N --out DIR [--quick] [--trace]

runs all five workloads, prints every end-to-end metric by name with
unit and sample count, holds ``mesh_batched`` against ``mesh_exact``,
writes the results (stamped with the run manifest) under ``DIR`` and
exits non-zero on any failed check.

Every workload runs in a fresh child interpreter with
``PYTHONHASHSEED=0``, private ``.sweep_cache`` / ``.warmstart`` stores
under a temporary directory inside the checkout, and the knobs that
could leak in from the caller's shell scrubbed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The script directory must not lead sys.path: perf/trace.py would
# shadow the stdlib's ``trace``. Everything here imports as ``perf.*``.
sys.path[0] = str(ROOT)

from perf import catalog  # noqa: E402
from perf.trace import fold_metrics  # noqa: E402

SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perf_tmp"
MARKER = "PERF_OUTCOME "
SCRUBBED_ENV = ("REPRO_BENCH_WORKERS", "REPRO_AUDIT", "REPRO_WARMSTART_FRESH")
#: The traced invocation runs each window at this share of its size.
TRACE_SHARE = 1.0 / 3.0
CHILD_TIMEOUT_S = 170


# ------------------------------------------------------------------ child


def child_main(spec: dict) -> int:
    """Inside the fresh interpreter: run one workload (or the drills)
    and print its outcome as one marked JSON line."""
    sys.path.insert(1, str(SRC))
    tmp = Path(spec["tmp"])
    if spec.get("drills"):
        from perf import drills

        outcome = {"drills": drills.run_all(tmp)}
    else:
        from perf import workloads

        ctx = workloads.Ctx(
            workload=spec["workload"], seed=spec["seed"], size=spec["size"],
            tmp=tmp, spawned_at=spec["spawned_at"], profile=spec["profile"],
            workers=spec["workers"],
        )
        outcome = workloads.RUNNERS[ctx.workload](ctx)
    outcome["manifest"] = manifest(spec)
    sys.stdout.write(MARKER + json.dumps(outcome) + "\n")
    sys.stdout.flush()
    return 0


def manifest(spec: dict) -> dict:
    """What produced a result: stamped on every output file."""
    import platform

    from repro.analysis.runner import source_fingerprint

    from perf.tiers import tier_manifest

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": spec.get("seed"),
        "source_fingerprint": source_fingerprint(),
        "tiers": tier_manifest(),
        "run_seconds": catalog.RUN_SECONDS,
        "frozen_sizes": catalog.SIZES,
        "size": spec.get("size"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


# ----------------------------------------------------------------- parent


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_SWEEP_CACHE"] = str(tmp / ".sweep_cache")
    env["REPRO_WARMSTART_DIR"] = str(tmp / ".warmstart")
    return env


def spawn(spec: dict) -> dict:
    """Run one child to completion in a private temporary directory and
    return its outcome. The directory, and with it every store the
    workload wrote, is gone when this returns."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        spec = dict(spec, tmp=str(tmp), spawned_at=time.time())
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child",
             json.dumps(spec)],
            cwd=ROOT, env=child_env(tmp), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    what = spec.get("workload") or "drills"
    raise RuntimeError(f"{what}: child exited {proc.returncode} without a "
                       f"result\n{proc.stdout[-2000:]}")


def size_for(workload: str, seconds: float, quick: bool) -> float:
    if quick:
        return catalog.QUICK_SIZES[workload]
    return catalog.SIZES[workload] * seconds / catalog.RUN_SECONDS


def run_plain(workload: str, seed: int, size: float, workers: int = 2) -> dict:
    return spawn({"workload": workload, "seed": seed, "size": size,
                  "profile": False, "workers": workers})


def run_drills() -> dict:
    return spawn({"drills": True})["drills"]


def run_traced(workload: str, seed: int, size: float, drills: dict) -> dict:
    """The traced invocation of one workload: the shortened window
    plain, then under the profile fold, joined with the drills. The
    sweep runs its cells in-process on both legs, or the fold could not
    see them; tracing overhead compares CPU seconds, which do not care."""
    workers = 0 if workload == "sweep_campaign" else 2
    short = max(size * TRACE_SHARE, catalog.QUICK_SIZES[workload])
    plain = run_plain(workload, seed, short, workers)
    folded = spawn({"workload": workload, "seed": seed, "size": short,
                    "profile": True, "workers": workers})
    metrics = dict(plain["counters"])
    metrics.update(fold_metrics(folded["fold"]))
    metrics.update(drills)
    metrics[catalog.OVERHEAD] = (
        folded["e2e"]["cpu_s"] / plain["e2e"]["cpu_s"]
        if plain["e2e"]["cpu_s"] > 0 else 0.0)
    return {"plain": plain, "folded": folded, "metrics": metrics,
            "manifest": plain["manifest"]}


def result_line(outcome: dict, metrics: dict) -> str:
    units = catalog.units()
    return json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def print_outcome(outcome: dict) -> None:
    units = catalog.units()
    print(f"== {outcome['workload']}  seed={outcome['seed']}  "
          f"size={outcome['size']:g}  samples={outcome['samples']}")
    for name, value in outcome["e2e"].items():
        print(f"  {name:<18}{value:>14.6g} {units[name]:<6}"
              f"(n={outcome['samples'] if name.startswith('deliver') else 1})")
    print(f"  ops attempted={outcome['attempted']} failed={outcome['failed']}"
          f"  trace_digest={outcome['trace_digest']}")
    spans: dict = {}
    for row in outcome["spans"]:
        spans[row["name"]] = spans.get(row["name"], 0.0) + row["end_s"] - row["start_s"]
    print("  spans: " + "  ".join(f"{k}={v:.2f}s" for k, v in spans.items()))
    for check in outcome["checks"]:
        flag = "ok  " if check["ok"] else "FAIL"
        print(f"  [{flag}] {check['name']} {check['detail']}".rstrip())


def pipeline_main(args) -> int:
    size = size_for(args.workload, args.seconds, args.quick)
    if args.trace:
        traced = run_traced(args.workload, args.seed, size, run_drills())
        for leg in ("plain", "folded"):
            print_outcome(traced[leg])
        outcome = traced["plain"]
        outcome["correct"] = outcome["correct"] and traced["folded"]["correct"]
        metrics = traced["metrics"]
        if args.out:
            write_out(args.out, f"trace_{args.workload}.json",
                      traced["manifest"], traced)
    else:
        outcome = run_plain(args.workload, args.seed, size)
        print_outcome(outcome)
        metrics = outcome["e2e"]
        if args.out:
            write_out(args.out, f"run_{args.workload}.json",
                      outcome["manifest"], outcome)
    print(result_line(outcome, metrics))
    return 0 if outcome["correct"] else 1


def cross_tier_checks(results: dict) -> list[dict]:
    exact, batched = results["mesh_exact"]["e2e"], results["mesh_batched"]["e2e"]
    share = abs(batched["delivered_share"] - exact["delivered_share"])
    p50 = abs(batched["deliver_p50_ms"] - exact["deliver_p50_ms"])
    return [
        {"name": "mesh_batched_vs_exact_delivered_share",
         "ok": share <= catalog.CAL_DELIVERY_TOL, "detail": f"delta {share:.5f}"},
        {"name": "mesh_batched_vs_exact_p50",
         "ok": p50 <= catalog.CAL_P50_TOL_MS, "detail": f"delta {p50:.4f} ms"},
    ]


def run_all(seed: int, seconds: float, quick: bool) -> dict:
    """One full set: every workload once, untraced."""
    return {w: run_plain(w, seed, size_for(w, seconds, quick))
            for w in catalog.WORKLOADS}


def all_main(args) -> int:
    results = run_all(args.seed, args.seconds, args.quick)
    for outcome in results.values():
        print_outcome(outcome)
    cross = cross_tier_checks(results)
    for check in cross:
        flag = "ok  " if check["ok"] else "FAIL"
        print(f"[{flag}] {check['name']} {check['detail']}")
    ok = all(o["correct"] for o in results.values()) and all(
        c["ok"] for c in cross)
    payload = {"results": results, "cross_tier": cross, "ok": ok}
    if args.trace:
        drills = run_drills()
        payload["traced"] = {
            w: run_traced(w, args.seed, size_for(w, args.seconds, args.quick),
                          drills)
            for w in catalog.WORKLOADS}
        for w, traced in payload["traced"].items():
            ok = ok and traced["plain"]["correct"] and traced["folded"]["correct"]
            print(f"== {w} traced: overhead_x="
                  f"{traced['metrics'][catalog.OVERHEAD]:.2f}")
            for layer, entry in sorted(traced["folded"]["fold"].items(),
                                       key=lambda kv: -kv[1]["share"]):
                print(f"  {layer:<16}{entry['share']:>7.1%}"
                      f"{entry['self_s']:>9.3f} s  calls_in={entry['calls_in']}")
        payload["ok"] = ok
    if args.out:
        manifest = next(iter(results.values()))["manifest"]
        write_out(args.out, "all.json", manifest, payload)
    print("ALL OK" if ok else "FAILED")
    return 0 if ok else 1


def write_out(out: str, name: str, manifest: dict, payload: dict) -> None:
    """Write one output file, the run manifest stamped on top."""
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / name, "w") as fh:
        json.dump({"manifest": manifest, **payload}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {directory / name}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(json.loads(argv[1]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="host seconds a window is sized for (scales the "
                        "frozen sizes; default: run_seconds)")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        help="1: the traced invocation (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="~1 simulated second per workload (smoke test)")
    parser.add_argument("--out", help="directory for result files")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload or --all")
    return all_main(args) if args.all else pipeline_main(args)


if __name__ == "__main__":
    sys.exit(main())
