#!/usr/bin/env python3
"""A/A check: two sets of runs of the same checkout must agree.

    python3 perf/aa.py [--runs R] [--seed S] [--workloads a,b] [--out DIR]

Each set runs every workload R times (seeds S .. S+R-1), the two sets
interleaved run by run so drift of the host hits both alike. For every
(workload, end-to-end metric) it prints both medians, how much worse
the second is than the first, the spread of each set (distance between
the quartiles over the median, when R >= 4) and pass/fail against the
bound in ``BENCHMARK.json``. Simulated-time metrics and trace digests
are also held *equal* run by run: the same seed must give the same
overlay, bit for bit. Exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perf import catalog, run  # noqa: E402

SIM_METRICS = tuple(name for name, *_rest in catalog.END_TO_END
                    if _rest[3] == "sim")


def spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of the first median by which the second is worse."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def compare(sets: dict) -> tuple[list[dict], list[str]]:
    """``sets[workload][a|b]`` is a list of outcomes, one per seed."""
    rows, mismatches = [], []
    for workload, pair in sets.items():
        for a, b in zip(pair["a"], pair["b"]):
            same = all(a["e2e"][m] == b["e2e"][m] for m in SIM_METRICS)
            if not same or a["trace_digest"] != b["trace_digest"]:
                mismatches.append(
                    f"{workload} seed {a['seed']}: simulated-time metrics or "
                    f"trace digest differ between the sets")
        for name, _unit, better, bound, _domain, _ in catalog.END_TO_END:
            first = [o["e2e"][name] for o in pair["a"]]
            second = [o["e2e"][name] for o in pair["b"]]
            med_a, med_b = statistics.median(first), statistics.median(second)
            worse = worse_by(med_a, med_b, better)
            spreads = [s for s in (spread(first), spread(second))
                       if s is not None]
            steady = name == "setup_s" or all(s <= bound for s in spreads)
            rows.append({
                "workload": workload, "metric": name, "median_a": med_a,
                "median_b": med_b, "worse_by": worse, "bound": bound,
                "spread": max(spreads) if spreads else None,
                "ok": worse <= bound and steady,
            })
    return rows, mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3,
                        help="runs per workload per set (the pipeline uses 10)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(catalog.WORKLOADS))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    sets = {w: {"a": [], "b": []} for w in workloads}
    incorrect = []
    for workload in workloads:
        size = run.size_for(workload, catalog.RUN_SECONDS, args.quick)
        for seed in range(args.seed, args.seed + args.runs):
            for side in ("a", "b"):
                outcome = run.run_plain(workload, seed, size)
                sets[workload][side].append(outcome)
                if not outcome["correct"]:
                    incorrect.append(f"{workload} seed {seed} set {side}")
                print(f"{workload} seed={seed} set={side} "
                      f"run_wall_s={outcome['e2e']['run_wall_s']:.3f} "
                      f"setup_s={outcome['e2e']['setup_s']:.3f}", flush=True)
    rows, mismatches = compare(sets)
    print(f"\n{'workload':<16}{'metric':<18}{'median a':>12}{'median b':>12}"
          f"{'worse by':>10}{'bound':>7}{'spread':>9}  verdict")
    for r in rows:
        shown = "-" if r["spread"] is None else f"{r['spread']:.2%}"
        print(f"{r['workload']:<16}{r['metric']:<18}{r['median_a']:>12.5g}"
              f"{r['median_b']:>12.5g}{r['worse_by']:>10.2%}{r['bound']:>7.0%}"
              f"{shown:>9}  {'pass' if r['ok'] else 'FAIL'}")
    for line in mismatches + [f"failed checks: {x}" for x in incorrect]:
        print("FAIL " + line)
    ok = all(r["ok"] for r in rows) and not mismatches and not incorrect
    if args.out:
        manifest = sets[workloads[0]]["a"][0]["manifest"]
        run.write_out(args.out, "aa.json", manifest, {
            "rows": rows, "mismatches": mismatches,
            "incorrect": incorrect, "ok": ok,
            "runs": {w: {side: [{"seed": o["seed"], "e2e": o["e2e"],
                                 "trace_digest": o["trace_digest"]}
                                for o in outcomes]
                         for side, outcomes in pair.items()}
                     for w, pair in sets.items()},
        })
    print("A/A OK" if ok else "A/A FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
