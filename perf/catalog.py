"""The metric catalog: the one place names, units, directions and
regression bounds are written down.

``BENCHMARK.json`` at the repo root is generated from this module
(``python3 perf/catalog.py --write``) and the smoke test holds the two
equal, so the pipeline's contract file and the benchmark's own output
cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[0] = str(ROOT)

from perf.counters import COUNTER_METRICS  # noqa: E402
from perf.trace import FOLD_FIELDS, LAYERS  # noqa: E402

#: Host seconds one measured window is tuned to on the reference
#: machine; ``--seconds S`` scales every size by S / RUN_SECONDS.
RUN_SECONDS = 16

#: Frozen window sizes: simulated seconds (cells for the sweep).
SIZES = {
    "mesh_exact": 5.0,
    "mesh_batched": 10.0,
    "storm_churn": 8.0,
    "services_lossy": 28.0,
    "sweep_campaign": 84,
}
#: ``--quick``: about one simulated second of traffic plus the drain.
QUICK_SIZES = {
    "mesh_exact": 2.0,
    "mesh_batched": 2.0,
    "storm_churn": 4.2,
    "services_lossy": 2.0,
    "sweep_campaign": 8,
}

#: Cross-tier tolerances of ``repro.analysis.calibrate`` (loss-free):
#: what ``mesh_batched`` may differ from the exact tier by.
CAL_DELIVERY_TOL = 0.02
CAL_P50_TOL_MS = 2.0

#: name -> why the workload exists (one line each; the long form is in
#: perf/README.md).
WORKLOADS = {
    "mesh_exact": "n=200 multi-fiber mesh in steady state on the exact "
                  "tier: sim, net and core.link carry the time, routing idles",
    "mesh_batched": "same mesh and fleet on the numpy bulk-settlement tier: "
                    "same layers used differently, checked against the exact tier",
    "storm_churn": "n=100 mesh started cold, then fiber cuts and node crashes "
                   "aimed at the probes: the only workload that writes routing state",
    "services_lossy": "12-city overlay under bursty loss, every link protocol "
                      "plus multicast: pipeline, protocols and session dominate",
    "sweep_campaign": "run_sweep at 2 workers over snapshot-restoring cells, "
                      "cold then resumed then cached: analysis and warm start show",
}

#: (name, unit, better, bound, domain, meaning)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "host",
     "subprocess start -> traffic attached to a converged overlay"),
    ("run_wall_s", "s", "lower", 0.25, "host",
     "wall clock of the measured window (fixed simulated work)"),
    ("cpu_s", "s", "lower", 0.25, "host",
     "user+sys CPU of the workload process and its reaped children over "
     "the window"),
    ("peak_rss_mb", "MB", "lower", 0.15, "host",
     "peak RSS of the workload process plus its largest worker"),
    ("delivered_share", "ratio", "higher", 0.05, "sim",
     "client messages delivered / offered, sources stopped a drain "
     "before the window ends"),
    ("deliver_p50_ms", "ms", "lower", 0.12, "sim",
     "median one-way client latency from sent_at"),
    ("deliver_p99_ms", "ms", "lower", 0.25, "sim",
     "99th percentile one-way client latency (>= 1000 samples)"),
    ("outage_s", "s", "lower", 0.25, "sim",
     "longest delivery gap on the probe flows across the injected faults"),
    ("reconverge_s", "s", "lower", 0.15, "sim",
     "simulated time from the last repair until overlay.converged(), "
     "polled in 50 ms slices"),
)

_FOLD_UNITS = {"self_s": ("s", "lower"), "share": ("ratio", "lower"),
               "calls_in": ("count", "lower")}
_HIGHER = {
    "sim.events_per_s", "core.routing.hits", "core.routing.hit_ratio",
    "core.pipeline.fwd_hit_ratio", "core.session.delivered",
    "core.session.on_time_share", "protocols.recovered",
    "analysis.cells_cached", "analysis.cells_journaled",
    "net.datagrams_delivered",
}
_UNITS = {
    "sim.events_per_s": "1/s", "net.drop_share": "ratio",
    "net.fiber_bytes": "B", "core.link.control_share": "ratio",
    "core.routing.hit_ratio": "ratio", "core.pipeline.fwd_hit_ratio": "ratio",
    "core.session.on_time_share": "ratio",
    "core.warmstart.construct_s": "s", "core.warmstart.capture_s": "s",
    "core.warmstart.restore_s": "s", "analysis.cell_wall_sum_s": "s",
    "analysis.overhead_ms_per_cell": "ms", "analysis.cached_pass_ms": "ms",
    "analysis.resume_pass_s": "s", "analysis.pool_warm_s": "s",
}
DRILLS = (
    ("sim.drill_ns_per_event", "ns"),
    ("net.drill_us_per_datagram", "us"),
    ("core.routing.drill_ms_per_table", "ms"),
    ("core.routing.drill_ns_per_hit", "ns"),
    ("core.linkstate.drill_us_per_update", "us"),
    ("analysis.drill_ms_per_cell", "ms"),
    ("analysis.drill_us_per_cached_cell", "us"),
)
OVERHEAD = "trace.overhead_x"


def per_layer() -> list[dict]:
    rows = []
    for layer in LAYERS:
        for name in FOLD_FIELDS:
            unit, better = _FOLD_UNITS[name]
            rows.append({"name": f"{layer}.{name}", "unit": unit,
                         "better": better})
    for name in COUNTER_METRICS:
        rows.append({"name": name, "unit": _UNITS.get(name, "count"),
                     "better": "higher" if name in _HIGHER else "lower"})
    for name, unit in DRILLS:
        rows.append({"name": name, "unit": unit, "better": "lower"})
    rows.append({"name": OVERHEAD, "unit": "x", "better": "lower"})
    return rows


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _, _ in END_TO_END
        ],
        "per_layer": per_layer(),
    }


def units() -> dict[str, str]:
    table = {name: unit for name, unit, *_ in END_TO_END}
    table.update({row["name"]: row["unit"] for row in per_layer()})
    return table


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in sys.argv:
        (ROOT / "BENCHMARK.json").write_text(text)
    else:
        sys.stdout.write(text)
