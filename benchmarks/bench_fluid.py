"""Hybrid fluid traffic engine: fidelity and scale.

Two legs, both on the 16-node ring+chords mesh from
``bench_simcore.py`` (built by :mod:`repro.analysis.calibrate`):

* **calibration** — the same bulk flow set run packet-level and fluid
  must agree on delivery ratio and mean latency within the documented
  tolerances (loss-free and under Gilbert–Elliott loss), and pure
  packet flows sharing the overlay must produce **byte-identical**
  traces whether or not the fluid engine is active;
* **scale** — ``N_FLOWS`` modeled client flows (0.5 pps each) carried
  for 60 s of simulated time, once as real per-datagram events and
  once as fluid rate intervals. The fluid leg's event volume is the
  control plane only — O(rate changes) instead of O(packets) — so its
  wall clock must come in at least 10x under the packet leg's
  (asserted in full ``__main__`` runs only; ``--quick`` shrinks the
  fleet and skips the gate so CI smoke stays robust).

The packet leg keeps its trace (columns: 32 B per send and 40 B
per delivery) and the fluid leg disables per-destination fluid
accounting (``fluid_flow_accounting=False``) — delivery totals still
come from the engine's counters. The run writes
``BENCH_fluid.json`` next to the repo root.
"""

import json
import os
import time

from repro.analysis.calibrate import (
    DELIVERY_TOL,
    DELIVERY_TOL_LOSSY,
    LATENCY_TOL,
    build_overlay,
    run_calibration,
)
from repro.analysis.workloads import CbrSource
from repro.core.config import OverlayConfig
from repro.core.message import Address

from bench_util import (
    add_audit_arg,
    add_profile_arg,
    enable_audit,
    finish_audit,
    maybe_profile,
    print_table,
    run_experiment,
)

N_NODES = 16
N_FLOWS = 100_000
QUICK_N_FLOWS = 2_000
RUN_TIME = 60.0
QUICK_RUN_TIME = 6.0
CALIBRATION_TIME = 20.0
QUICK_CALIBRATION_TIME = 6.0
FLOW_RATE_PPS = 0.5
SINK_PORT = 7

RESULT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_fluid.json")


def _scale_leg(fluid: bool, run_time: float, n_flows: int) -> dict:
    """Carry ``n_flows`` modeled client flows, packet or fluid."""
    config = OverlayConfig()
    if fluid:
        config.fluid_flow_accounting = False
    overlay = build_overlay(config=config)
    sim = overlay.sim
    overlay.warm_up(2.0)
    engine = overlay.fluid_engine() if fluid else None

    for i in range(N_NODES):
        overlay.client(f"n{i:02d}", SINK_PORT)
    # Every flow from node i to the node half a ring away — all start
    # at the same instant so the fluid engine registers the whole fleet
    # under one coalesced re-solve.
    sources = []
    for i in range(n_flows):
        src = f"n{i % N_NODES:02d}"
        sink = f"n{(i + N_NODES // 2) % N_NODES:02d}"
        sources.append(CbrSource(
            sim, overlay.client(src), Address(sink, SINK_PORT),
            rate_pps=FLOW_RATE_PPS, fluid=engine,
        ).start())

    events_before = sim.events_processed
    started = time.perf_counter()
    sim.run(until=sim.now + run_time)
    if engine is not None:
        engine.settle_now()
    wall = time.perf_counter() - started
    events = sim.events_processed - events_before

    if engine is not None:
        summary = engine.summary()
        offered = summary["offered"]
        resolves = summary["resolves"]
    else:
        offered = sum(s.sent for s in sources)
        resolves = 0
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "offered_msgs": offered,
        "resolves": resolves,
    }


def run_fluid_bench(run_time: float = RUN_TIME, n_flows: int = N_FLOWS,
                    calibration_time: float = CALIBRATION_TIME) -> dict:
    calib = run_calibration(run_time=calibration_time)
    calib.check()
    lossy = run_calibration(run_time=calibration_time, lossy=True)
    lossy.check()
    probed = run_calibration(run_time=calibration_time, probe_every=10)
    probed.check()

    packet = _scale_leg(False, run_time, n_flows)
    fluid = _scale_leg(True, run_time, n_flows)
    return {
        "n_flows": n_flows,
        "flow_rate_pps": FLOW_RATE_PPS,
        "run_time_s": run_time,
        "calibration_time_s": calibration_time,
        "delivery_tolerance": DELIVERY_TOL,
        "delivery_tolerance_lossy": DELIVERY_TOL_LOSSY,
        "latency_tolerance_s": LATENCY_TOL,
        "max_delivery_delta": calib.max_delivery_delta,
        "max_latency_delta_s": calib.max_latency_delta,
        "max_delivery_delta_lossy": lossy.max_delivery_delta,
        "max_latency_delta_lossy_s": lossy.max_latency_delta,
        "max_delivery_delta_probed": probed.max_delivery_delta,
        "packet_wall_s": packet["wall_s"],
        "packet_events": packet["events"],
        "packet_events_per_s": packet["events_per_s"],
        "packet_offered_msgs": packet["offered_msgs"],
        "fluid_wall_s": fluid["wall_s"],
        "fluid_events": fluid["events"],
        "fluid_events_per_s": fluid["events_per_s"],
        "fluid_offered_msgs": fluid["offered_msgs"],
        "fluid_resolves": fluid["resolves"],
        "speedup": packet["wall_s"] / fluid["wall_s"]
        if fluid["wall_s"] > 0 else float("inf"),
    }


def write_result(result: dict, path: str = RESULT_PATH) -> None:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_shape(result: dict) -> None:
    # Calibration inside the documented tolerances (already asserted by
    # CalibrationResult.check; re-asserted here so the JSON is honest).
    assert result["max_delivery_delta"] <= result["delivery_tolerance"], result
    assert result["max_latency_delta_s"] <= result["latency_tolerance_s"], result
    assert (result["max_delivery_delta_lossy"]
            <= result["delivery_tolerance_lossy"]), result
    # The fluid leg modeled the whole fleet (offered ~= flows * rate * time)
    # without per-message events...
    expected = result["n_flows"] * result["flow_rate_pps"] * result["run_time_s"]
    assert result["fluid_offered_msgs"] >= 0.95 * expected, result
    # ...and collapsed the whole run into O(rate/topology changes)
    # re-solves: one per coalesced boundary (flow starts, adaptive-cost
    # LSU refresh rounds), not one per message.
    assert 0 < result["fluid_resolves"] <= 200, result
    # The packet leg really sent the same traffic one datagram at a time.
    assert result["packet_offered_msgs"] >= 0.95 * expected, result
    assert result["fluid_events"] < result["packet_events"], result


def bench_fluid(benchmark):
    result = run_experiment(
        benchmark, run_fluid_bench,
        run_time=QUICK_RUN_TIME, n_flows=QUICK_N_FLOWS,
        calibration_time=QUICK_CALIBRATION_TIME,
    )
    print_table(
        f"Hybrid fluid engine, {result['n_flows']} modeled flows "
        f"over {result['run_time_s']:.0f}s sim time",
        ["mode", "wall s", "events", "offered msgs"],
        [
            ("packet", result["packet_wall_s"], result["packet_events"],
             result["packet_offered_msgs"]),
            ("fluid", result["fluid_wall_s"], result["fluid_events"],
             round(result["fluid_offered_msgs"])),
        ],
    )
    print_table(
        "Calibration deltas (documented tolerances)",
        ["metric", "delta", "tolerance"],
        [
            ("delivery ratio", result["max_delivery_delta"],
             result["delivery_tolerance"]),
            ("delivery ratio (lossy)", result["max_delivery_delta_lossy"],
             result["delivery_tolerance_lossy"]),
            ("mean latency s", result["max_latency_delta_s"],
             result["latency_tolerance_s"]),
        ],
    )
    _check_shape(result)
    write_result(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small fleet, short run (CI smoke mode; "
                        "skips the 10x speedup gate)")
    add_profile_arg(parser)
    add_audit_arg(parser)
    args = parser.parse_args()
    enable_audit(args.audit)
    if args.quick:
        kwargs = dict(run_time=QUICK_RUN_TIME, n_flows=QUICK_N_FLOWS,
                      calibration_time=QUICK_CALIBRATION_TIME)
    else:
        kwargs = dict()
    result = maybe_profile(args.profile, run_fluid_bench, **kwargs)
    for key, value in result.items():
        print(f"{key}: {value:.3f}" if isinstance(value, float)
              else f"{key}: {value}")
    _check_shape(result)
    write_result(result)
    print(f"wrote {os.path.normpath(RESULT_PATH)}")
    if not args.quick:
        assert result["speedup"] >= 10.0, (
            f"expected >= 10x fluid speedup at {result['n_flows']} flows, "
            f"got {result['speedup']:.1f}x"
        )
    finish_audit()
    print("ok")
