"""Approximate-tier calibration harnesses (fluid and batched).

Two approximate execution tiers trade exactness for speed, and each is
validated here against its exact counterpart on one shared scenario.

The hybrid fluid mode (:mod:`repro.core.fluid`) claims two things:

1. **Fidelity** — a fluid run's delivery ratio and mean latency match a
   packet-level run of the same scenario within a small, documented
   tolerance (the fluid model is the analytic expectation of the packet
   process, so the gap is discretization plus sampling noise).
2. **Inertness** — the fluid engine never perturbs the packet event
   stream. Packet flows present in both runs must produce
   **byte-identical** traces whether or not fluid flows share the
   overlay.

The batched tier (``columnar_window > 0``, :mod:`repro.net.internet`)
is likewise approximate: the exact tier's lanes, with every landing
instant rounded up to the window grid. Its claim is the same shape — delivery ratio and mean latency match the
exact tier (window 0) on the identical scenario within the *same*
documented tolerances.

This module builds one shared scenario (the 16-node ring+chords mesh
from ``benchmarks/bench_simcore.py``) and checks both claims.
``run_calibration`` compares packet vs fluid (driven by
``benchmarks/bench_fluid.py`` and ``tests/test_fluid.py``);
``run_vector_calibration`` compares exact vs batched
(driven by ``benchmarks/bench_simcore.py`` and
``tests/test_vectorized.py``). The tolerances here are the documented
ones. Run ``python -m repro.analysis.calibrate`` to execute both from
the command line (CI's audit-smoke job does, under ``REPRO_AUDIT=1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import FlowStats, fluid_flow_stats, flow_stats
from repro.analysis.workloads import CbrSource
from repro.audit import assert_identical
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.net.loss import GilbertElliottLoss
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

N_NODES = 16
ISP = "mesh"
SEED = 777
WARM_UP = 2.0

#: Documented calibration tolerances. Loss-free runs are analytic on
#: both sides, so only discretization separates them (a fluid flow
#: offers ``rate * duration`` modeled messages, a packet flow a whole
#: number); lossy runs add Gilbert–Elliott sampling noise around the
#: stationary expectation the fluid model uses.
DELIVERY_TOL = 0.02       #: |delivery-ratio delta|, loss-free
DELIVERY_TOL_LOSSY = 0.05  #: |delivery-ratio delta| under G-E loss
LATENCY_TOL = 0.002       #: |mean-latency delta| in seconds

#: Window used by the batched-vs-exact calibration. 0.25 ms keeps
#: quantization well under LATENCY_TOL while giving grid instants
#: enough fanout for bulk deliveries to actually engage.
VEC_WINDOW = 0.00025

#: Ring plus chords, as in bench_simcore: node i links to i+1 and i+3.
FIBERS = sorted(
    {tuple(sorted((f"r{i:02d}", f"r{(i + d) % N_NODES:02d}")))
     for i in range(N_NODES) for d in (1, 3)}
)

#: The bulk flows under calibration (src, sink) — these switch between
#: packet and fluid representation across the two runs.
BULK_FLOWS = (("n00", "n08"), ("n03", "n11"), ("n05", "n13"), ("n10", "n02"))

#: Pure packet flows present identically in both runs — their traces
#: must be byte-identical, fluid engine active or not.
PACKET_FLOWS = (("n01", "n09"), ("n06", "n14"))

BULK_RATE_PPS = 20.0
PACKET_RATE_PPS = 5.0
BULK_PORT = 7
PACKET_PORT = 8


@dataclass(frozen=True)
class FlowDelta:
    """One bulk flow's fluid-vs-packet calibration gap."""

    flow: str
    destination: str
    packet: FlowStats
    fluid: FlowStats

    @property
    def delivery_delta(self) -> float:
        return abs(self.fluid.delivery_ratio - self.packet.delivery_ratio)

    @property
    def latency_delta(self) -> float:
        return abs(self.fluid.latency.mean - self.packet.latency.mean)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one packet-vs-fluid calibration run."""

    run_time: float
    lossy: bool
    deltas: list[FlowDelta]
    packet_wall_events: int
    fluid_wall_events: int

    @property
    def max_delivery_delta(self) -> float:
        return max(d.delivery_delta for d in self.deltas)

    @property
    def max_latency_delta(self) -> float:
        return max(d.latency_delta for d in self.deltas)

    @property
    def delivery_tolerance(self) -> float:
        return DELIVERY_TOL_LOSSY if self.lossy else DELIVERY_TOL

    def check(self) -> None:
        """Assert every flow is inside the documented tolerances."""
        for delta in self.deltas:
            assert delta.delivery_delta <= self.delivery_tolerance, (
                f"{delta.flow}: delivery ratio diverged "
                f"{delta.delivery_delta:.4f} > {self.delivery_tolerance} "
                f"(packet {delta.packet.delivery_ratio:.4f}, "
                f"fluid {delta.fluid.delivery_ratio:.4f})"
            )
            assert delta.latency_delta <= LATENCY_TOL, (
                f"{delta.flow}: mean latency diverged "
                f"{delta.latency_delta * 1000:.3f} ms > "
                f"{LATENCY_TOL * 1000:.1f} ms"
            )


def build_overlay(lossy: bool = False,
                  config: OverlayConfig | None = None) -> OverlayNetwork:
    """The shared scenario: 16-node mesh overlay on one ISP.

    With ``lossy`` set, every third fiber carries bursty
    Gilbert–Elliott loss (stationary expectation ~2.4%), so calibration
    also exercises the analytic loss path.
    """
    sim = Simulator()
    rngs = RngRegistry(SEED)
    inet = Internet(sim, rngs)
    domain = inet.add_isp(ISP, convergence_delay=10.0)
    for i in range(N_NODES):
        domain.add_router(f"r{i:02d}")
    for idx, (a, b) in enumerate(FIBERS):
        loss = None
        if lossy and idx % 3 == 0:
            loss = GilbertElliottLoss(
                mean_good=2.0, mean_bad=0.05, good_loss=0.0, bad_loss=1.0
            )
        domain.add_link(a, b, 0.010, None, loss)
    for i in range(N_NODES):
        inet.add_host(f"n{i:02d}", access_delay=0.0)
        inet.attach(f"n{i:02d}", ISP, f"r{i:02d}")
    sites = [f"n{i:02d}" for i in range(N_NODES)]
    links = [(f"n{a[1:]}", f"n{b[1:]}") for a, b in FIBERS]
    return OverlayNetwork(inet, sites, links, config or OverlayConfig())


def _run_leg(fluid: bool, run_time: float, lossy: bool,
             probe_every: int = 0) -> dict:
    """One leg of the calibration: the same flow set, packet or fluid."""
    overlay = build_overlay(lossy=lossy)
    sim = overlay.sim
    overlay.warm_up(WARM_UP)
    engine = overlay.fluid_engine() if fluid else None

    bulk = []
    for src, sink in BULK_FLOWS:
        overlay.client(sink, BULK_PORT)
        bulk.append(CbrSource(
            sim, overlay.client(src), Address(sink, BULK_PORT),
            rate_pps=BULK_RATE_PPS, duration=run_time,
            fluid=engine, probe_every=probe_every,
        ).start())
    packet = []
    for src, sink in PACKET_FLOWS:
        overlay.client(sink, PACKET_PORT)
        packet.append(CbrSource(
            sim, overlay.client(src), Address(sink, PACKET_PORT),
            rate_pps=PACKET_RATE_PPS, duration=run_time,
        ).start())

    start = sim.now
    events_before = sim.events_processed
    # A little tail so the last in-flight packets land.
    sim.run(until=start + run_time + 1.0)
    if engine is not None:
        engine.settle_now()

    stats: dict[str, FlowStats] = {}
    for source, (__, sink) in zip(bulk, BULK_FLOWS):
        dest = f"{sink}:{BULK_PORT}"
        if fluid:
            stats[source.flow] = fluid_flow_stats(source.fluid_flow, dest)
        else:
            stats[source.flow] = flow_stats(
                overlay.trace, source.flow, dest, after=start
            )
    packet_records = {
        source.flow: sorted(
            overlay.trace.for_flow(source.flow),
            key=lambda r: (r.seq, r.destination),
        )
        for source in packet
    }
    return {
        "overlay": overlay,
        "bulk_stats": stats,
        "bulk_flows": [s.flow for s in bulk],
        "bulk_sinks": [f"{sink}:{BULK_PORT}" for __, sink in BULK_FLOWS],
        "packet_records": packet_records,
        "events": sim.events_processed - events_before,
    }


def run_calibration(run_time: float = 20.0, lossy: bool = False,
                    probe_every: int = 0) -> CalibrationResult:
    """Run the scenario packet-level then fluid and compare.

    The pure packet flows' traces are asserted byte-identical between
    the legs (lossy fibers never sit on their paths when ``lossy`` —
    the loss RNG draws *would* differ once bulk packets stop consuming
    them, so identity is only claimed for the loss-free scenario).
    """
    packet_leg = _run_leg(False, run_time, lossy)
    fluid_leg = _run_leg(True, run_time, lossy, probe_every=probe_every)

    if not lossy:
        for flow, records in packet_leg["packet_records"].items():
            assert_identical(
                fluid_leg["packet_records"][flow], records,
                label=f"packet flow {flow}",
                header="fluid engine perturbed a pure packet flow — "
                "packet traces must be byte-identical with fluid off/on",
            )

    deltas = [
        FlowDelta(
            flow=flow,
            destination=dest,
            packet=packet_leg["bulk_stats"][flow],
            fluid=fluid_leg["bulk_stats"][flow],
        )
        for flow, dest in zip(packet_leg["bulk_flows"],
                              packet_leg["bulk_sinks"])
    ]
    return CalibrationResult(
        run_time=run_time,
        lossy=lossy,
        deltas=deltas,
        packet_wall_events=packet_leg["events"],
        fluid_wall_events=fluid_leg["events"],
    )


# -------------------------------------------------------- batched tier


@dataclass(frozen=True)
class VectorDelta:
    """One flow's batched-vs-exact calibration gap."""

    flow: str
    destination: str
    exact: FlowStats
    vectorized: FlowStats

    @property
    def delivery_delta(self) -> float:
        return abs(self.vectorized.delivery_ratio - self.exact.delivery_ratio)

    @property
    def latency_delta(self) -> float:
        return abs(self.vectorized.latency.mean - self.exact.latency.mean)


@dataclass(frozen=True)
class VectorCalibrationResult:
    """Outcome of one exact-vs-batched calibration run."""

    run_time: float
    lossy: bool
    window: float
    deltas: list[VectorDelta]
    exact_wall_events: int
    vectorized_wall_events: int

    @property
    def max_delivery_delta(self) -> float:
        return max(d.delivery_delta for d in self.deltas)

    @property
    def max_latency_delta(self) -> float:
        return max(d.latency_delta for d in self.deltas)

    @property
    def delivery_tolerance(self) -> float:
        return DELIVERY_TOL_LOSSY if self.lossy else DELIVERY_TOL

    def check(self) -> None:
        """Assert every flow is inside the documented tolerances."""
        for delta in self.deltas:
            assert delta.delivery_delta <= self.delivery_tolerance, (
                f"{delta.flow}: delivery ratio diverged "
                f"{delta.delivery_delta:.4f} > {self.delivery_tolerance} "
                f"(exact {delta.exact.delivery_ratio:.4f}, "
                f"vectorized {delta.vectorized.delivery_ratio:.4f})"
            )
            assert delta.latency_delta <= LATENCY_TOL, (
                f"{delta.flow}: mean latency diverged "
                f"{delta.latency_delta * 1000:.3f} ms > "
                f"{LATENCY_TOL * 1000:.1f} ms"
            )


def _run_vector_leg(vectorized: bool, run_time: float, lossy: bool,
                    window: float) -> dict:
    """One leg of the batched calibration: the same flow set as
    ordinary packet traffic, on the exact tier (the default heap,
    window 0) or on the batched tier at ``window``."""
    config = OverlayConfig(
        columnar=True,
        columnar_window=window,
        columnar_vectorized=True,
    ) if vectorized else OverlayConfig()
    overlay = build_overlay(lossy=lossy, config=config)
    sim = overlay.sim
    overlay.warm_up(WARM_UP)

    sources = []
    for src, sink in BULK_FLOWS:
        overlay.client(sink, BULK_PORT)
        sources.append(CbrSource(
            sim, overlay.client(src), Address(sink, BULK_PORT),
            rate_pps=BULK_RATE_PPS, duration=run_time,
        ).start())
    sinks = [f"{sink}:{BULK_PORT}" for __, sink in BULK_FLOWS]
    for src, sink in PACKET_FLOWS:
        overlay.client(sink, PACKET_PORT)
        sources.append(CbrSource(
            sim, overlay.client(src), Address(sink, PACKET_PORT),
            rate_pps=PACKET_RATE_PPS, duration=run_time,
        ).start())
    sinks += [f"{sink}:{PACKET_PORT}" for __, sink in PACKET_FLOWS]

    start = sim.now
    events_before = sim.events_processed
    sim.run(until=start + run_time + 1.0)

    stats = {
        source.flow: flow_stats(overlay.trace, source.flow, dest, after=start)
        for source, dest in zip(sources, sinks)
    }
    return {
        "stats": stats,
        "flows": [s.flow for s in sources],
        "sinks": sinks,
        "events": sim.events_processed - events_before,
    }


def run_vector_calibration(run_time: float = 20.0, lossy: bool = False,
                           window: float = VEC_WINDOW,
                           ) -> VectorCalibrationResult:
    """Run the scenario on the exact tier then batched and compare.

    Unlike the fluid harness there is no byte-identity claim here: the
    batched tier moves arrivals onto the window grid, so even the
    loss-free legs differ in event interleaving (and the lossy legs in
    which packet meets which loss draw). The claim is purely
    statistical — every flow's delivery ratio and mean latency inside
    the documented tolerances.
    """
    exact_leg = _run_vector_leg(False, run_time, lossy, window)
    vector_leg = _run_vector_leg(True, run_time, lossy, window)

    deltas = [
        VectorDelta(
            flow=flow,
            destination=dest,
            exact=exact_leg["stats"][flow],
            vectorized=vector_leg["stats"][flow],
        )
        for flow, dest in zip(exact_leg["flows"], exact_leg["sinks"])
    ]
    return VectorCalibrationResult(
        run_time=run_time,
        lossy=lossy,
        window=window,
        deltas=deltas,
        exact_wall_events=exact_leg["events"],
        vectorized_wall_events=vector_leg["events"],
    )


def main(argv=None) -> int:
    """CLI: run both calibrations and report (audit-smoke drives this)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-time", type=float, default=8.0)
    parser.add_argument("--lossy", action="store_true")
    parser.add_argument("--window", type=float, default=VEC_WINDOW)
    parser.add_argument("--skip-fluid", action="store_true")
    parser.add_argument("--skip-vector", action="store_true")
    args = parser.parse_args(argv)

    if not args.skip_fluid:
        result = run_calibration(run_time=args.run_time, lossy=args.lossy)
        result.check()
        print(f"fluid-vs-packet OK (lossy={args.lossy}): "
              f"max |d delivery| {result.max_delivery_delta:.4f} "
              f"<= {result.delivery_tolerance}, "
              f"max |d latency| {result.max_latency_delta * 1000:.3f} ms "
              f"<= {LATENCY_TOL * 1000:.1f} ms")
    if not args.skip_vector:
        vector = run_vector_calibration(
            run_time=args.run_time, lossy=args.lossy, window=args.window)
        vector.check()
        print(f"batched-vs-exact OK (lossy={args.lossy}, "
              f"window={args.window * 1000:.2f} ms): "
              f"max |d delivery| {vector.max_delivery_delta:.4f} "
              f"<= {vector.delivery_tolerance}, "
              f"max |d latency| {vector.max_latency_delta * 1000:.3f} ms "
              f"<= {LATENCY_TOL * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
