"""Approximate-tier calibration harness (fluid and batched).

Two approximate execution tiers trade exactness for speed, and each is
validated here against the exact tier on one shared scenario, the
16-node ring+chords mesh of :func:`build_overlay`:

* the hybrid fluid mode (:mod:`repro.core.fluid`) carries the bulk
  flows as fluid rate intervals. It must also be **inert**: it never
  perturbs the packet event stream, so the pure packet flows present
  in both runs produce **byte-identical** traces whether or not fluid
  flows share the overlay;
* the batched tier (``columnar_window > 0``, :mod:`repro.net.internet`)
  is the exact tier's lanes with every landing instant rounded up to
  the window grid; every flow stays packet-level.

Both claim the same fidelity: each compared flow's delivery ratio and
mean latency match the exact leg within the documented tolerances (the
fluid model is the analytic expectation of the packet process, so the
gap is discretization plus sampling noise; the batched gap is the
grid). One leg builder runs either tier, and one result checks either.
``run_calibration`` compares packet vs fluid (``benchmarks/bench_fluid.py``
and ``tests/test_fluid.py``); ``run_vector_calibration`` compares exact
vs batched (``tests/test_vectorized.py``). Run
``python -m repro.analysis.calibrate`` to execute both from the command
line (CI's audit-smoke job does, under ``REPRO_AUDIT=1``, where any
audit violation fails the run).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import FlowStats, fluid_flow_stats, flow_stats
from repro.analysis.workloads import CbrSource
from repro.audit import assert_identical, audit_enabled, collect_report
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
#: quantization well under LATENCY_TOL.
VEC_WINDOW = 0.00025

#: Ring plus chords: node i links to i+1 and i+3.
FIBERS = sorted(
    {tuple(sorted((f"r{i:02d}", f"r{(i + d) % N_NODES:02d}")))
     for i in range(N_NODES) for d in (1, 3)}
)

#: The bulk flows under calibration (src, sink) — these switch between
#: packet and fluid representation across the two fluid legs.
BULK_FLOWS = (("n00", "n08"), ("n03", "n11"), ("n05", "n13"), ("n10", "n02"))

#: Pure packet flows present identically in every leg — their traces
#: must be byte-identical, fluid engine active or not.
PACKET_FLOWS = (("n01", "n09"), ("n06", "n14"))

BULK_RATE_PPS = 20.0
PACKET_RATE_PPS = 5.0
BULK_PORT = 7
PACKET_PORT = 8


@dataclass(frozen=True)
class FlowDelta:
    """One flow's gap between the exact leg and the approximate leg."""

    flow: str
    destination: str
    exact: FlowStats
    approx: FlowStats

    @property
    def delivery_delta(self) -> float:
        return abs(self.approx.delivery_ratio - self.exact.delivery_ratio)

    @property
    def latency_delta(self) -> float:
        return abs(self.approx.latency.mean - self.exact.latency.mean)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of one exact-vs-approximate calibration run."""

    tier: str  #: ``"fluid"`` or ``"batched"``
    run_time: float
    lossy: bool
    deltas: list[FlowDelta]
    exact_wall_events: int
    approx_wall_events: int

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
                f"{self.tier} {delta.approx.delivery_ratio:.4f})"
            )
            assert delta.latency_delta <= LATENCY_TOL, (
                f"{delta.flow}: mean latency diverged "
                f"{delta.latency_delta * 1000:.3f} ms > "
                f"{LATENCY_TOL * 1000:.1f} ms"
            )

    def summary(self) -> str:
        return (f"max |d delivery| {self.max_delivery_delta:.4f} "
                f"<= {self.delivery_tolerance}, "
                f"max |d latency| {self.max_latency_delta * 1000:.3f} ms "
                f"<= {LATENCY_TOL * 1000:.1f} ms")


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


def _run_leg(run_time: float, lossy: bool, config: OverlayConfig | None = None,
             fluid: bool = False, probe_every: int = 0) -> dict:
    """One leg: the bulk and pure packet flows on ``config``, the bulk
    flows as fluid rate intervals when ``fluid``. Returns every flow's
    ``(flow, destination, stats)``, bulk flows first, the pure packet
    flows' records, and the events the measured window fired."""
    overlay = build_overlay(lossy=lossy, config=config)
    sim = overlay.sim
    overlay.warm_up(WARM_UP)
    engine = overlay.fluid_engine() if fluid else None

    sources = []
    for src, sink in BULK_FLOWS:
        overlay.client(sink, BULK_PORT)
        sources.append(CbrSource(
            sim, overlay.client(src), Address(sink, BULK_PORT),
            rate_pps=BULK_RATE_PPS, duration=run_time,
            fluid=engine, probe_every=probe_every,
        ).start())
    for src, sink in PACKET_FLOWS:
        overlay.client(sink, PACKET_PORT)
        sources.append(CbrSource(
            sim, overlay.client(src), Address(sink, PACKET_PORT),
            rate_pps=PACKET_RATE_PPS, duration=run_time,
        ).start())
    sinks = ([f"{sink}:{BULK_PORT}" for __, sink in BULK_FLOWS]
             + [f"{sink}:{PACKET_PORT}" for __, sink in PACKET_FLOWS])

    start = sim.now
    events_before = sim.events_processed
    # A little tail so the last in-flight packets land.
    sim.run(until=start + run_time + 1.0)
    if engine is not None:
        engine.settle_now()

    flows = [
        (source.flow, dest,
         fluid_flow_stats(source.fluid_flow, dest) if source.fluid is not None
         else flow_stats(overlay.trace, source.flow, dest, after=start))
        for source, dest in zip(sources, sinks)
    ]
    records = {
        source.flow: sorted(overlay.trace.for_flow(source.flow),
                            key=lambda r: (r.seq, r.destination))
        for source in sources[len(BULK_FLOWS):]
    }
    return {"flows": flows, "records": records,
            "events": sim.events_processed - events_before}


def _compare(tier: str, run_time: float, lossy: bool, exact: dict,
             approx: dict, flows: int) -> CalibrationResult:
    """The first ``flows`` flows of two legs, compared."""
    deltas = [
        FlowDelta(flow=flow, destination=dest, exact=stats, approx=again)
        for (flow, dest, stats), (__, __, again)
        in zip(exact["flows"][:flows], approx["flows"])
    ]
    return CalibrationResult(
        tier=tier, run_time=run_time, lossy=lossy, deltas=deltas,
        exact_wall_events=exact["events"],
        approx_wall_events=approx["events"],
    )


def run_calibration(run_time: float = 20.0, lossy: bool = False,
                    probe_every: int = 0) -> CalibrationResult:
    """Run the scenario packet-level then fluid and compare the bulk
    flows.

    The pure packet flows' traces are asserted byte-identical between
    the legs (lossy fibers never sit on their paths when ``lossy`` —
    the loss RNG draws *would* differ once bulk packets stop consuming
    them, so identity is only claimed for the loss-free scenario).
    """
    packet_leg = _run_leg(run_time, lossy)
    fluid_leg = _run_leg(run_time, lossy, fluid=True, probe_every=probe_every)
    if not lossy:
        for flow, records in packet_leg["records"].items():
            assert_identical(
                fluid_leg["records"][flow], records,
                label=f"packet flow {flow}",
                header="fluid engine perturbed a pure packet flow — "
                "packet traces must be byte-identical with fluid off/on",
            )
    return _compare("fluid", run_time, lossy, packet_leg, fluid_leg,
                    len(BULK_FLOWS))


def run_vector_calibration(run_time: float = 20.0, lossy: bool = False,
                           window: float = VEC_WINDOW) -> CalibrationResult:
    """Run the scenario on the exact tier then batched and compare
    every flow.

    There is no byte-identity claim here: the batched tier moves
    arrivals onto the window grid, so even the loss-free legs differ in
    event interleaving (and the lossy legs in which packet meets which
    loss draw). The claim is purely statistical.
    """
    exact_leg = _run_leg(run_time, lossy)
    batched_leg = _run_leg(run_time, lossy, config=OverlayConfig(
        columnar=True, columnar_window=window, columnar_vectorized=True))
    return _compare("batched", run_time, lossy, exact_leg, batched_leg,
                    len(BULK_FLOWS) + len(PACKET_FLOWS))


def main(argv=None) -> int:
    """CLI: run both calibrations and report; under ``REPRO_AUDIT=1``
    also print the audit report and exit 1 on any violation
    (audit-smoke drives this)."""
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
        print(f"fluid-vs-packet OK (lossy={args.lossy}): {result.summary()}")
    if not args.skip_vector:
        result = run_vector_calibration(
            run_time=args.run_time, lossy=args.lossy, window=args.window)
        result.check()
        print(f"batched-vs-exact OK (lossy={args.lossy}, "
              f"window={args.window * 1000:.2f} ms): {result.summary()}")
    if audit_enabled():
        report = collect_report()
        print(report.format())
        if report.violations:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
