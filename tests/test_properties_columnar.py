"""Property-based trace identity: the wheel against the heap (hypothesis).

The live differential fuzz between the two event engines: for ANY
topology, loss configuration, and flow schedule, the slot-bucket wheel
(``columnar=True``, window 0) must produce the same trace, byte for
byte, as the default heap — same deliveries, same drops, same counters,
same event count. These properties fuzz that claim over random
ring+chord meshes with mixed loss models (draw-free, per-packet,
stateful, composite) and random CBR flow fleets.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.analysis.workloads import CbrSource
from repro.audit.diff import assert_identical
from repro.net.internet import Internet
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    ScheduledOutages,
)
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

RUN_TIME = 2.0
WARMUP = 1.5


def _loss_model(kind: int, u: float):
    """One of the loss-model classes: draw-free (None / outages),
    per-packet (Bernoulli), stateful (Gilbert-Elliott), a composite
    with one stochastic child, and one with two."""
    if kind == 0:
        return None
    if kind == 1:
        return BernoulliLoss(0.3 * u)
    if kind == 2:
        return GilbertElliottLoss(mean_good=0.5 + u, mean_bad=0.05 + 0.1 * u,
                                  good_loss=0.01 * u, bad_loss=0.9)
    if kind == 3:
        return ScheduledOutages([(WARMUP + u, WARMUP + u + 0.4)])
    if kind == 4:
        return CompositeLoss(
            ScheduledOutages([(WARMUP + 0.2, WARMUP + 0.5)]),
            BernoulliLoss(0.2 * u),
        )
    return CompositeLoss(
        BernoulliLoss(0.1 * u),
        GilbertElliottLoss(mean_good=0.5, mean_bad=0.05,
                           good_loss=0.0, bad_loss=1.0),
    )


def _run(columnar, n, chords, loss_kinds, loss_u, flows):
    sim = Simulator(columnar=columnar)
    rngs = RngRegistry(4242)
    inet = Internet(sim, rngs)
    domain = inet.add_isp("isp", convergence_delay=10.0)
    edges = sorted(
        {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
        | {tuple(sorted((a % n, b % n))) for a, b in chords if a % n != b % n}
    )
    for i in range(n):
        domain.add_router(f"r{i}")
    for k, (a, b) in enumerate(edges):
        model = _loss_model(loss_kinds[k % len(loss_kinds)],
                            loss_u[k % len(loss_u)])
        jitter = 0.002 if loss_kinds[k % len(loss_kinds)] == 1 else 0.0
        domain.add_link(f"r{a}", f"r{b}", 0.010, None, model, jitter=jitter)
    for i in range(n):
        inet.add_host(f"h{i}", access_delay=0.0)
        inet.attach(f"h{i}", "isp", f"r{i}")
    sites = [f"h{i}" for i in range(n)]
    links = [(f"h{a}", f"h{b}") for a, b in edges]
    overlay = OverlayNetwork(inet, sites, links,
                             OverlayConfig(columnar=columnar))
    overlay.warm_up(WARMUP)
    sinks = set()
    for src, sink, rate in flows:
        src, sink = src % n, sink % n
        if src == sink:
            continue
        if sink not in sinks:
            sinks.add(sink)
            overlay.client(f"h{sink}", 7)
        CbrSource(sim, overlay.client(f"h{src}"), Address(f"h{sink}", 7),
                  rate_pps=float(rate), duration=RUN_TIME).start()
    sim.run(until=sim.now + RUN_TIME + 0.5)
    return overlay.trace, sim.events_processed


@given(
    n=st.integers(min_value=4, max_value=8),
    chords=st.sets(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=4),
    loss_kinds=st.lists(st.integers(0, 5), min_size=3, max_size=8),
    loss_u=st.lists(
        st.floats(0.05, 0.95, allow_nan=False), min_size=2, max_size=5),
    flows=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(5, 40)),
        min_size=1, max_size=3),
)
@settings(max_examples=12, deadline=None)
def test_columnar_trace_identity_random_scenarios(
        n, chords, loss_kinds, loss_u, flows):
    scalar_trace, scalar_events = _run(
        False, n, chords, loss_kinds, loss_u, flows)
    columnar_trace, columnar_events = _run(
        True, n, chords, loss_kinds, loss_u, flows)
    assert_identical(
        columnar_trace, scalar_trace,
        header="columnar data plane diverged from the per-packet path",
    )
    assert scalar_events == columnar_events
