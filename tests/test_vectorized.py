"""The vectorized approximate columnar tier (``columnar_vectorized``).

Unlike exact columnar mode (byte-identical, fuzzed in
``test_properties_columnar.py``), the vectorized tier is *approximate*:
per-packet loss/jitter draws move to a per-link numpy stream and
arrivals are settled in bulk. Its contract is statistical — delivery
ratio and mean latency within the documented calibration tolerances —
plus some exact obligations these tests pin down directly:

* batched loss draws advance the scalar RNG stream by exactly the
  documented amounts (the burst process stays on the scalar stream,
  per-packet verdicts move to the vector stream);
* ``batch_traverse`` reproduces the scalar queueing recurrence
  (including bounded-queue overflow) and advances the link counters
  exactly as k scalar traverses would;
* ``columnar_window=0`` remains the byte-identical exact mode;
* configuration errors (no columnar, no window, no numpy) are clear.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.vector as vector
from repro.analysis.calibrate import (
    DELIVERY_TOL,
    DELIVERY_TOL_LOSSY,
    LATENCY_TOL,
    build_overlay,
    run_vector_calibration,
)
from repro.analysis.metrics import flow_stats
from repro.analysis.workloads import CbrSource
from repro.audit.diff import assert_identical
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.backbone import FWD, FiberLink
from repro.net.internet import HEADER_BYTES, Internet
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
)
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry
from repro.vector import MissingNumpyError

np = pytest.importorskip("numpy")

WINDOW = 0.00025


# ------------------------------------------------------- configuration


def test_vectorized_requires_columnar():
    overlay = build_overlay()  # plain packet scenario builder
    with pytest.raises(ValueError, match="columnar_vectorized"):
        OverlayNetwork(
            overlay.internet,
            ["n00", "n01"],
            [("n00", "n01")],
            OverlayConfig(columnar_vectorized=True),
        )


def test_vectorized_requires_positive_window():
    with pytest.raises(ValueError, match="columnar_window > 0"):
        build_overlay(config=OverlayConfig(
            columnar=True, columnar_window=0.0, columnar_vectorized=True))


def test_vectorized_without_numpy_raises_clear_error(monkeypatch):
    monkeypatch.setattr(vector, "_numpy", None)
    monkeypatch.setattr(vector, "_probed", True)
    with pytest.raises(MissingNumpyError, match=r"repro\[fast\]"):
        build_overlay(config=OverlayConfig(
            columnar=True, columnar_window=WINDOW, columnar_vectorized=True))


def test_require_numpy_returns_module():
    assert vector.require_numpy("test") is np


# ------------------------------------------------- batched loss draws


def _twin_rngs(seed=1234):
    return random.Random(seed), random.Random(seed)


def _twin_gens(seed=99):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def test_ge_batch_draws_stream_positions():
    """The burst process advances on the scalar stream exactly as one
    ``should_drop`` at the same instant would (the documented amount);
    the k per-packet verdicts come off the vector stream."""
    k = 32
    ge = GilbertElliottLoss(mean_good=0.5, mean_bad=0.05,
                            good_loss=0.1, bad_loss=0.9)
    twin = GilbertElliottLoss(mean_good=0.5, mean_bad=0.05,
                              good_loss=0.1, bad_loss=0.9)
    rng, rng_ref = _twin_rngs()
    gen, gen_ref = _twin_gens()
    lost = ge.batch_draws(5.0, rng, k, gen, np)
    # Scalar stream: advanced by exactly one `_advance(now)` — no
    # per-packet draws were consumed from it.
    twin._advance(5.0, rng_ref)
    assert rng.getstate() == rng_ref.getstate()
    assert twin._in_bad == ge._in_bad
    # Vector stream: exactly one k-wide uniform draw.
    p = ge.bad_loss if ge._in_bad else ge.good_loss
    expected = gen_ref.random(k) < p
    assert lost.shape == (k,)
    assert (lost == expected).all()
    assert gen.random() == gen_ref.random()  # streams still aligned


def test_bernoulli_batch_draws_consume_no_scalar_randomness():
    k = 16
    model = BernoulliLoss(0.25)
    rng, rng_ref = _twin_rngs()
    gen, gen_ref = _twin_gens()
    lost = model.batch_draws(0.0, rng, k, gen, np)
    assert rng.getstate() == rng_ref.getstate()
    assert (lost == (gen_ref.random(k) < 0.25)).all()


def test_zero_rate_batch_draws_consume_nothing():
    rng, rng_ref = _twin_rngs()
    gen, gen_ref = _twin_gens()
    for model in (NoLoss(), BernoulliLoss(0.0)):
        lost = model.batch_draws(0.0, rng, 8, gen, np)
        assert not lost.any()
    assert rng.getstate() == rng_ref.getstate()
    assert gen.random() == gen_ref.random()


def test_composite_batch_draws_or_children():
    k = 64
    comp = CompositeLoss(BernoulliLoss(0.3),
                         GilbertElliottLoss(mean_good=0.5, mean_bad=0.5,
                                            good_loss=0.2, bad_loss=0.8))
    twin = CompositeLoss(BernoulliLoss(0.3),
                         GilbertElliottLoss(mean_good=0.5, mean_bad=0.5,
                                            good_loss=0.2, bad_loss=0.8))
    rng, rng_ref = _twin_rngs()
    gen, gen_ref = _twin_gens()
    lost = comp.batch_draws(2.0, rng, k, gen, np)
    expected = np.zeros(k, dtype=bool)
    for child in twin.models:
        expected |= child.batch_draws(2.0, rng_ref, k, gen_ref, np)
    assert (lost == expected).all()
    assert rng.getstate() == rng_ref.getstate()


def test_unknown_loss_subclass_is_unbatchable():
    class Weird(LossModel):
        def should_drop(self, now, rng):
            return False

    rng = random.Random(0)
    gen = np.random.default_rng(0)
    assert Weird().batch_draws(0.0, rng, 4, gen, np) is None
    assert CompositeLoss(Weird(), BernoulliLoss(0.1)).batch_draws(
        0.0, rng, 4, gen, np) is None


# ----------------------------------------------------- batch_traverse


def _reference_recurrence(link, now, wires, lost):
    """The scalar per-packet queueing recurrence, spelled out."""
    busy = link._busy_until[FWD]
    arrivals, dropped = [], []
    for wire, was_lost in zip(wires, lost):
        if was_lost:
            arrivals.append(None)
            dropped.append(True)
            continue
        tx = wire * 8.0 / link.capacity_bps
        qd = max(0.0, busy - now)
        if qd > link.MAX_QUEUE_DELAY:
            arrivals.append(None)
            dropped.append(True)
            continue
        busy = now + qd + tx
        arrivals.append(now + qd + tx + link.delay)
        dropped.append(False)
    return arrivals, dropped, busy


@pytest.mark.parametrize("lost_pattern", [
    [False] * 6,
    [False, True, False, True, True, False],
    [True] * 6,
])
def test_batch_traverse_matches_scalar_recurrence(lost_pattern):
    link = FiberLink("f", delay=0.010, capacity_bps=8_000_000.0)
    wires = np.array([1500.0, 300.0, 9000.0, 1500.0, 64.0, 40000.0])
    lost = np.array(lost_pattern)
    gen = np.random.default_rng(7)
    arrivals, dropped = link.batch_traverse(1.0, wires, FWD, gen, lost, np)
    ref = FiberLink("f", delay=0.010, capacity_bps=8_000_000.0)
    ref_arrivals, ref_dropped, ref_busy = _reference_recurrence(
        ref, 1.0, wires, lost)
    assert list(dropped) == ref_dropped
    for got, want in zip(arrivals, ref_arrivals):
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12)
    assert link._busy_until[FWD] == pytest.approx(ref_busy, abs=1e-12)
    n_dropped = sum(ref_dropped)
    assert link.packets_dropped == n_dropped
    assert link.packets_carried == len(wires) - n_dropped
    assert link.bytes_carried == int(
        wires.sum() - wires[np.array(ref_dropped)].sum())


def test_batch_traverse_overflow_falls_back_to_exact_recurrence():
    # 8 Mbit/s, 0.2 s max queue => 200 KB of backlog overflows; these
    # frames serialize 0.1 s each, so the 4th and later overflow.
    link = FiberLink("f", delay=0.001, capacity_bps=8_000_000.0)
    wires = np.full(6, 100_000.0)
    lost = np.zeros(6, dtype=bool)
    gen = np.random.default_rng(7)
    arrivals, dropped = link.batch_traverse(0.0, wires, FWD, gen, lost, np)
    ref = FiberLink("f", delay=0.001, capacity_bps=8_000_000.0)
    ref_arrivals, ref_dropped, ref_busy = _reference_recurrence(
        ref, 0.0, wires, lost)
    assert any(ref_dropped), "scenario must actually overflow"
    assert list(dropped) == ref_dropped
    for got, want in zip(arrivals, ref_arrivals):
        if want is not None:
            assert got == pytest.approx(want, abs=1e-12)
    # Overflowed packets must not have advanced the busy horizon.
    assert link._busy_until[FWD] == pytest.approx(ref_busy, abs=1e-12)


def test_batch_traverse_no_capacity_and_jitter_stream():
    link = FiberLink("f", delay=0.010, jitter=0.002)
    gen, gen_ref = _twin_gens()
    wires = np.full(5, 1500.0)
    lost = np.zeros(5, dtype=bool)
    arrivals, dropped = link.batch_traverse(2.0, wires, FWD, gen, lost, np)
    expected = 2.0 + link.delay + gen_ref.uniform(0.0, 0.002, 5)
    assert not dropped.any()
    assert np.allclose(arrivals, expected)


# ------------------------------------------------ path fast-forward


def _line_internet(n_fibers=3, *, window=WINDOW, capacity_mid=False,
                   convergence_delay=10.0):
    """A host at each end of a chain of 10 ms fibers — the smallest
    topology where the vectorized tier's path fast-forward settles a
    whole multi-fiber transit as one batch."""
    sim = Simulator(columnar=True)
    rngs = RngRegistry(4242)
    inet = Internet(sim, rngs)
    isp = inet.add_isp("line", convergence_delay=convergence_delay)
    for i in range(n_fibers):
        isp.add_link(
            f"r{i}", f"r{i + 1}", 0.010,
            8_000_000.0 if capacity_mid and i == 1 else None,
        )
    inet.add_host("a", access_delay=0.0)
    inet.add_host("b", access_delay=0.0)
    inet.attach("a", "line", "r0")
    inet.attach("b", "line", f"r{n_fibers}")
    inet.columnar_window = window
    inet.enable_vectorized()
    return sim, inet, isp


class _Sink:
    def __init__(self, sim):
        self.sim = sim
        self.delivered = []
        self.dropped = []

    def deliver(self, datagram):
        self.delivered.append((datagram, self.sim.now))

    def drop(self, datagram, reason):
        self.dropped.append((datagram, reason))


def test_path_profile_resolves_multifiber_transit():
    __, inet, isp = _line_internet(3)
    profile = inet._path_profile(isp, "r0", "r3")
    assert profile is not None
    assert profile.n_hops == 3
    assert profile.total_delay == pytest.approx(0.030)
    assert profile.trivial
    assert profile.jitters is None
    # Loss on a fiber keeps the path profilable but not trivial.
    isp.link_between("r1", "r2").loss = BernoulliLoss(0.1)
    lossy = inet._path_profile(isp, "r0", "r3")
    assert lossy is not None and not lossy.trivial
    # Jitter anywhere materializes the per-fiber jitter column.
    isp.link_between("r2", "r3").jitter = 0.001
    jittery = inet._path_profile(isp, "r0", "r3")
    assert jittery.jitters == (0.0, 0.0, 0.001)
    assert not jittery.trivial


def test_path_profile_rejects_capacity_fiber():
    __, inet, isp = _line_internet(3, capacity_mid=True)
    assert inet._path_profile(isp, "r0", "r3") is None


def test_path_fast_forward_delivers_whole_chain():
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    for __ in range(5):
        inet.send("a", "b", "payload", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 5
    assert not sink.dropped
    for __, at in sink.delivered:
        # Sum of the fiber delays, quantized up to the window grid.
        assert 0.030 <= at <= 0.030 + 3 * WINDOW
    for i in range(3):
        link = isp.link_between(f"r{i}", f"r{i + 1}")
        assert link.packets_carried == 5
        assert link.packets_dropped == 0
        assert link.bytes_carried == 5 * (1200 + HEADER_BYTES)
    epoch, profile = inet._path_cache[(isp, "r0", "r3")]
    assert epoch == isp.tables_epoch
    assert profile is not None and profile.n_hops == 3


def test_path_fast_forward_falls_back_on_capacity():
    sim, inet, isp = _line_internet(3, capacity_mid=True)
    sink = _Sink(sim)
    for __ in range(5):
        inet.send("a", "b", "payload", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 5
    assert not sink.dropped
    # The capacity fiber disqualified the transit: the cache pins the
    # negative verdict and the per-(link, direction) machinery carried
    # the frames (serialization order preserved).
    assert inet._path_cache[(isp, "r0", "r3")][1] is None
    assert isp.link_between("r1", "r2").packets_carried == 5


def test_trivial_path_demoted_by_live_loss_swap():
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    for __ in range(4):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=0.5)
    assert len(sink.delivered) == 4
    # Swap a total-loss model onto the middle fiber. No reconvergence:
    # the cached profile (resolved trivial) stays epoch-valid, so only
    # the settle-time live check can notice.
    isp.link_between("r1", "r2").loss = BernoulliLoss(1.0)
    for __ in range(10):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 4
    assert len(sink.dropped) == 10
    assert all(reason == "link-loss" for __, reason in sink.dropped)
    # First-loss attribution: the first fiber carried the batch, the
    # lossy fiber ate it, the last fiber never saw it.
    assert isp.link_between("r0", "r1").packets_carried == 14
    assert isp.link_between("r1", "r2").packets_dropped == 10
    assert isp.link_between("r2", "r3").packets_carried == 4


def test_trivial_path_demoted_by_fiber_failure():
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    for __ in range(4):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=0.5)
    epoch_before = isp.tables_epoch
    isp.fail_link("r1", "r2")
    # Stale-table window (convergence_delay is 10 s): the cached
    # profile still routes into the cut fiber and frames die there,
    # exactly as a hop-by-hop walk over the same stale tables would.
    assert isp.tables_epoch == epoch_before
    for __ in range(5):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 4
    assert len(sink.dropped) == 5
    assert all(reason == "link-loss" for __, reason in sink.dropped)
    assert isp.link_between("r1", "r2").packets_dropped == 5


def test_path_cache_invalidated_by_reconvergence():
    sim = Simulator(columnar=True)
    rngs = RngRegistry(4242)
    inet = Internet(sim, rngs)
    isp = inet.add_isp("sq", convergence_delay=0.05)
    # Fast two-fiber route r0-r1-r3 (20 ms); slow detour r0-r2-r3
    # (100 ms) that Dijkstra only takes once the fast route is cut.
    isp.add_link("r0", "r1", 0.010)
    isp.add_link("r1", "r3", 0.010)
    isp.add_link("r0", "r2", 0.050)
    isp.add_link("r2", "r3", 0.050)
    inet.add_host("a", access_delay=0.0)
    inet.add_host("b", access_delay=0.0)
    inet.attach("a", "sq", "r0")
    inet.attach("b", "sq", "r3")
    inet.columnar_window = WINDOW
    inet.enable_vectorized()
    sink = _Sink(sim)
    for __ in range(3):
        inet.send("a", "b", "x", 1200, "sq", sink.deliver, sink.drop)
    sim.run(until=0.3)
    assert len(sink.delivered) == 3
    for __, at in sink.delivered:
        assert 0.020 <= at <= 0.020 + 3 * WINDOW
    epoch_before = isp.tables_epoch
    assert inet._path_cache[(isp, "r0", "r3")][1].n_hops == 2
    isp.fail_link("r1", "r3")
    # Run past convergence_delay: the reconvergence bumps tables_epoch,
    # which invalidates the cached fast-route profile.
    sim.run(until=0.5)
    assert isp.tables_epoch > epoch_before
    sent_at = sim.now
    for __ in range(3):
        inet.send("a", "b", "x", 1200, "sq", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 6
    assert not sink.dropped
    for __, at in sink.delivered[3:]:
        assert 0.100 - 1e-9 <= at - sent_at <= 0.100 + 3 * WINDOW
    __, profile = inet._path_cache[(isp, "r0", "r3")]
    assert profile.n_hops == 2
    assert profile.total_delay == pytest.approx(0.100)


def test_channel_fast_lane_settles_trivial_sends():
    """A send through a primed channel with a trivial profile settles
    inline — straight into the bulk-delivery batch, with per-fiber
    counters — without touching the path-group machinery."""
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    chan = inet.channel("a", "b", "line")
    inet.prime_path(chan)
    epoch, profile = inet._path_cache[chan.path_key]
    assert epoch == isp.tables_epoch and profile.trivial

    def burst():
        for __ in range(5):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)

    sim.schedule(0.1, burst)
    sim.run(until=0.5)
    assert len(sink.delivered) == 5
    for __, at in sink.delivered:
        assert 0.130 - 1e-9 <= at <= 0.130 + 3 * WINDOW
    for pair in (("r0", "r1"), ("r1", "r2"), ("r2", "r3")):
        link = isp.link_between(*pair)
        assert link.packets_carried == 5
        assert link.bytes_carried == 5 * (1200 + HEADER_BYTES)


def test_channel_fast_lane_demoted_by_loss_swap():
    """The channel lane re-checks fiber liveness per send: a loss model
    swapped onto a mid-path fiber demotes the send to the ordinary
    fast-forward path, which drops it there."""
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    chan = inet.channel("a", "b", "line")
    inet.prime_path(chan)

    def swap_then_send():
        isp.link_between("r1", "r2").loss = BernoulliLoss(1.0)
        for __ in range(6):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)

    sim.schedule(0.1, swap_then_send)
    sim.run(until=0.5)
    assert not sink.delivered
    assert len(sink.dropped) == 6
    assert all(reason == "link-loss" for __, reason in sink.dropped)
    assert isp.link_between("r0", "r1").packets_carried == 6
    assert isp.link_between("r1", "r2").packets_dropped == 6
    assert isp.link_between("r2", "r3").packets_carried == 0


# ----------------------------------------- exact mode stays exact


def test_window_zero_byte_identity():
    """``columnar_window=0`` is still the byte-identical exact mode with
    all the vectorized machinery compiled in but disarmed."""
    traces = []
    for config in (None, OverlayConfig(columnar=True)):
        overlay = build_overlay(lossy=True, config=config)
        sim = overlay.sim
        overlay.warm_up(2.0)
        for src, sink in (("n00", "n08"), ("n05", "n13")):
            overlay.client(sink, 7)
            CbrSource(sim, overlay.client(src), Address(sink, 7),
                      rate_pps=20.0, duration=3.0).start()
        sim.run(until=sim.now + 4.0)
        traces.append(overlay.trace)
    assert_identical(
        traces[1], traces[0],
        header="columnar_window=0 must remain byte-identical to the "
        "per-packet path even with the vectorized tier present",
    )


# --------------------------------------------- statistical contract


def test_vector_calibration_loss_free():
    result = run_vector_calibration(run_time=5.0)
    result.check()
    assert result.max_delivery_delta <= DELIVERY_TOL
    assert result.max_latency_delta <= LATENCY_TOL
    # The whole point: bulk settlement eliminates per-packet events.
    assert result.vectorized_wall_events < result.exact_wall_events


def test_vectorized_counters_conserved():
    """Every datagram sent through the vectorized tier is accounted:
    delivered or dropped, never lost in a batch."""
    overlay = build_overlay(lossy=True, config=OverlayConfig(
        columnar=True, columnar_window=WINDOW, columnar_vectorized=True))
    sim = overlay.sim
    overlay.warm_up(2.0)
    for src, sink in (("n00", "n08"), ("n03", "n11")):
        overlay.client(sink, 7)
        CbrSource(sim, overlay.client(src), Address(sink, 7),
                  rate_pps=20.0, duration=4.0).start()
    sim.run(until=sim.now + 6.0)
    # Drain in-flight datagrams (hello traffic is always in flight at
    # an arbitrary cutoff instant) so the books must balance exactly.
    overlay.quiesce()
    counters = overlay.internet.counters
    sent = counters.get("datagrams-sent")
    delivered = counters.get("datagrams-delivered")
    dropped = sum(value for name, value in counters.as_dict().items()
                  if name.startswith("drop:"))
    assert sent > 0
    assert sent == delivered + dropped


#: Sampled window of the statistical comparison, in simulated seconds
#: (20 pps: 600 messages per flow). See the property's docstring for why
#: it is this long.
STAT_SECONDS = 30.0


def _stat_leg(vectorized, n, chord, loss_kind, window, spaced=False):
    sim = Simulator(columnar=True)
    rngs = RngRegistry(2024)
    inet = Internet(sim, rngs)
    domain = inet.add_isp("isp", convergence_delay=10.0)
    edges = sorted(
        {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, chord)}
    )
    for i in range(n):
        domain.add_router(f"r{i}")
    for k, (a, b) in enumerate(edges):
        model = None
        if loss_kind and k % 3 == 0:
            if loss_kind == 1:
                model = GilbertElliottLoss(mean_good=2.0, mean_bad=0.05,
                                           good_loss=0.0, bad_loss=1.0)
            elif loss_kind == 2:
                model = BernoulliLoss(0.02)
            else:
                model = CompositeLoss(
                    BernoulliLoss(0.01),
                    GilbertElliottLoss(mean_good=2.0, mean_bad=0.05,
                                       good_loss=0.0, bad_loss=1.0),
                )
        domain.add_link(f"r{a}", f"r{b}", 0.010, None, model)
    for i in range(n):
        inet.add_host(f"h{i}", access_delay=0.0)
        inet.attach(f"h{i}", "isp", f"r{i}")
    if spaced:
        # Overlay neighbors 2-3 ring steps apart: every overlay link
        # spans a multi-fiber underlay transit, so the comparison
        # exercises the path fast-forward, not just single-crossing
        # batches. Spacings 2 and 3 are coprime — connected for any n.
        olinks = sorted(
            {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in (2, 3)}
        )
    else:
        olinks = edges
    overlay = OverlayNetwork(
        inet,
        [f"h{i}" for i in range(n)],
        [(f"h{a}", f"h{b}") for a, b in olinks],
        OverlayConfig(columnar=True, columnar_window=window,
                      columnar_vectorized=vectorized),
    )
    overlay.warm_up(2.0)
    start = sim.now
    flows = [(src, sink) for src, sink in
             ((0, n // 2), (1, (1 + n // 2) % n), (3, (3 * chord) % n))
             if src != sink]
    sources, registered = [], set()
    for src, sink in flows:
        if sink not in registered:
            registered.add(sink)
            overlay.client(f"h{sink}", 7)
        sources.append(CbrSource(
            sim, overlay.client(f"h{src}"), Address(f"h{sink}", 7),
            rate_pps=20.0, duration=STAT_SECONDS,
        ).start())
    sim.run(until=start + STAT_SECONDS + 1.0)
    return {
        source.flow: flow_stats(overlay.trace, source.flow,
                                f"h{sink}:7", after=start)
        for source, (__, sink) in zip(sources, flows)
    }


@given(
    n=st.integers(min_value=8, max_value=12),
    chord=st.integers(min_value=2, max_value=4),
    loss_kind=st.integers(min_value=0, max_value=3),
    window=st.sampled_from([0.00025, 0.0005]),
    spaced=st.booleans(),
)
@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_vectorized_matches_exact_statistically(
        n, chord, loss_kind, window, spaced):
    """Property: on random ring+chord meshes with mixed loss stacks the
    vectorized tier stays within the documented calibration tolerances
    of the exact columnar run.

    Delivery holds unconditionally. Latency holds at the tight
    calibration tolerance whenever routing is deterministic (loss-free:
    both legs see identical hello streams, so identical routes); under
    loss the two legs sample *different* loss realizations, so the
    adaptive control plane may legitimately settle on a different
    near-equal-cost route — the bound widens by one underlay hop
    (10 ms fiber + window quantization) to cover exactly that. The
    tight lossy latency bound is enforced on the fixed calibration
    mesh, where routes are stable (``run_vector_calibration``).

    With ``spaced`` set, the overlay links span multi-fiber underlay
    transits, so the comparison covers the path fast-forward; its
    alternate routes differ by up to two fibers, widening the lossy
    latency allowance accordingly.

    The sampled window is ``STAT_SECONDS`` = 30 s because the two legs
    are two independent loss realizations and the delivery tolerance
    must cover their sampling noise, not only tier drift. Under the
    Gilbert–Elliott stacks here (``mean_bad`` 0.05 s at 20 pps, total
    loss in the bad state) one burst swallows whole packets in a row,
    and a path sees a burst every second or so: over the 6 s / 121
    messages this test first sampled, one leg alone ranged 0.934–1.0
    across seeds on the (n=11, chord=2, GE, spaced) example, so two
    legs could sit 0.066 apart by luck (they did, once the packed
    state flood shifted the per-fiber draw order). Over 600 messages a
    single burst would have to last 1.5 s (thirty mean bursts) to
    reach the 0.05 tolerance by itself, and the same example's
    per-leg range shrinks to 0.956–0.987."""
    exact = _stat_leg(False, n, chord, loss_kind, window, spaced)
    vectorized = _stat_leg(True, n, chord, loss_kind, window, spaced)
    delivery_tol = DELIVERY_TOL_LOSSY if loss_kind else DELIVERY_TOL
    latency_tol = LATENCY_TOL if loss_kind == 0 else (
        LATENCY_TOL + (0.020 if spaced else 0.010) + 2 * window)
    for flow, exact_stats in exact.items():
        vec_stats = vectorized[flow]
        assert abs(vec_stats.delivery_ratio
                   - exact_stats.delivery_ratio) <= delivery_tol, (
            flow, exact_stats, vec_stats)
        assert abs(vec_stats.latency.mean
                   - exact_stats.latency.mean) <= latency_tol, (
            flow, exact_stats, vec_stats)
