"""The batched approximate tier (``columnar_window > 0``).

Unlike the exact tier, the batched tier is *approximate*: every hop
arrival is quantized up to the window grid, and a quiet channel's send
settles at once into one bulk delivery per grid instant — one queued
heap event that collects that instant's rows.
Its contract is statistical — delivery ratio and mean latency within
the documented calibration tolerances of the exact tier — plus some
exact obligations these tests pin down directly:

* a multi-fiber transit that is not quiet walks fiber by fiber and
  lands within one window per fiber of its exact instant, serializing
  on a capacity fiber;
* the quiet-channel lane reads fiber state live, so a cut, a loss swap
  or a capacity written after the profile was resolved sends the
  datagram down the walk, and a reconvergence re-resolves the profile;
* a pending batch is an ordinary queued event: the auditor counts its
  rows once, and ``sim.clear()`` drops it;
* the three ``columnar*`` fields are one bit, any disagreement among
  them is rejected, and the tier runs on an interpreter without numpy.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.calibrate import (
    DELIVERY_TOL,
    DELIVERY_TOL_LOSSY,
    LATENCY_TOL,
    build_overlay,
    run_vector_calibration,
)
from repro.analysis.metrics import flow_stats
from repro.analysis.workloads import CbrSource
from repro.audit import Auditor, check_datagram_conservation
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import HEADER_BYTES, Internet, _quiet
from repro.net.loss import BernoulliLoss, CompositeLoss, GilbertElliottLoss
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

WINDOW = 0.00025


# ------------------------------------------------------- configuration


def _fidelity_id(bits):
    columnar, vectorized, window = bits
    return (f"columnar={columnar:d}-vectorized={vectorized:d}"
            f"-window={'W' if window else '0'}")


@pytest.mark.parametrize(
    "bits", list(itertools.product((False, True), (False, True), (0.0, WINDOW))),
    ids=_fidelity_id)
def test_fidelity_is_one_bit(bits):
    """The three ``columnar*`` fields spell one bit — the batched tier
    is armed iff the window is positive — so exactly two of the eight
    combinations build: the exact tier (none set) and the batched tier
    (all set). A lone ``columnar=True`` once selected the timer wheel;
    its message says the wheel is gone."""
    columnar, vectorized, window = bits
    config = OverlayConfig(columnar=columnar, columnar_vectorized=vectorized,
                           columnar_window=window)
    if columnar == vectorized == (window > 0):
        overlay = build_overlay(config=config)
        assert overlay.internet.columnar_window == window
    else:
        lone_columnar = columnar and not (vectorized or window)
        with pytest.raises(ValueError,
                           match="deleted" if lone_columnar else "disagree"):
            build_overlay(config=config)


@pytest.mark.parametrize("armed", [False, True])
def test_negative_window_is_rejected(armed):
    """A window that is set but not positive arms nothing silently: it
    disagrees with unset flags, and the tier itself refuses it."""
    with pytest.raises(ValueError, match="columnar_window"):
        build_overlay(config=OverlayConfig(
            columnar=armed, columnar_vectorized=armed,
            columnar_window=-WINDOW))


def test_batched_tier_runs_without_numpy():
    """The batched tier is plain Python: a child interpreter in which
    ``import numpy`` fails builds a batched overlay and delivers over
    it."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    script = f"""
import sys
sys.modules["numpy"] = None
from repro.analysis.calibrate import build_overlay
from repro.analysis.workloads import CbrSource
from repro.core.config import OverlayConfig
from repro.core.message import Address
overlay = build_overlay(config=OverlayConfig(
    columnar=True, columnar_window={WINDOW!r}, columnar_vectorized=True))
sim = overlay.sim
overlay.warm_up(2.0)
overlay.client("n08", 7)
CbrSource(sim, overlay.client("n00"), Address("n08", 7),
          rate_pps=20.0, duration=1.0).start()
sim.run(until=sim.now + 2.0)
print(len(overlay.trace.records))
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.strip()) >= 20


# ------------------------------------------------ multi-fiber transits


def _line_internet(n_fibers=3, *, window=WINDOW, capacity_mid=False,
                   convergence_delay=10.0):
    """A host at each end of a chain of 10 ms fibers — the smallest
    topology with a multi-fiber underlay transit."""
    sim = Simulator()
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
    inet.enable_vectorized(window)
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


#: Serialization time of one 1200-byte payload on the 8 Mbit/s fiber.
_TX = (1200 + HEADER_BYTES) * 8.0 / 8_000_000.0


def test_path_profile_resolves_multifiber_transit():
    __, inet, isp = _line_internet(3)
    profile = inet._path_profile(isp, "r0", "r3")
    assert profile is not None
    assert profile.n_hops == 3
    assert profile.routers == ("r1", "r2", "r3")
    assert profile.total_delay == pytest.approx(0.030)
    assert _quiet(profile.links)
    # Loss or jitter on a fiber leaves the transit as it is — the
    # profile is the route, and whether it is quiet is asked live.
    isp.link_between("r1", "r2").loss = BernoulliLoss(0.1)
    isp.link_between("r2", "r3").jitter = 0.001
    assert inet._path_profile(isp, "r0", "r3").links == profile.links
    assert not _quiet(profile.links)


def test_capacity_fiber_resolves_but_is_not_quiet():
    __, inet, isp = _line_internet(3, capacity_mid=True)
    profile = inet._path_profile(isp, "r0", "r3")
    assert profile is not None and profile.n_hops == 3
    assert not _quiet(profile.links)
    assert _quiet(profile.links[:1])


def test_path_fast_forward_delivers_whole_chain():
    """A multi-fiber transit off the quiet-channel lane walks fiber by
    fiber on the window grid: it lands within one window per fiber of
    its exact instant, and no profile is resolved for it."""
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    for __ in range(5):
        inet.send("a", "b", "payload", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 5
    assert not sink.dropped
    exact = 0.0 + 0.010 + 0.010 + 0.010
    for __, at in sink.delivered:
        assert exact <= at <= exact + 3 * WINDOW
    for i in range(3):
        link = isp.link_between(f"r{i}", f"r{i + 1}")
        assert link.packets_carried == 5
        assert link.packets_dropped == 0
        assert link.bytes_carried == 5 * (1200 + HEADER_BYTES)
    assert not inet._path_cache


def test_path_fast_forward_falls_back_on_capacity():
    """A capacity fiber serializes a same-instant burst: each frame
    leaves it one transmission time after the one before (give or take
    the window the quantized arrivals carry)."""
    sim, inet, isp = _line_internet(3, capacity_mid=True)
    sink = _Sink(sim)
    for __ in range(5):
        inet.send("a", "b", "payload", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 5
    assert not sink.dropped
    arrivals = [at for __, at in sink.delivered]
    assert arrivals == sorted(arrivals)
    for earlier, later in zip(arrivals, arrivals[1:]):
        assert _TX - WINDOW <= later - earlier <= _TX + WINDOW
    assert isp.link_between("r1", "r2").packets_carried == 5


def test_trivial_path_demoted_by_live_loss_swap():
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    for __ in range(4):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=0.5)
    assert len(sink.delivered) == 4
    # Swap a total-loss model onto the middle fiber. No reconvergence,
    # so nothing but the crossing itself notices.
    isp.link_between("r1", "r2").loss = BernoulliLoss(1.0)
    for __ in range(10):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 4
    assert len(sink.dropped) == 10
    assert all(reason == "link-loss" for __, reason in sink.dropped)
    # The first fiber carried them, the lossy fiber ate them, the last
    # fiber never saw them.
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
    # Stale-table window (convergence_delay is 10 s): the tables still
    # route into the cut fiber and frames die there.
    assert isp.tables_epoch == epoch_before
    for __ in range(5):
        inet.send("a", "b", "x", 1200, "line", sink.deliver, sink.drop)
    sim.run(until=1.0)
    assert len(sink.delivered) == 4
    assert len(sink.dropped) == 5
    assert all(reason == "link-loss" for __, reason in sink.dropped)
    assert isp.link_between("r1", "r2").packets_dropped == 5


def test_path_cache_invalidated_by_reconvergence():
    """The quiet-channel lane's profile follows the tables: a cut
    fiber is not quiet, so sends walk into it and die until the domain
    reconverges, and the epoch bump then re-resolves the detour."""
    sim = Simulator()
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
    inet.enable_vectorized(WINDOW)
    chan = inet.channel("a", "b", "sq")
    sink = _Sink(sim)
    sent = []

    def burst(n=3):
        sent.append(sim.now)
        for __ in range(n):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)

    sim.schedule_at(0.1, burst)
    sim.run(until=0.3)
    assert len(sink.delivered) == 3
    for __, at in sink.delivered:
        assert 0.020 - 1e-9 <= at - sent[0] <= 0.020 + WINDOW + 1e-9
    epoch_before = isp.tables_epoch
    assert inet._path_cache[chan.path_key][1].n_hops == 2
    isp.fail_link("r1", "r3")
    sim.schedule_at(0.31, burst, 2)  # stale tables: into the cut
    # Run past convergence_delay: the reconvergence bumps tables_epoch,
    # which invalidates the cached fast-route profile.
    sim.run(until=0.5)
    assert isp.tables_epoch > epoch_before
    assert len(sink.dropped) == 2
    sim.schedule_at(0.6, burst)
    sim.run(until=1.0)
    assert len(sink.delivered) == 6
    assert len(sink.dropped) == 2
    for __, at in sink.delivered[3:]:
        assert 0.100 - 1e-9 <= at - sent[2] <= 0.100 + WINDOW + 1e-9
    __, profile = inet._path_cache[chan.path_key]
    assert profile.n_hops == 2
    assert profile.total_delay == pytest.approx(0.100)


def test_channel_fast_lane_settles_trivial_sends():
    """A send through a primed channel whose fibers are all quiet
    settles at send time — straight into the bulk-delivery batch, with
    per-fiber counters — and is delivered by one event per instant."""
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    chan = inet.channel("a", "b", "line")
    inet.prime_path(chan)
    epoch, profile = inet._path_cache[chan.path_key]
    assert epoch == isp.tables_epoch and profile.n_hops == 3

    def burst():
        for __ in range(5):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)

    sim.schedule(0.1, burst)
    events = sim.events_processed
    sim.run(until=0.5)
    assert sim.events_processed - events == 2  # the burst, one delivery
    assert len(sink.delivered) == 5
    for __, at in sink.delivered:
        assert 0.130 - 1e-9 <= at <= 0.130 + WINDOW + 1e-9
    for pair in (("r0", "r1"), ("r1", "r2"), ("r2", "r3")):
        link = isp.link_between(*pair)
        assert link.packets_carried == 5
        assert link.bytes_carried == 5 * (1200 + HEADER_BYTES)


def test_channel_fast_lane_demoted_by_loss_swap():
    """The channel lane re-checks fiber state per send: a loss model
    swapped onto a mid-path fiber sends the datagram down the hop walk,
    which drops it there."""
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


def test_channel_lane_serializes_on_capacity_written_after_priming():
    """Capacity is read live too: a cap written on a fiber of a primed,
    epoch-valid profile makes the next burst queue on that fiber
    instead of landing all at once."""
    sim, inet, isp = _line_internet(3)
    sink = _Sink(sim)
    chan = inet.channel("a", "b", "line")
    inet.prime_path(chan)

    def cap_then_send():
        isp.link_between("r1", "r2").capacity_bps = 8_000_000.0
        for __ in range(5):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)

    sim.schedule(0.1, cap_then_send)
    sim.run(until=0.5)
    assert not sink.dropped
    arrivals = [at for __, at in sink.delivered]
    assert len(arrivals) == 5
    assert arrivals == sorted(arrivals)
    for earlier, later in zip(arrivals, arrivals[1:]):
        assert _TX - WINDOW <= later - earlier <= _TX + WINDOW


# ------------------------------------- pending batches on the heap


def _primed_line():
    sim, inet, isp = _line_internet(3)
    chan = inet.channel("a", "b", "line")
    inet.prime_path(chan)
    return sim, inet, chan, _Sink(sim)


def test_pending_batch_rows_are_counted_once_in_flight():
    """A quiet-channel send is one row of a queued bulk-delivery event
    until that event fires; an audit probe between the send and the
    delivery — at the send's own instant and mid-transit — finds every
    datagram accounted for exactly once."""
    sim, inet, chan, sink = _primed_line()
    auditor = Auditor(register=False)
    probes = []

    def probe():
        probes.append((len(inet._vec_deliveries),
                       check_datagram_conservation(inet, auditor)))

    def burst():
        for __ in range(5):
            inet.send_via(chan, "x", 1200, sink.deliver, sink.drop)
        sim.schedule(0.0, probe)

    sim.schedule(0.1, burst)
    sim.schedule(0.115, probe)
    sim.run(until=0.5)
    assert probes == [(1, True), (1, True)], auditor.report.format()
    assert len(sink.delivered) == 5
    assert not inet._vec_deliveries
    assert check_datagram_conservation(inet, auditor)


def test_clear_drops_pending_rows_and_a_later_send_lands_once():
    """``sim.clear()`` drops a pending bulk delivery like any other
    event: its rows are never delivered, and a send landing on the same
    grid instant afterwards opens a fresh batch, delivered exactly
    once."""
    sim, inet, chan, sink = _primed_line()
    instants = []

    def send_clear_send():
        for __ in range(3):
            inet.send_via(chan, "cleared", 1200, sink.deliver, sink.drop)
        instants.extend(inet._vec_deliveries)
        sim.clear()
        inet.send_via(chan, "kept", 1200, sink.deliver, sink.drop)
        instants.extend(inet._vec_deliveries)

    sim.schedule(0.1, send_clear_send)
    sim.run(until=0.5)
    assert len(instants) == 2 and instants[0] == instants[1]
    assert [(d.payload, at) for d, at in sink.delivered] == [
        ("kept", instants[0])]
    assert not sink.dropped
    assert not inet._vec_deliveries


# --------------------------------------------- statistical contract


def test_vector_calibration_loss_free():
    result = run_vector_calibration(run_time=5.0)
    result.check()
    assert result.max_delivery_delta <= DELIVERY_TOL
    assert result.max_latency_delta <= LATENCY_TOL
    # The whole point: quiet channels settle at send time and share
    # one delivery event per grid instant.
    assert result.vectorized_wall_events < result.exact_wall_events


def test_vectorized_counters_conserved():
    """Every datagram sent through the batched tier is accounted:
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
    sim = Simulator()
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
        # covers the quiet-channel lane, not just single crossings.
        # Spacings 2 and 3 are coprime — connected for any n.
        olinks = sorted(
            {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in (2, 3)}
        )
    else:
        olinks = edges
    overlay = OverlayNetwork(
        inet,
        [f"h{i}" for i in range(n)],
        [(f"h{a}", f"h{b}") for a, b in olinks],
        OverlayConfig(columnar=vectorized,
                      columnar_window=window if vectorized else 0.0,
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
    batched tier stays within the documented calibration tolerances
    of the exact tier (window 0).

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
    transits, so the comparison covers the quiet-channel lane; its
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
