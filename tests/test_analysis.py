"""Metrics, workloads, and scenario builders."""

import math

import pytest

from repro.analysis.metrics import (
    availability_gaps,
    delivered_seqs,
    flow_stats,
    latency_summary,
    percentile,
)
from repro.analysis.scenarios import continental_scenario, line_scenario
from repro.analysis.workloads import CbrSource, PoissonSource
from repro.core.message import Address, ServiceSpec
from repro.sim.trace import TraceCollector


class TestLatencySummary:
    def test_basic_stats(self):
        summary = latency_summary([0.01, 0.02, 0.03, 0.04, 0.10])
        assert summary.count == 5
        assert summary.mean == pytest.approx(0.04)
        assert summary.p50 == 0.03
        assert summary.max == 0.10

    def test_empty_gives_nan(self):
        summary = latency_summary([])
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_jitter_is_mean_consecutive_delta(self):
        summary = latency_summary([0.01, 0.03, 0.02])
        assert summary.jitter == pytest.approx((0.02 + 0.01) / 2)

    def test_single_sample_has_zero_jitter(self):
        assert latency_summary([0.05]).jitter == 0.0

    def test_scaled_ms(self):
        summary = latency_summary([0.05])
        assert summary.scaled_ms()["p50"] == pytest.approx(50.0)

    def test_percentile_requires_values(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 0.25) == 1.0


class TestFlowStats:
    def _trace(self):
        trace = TraceCollector()
        for seq in range(10):
            trace.record_send("f", seq, seq * 0.1, 100, "d:1")
        for seq in range(8):  # two lost
            trace.record_delivery("f", seq, seq * 0.1, seq * 0.1 + 0.05, "d:1")
        return trace

    def test_delivery_ratio(self):
        stats = flow_stats(self._trace(), "f", "d:1")
        assert stats.sent == 10
        assert stats.delivered == 8
        assert stats.delivery_ratio == pytest.approx(0.8)

    def test_within_deadline(self):
        stats = flow_stats(self._trace(), "f", "d:1", deadline=0.06)
        assert stats.within_deadline == pytest.approx(0.8)
        tight = flow_stats(self._trace(), "f", "d:1", deadline=0.01)
        assert tight.within_deadline == 0.0

    def test_after_excludes_warmup(self):
        stats = flow_stats(self._trace(), "f", "d:1", after=0.45)
        assert stats.sent == 5

    def test_delivered_seqs(self):
        assert delivered_seqs(self._trace(), "f", "d:1") == set(range(8))

    def test_per_flow_reads_match_a_whole_trace_scan(self):
        # Flows, destinations and outcomes interleaved, as a fleet's are.
        trace = TraceCollector()
        for seq in range(60):
            for k, flow in enumerate(("a", "b", "c")):
                sent_at = seq * 0.05 + k * 0.001
                dst = f"d:{(seq + k) % 3}"
                trace.record_send(flow, seq, sent_at, 100, dst)
                if (seq + k) % 7:
                    lost = (seq * k) % 11 == 3
                    trace.record_delivery(
                        flow, seq, sent_at,
                        None if lost else sent_at + 0.01 * (1 + seq % 4), dst)
        for flow in ("a", "b", "c", "missing"):
            assert trace.for_flow(flow) == [
                r for r in trace.records if r.flow == flow]
            assert trace.sends_for_flow(flow) == [
                s for s in trace.sends if s.flow == flow]
            for dst in ("d:0", "d:1", "d:2"):
                scan = [r for r in trace.records
                        if r.flow == flow and r.destination == dst]
                assert delivered_seqs(trace, flow, dst) == {r.seq for r in scan}
                for after in (0.0, 1.2):
                    got = flow_stats(trace, flow, dst, deadline=0.025,
                                     after=after)
                    late = [r for r in scan if r.sent_at >= after]
                    sent = [s for s in trace.sends
                            if s.flow == flow and s.sent_at >= after]
                    assert got.sent == len(sent)
                    assert got.delivered == len(late)
                    assert got.latency == latency_summary(
                        [r.latency for r in late if r.latency is not None])
                    if sent:
                        assert got.within_deadline == sum(
                            r.within(0.025) for r in late) / len(sent)


def test_availability_gaps_detects_outage():
    times = [i * 0.1 for i in range(20)] + [5.0 + i * 0.1 for i in range(20)]
    gaps = availability_gaps(times, expected_interval=0.1)
    assert len(gaps) == 1
    start, duration = gaps[0]
    assert duration == pytest.approx(5.0 - 1.9)


def test_availability_no_gaps_on_steady_stream():
    assert availability_gaps([i * 0.1 for i in range(50)], 0.1) == []


class TestWorkloads:
    def test_cbr_rate(self):
        scn = line_scenario(201, n_hops=1)
        tx = scn.overlay.client("h0")
        scn.overlay.client("h1", 7, on_message=lambda m: None)
        source = CbrSource(scn.sim, tx, Address("h1", 7), rate_pps=100.0,
                           duration=2.0).start()
        scn.run_for(3.0)
        assert source.sent == pytest.approx(200, abs=2)

    def test_cbr_stop(self):
        scn = line_scenario(202, n_hops=1)
        tx = scn.overlay.client("h0")
        source = CbrSource(scn.sim, tx, Address("h1", 7), rate_pps=100.0).start()
        scn.run_for(1.0)
        source.stop()
        sent = source.sent
        scn.run_for(1.0)
        assert source.sent == sent

    def test_cbr_validates_rate(self):
        scn = line_scenario(203, n_hops=1)
        tx = scn.overlay.client("h0")
        with pytest.raises(ValueError):
            CbrSource(scn.sim, tx, Address("h1", 7), rate_pps=0.0)

    def test_poisson_mean_rate(self):
        scn = line_scenario(204, n_hops=1)
        tx = scn.overlay.client("h0")
        rng = scn.rngs.stream("poisson-test")
        source = PoissonSource(scn.sim, rng, tx, Address("h1", 7),
                               rate_pps=200.0).start()
        scn.run_for(5.0)
        assert 800 < source.sent < 1200

    def test_payload_fn(self):
        scn = line_scenario(205, n_hops=1)
        got = []
        scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.payload))
        tx = scn.overlay.client("h0")
        CbrSource(scn.sim, tx, Address("h1", 7), rate_pps=50.0,
                  payload_fn=lambda seq: {"n": seq}).start()
        scn.run_for(0.1)
        assert got and got[0] == {"n": 0}


class TestScenarios:
    def test_line_scenario_endpoints_only(self):
        scn = line_scenario(206, n_hops=5, overlay_on_every_hop=False)
        assert set(scn.overlay.nodes) == {"h0", "h5"}
        link = scn.overlay.nodes["h0"].links["h5"]
        assert link.latency_est == pytest.approx(0.050, abs=0.005)

    def test_line_scenario_every_hop(self):
        scn = line_scenario(207, n_hops=5)
        assert len(scn.overlay.nodes) == 6
        assert scn.overlay.converged()

    def test_continental_scenario_converges(self):
        scn = continental_scenario(208)
        assert scn.overlay.converged()
        assert len(scn.overlay.nodes) == 12

    def test_continental_three_isps(self):
        scn = continental_scenario(209, isps=["ispA", "ispB", "ispC"])
        link = scn.overlay.nodes["site-NYC"].links["site-WAS"]
        assert len(link.carriers) == 4  # 3 on-net + native
