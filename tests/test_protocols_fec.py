"""The FEC extension protocol: zero-RTT single-loss recovery per block,
fixed 1/k overhead, defeated by in-block bursts."""

import pytest

from repro.analysis.metrics import flow_stats
from repro.analysis.workloads import CbrSource
from repro.core.message import Address, LINK_FEC, ServiceSpec
import repro.protocols
from repro.protocols import LinkProtocol, register_protocol
from tests.conftest import make_two_node_line


def _stream(scn, count=800, rate=200.0, size=1000):
    got = []
    scn.overlay.client("h1", 7, on_message=lambda m: got.append(scn.sim.now - m.sent_at))
    tx = scn.overlay.client("h0")
    source = CbrSource(scn.sim, tx, Address("h1", 7), rate_pps=rate, size=size,
                       service=ServiceSpec(link=LINK_FEC)).start()
    scn.run_for(count / rate)
    source.stop()
    scn.run_for(1.0)
    stats = flow_stats(scn.overlay.trace, source.flow, "h1:7")
    return got, stats, source


def test_lossless_stream_unaffected():
    scn = make_two_node_line(seed=501)
    got, stats, __ = _stream(scn, count=200)
    assert stats.delivery_ratio == 1.0
    assert scn.overlay.counters.get("fec-recovered") == 0
    assert scn.overlay.counters.get("fec-parity-sent") > 0


def test_recovers_isolated_losses_without_round_trip():
    scn = make_two_node_line(seed=502, loss_rate=0.03, hop_delay=0.020)
    got, stats, __ = _stream(scn)
    # p=0.03, k=8: residual loss ~ p * P(2nd loss in block or parity
    # lost) ~ 0.03 * 0.22 ~ 0.7%, so ~99.3% delivery.
    assert stats.delivery_ratio > 0.985
    assert scn.overlay.counters.get("fec-recovered") > 0
    # The FEC-recovered packets waited at most a block (k packets at the
    # send rate), never a retransmission round trip: with 20 ms one-way,
    # ARQ recovery would exceed 60 ms.
    assert stats.latency.max < 0.061


def test_fixed_overhead_one_over_k():
    scn = make_two_node_line(seed=503)
    __, __, source = _stream(scn, count=400)
    parities = scn.overlay.counters.get("fec-parity-sent")
    assert parities == pytest.approx(source.sent / 8, abs=1)


def test_bursts_within_a_block_defeat_parity():
    from repro.analysis.scenarios import line_scenario
    from repro.net.loss import GilbertElliottLoss

    scn = line_scenario(
        504, n_hops=1, hop_delay=0.020,
        loss_factory=lambda: GilbertElliottLoss(
            mean_good=0.3, mean_bad=0.06, bad_loss=0.9
        ),
    )
    __, stats, __ = _stream(scn)
    assert scn.overlay.counters.get("fec-unrecoverable") > 0
    assert stats.delivery_ratio < 0.99


def test_registering_a_custom_protocol(monkeypatch):
    """The architecture's extension point works for third-party code."""
    # Registered for this test only: later tests see the library's set.
    monkeypatch.setattr(repro.protocols, "_REGISTRY",
                        dict(repro.protocols._REGISTRY))

    class EchoCountProtocol(LinkProtocol):
        name = "echo-count"

        def send(self, msg):
            self.counters.add("echo-sent")
            self.transmit("data", msg)
            return True

        def on_frame(self, frame):
            if frame.msg is not None:
                self.deliver_up(frame.msg)

    register_protocol(EchoCountProtocol)
    scn = make_two_node_line(seed=505)
    got = []
    scn.overlay.client("h1", 7, on_message=got.append)
    scn.overlay.client("h0").send(
        Address("h1", 7), service=ServiceSpec(link="echo-count")
    )
    scn.run_for(1.0)
    assert len(got) == 1
    assert scn.overlay.counters.get("echo-sent") == 1


def test_register_protocol_requires_name():
    class Nameless(LinkProtocol):
        name = ""

    with pytest.raises(ValueError):
        register_protocol(Nameless)
