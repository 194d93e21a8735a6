"""Property-based tests on core invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import OverlayConfig
from repro.core.message import Address, OverlayMessage, ServiceSpec
from repro.core.pipeline import SENT_WINDOW, FlowSeqs
from repro.core.session import ReorderBuffer
from repro.sim.events import Simulator


class _FakeCounters:
    def __init__(self):
        self.values = {}

    def add(self, name, amount=1.0):
        self.values[name] = self.values.get(name, 0.0) + amount


class _FakeNode:
    def __init__(self, sim):
        self.sim = sim
        self.counters = _FakeCounters()


class _FakeSession:
    """Just enough session surface to drive a ReorderBuffer."""

    def __init__(self):
        self.sim = Simulator()
        self.node = _FakeNode(self.sim)
        self.delivered = []

    def hand_to_client(self, endpoint, msg):
        self.delivered.append(msg.seq)


def _msg(seq, deadline=None, group=False):
    dst = Address("mcast:g" if group else "n", 1)
    return OverlayMessage(
        flow="f", seq=seq, src=Address("s", 1), dst=dst,
        service=ServiceSpec(ordered=True, deadline=deadline),
        origin="s", sent_at=0.0,
    )


class TestReorderBufferProperties:
    @given(st.permutations(range(12)))
    @settings(max_examples=60, deadline=None)
    def test_any_arrival_order_delivers_in_order(self, order):
        session = _FakeSession()
        buffer = ReorderBuffer(session, endpoint=None)
        for seq in order:
            buffer.push(_msg(seq))
        assert session.delivered == list(range(12))

    @given(
        st.sets(st.integers(min_value=0, max_value=19), min_size=1),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_unicast_losses_block_but_never_reorder(self, arrived, rnd):
        session = _FakeSession()
        buffer = ReorderBuffer(session, endpoint=None)
        order = sorted(arrived)
        rnd.shuffle(order)
        for seq in order:
            buffer.push(_msg(seq))
        # Without a deadline, delivery is the contiguous prefix from 0.
        expected = []
        seq = 0
        while seq in arrived:
            expected.append(seq)
            seq += 1
        assert session.delivered == expected

    @given(st.permutations(range(10)), st.integers(min_value=0, max_value=9))
    @settings(max_examples=60, deadline=None)
    def test_deadline_skip_eventually_delivers_everything_received(
        self, order, missing
    ):
        session = _FakeSession()
        buffer = ReorderBuffer(session, endpoint=None)
        for seq in order:
            if seq != missing:
                buffer.push(_msg(seq, deadline=0.1))
        session.sim.run(until=10.0)  # let skip timers fire
        assert session.delivered == sorted(session.delivered)
        assert set(session.delivered) == set(range(10)) - {missing}

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_duplicates_never_delivered_twice(self, seqs):
        session = _FakeSession()
        buffer = ReorderBuffer(session, endpoint=None)
        for seq in seqs:
            buffer.push(_msg(seq, deadline=0.05))
        session.sim.run(until=10.0)
        assert len(session.delivered) == len(set(session.delivered))
        assert session.delivered == sorted(session.delivered)


class TestFlowSeqsProperties:
    @given(st.lists(st.tuples(st.sampled_from("fgh"), st.integers(0, 40)),
                    max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_fresh_exactly_when_a_set_has_not_seen_it(self, events):
        """Seqs out of order, repeated and with gaps, on interleaved
        flows: fresh exactly when a plain set has not seen the pair."""
        records, oracle = {}, set()
        for flow, seq in events:
            fresh = records.setdefault(flow, FlowSeqs()).first_delivery(seq)
            assert fresh == ((flow, seq) not in oracle)
            oracle.add((flow, seq))

    @given(st.lists(st.tuples(st.integers(0, SENT_WINDOW - 1),
                              st.integers(0, 7), st.integers(0, 255)),
                    max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_links_sent_is_monotonic_union(self, events):
        """Inside the window a seq's mask is the union of the links it
        came or went out on; only links outside it are handed out."""
        record = FlowSeqs()
        reference: dict = {}
        for seq, arrived, wanted in events:
            targets = tuple((f"n{bit}", bit) for bit in range(8)
                            if wanted >> bit & 1)
            before = reference.get(seq, 0) | 1 << arrived
            fresh = record.unsent(seq, 1 << arrived, targets)
            assert fresh == [t for t in targets if not before >> t[1] & 1]
            reference[seq] = before | wanted
            assert record.masks[seq] == reference[seq]


class TestSchedulerInvariants:
    def _protocol(self):
        from tests.conftest import make_two_node_line

        scn = make_two_node_line(
            seed=801, config=OverlayConfig(access_capacity_bps=1_000_000.0)
        )
        node = scn.overlay.nodes["h0"]
        return scn, node.protocol_for("h1", "it-priority")

    @given(st.dictionaries(st.integers(min_value=0, max_value=5),
                           st.integers(min_value=1, max_value=20),
                           min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_round_robin_serves_backlogged_sources_evenly(self, backlogs):
        """While several sources have backlog, no source is served twice
        before another backlogged source is served once (the fairness
        property that defeats the flooding attack). Backlogs are built
        through ``send()`` and drained by the pacer, so the scheduler is
        driven only through the interface real traffic uses."""
        scn, protocol = self._protocol()
        served: dict[str, int] = {}

        def on_transmit(ftype, msg, link_seq=0):
            # Called right after the scheduler popped ``msg``: the
            # backlog it chose from is what is left plus that message.
            name = str(msg.src)
            before = {n: len(q) for n, q in protocol._queues.items()}
            before[name] += 1
            served[name] = served.get(name, 0) + 1
            # Fairness invariant: among sources that still had backlog
            # before this service, counts never diverge by more than 1.
            active_counts = [served.get(n, 0) for n, b in before.items() if b > 0]
            assert max(active_counts) - min(active_counts) <= 1

        protocol.transmit = on_transmit
        service = ServiceSpec(link="it-priority")

        def send(source, seq):
            protocol.send(OverlayMessage(
                flow=f"f{source}", seq=seq, src=Address(source, 1),
                dst=Address("h1", 1), service=service, origin="h0", sent_at=0.0,
            ))

        # One message of a bystander keeps the pacer serializing while
        # the backlogs build, so every source is queued before the
        # scheduler picks again.
        send("primer", 0)
        for source, backlog in backlogs.items():
            for i in range(backlog):
                send(f"src{source}", i)
        scn.run_for(1.0)  # <= 121 messages at ~0.26 ms each
        assert all(len(q) == 0 for q in protocol._queues.values())
        assert served.pop("primer:1") == 1
        assert served == {f"src{s}:1": b for s, b in backlogs.items()}


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        """The whole stack is deterministic: same seed -> bit-identical
        delivery traces (this is what makes every benchmark in this
        repository reproducible)."""
        from repro.analysis.scenarios import continental_scenario
        from repro.analysis.workloads import CbrSource
        from repro.net.loss import GilbertElliottLoss

        def run():
            scn = continental_scenario(
                seed=802,
                loss_factory=lambda: GilbertElliottLoss(
                    mean_good=1.0, mean_bad=0.05, bad_loss=0.5
                ),
            )
            scn.overlay.client("site-LAX", 7, on_message=lambda m: None)
            tx = scn.overlay.client("site-NYC")
            CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=100,
                      service=ServiceSpec(link="reliable")).start()
            scn.run_for(5.0)
            return [
                (r.flow, r.seq, r.delivered_at) for r in scn.overlay.trace.records
            ]

        assert run() == run()

    def test_different_seeds_differ(self):
        from repro.analysis.scenarios import line_scenario
        from repro.net.loss import BernoulliLoss

        def run(seed):
            scn = line_scenario(seed, n_hops=1,
                                loss_factory=lambda: BernoulliLoss(0.2))
            got = []
            scn.overlay.client("h1", 7, on_message=lambda m: got.append(m.seq))
            tx = scn.overlay.client("h0")
            for __ in range(100):
                tx.send(Address("h1", 7))
            scn.run_for(3.0)
            return got

        assert run(803) != run(804)
