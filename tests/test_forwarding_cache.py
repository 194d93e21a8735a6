"""Forwarding cache: memoized decide-stage decisions must be invisible.

The cache keys decisions on the shared databases' content-fingerprint
generation and drops the whole table when it moves, so its observable
behaviour contract is simple: every cached decision equals the one a
cold computation would make, across exactly the events that move the
fingerprint — link failures, partitions and heals, cost drift. The
reference is an audited run whose auditor re-derives *every* hit cold
(``sample_every=1``): it must report no ``fwd-coherence`` violation and
deliver byte-identically to the plain run.
"""

import pytest

from repro.analysis.scenarios import continental_scenario, triangle_scenario
from repro.core.config import OverlayConfig
from repro.core.message import Address, ROUTING_DISJOINT, ServiceSpec
from repro.core.pipeline import ForwardingCache
from repro.net.loss import BernoulliLoss, NoLoss
from repro.sim.trace import Counter


class TestForwardingCacheUnit:
    def test_miss_then_hit_same_generation(self):
        counters = Counter()
        cache = ForwardingCache(counters)
        calls = []
        compute = lambda: calls.append(1) or "hop"
        assert cache.lookup(7, ("ucast", "d"), compute) == "hop"
        assert cache.lookup(7, ("ucast", "d"), compute) == "hop"
        assert len(calls) == 1
        assert counters.get("fwd.miss") == 1
        assert counters.get("fwd.hit") == 1

    def test_none_is_a_cacheable_decision(self):
        counters = Counter()
        cache = ForwardingCache(counters)
        assert cache.lookup(1, ("ucast", "gone"), lambda: None) is None
        assert cache.lookup(1, ("ucast", "gone"), lambda: None) is None
        assert counters.get("fwd.miss") == 1
        assert counters.get("fwd.hit") == 1

    def test_generation_change_invalidates_wholesale(self):
        counters = Counter()
        cache = ForwardingCache(counters)
        cache.lookup(1, "a", lambda: "x")
        cache.lookup(1, "b", lambda: "y")
        assert len(cache) == 2
        assert cache.lookup(2, "a", lambda: "x2") == "x2"
        assert counters.get("fwd.invalidate") == 1
        assert len(cache) == 1  # b's old entry went with the generation

    def test_empty_table_invalidation_is_not_counted(self):
        counters = Counter()
        cache = ForwardingCache(counters)
        cache.lookup(1, "a", lambda: "x")
        cache.lookup(2, "a", lambda: "x")  # one real invalidation
        fresh = ForwardingCache(counters)
        fresh.lookup(3, "a", lambda: "x")  # first use: nothing to drop
        assert counters.get("fwd.invalidate") == 1

    def test_overflow_clears_and_counts(self):
        counters = Counter()
        cache = ForwardingCache(counters, capacity=2)
        cache.lookup(1, "a", lambda: 1)
        cache.lookup(1, "b", lambda: 2)
        cache.lookup(1, "c", lambda: 3)  # table full: clear, then insert c
        assert counters.get("fwd.overflow") == 1
        assert len(cache) == 1
        assert cache.lookup(1, "c", lambda: 99) == 3  # survived the clear

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ForwardingCache(Counter(), capacity=0)


def _continental_traffic(scn, deliveries):
    """Unicast fan-in, multicast, and disjoint-path traffic on the
    continental overlay — every decide-stage decision kind in play."""
    sim = scn.sim

    def receiver(site):
        return lambda msg: deliveries.append(
            (site, msg.origin, msg.flow, msg.seq, round(sim.now, 9))
        )

    scn.overlay.client("site-LAX", 7, on_message=receiver("site-LAX"))
    for site in ("site-SEA", "site-CHI", "site-MIA"):
        scn.overlay.client(site, 9, on_message=receiver(site)).join("mcast:m")
    scn.overlay.client("site-DEN", 8, on_message=receiver("site-DEN"))

    senders = [
        (scn.overlay.client("site-NYC"), Address("site-LAX", 7), None),
        (scn.overlay.client("site-BOS"), Address("site-LAX", 7), None),
        (scn.overlay.client("site-ATL"), Address("mcast:m", 9), None),
        (scn.overlay.client("site-WAS"), Address("site-DEN", 8),
         ServiceSpec(routing=ROUTING_DISJOINT, k=2)),
    ]
    state = {"seq": 0}

    def tick():
        state["seq"] += 1
        for client, addr, service in senders:
            if service is None:
                client.send(addr)
            else:
                client.send(addr, service=service)
        sim.schedule(0.05, tick)

    sim.schedule(0.0, tick)


def _run_continental(audited: bool, events):
    """Run the continental workload with ``events`` = [(at, fn(scn))];
    returns (deliveries, fwd counters, overlay). An audited overlay's
    auditor re-derives every forwarding-cache hit cold: no message is
    forwarded before the traffic starts, so setting the sampling period
    after the warm-up covers every hit."""
    scn = continental_scenario(seed=777, config=OverlayConfig(audit=audited))
    if audited:
        scn.overlay.auditor.sample_every = 1
    deliveries: list[tuple] = []
    _continental_traffic(scn, deliveries)
    for at, fn in events:
        scn.sim.schedule(at, fn, scn)
    scn.run_for(12.0)
    counters = scn.overlay.counters.as_dict()
    return deliveries, {
        name: counters.get(name, 0)
        for name in ("fwd.hit", "fwd.miss", "fwd.invalidate")
    }, scn.overlay


def _assert_equivalent(events):
    plain, fwd, __ = _run_continental(False, events)
    checked, checked_fwd, overlay = _run_continental(True, events)
    assert checked == plain, "auditing changed delivery behaviour"
    assert len(plain) > 0, "scenario produced no deliveries — vacuous"
    assert fwd["fwd.hit"] > 0
    assert checked_fwd == fwd
    rederived = sum(node.pipeline.cache._audit_hits
                    for node in overlay.nodes.values())
    assert rederived == fwd["fwd.hit"]
    report = overlay.auditor.report
    assert not report.violations, report.format()
    return fwd


class TestTraceEquivalence:
    """Every cache hit re-derived cold agrees with the cached decision,
    and the audited run's delivery trace is the plain run's, across the
    events that move the fingerprint generation."""

    def test_steady_state(self):
        fwd = _assert_equivalent([])
        # Converged network, repeating flows: hits dominate.
        assert fwd["fwd.hit"] > 10 * fwd["fwd.miss"]

    def test_link_failure_and_repair(self):
        def cut(scn):
            scn.internet.fail_fiber("ispA", "NYC", "CHI")
            scn.internet.fail_fiber("ispB", "NYC", "CHI")

        def repair(scn):
            scn.internet.repair_fiber("ispA", "NYC", "CHI")
            scn.internet.repair_fiber("ispB", "NYC", "CHI")

        fwd = _assert_equivalent([(3.0, cut), (8.0, repair)])
        # Both transitions flood LSUs -> the generation moved -> every
        # node dropped (at least) one decision table.
        assert fwd["fwd.invalidate"] > 0

    def test_partition_and_heal(self):
        from tests.test_partition import PARTITION_CUTS

        def split(scn):
            for a, b in PARTITION_CUTS:
                for isp in scn.internet.isps:
                    try:
                        scn.internet.fail_fiber(isp, a, b)
                    except KeyError:
                        pass

        def heal(scn):
            for a, b in PARTITION_CUTS:
                for isp in scn.internet.isps:
                    try:
                        scn.internet.repair_fiber(isp, a, b)
                    except KeyError:
                        pass

        fwd = _assert_equivalent([(3.0, split), (7.5, heal)])
        assert fwd["fwd.invalidate"] > 0

    def test_cost_drift(self):
        # Loss inflates measured link costs past the advertisement
        # threshold: fresh LSUs flood with no link ever going down, and
        # the content fingerprint still moves.
        drift = lambda scn: scn.internet.set_isp_loss(
            "ispA", lambda: BernoulliLoss(0.3)
        )
        settle = lambda scn: scn.internet.set_isp_loss("ispA", NoLoss)
        fwd = _assert_equivalent([(3.0, drift), (8.0, settle)])
        assert fwd["fwd.invalidate"] > 0


class TestLiveOverlay:
    def test_counters_and_cache_population(self):
        scn = triangle_scenario(seed=991)
        got = []
        scn.overlay.client("hz", 7, on_message=got.append)
        tx = scn.overlay.client("hx")
        for __ in range(20):
            tx.send(Address("hz", 7))
            scn.run_for(0.05)
        assert len(got) == 20
        counters = scn.overlay.counters.as_dict()
        assert counters["fwd.hit"] > counters["fwd.miss"]
        assert len(scn.overlay.nodes["hx"].pipeline.cache) > 0

    def test_fiber_cut_invalidates_on_live_overlay(self):
        scn = triangle_scenario(seed=992)
        got = []
        scn.overlay.client("hy", 7, on_message=got.append)
        tx = scn.overlay.client("hx")
        tx.send(Address("hy", 7))
        scn.run_for(1.0)
        scn.internet.fail_fiber("tri", "x", "y")
        scn.run_for(3.0)
        tx.send(Address("hy", 7))
        scn.run_for(2.0)
        assert len(got) == 2  # rerouted via hz
        assert scn.overlay.counters.as_dict()["fwd.invalidate"] > 0
