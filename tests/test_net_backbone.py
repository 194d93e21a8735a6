"""Fiber links and routing domains: traversal, queuing, and the
stale-tables-until-reconvergence behaviour that E2 measures against."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.alg.dijkstra import next_hops
from repro.net import backbone
from repro.net.backbone import FWD, REV, FiberLink, RoutingDomain
from repro.net.loss import BernoulliLoss
from repro.sim.events import Simulator


def _chain(sim, n=4, delay=0.01, convergence=5.0):
    domain = RoutingDomain("isp", sim, convergence_delay=convergence)
    for i in range(n - 1):
        domain.add_link(f"r{i}", f"r{i + 1}", delay)
    return domain


def test_fiber_traverse_adds_delay():
    link = FiberLink("l", delay=0.01)
    arrival = link.traverse(1.0, 100, FWD, random.Random(1))
    assert arrival == pytest.approx(1.01)
    assert link.packets_carried == 1
    assert link.bytes_carried == 100


def test_fiber_negative_delay_rejected():
    with pytest.raises(ValueError):
        FiberLink("l", delay=-0.1)


def test_failed_fiber_drops_everything():
    link = FiberLink("l", delay=0.01)
    link.failed = True
    assert link.traverse(0.0, 100, FWD, random.Random(1)) is None
    assert link.packets_dropped == 1


def test_fiber_loss_model_applies():
    link = FiberLink("l", delay=0.01, loss=BernoulliLoss(1.0))
    assert link.traverse(0.0, 100, FWD, random.Random(1)) is None


def test_capacity_serialization_delay():
    link = FiberLink("l", delay=0.0, capacity_bps=8000.0)  # 1000 B/s
    rng = random.Random(1)
    first = link.traverse(0.0, 100, FWD, rng)
    assert first == pytest.approx(0.1)  # 100 B at 1000 B/s
    second = link.traverse(0.0, 100, FWD, rng)
    assert second == pytest.approx(0.2)  # queued behind the first


def test_capacity_directions_are_independent():
    link = FiberLink("l", delay=0.0, capacity_bps=8000.0)
    rng = random.Random(1)
    link.traverse(0.0, 100, FWD, rng)
    reverse = link.traverse(0.0, 100, REV, rng)
    assert reverse == pytest.approx(0.1)


def test_queue_overflow_drops():
    link = FiberLink("l", delay=0.0, capacity_bps=8.0)  # 1 B/s: 100 B = 100 s
    rng = random.Random(1)
    assert link.traverse(0.0, 100, FWD, rng) is not None
    assert link.traverse(0.0, 100, FWD, rng) is None  # queue delay 100 s > cap


def test_domain_routes_along_chain():
    sim = Simulator()
    domain = _chain(sim)
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    assert domain.next_hop("r0", "r3") == "r1"
    assert domain.current_path("r2", "r2") == ["r2"]


def test_domain_rejects_self_loop():
    sim = Simulator()
    domain = RoutingDomain("isp", sim)
    with pytest.raises(ValueError):
        domain.add_link("a", "a", 0.01)


def test_tables_stay_stale_until_convergence():
    sim = Simulator()
    domain = _chain(sim, convergence=5.0)
    sim.run(until=1.0)
    domain.fail_link("r1", "r2")
    # Tables still point through the dead link...
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    sim.run(until=3.0)
    assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
    # ...until convergence_delay elapses; the chain has no alternative.
    sim.run(until=7.0)
    assert domain.current_path("r0", "r3") is None


def test_reconvergence_uses_alternate_path():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=2.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    assert domain.current_path("a", "c") == ["a", "b", "c"]
    domain.fail_link("a", "b")
    sim.run(until=3.0)
    assert domain.current_path("a", "c") == ["a", "c"]


def test_repair_restores_path_after_convergence():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=2.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    domain.fail_link("a", "b")
    sim.run(until=3.0)
    domain.repair_link("a", "b")
    sim.run(until=6.0)
    assert domain.current_path("a", "c") == ["a", "b", "c"]


def test_fail_unknown_link_raises():
    sim = Simulator()
    domain = _chain(sim)
    with pytest.raises(KeyError):
        domain.fail_link("r0", "r3")


def test_shortest_converged_path_sees_live_topology():
    sim = Simulator()
    domain = RoutingDomain("isp", sim, convergence_delay=100.0)
    domain.add_link("a", "b", 0.01)
    domain.add_link("b", "c", 0.01)
    domain.add_link("a", "c", 0.05)
    domain.fail_link("a", "b")
    # Forwarding is stale, but the audit view reflects the cut at once.
    assert domain.shortest_converged_path("a", "c") == ["a", "c"]


def test_converge_listeners_fire():
    sim = Simulator()
    domain = _chain(sim, convergence=1.0)
    fired = []
    domain.on_converge(lambda: fired.append(sim.now))
    domain.fail_link("r0", "r1")
    sim.run(until=2.0)
    assert fired == [1.0]


def test_multiple_failures_coalesce_into_one_reconvergence():
    sim = Simulator()
    domain = _chain(sim, n=5, convergence=1.0)
    fired = []
    domain.on_converge(lambda: fired.append(sim.now))
    domain.fail_link("r0", "r1")
    domain.fail_link("r2", "r3")
    sim.run(until=3.0)
    assert len(fired) == 1


def test_links_enumeration():
    sim = Simulator()
    domain = _chain(sim, n=4)
    assert len(domain.links()) == 3


def test_building_a_domain_builds_its_adjacency_once(monkeypatch):
    """``add_link_object`` used to rebuild the whole delay adjacency per
    added fiber; it now marks it stale, and the first table miss (or the
    first fiber about to change state) builds it."""
    calls = []
    real = RoutingDomain._current_adjacency

    def counted(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(RoutingDomain, "_current_adjacency", counted)
    sim = Simulator()
    n = 200
    domain = RoutingDomain("mesh", sim)
    fibers = sorted({tuple(sorted((i, (i + d) % n)))
                     for i in range(n) for d in (1, 3)})
    for a, b in fibers:
        domain.add_link(a, b, 0.01)
    assert calls == [] and domain.tables_epoch == len(fibers) == 400
    tables = {dst: {r: domain.next_hop(r, dst) for r in range(n)}
              for dst in range(0, n, 7)}
    assert calls == ["mesh"]
    # The same tables an eager rebuild per fiber ends up with.
    adj = real(domain)
    assert tables == {dst: {r: next_hops(adj, dst).get(r) for r in range(n)}
                      for dst in tables}
    assert domain.tables_epoch == 400


def test_a_cut_right_after_the_build_still_meets_stale_tables():
    """The lazily built adjacency is pinned just before a fiber's state
    changes — through ``fail_link`` or a direct write — so tables that
    were never consulted before the cut still forward into it."""
    for cut in (lambda d: d.fail_link("r1", "r2"),
                lambda d: setattr(d.link_between("r1", "r2"), "failed", True)):
        sim = Simulator()
        domain = _chain(sim)
        cut(domain)
        assert domain.current_path("r0", "r3") == ["r0", "r1", "r2", "r3"]
        domain._reconverge()
        assert domain.current_path("r0", "r3") is None


def test_fiber_watchers_hear_changes_not_rewrites():
    link = FiberLink("l", delay=0.01)
    heard = []
    link.watch(lambda: heard.append((link.failed, type(link.loss).__name__)))
    link.failed = False
    link.loss = link.loss
    assert heard == []
    link.failed = True
    link.loss = BernoulliLoss(0.5)
    # Called before the write lands.
    assert heard == [(False, "NoLoss"), (True, "NoLoss")]
    assert link.failed and isinstance(link.loss, BernoulliLoss)


# ------------------------------------------------ lazily settled tables


@st.composite
def _graphs(draw):
    """A router count, an edge list (possibly disconnected, ties
    likely) and a sequence of fiber cuts / repairs by edge index."""
    n = draw(st.integers(2, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    edges = [(a, b, draw(st.sampled_from([1.0, 2.0, 3.0])))
             for a, b in chosen]
    flips = draw(st.lists(st.integers(0, max(len(edges) - 1, 0)),
                          max_size=6)) if edges else []
    return n, edges, flips


def _oracle_adjacency(n, edges, failed) -> dict:
    """The delay adjacency, built independently of the domain in the
    order the domain wires it (routers, then fibers as added)."""
    adj = {r: {} for r in range(n)}
    for i, (a, b, delay) in enumerate(edges):
        if i not in failed:
            adj[a][b] = delay
            adj[b][a] = delay
    return adj


@given(_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_lazy_tables_equal_finished_ones_in_any_query_order(graph, rnd):
    """``next_hop`` settles only as far as asked, yet every answer —
    for any query order, before and after each reconvergence, stale
    tables included — is the finished table's."""
    n, edges, flips = graph
    sim = Simulator()
    domain = RoutingDomain("g", sim, convergence_delay=1.0)
    for r in range(n):
        domain.add_router(r)
    for a, b, delay in edges:
        domain.add_link(a, b, delay)
    failed: set = set()
    pairs = [(r, d) for r in range(n) for d in range(n)]

    def check(adj):
        asked = rnd.sample(pairs, rnd.randint(1, len(pairs)))
        for router, dst in asked:
            assert domain.next_hop(router, dst) == next_hops(adj, dst).get(router)

    converged = _oracle_adjacency(n, edges, failed)
    check(converged)
    for i in flips:
        a, b, __ = edges[i]
        if i in failed:
            failed.discard(i)
            domain.repair_link(a, b)
        else:
            failed.add(i)
            domain.fail_link(a, b)
        check(converged)  # stale until the domain reconverges
        sim.run()
        converged = _oracle_adjacency(n, edges, failed)
        check(converged)


def test_one_reversed_graph_per_convergence(monkeypatch):
    calls = []
    real = backbone.reversed_graph

    def counted(adj):
        calls.append(len(adj))
        return real(adj)

    monkeypatch.setattr(backbone, "reversed_graph", counted)
    sim = Simulator()
    domain = _chain(sim, n=6)
    every = [(r, d) for r in domain.routers for d in domain.routers]
    for router, dst in every:
        domain.next_hop(router, dst)
    assert calls == [6]
    domain.fail_link("r2", "r3")
    for router, dst in every:  # stale tables: the same reversed graph
        domain.next_hop(router, dst)
    assert calls == [6]
    sim.run()
    for router, dst in every:
        domain.next_hop(router, dst)
    assert calls == [6, 6]
    assert domain.next_hop("r0", "r5") is None
