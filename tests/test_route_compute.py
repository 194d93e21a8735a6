"""Content-addressed route computation: converged replicas share one
engine computation per artifact; diverged replicas don't; the bounded
LRU stays correct under churn; per-node adaptive behaviour is intact."""

import pytest

from repro.core.compute import RouteComputeEngine
from repro.core.linkstate import GroupDatabase, TopologyDatabase
from repro.core.message import ROUTING_ADAPTIVE, ROUTING_DISJOINT, ServiceSpec
from repro.core.routing import LinkIndex, RoutingService
from repro.sim.trace import Counter

EDGES = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 3.0), ("c", "d", 1.0)]
LINKS = [(u, v) for u, v, __ in EDGES]


def _fill(topo: TopologyDatabase, edges, seq: int = 1, overrides=None):
    """Feed a replica one LSU per origin for a symmetric edge list."""
    nodes: dict = {}
    for a, b, w in edges:
        nodes.setdefault(a, {})[b] = w
        nodes.setdefault(b, {})[a] = w
    for origin in sorted(nodes):
        costs = dict(nodes[origin])
        if overrides and origin in overrides:
            costs = overrides[origin]
        topo.update(origin, seq, costs)
    return nodes


def _replica(engine, node_id, edges, groups=None, **fill_kwargs):
    """One node's replicas + routing service wired to a shared engine."""
    topo = TopologyDatabase()
    _fill(topo, edges, **fill_kwargs)
    gdb = GroupDatabase()
    for origin, gs in (groups or {}).items():
        gdb.update(origin, 1, gs)
    svc = RoutingService(node_id, topo, gdb, LinkIndex(LINKS), engine=engine)
    return svc


class TestFingerprint:
    def test_converged_replicas_hash_equal_despite_version_skew(self):
        db1 = TopologyDatabase()
        _fill(db1, EDGES)
        db2 = TopologyDatabase()
        _fill(db2, EDGES)
        # Replica 2 additionally processed periodic refreshes (same
        # costs, higher seqs): version counters diverge, content doesn't.
        _fill(db2, EDGES, seq=7)
        assert db2.version > db1.version
        assert db1.fingerprint == db2.fingerprint

    def test_content_change_moves_fingerprint(self):
        db = TopologyDatabase()
        _fill(db, EDGES)
        before = db.fingerprint
        db.update("b", 9, {"a": 1.0, "c": None})  # b-c down
        assert db.fingerprint != before

    def test_fingerprint_is_arrival_order_independent(self):
        db1 = TopologyDatabase()
        for origin, seq, costs in [("a", 1, {"b": 1.0}), ("b", 1, {"a": 1.0})]:
            db1.update(origin, seq, costs)
        db2 = TopologyDatabase()
        for origin, seq, costs in [("b", 3, {"a": 1.0}), ("a", 2, {"b": 1.0})]:
            db2.update(origin, seq, costs)
        assert db1.fingerprint == db2.fingerprint

    def test_group_fingerprint_tracks_membership_content(self):
        g1 = GroupDatabase()
        g1.update("a", 1, ["g"])
        g2 = GroupDatabase()
        g2.update("a", 5, ["g"])  # different seq, same content
        assert g1.fingerprint == g2.fingerprint
        g2.update("a", 6, ["g", "h"])
        assert g1.fingerprint != g2.fingerprint


class TestSharing:
    def test_converged_replicas_share_one_computation(self):
        counters = Counter()
        engine = RouteComputeEngine(counters=counters)
        svc1 = _replica(engine, "a", EDGES)
        svc2 = _replica(engine, "b", EDGES)
        assert svc1.next_hop("d") == "b"
        assert svc2.next_hop("d") == "c"
        assert counters.get("route.compute") == 1
        assert counters.get("route.hit") == 1

    def test_shared_artifacts_are_the_same_object(self):
        engine = RouteComputeEngine()
        svc1 = _replica(engine, "a", EDGES)
        svc2 = _replica(engine, "b", EDGES)
        svc1._refresh()
        svc2._refresh()
        t1 = engine.table(svc1._fingerprint, svc1._adj, "d")
        t2 = engine.table(svc2._fingerprint, svc2._adj, "d")
        assert t1 is t2

    def test_multicast_tree_shared_across_replicas(self):
        counters = Counter()
        engine = RouteComputeEngine(counters=counters)
        groups = {"c": ["g"], "d": ["g"]}
        services = [
            _replica(engine, n, EDGES, groups) for n in ("a", "b", "c", "d")
        ]
        children = {s.node_id: s.multicast_children("a", "g") for s in services}
        assert children == {"a": ["b"], "b": ["c"], "c": ["d"], "d": []}
        tree_computes = counters.get("route.compute")
        assert tree_computes == 1
        assert counters.get("route.hit") == 3

    def test_diverged_replicas_get_distinct_artifacts(self):
        counters = Counter()
        engine = RouteComputeEngine(counters=counters)
        svc1 = _replica(engine, "a", EDGES)
        # Replica 2 missed b's latest LSU: its b-record is stale.
        svc2 = _replica(
            engine, "b", EDGES, overrides={"b": {"a": 2.5, "c": 1.0}}
        )
        assert svc1.topo.fingerprint != svc2.topo.fingerprint
        svc1.next_hop("d")
        svc2.next_hop("d")
        assert counters.get("route.compute") == 2
        assert counters.get("route.hit") == 0

    def test_disjoint_and_graph_masks_ride_the_engine(self):
        counters = Counter()
        engine = RouteComputeEngine(counters=counters)
        svc1 = _replica(engine, "a", EDGES)
        svc2 = _replica(engine, "a", EDGES)
        spec = ServiceSpec(routing=ROUTING_DISJOINT, k=2)
        mask1 = svc1.source_bitmask("c", spec)
        computes = counters.get("route.compute")
        mask2 = svc2.source_bitmask("c", spec)
        assert mask1 == mask2
        assert counters.get("route.compute") == computes  # pure hit
        assert counters.get("route.hit") >= 1


class TestEviction:
    def test_eviction_under_churn_stays_correct(self):
        counters = Counter()
        engine = RouteComputeEngine(counters=counters, capacity=2)
        topo = TopologyDatabase()
        _fill(topo, EDGES)
        svc = RoutingService("a", topo, GroupDatabase(), LinkIndex(LINKS),
                             engine=engine)
        # Cycle through 3 distinct topologies repeatedly: only 2 fit.
        states = [
            {"a": 1.0, "c": 1.0},          # baseline b-record
            {"a": 1.0, "c": None},         # b-c down
            {"a": 4.0, "c": 1.0},          # a-b degraded
        ]
        expected = []
        seq = 1
        for round_ in range(3):
            for costs in states:
                seq += 1
                topo.update("b", seq, costs)
                expected.append(svc.next_hop("d"))
        assert counters.get("route.evict") > 0
        # Same churn against a huge cache gives identical decisions.
        fresh = RoutingService("a", TopologyDatabase(), GroupDatabase(),
                               LinkIndex(LINKS))
        _fill(fresh.topo, EDGES)
        seq, check = 1, []
        for round_ in range(3):
            for costs in states:
                seq += 1
                fresh.topo.update("b", seq, costs)
                check.append(fresh.next_hop("d"))
        assert expected == check

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RouteComputeEngine(capacity=0)


class TestPerNodeBehaviour:
    """Node-relative state (baselines, degraded checks) stays local even
    with a shared engine: the adaptive tests from test_adaptive_routing
    must hold unchanged when every node delegates to one engine."""

    MESH = [
        ("s", "a", 1.0), ("s", "b", 1.0), ("s", "c", 1.0),
        ("a", "m", 1.0), ("b", "m", 1.0), ("c", "n", 1.0),
        ("m", "n", 1.0), ("m", "x", 1.0), ("n", "y", 1.0),
        ("x", "t", 1.0), ("y", "t", 1.0), ("x", "y", 1.0),
    ]

    def _mesh_service(self, engine, node="s", cost_overrides=None):
        topo = TopologyDatabase()
        nodes = _fill(topo, self.MESH)
        links = [(u, v) for u, v, __ in self.MESH]
        svc = RoutingService(node, topo, GroupDatabase(), LinkIndex(links),
                             engine=engine)
        svc.adjacency()  # record baselines
        if cost_overrides:
            for origin, nbrs in nodes.items():
                updated = {
                    v: cost_overrides.get((origin, v), w)
                    for v, w in nbrs.items()
                }
                topo.update(origin, 2, updated)
        return svc

    def test_adaptive_redundancy_stays_per_node(self):
        engine = RouteComputeEngine()
        degraded = self._mesh_service(
            engine, "s", {("s", "a"): 10.0, ("a", "s"): 10.0}
        )
        adaptive = ServiceSpec(routing=ROUTING_ADAPTIVE)
        mask = degraded.source_bitmask("t", adaptive)
        edges = set(degraded.links.edges_of_mask(mask))
        assert sum(1 for e in edges if "s" in e) == 3  # fans out at s

        # A late-joining node on the same engine first hears the already
        # -degraded costs: those become its baselines, so nothing looks
        # degraded to *it* and it keeps the lean two-path graph.
        topo = TopologyDatabase()
        nodes: dict = {}
        for a, b, w in self.MESH:
            nodes.setdefault(a, {})[b] = w
            nodes.setdefault(b, {})[a] = w
        for origin, nbrs in nodes.items():
            topo.update(origin, 1, {
                v: {("s", "a"): 10.0, ("a", "s"): 10.0}.get((origin, v), w)
                for v, w in nbrs.items()
            })
        links = [(u, v) for u, v, __ in self.MESH]
        late = RoutingService("s", topo, GroupDatabase(), LinkIndex(links),
                              engine=engine)
        clean_mask = late.source_bitmask("t", adaptive)
        disjoint_mask = late.source_bitmask(
            "t", ServiceSpec(routing=ROUTING_DISJOINT, k=2)
        )
        assert clean_mask == disjoint_mask
        assert mask != clean_mask

    def test_determinism_debug_mode(self):
        """Sharing rests on deterministic computation: at
        ``sample_every=1`` the audited engine recomputes every hit fresh
        and compares it with the cached artifact (``route-consistency``)."""
        from repro.audit import AuditedRouteComputeEngine, Auditor

        auditor = Auditor(sample_every=1, register=False)
        engine = AuditedRouteComputeEngine(auditor)
        adaptive = ServiceSpec(routing=ROUTING_ADAPTIVE)
        for node in ("s", "a"):  # same content: the second node's table hits
            svc = self._mesh_service(engine, node)
            assert svc.next_hop("t") is not None
            assert svc.source_bitmask("t", adaptive)
        hits = engine.counters.as_dict()["route.hit"]
        assert hits > 0 and auditor.report.checks == hits
        assert auditor.report.ok


class TestNetworkIntegration:
    def test_engine_counters_visible_on_a_live_overlay(self):
        from tests.conftest import make_triangle_overlay

        scn = make_triangle_overlay(seed=991)
        overlay = scn.overlay
        for node in overlay.nodes.values():
            assert node.routing.engine is overlay.route_engine
        for src in overlay.nodes:
            for dst in overlay.nodes:
                if src != dst:
                    overlay.nodes[src].routing.next_hop(dst)
        counters = overlay.counters.as_dict()
        assert counters.get("route.compute", 0) > 0
        assert counters.get("route.hit", 0) > 0
        # Converged triangle: one table per destination (3 computes),
        # each shared with the other two querying nodes.
        assert counters["route.hit"] >= 3
