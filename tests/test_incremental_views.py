"""Differential tests of the incremental link-state -> route path.

The topology replica patches its adjacency / reverse views row by row,
next-hop tables settle only as far as they are asked, and the routing
service folds cost baselines from changed rows only. Each is held here
against the code it replaced — the whole-graph rebuild, the finished
Dijkstra table, the full baseline scan — kept verbatim below as the
oracle, in content **and in key order** (Dijkstra's tie-breaks follow
dict order, so order is behaviour). The baselines, whose order nothing
reads, are held in content only.
"""

from __future__ import annotations

import copy
import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.alg.dijkstra import next_hops
from repro.core.compute import NextHopTable, RouteComputeEngine
from repro.core.linkstate import (
    GroupDatabase,
    TopologyDatabase,
    content_digest,
)
from repro.core.routing import LinkIndex, RoutingService
from repro.sim.trace import Counter

# ----------------------------------------------------------------- oracles
# The parent commit's implementations, verbatim (minus docstrings).


class OracleTopologyDatabase:
    def __init__(self) -> None:
        self._records: dict = {}
        self.version = 0
        self.fingerprint = 0
        self._parts: dict = {}

    def update(self, origin, seq, neighbor_costs) -> bool:
        current = self._records.get(origin)
        if current is not None and current[0] >= seq:
            return False
        costs = dict(neighbor_costs)
        self._records[origin] = (seq, costs)
        self.version += 1
        part = content_digest((origin, tuple(sorted(costs.items()))))
        self.fingerprint ^= self._parts.get(origin, 0) ^ part
        self._parts[origin] = part
        return True

    def seq(self, origin) -> int:
        entry = self._records.get(origin)
        return entry[0] if entry else 0

    def adjacency(self) -> dict:
        adj: dict = {}
        for origin in sorted(self._records):
            __, nbrs = self._records[origin]
            adj[origin] = {
                v: nbrs[v] for v in sorted(nbrs) if nbrs[v] is not None
            }
        return adj

    def symmetric_adjacency(self) -> dict:
        adj = self.adjacency()
        sym: dict = {u: {} for u in adj}
        for u, nbrs in adj.items():
            for v, w in nbrs.items():
                if u in adj.get(v, {}):
                    sym[u][v] = w
        return sym

    def load_state(self, records, version) -> None:
        for origin, (seq, costs) in records.items():
            self.update(origin, seq, costs)
        self.version = version


def oracle_dijkstra(adj, src):
    if src not in adj:
        return {src: 0.0}, {}
    dist = {src: 0.0}
    prev: dict = {}
    done: set = set()
    heap = [(0.0, 0, src)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, {}).items():
            if w < 0:
                raise ValueError(f"negative edge weight {w} on ({u!r}, {v!r})")
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return dist, prev


def oracle_reversed(adj) -> dict:
    reversed_adj: dict = {u: {} for u in adj}
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            reversed_adj.setdefault(v, {})[u] = w
    return reversed_adj


def oracle_next_hops(adj, dst) -> dict:
    __, prev = oracle_dijkstra(oracle_reversed(adj), dst)
    table: dict = {}
    for node in prev:
        table[node] = prev[node]
    return table


def oracle_baselines(baselines: dict, adj) -> None:
    for u, nbrs in adj.items():
        for v, cost in nbrs.items():
            key = (u, v)
            best = baselines.get(key)
            if best is None or cost < best:
                baselines[key] = cost


def ordered(graph) -> list:
    """A two-level mapping with both key orders made comparable."""
    return [(u, list(row.items())) for u, row in graph.items()]


# -------------------------------------------------------------- strategies

NODES = [f"n{i}" for i in range(7)]
#: Few distinct costs, so content often returns to an earlier value and
#: equal-cost ties are common; 0.0 gives zero-weight ties.
COSTS = st.sampled_from([None, 0.0, 0.5, 1.0, 1.0, 2.5])
RECORDS = st.dictionaries(st.sampled_from(NODES + ["ghost"]), COSTS, max_size=5)
#: (origin, seq step, record or None): a step of 0 is a duplicate, a
#: negative one stale; ``None`` re-announces the origin's stored content
#: under a higher seq — the periodic refresh.
UPDATES = st.lists(
    st.tuples(st.sampled_from(NODES), st.integers(-1, 2),
              st.one_of(st.none(), RECORDS), st.booleans()),
    max_size=40,
)


#: Both replica kinds: the class, a content, the same content reordered
#: and retyped (a refresh), a different content, and a derived view.
REPLICAS = {
    "topology": (TopologyDatabase, {"b": 1.0, "c": None},
                 {"c": None, "b": 1.0}, {"b": 2.0},
                 TopologyDatabase.adjacency),
    "group": (GroupDatabase, ["g", "h"], ("h", "g"), ["h"],
              lambda db: db.members_view("g")),
}


def _drive(updates, check, replicas=None):
    """Feed ``updates`` to a replica and to the oracle (fresh ones
    unless given); ``check`` runs wherever the flag says the views are
    read, and at the end."""
    db, oracle = replicas or (TopologyDatabase(), OracleTopologyDatabase())
    for origin, step, record, read in updates:
        seq = max(oracle.seq(origin) + step, 0)
        if record is None:
            stored = oracle._records.get(origin)
            record = dict(stored[1]) if stored else {}
        assert db.update(origin, seq, record) == oracle.update(origin, seq, record)
        assert (db.fingerprint, db.version, db.seq(origin)) == (
            oracle.fingerprint, oracle.version, oracle.seq(origin))
        if read:
            check(db, oracle)
    check(db, oracle)
    return db, oracle


def _views_match(db, oracle) -> None:
    adj = oracle.adjacency()
    assert ordered(db.adjacency()) == ordered(adj)
    assert ordered(db.reverse_adjacency()) == ordered(oracle_reversed(adj))
    assert ordered(db.symmetric_adjacency()) == ordered(
        oracle.symmetric_adjacency())


# ------------------------------------------------------- topology replicas


class TestPatchedViews:
    @given(UPDATES)
    @settings(max_examples=300, deadline=None)
    def test_views_equal_the_rebuild_in_content_and_order(self, updates):
        _drive(updates, _views_match)

    @given(UPDATES)
    @settings(max_examples=150, deadline=None)
    def test_views_handed_out_earlier_never_change(self, updates):
        handed: list = []

        def check(db, oracle):
            for view in (db.adjacency(), db.reverse_adjacency(),
                         db.symmetric_adjacency()):
                handed.append((view, copy.deepcopy(ordered(view))))

        _drive(updates, check)
        for view, snapshot in handed:
            assert ordered(view) == snapshot

    @given(UPDATES, UPDATES)
    @settings(max_examples=100, deadline=None)
    def test_load_state_then_updates(self, before, after):
        """A replica restored from a snapshot (aliased record dicts, the
        bulk reverse build) keeps matching the oracle through later
        updates."""
        source, __ = _drive(before, lambda db, oracle: None)
        db, oracle = TopologyDatabase(), OracleTopologyDatabase()
        db.load_state(source.export_state(), source.version)
        oracle.load_state(source.export_state(), source.version)
        assert (db.fingerprint, db.version) == (oracle.fingerprint, oracle.version)
        _views_match(db, oracle)
        _drive(after, _views_match, (db, oracle))

    def test_untouched_rows_keep_their_identity(self):
        db = TopologyDatabase()
        for origin in NODES:
            db.update(origin, 1, {n: 1.0 for n in NODES if n != origin})
        first, first_rev = db.adjacency(), db.reverse_adjacency()
        db.update("n3", 2, {"n0": 2.0})
        second, second_rev = db.adjacency(), db.reverse_adjacency()
        assert second is not first and second_rev is not first_rev
        assert [u for u in NODES if second[u] is not first[u]] == ["n3"]
        # Only the rows n3 points (or pointed) at moved in the reverse view.
        assert [v for v in NODES if second_rev[v] is not first_rev[v]] == [
            n for n in NODES if n != "n3"]
        db.update("n5", 2, dict(db.record("n5")))  # a refresh
        assert db.adjacency() is second and db.reverse_adjacency() is second_rev

    def test_refresh_computes_no_digest(self, monkeypatch):
        """A refresh — the stored content again, reordered or retyped —
        advances seq and ``version`` only: no digest, same fingerprint,
        the same view object, for both kinds of replica."""
        import repro.core.linkstate as linkstate

        replicas = []
        for cls, content, refresh, __, view in REPLICAS.values():
            db = cls()
            db.update("a", 1, content)
            replicas.append((db, refresh, view, view(db), db.fingerprint))
        calls: list = []
        monkeypatch.setattr(linkstate, "content_digest",
                            lambda payload: calls.append(payload) or 0)
        for db, refresh, view, before, fingerprint in replicas:
            assert db.update("a", 2, refresh)
            assert db.update("a", 3, db.record("a"))  # the flood's resend
            assert (db.fingerprint, db.version, db.seq("a")) == (
                fingerprint, 3, 3)
            assert view(db) is before
        assert not calls

    @given(st.lists(st.tuples(st.sampled_from(NODES), st.integers(-1, 2),
                              st.frozensets(st.sampled_from("ghk"))),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_group_replica_matches_the_parent_logic(self, updates):
        db = GroupDatabase()
        records: dict = {}
        version = fingerprint = 0
        for origin, step, groups in updates:
            seq = max(db.seq(origin) + step, 0)
            accepted = origin not in records or records[origin][0] < seq
            assert db.update(origin, seq, sorted(groups)) == accepted
            if accepted:
                records[origin] = (seq, groups)
                version += 1
            fingerprint = 0
            for o, (__, gs) in records.items():
                fingerprint ^= content_digest((o, tuple(sorted(gs))))
            assert (db.fingerprint, db.version) == (fingerprint, version)
            for group in "ghk":
                assert db.members_view(group) == tuple(sorted(
                    o for o, (__, gs) in records.items() if group in gs))


@pytest.mark.parametrize("kind", REPLICAS)
class TestReplicaContract:
    """What the shared-state base promises, held once for both kinds
    (the refresh is held above, in ``test_refresh_computes_no_digest``)."""

    def test_a_stale_seq_is_ignored(self, kind):
        cls, content, __, other, view = REPLICAS[kind]
        db = cls()
        assert db.update("a", 2, content)
        before = (db.fingerprint, db.version, view(db))
        assert not db.update("a", 2, other)  # a duplicate seq
        assert not db.update("a", 1, other)  # a stale one
        assert (db.seq("a"), db.record("a")) == (2, cls.record_type("a", content))
        assert (db.fingerprint, db.version) == before[:2]
        assert view(db) is before[2]

    def test_new_content_moves_the_fingerprint(self, kind):
        cls, content, __, other, view = REPLICAS[kind]
        db = cls()
        db.update("a", 1, content)
        fingerprint, first = db.fingerprint, view(db)
        assert db.update("a", 2, other)
        assert db.fingerprint != fingerprint and view(db) != first
        assert db.update("a", 3, content)  # back again: XOR restores it
        assert db.fingerprint == fingerprint and view(db) == first

    def test_load_state_reproduces_fingerprint_and_views(self, kind):
        cls, content, __, other, view = REPLICAS[kind]
        db = cls()
        db.update("b", 1, other)
        db.update("a", 4, content)
        loaded = cls()
        loaded.load_state(db.export_state(), db.version)
        assert (loaded.fingerprint, loaded.version) == (db.fingerprint, 2)
        assert loaded.origins() == db.origins() == ["b", "a"]
        assert [loaded.seq(o) for o in "ab"] == [4, 1]
        assert view(loaded) == view(db)
        assert loaded.record("a") == db.record("a")


# ------------------------------------------------------------- lazy tables

GRAPHS = st.dictionaries(
    st.sampled_from(NODES),
    st.dictionaries(st.sampled_from(NODES + ["ghost"]),
                    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5]), max_size=4),
    max_size=7,
)


class TestLazyTables:
    @given(GRAPHS, st.sampled_from(NODES + ["ghost", "nowhere"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_every_answer_equals_the_finished_table(self, adj, dst, rng):
        """Unreachable nodes, a ``dst`` without a row, zero-weight ties
        and asymmetric weights included: whatever order the entries are
        asked in, each equals the parent's full table."""
        full = oracle_next_hops(adj, dst)
        assert dict(next_hops(adj, dst)) == full
        assert list(next_hops(adj, dst)) == list(full)
        counters = Counter()
        table = NextHopTable(adj, dst, counters)
        queries = NODES + ["ghost", "nowhere"]
        rng.shuffle(queries)
        for node in queries:
            assert table.get(node) == full.get(node), (node, queries)
        assert counters.get("route.settled") <= len(oracle_reversed(adj)) + 1

    @given(GRAPHS, st.sampled_from(NODES), st.sampled_from(NODES))
    @settings(max_examples=150, deadline=None)
    def test_equality_compares_whole_tables(self, adj, dst, asked):
        full = oracle_next_hops(adj, dst)
        paused = NextHopTable(adj, dst, Counter())
        paused.get(asked)
        assert paused == NextHopTable(adj, dst, Counter())
        assert paused == full and full == dict(paused)
        assert len(paused) == len(full)
        other = dict(full)
        other["n0"] = "elsewhere"
        assert paused != other

    def test_a_lookup_settles_only_as_far_as_asked(self):
        chain = {f"c{i}": {f"c{i + 1}": 1.0} for i in range(9)}
        chain["c9"] = {}
        counters = Counter()
        engine = RouteComputeEngine(counters=counters)
        table = engine.table(1, chain, "c9")
        assert counters.get("route.settled") == 0  # nothing asked yet
        assert table.get("c7") == "c8"
        assert counters.get("route.settled") == 3  # c9, c8, c7
        assert engine.table(1, chain, "c9").get("c8") == "c9"
        assert counters.get("route.settled") == 3  # already final
        assert table["c0"] == "c1" and "c9" not in table
        assert counters.get("route.settled") == 10
        assert (counters.get("route.compute"), counters.get("route.hit")) == (1, 1)

    @given(UPDATES, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_tables_opened_on_the_patched_reverse_view(self, updates, rng):
        """End to end: a table opened on an earlier fingerprint's view
        and finished after the replica moved on still answers for the
        graph it was opened on."""
        opened: list = []

        def check(db, oracle):
            dst = rng.choice(NODES)
            table = NextHopTable(db.adjacency(), dst, Counter(),
                                 db.reverse_adjacency)
            table.get(rng.choice(NODES))
            opened.append((table, oracle_next_hops(oracle.adjacency(), dst)))

        _drive(updates, check)
        for table, full in opened:
            assert table == full


# --------------------------------------------------------------- baselines

MESH = [
    ("s", "a", 1.0), ("s", "b", 1.0), ("s", "c", 1.0),
    ("a", "m", 1.0), ("b", "m", 1.0), ("c", "n", 1.0),
    ("m", "n", 1.0), ("m", "x", 1.0), ("n", "y", 1.0),
    ("x", "t", 1.0), ("y", "t", 1.0), ("x", "y", 1.0),
]


class TestBaselines:
    @given(st.lists(
        st.tuples(st.integers(0, len(MESH) - 1),
                  st.sampled_from([None, 0.5, 1.0, 2.0, 10.0]),
                  st.booleans(), st.booleans()),
        max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_changed_row_fold_equals_the_full_scan(self, steps):
        """Random degradations / repairs / outages of ``test_adaptive_
        routing``'s mesh, one or both directions, refreshing the service
        at random points: the baselines, flattened to ``{(u, v): best}``,
        and the degraded-link verdicts equal the full rescan's. (Their
        order is unobservable: ``_degraded_at`` returns a boolean.) No
        fold ever writes into an adjacency row a baseline aliases."""
        nodes: dict = {}
        for a, b, w in MESH:
            nodes.setdefault(a, {})[b] = w
            nodes.setdefault(b, {})[a] = w
        topo = TopologyDatabase()
        for origin, nbrs in nodes.items():
            topo.update(origin, 1, nbrs)
        svc = RoutingService("s", topo, GroupDatabase(),
                             LinkIndex([(u, v) for u, v, __ in MESH]))
        expected: dict = {}
        rows_read: list = []
        seq = 1

        def look():
            svc.adjacency()
            oracle_baselines(expected, topo.adjacency())
            assert {(u, v): best
                    for u, row in svc._cost_baselines.items()
                    for v, best in row.items()} == expected
            rows_read.extend((row, dict(row))
                             for row in topo.adjacency().values())
            assert all(dict(row) == content for row, content in rows_read)

        look()
        for edge, cost, both, refresh in steps:
            a, b, __ = MESH[edge]
            seq += 1
            for u, v in ((a, b), (b, a)) if both else ((a, b),):
                nodes[u][v] = cost
                topo.update(u, seq, nodes[u])
            if refresh:
                look()
        look()
        for node in nodes:
            reported = topo.adjacency().get(node, {})
            verdict = any(
                u == node and (reported.get(v) is None
                               or reported[v] > 1.5 * best)
                for (u, v), best in expected.items())
            assert svc._degraded_at(node) == verdict


def test_random_seeded_churn_matches_the_oracle_end_to_end():
    """One long deterministic run (no shrinking budget): 2000 updates on
    a 30-node ring with chords, every replica read compared."""
    rng = random.Random(1707)
    names = [f"r{i:02d}" for i in range(30)]
    links = {n: [names[(i + d) % 30] for d in (1, -1, 7, -7)]
             for i, n in enumerate(names)}
    db, oracle = TopologyDatabase(), OracleTopologyDatabase()
    engine = RouteComputeEngine()
    order = names[:]
    rng.shuffle(order)
    for origin in order:  # records arrive out of sorted order
        record = {v: 1.0 + rng.randrange(3) for v in links[origin]}
        for replica in (db, oracle):
            replica.update(origin, 1, record)
        _views_match(db, oracle)
    for step in range(2000):
        origin = rng.choice(names)
        record = dict(oracle._records[origin][1])
        if rng.random() < 0.6:
            record[rng.choice(links[origin])] = rng.choice([None, 1.0, 2.0, 3.0])
        seq = oracle.seq(origin) + 1
        assert db.update(origin, seq, record) == oracle.update(origin, seq, record)
        assert db.fingerprint == oracle.fingerprint
        if step % 3 == 0:
            _views_match(db, oracle)
            dst, asker = rng.choice(names), rng.choice(names)
            table = engine.table(db.fingerprint, db.adjacency(), dst,
                                 db.reverse_adjacency)
            assert table.get(asker) == oracle_next_hops(
                oracle.adjacency(), dst).get(asker)
