"""Convergence properties of the flooded-state databases: replicas that
see the same set of updates in *any* order end in the same state — the
property that makes flooding + seq numbers a sound replication scheme."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.linkstate import GroupDatabase, TopologyDatabase

ORIGINS = ["a", "b", "c", "d"]
#: Per replica kind: its class, a strategy for one origin's content,
#: and its derived views.
KINDS = {
    "topology": (
        TopologyDatabase,
        st.dictionaries(
            st.sampled_from(ORIGINS),
            st.one_of(st.none(), st.floats(min_value=0.001, max_value=1.0)),
            max_size=3,
        ),
        lambda db: [db.adjacency(), db.symmetric_adjacency()],
    ),
    "group": (
        GroupDatabase,
        st.sets(st.sampled_from(["g1", "g2", "g3"]), max_size=3),
        lambda db: [db.members_view(g) for g in ("g1", "g2", "g3")],
    ),
}


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_replica_is_order_independent(kind, data, rnd):
    cls, content, views = KINDS[kind]
    updates = data.draw(st.lists(
        st.tuples(st.sampled_from(ORIGINS), st.integers(1, 6), content),
        min_size=1, max_size=20,
        unique_by=lambda u: (u[0], u[1]),  # one payload per (origin, seq)
    ))
    shuffled = list(updates)
    rnd.shuffle(shuffled)
    replicas = []
    for order in (updates, shuffled):
        db = cls()
        for origin, seq, body in order:
            db.update(origin, seq, body)
        replicas.append(db)
    one, two = replicas
    # The same highest-seq record per origin wins either way, so the
    # fingerprint and every derived view agree.
    assert sorted(one.origins()) == sorted(two.origins())
    for origin in one.origins():
        assert (one.seq(origin), one.record(origin)) == (
            two.seq(origin), two.record(origin))
    assert one.fingerprint == two.fingerprint
    assert views(one) == views(two)


def test_overlay_replicas_converge_to_identical_databases():
    """End to end: after quiescence, every node's replica of both
    databases is byte-identical (the Sec II-B global-state claim)."""
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=1901)
    rx = scn.overlay.client("site-MIA", 7, on_message=lambda m: None)
    rx.join("mcast:conv")
    scn.internet.fail_fiber("ispA", "DEN", "CHI")
    scn.run_for(5.0)
    reference = None
    for node in scn.overlay.nodes.values():
        snapshot = {kind: {o: db.record(o) for o in db.origins()}
                    for kind, db in node.replicas.items()}
        if reference is None:
            reference = snapshot
        else:
            assert snapshot["gsu"] == reference["gsu"]
            assert set(snapshot["lsu"]) == set(reference["lsu"])
