"""Overlay link monitoring: hellos, failure detection, carrier switching."""

import pytest

from repro.core.config import OverlayConfig
from repro.core.link import advertised_cost
from repro.net.loss import ScheduledOutages
from tests.conftest import make_two_node_line


def _only_link(node):
    return next(iter(node.links.values()))


def test_links_come_up_after_hellos():
    scn = make_two_node_line(seed=1)
    for node in scn.overlay.nodes.values():
        for link in node.links.values():
            assert link.up


def test_latency_estimate_converges_to_hop_delay():
    scn = make_two_node_line(seed=1, hop_delay=0.010)
    link = _only_link(scn.overlay.nodes["h0"])
    assert link.latency_est == pytest.approx(0.010, abs=0.001)


def test_cost_reflects_loss_penalty():
    lossless = make_two_node_line(seed=1)
    lossy = make_two_node_line(seed=1, loss_rate=0.2, config=OverlayConfig())
    lossy.run_for(10.0)
    clean_cost = _only_link(lossless.overlay.nodes["h0"]).cost()
    lossy_cost = _only_link(lossy.overlay.nodes["h0"]).cost()
    assert lossy_cost > 1.5 * clean_cost


def test_advertised_cost_is_on_the_microsecond_grid():
    """Costs are advertised in whole microseconds (still in seconds):
    within half a microsecond of latency x (1 + factor x loss), and
    what ``OverlayLink.cost()`` returns. Warm start builds its records
    with the same function; restoring its raw formula fails
    ``tests/test_warmstart.py::test_constructed_equals_organic_state``."""
    config = OverlayConfig()
    for latency in (0.0, 1e-7, 0.0085, 0.009000000000000003, 0.0123456789,
                    0.25):
        for loss in (0.0, 0.001, 0.2, 1.0):
            cost = advertised_cost(latency, loss, config)
            raw = latency * (1.0 + config.loss_cost_factor * loss)
            assert abs(cost - raw) <= 0.5e-6 + 1e-15
            assert cost == round(cost * 1e6) / 1e6
    # Float noise in an estimate does not reach the record.
    assert (advertised_cost(0.009000000000000003, 0.0, config)
            == advertised_cost(0.00899999999999955, 0.0, config) == 0.009)
    scn = make_two_node_line(seed=4, loss_rate=0.05)
    scn.run_for(10.0)
    link = _only_link(scn.overlay.nodes["h0"])
    assert link.loss_est > 0.0
    assert link.cost() == advertised_cost(link.latency_est, link.loss_est,
                                          scn.overlay.config)


def test_down_detection_within_subsecond(sim=None):
    scn = make_two_node_line(seed=2)
    link = _only_link(scn.overlay.nodes["h0"])
    assert link.up
    scn.internet.isps["line"].fail_link("r0", "r1")
    fail_time = scn.sim.now
    scn.run_for(2.0)
    assert not link.up
    # Detection = miss_threshold * hello_interval + one check tick.
    config = scn.overlay.config
    budget = config.hello_interval * (config.miss_threshold + 2)
    # The link flipped down within the sub-second budget.
    down_counter = scn.overlay.counters.get("link-down")
    assert down_counter >= 2  # both sides noticed
    assert budget < 1.0


def test_link_recovers_after_repair():
    scn = make_two_node_line(seed=3)
    domain = scn.internet.isps["line"]
    link = _only_link(scn.overlay.nodes["h0"])
    domain.fail_link("r0", "r1")
    scn.run_for(2.0)
    assert not link.up
    domain.repair_link("r0", "r1")
    scn.run_for(domain.convergence_delay + 2.0)
    assert link.up


def test_no_carrier_switch_with_single_carrier():
    from repro.core.network import OverlayNetwork
    from repro.net.topologies import line_internet
    from repro.sim.events import Simulator
    from repro.sim.rng import RngRegistry

    sim = Simulator()
    rngs = RngRegistry(4)
    internet = line_internet(sim, rngs, n_hops=1)
    overlay = OverlayNetwork(
        internet, ["h0", "h1"], [("h0", "h1")],
        carriers={frozenset(("h0", "h1")): ["line"]},
    )
    overlay.warm_up(2.0)
    domain = internet.isps["line"]
    link = _only_link(overlay.nodes["h0"])
    domain.fail_link("r0", "r1")
    sim.run(until=sim.now + 5.0)
    assert link.switch_count == 0  # nothing to switch to


def test_switching_to_native_on_shared_fiber_does_not_help():
    """The line's native carrier rides the same fiber, so carrier
    switching alone cannot revive the link — only underlay repair can."""
    scn = make_two_node_line(seed=4)
    domain = scn.internet.isps["line"]
    link = _only_link(scn.overlay.nodes["h0"])
    domain.fail_link("r0", "r1")
    scn.run_for(5.0)
    assert link.switch_count >= 1
    assert not link.up


def test_carrier_switch_on_persistent_outage():
    """Multihoming: when the current carrier dies, hellos move to the
    next one and the link comes back without the underlay healing."""
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=5)
    node = scn.overlay.nodes["site-NYC"]
    link = node.links["site-WAS"]
    assert link.carrier == "ispA"
    # Kill ispA's NYC-WAS fiber; ispA reconverges only after 10 s, but
    # the overlay link should hop to ispB's on-net path much sooner.
    scn.internet.fail_fiber("ispA", "NYC", "WAS")
    scn.run_for(5.0)
    assert link.switch_count >= 1
    assert link.up
    assert link.carrier != "ispA" or scn.sim.now > 100  # switched


def test_carriers_validated_at_construction():
    import pytest
    from repro.core.link import OverlayLink
    from repro.sim.events import Simulator

    with pytest.raises(ValueError):
        OverlayLink(
            Simulator(), None, "a", "a", "b", "b", [], 0,
            OverlayConfig(), lambda link: None,
        )


def test_transmit_without_wiring_raises():
    import pytest
    from repro.core.link import OverlayLink
    from repro.core.message import Frame
    from repro.sim.events import Simulator

    link = OverlayLink(
        Simulator(), None, "a", "a", "b", "b", ["x"], 0,
        OverlayConfig(), lambda link: None,
    )
    with pytest.raises(RuntimeError):
        link.transmit(Frame(proto="control", ftype="hello", src_node="a", dst_node="b"))


# ------------------------------------------------- one tick per link

def _line_overlay():
    """A fresh, unstarted two-node line overlay."""
    from repro.core.network import OverlayNetwork
    from repro.net.topologies import line_internet
    from repro.sim.events import Simulator
    from repro.sim.rng import RngRegistry

    internet = line_internet(Simulator(), RngRegistry(1), n_hops=1)
    return OverlayNetwork(internet, ["h0", "h1"], [("h0", "h1")])


def test_a_started_overlay_arms_one_timer_per_link_endpoint():
    """The silence check rides the hello tick: a link endpoint owns one
    periodic timer, a node its refresh and metric cadences."""
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=5, warmup=0.0)
    nodes = scn.overlay.nodes.values()
    timers = [event for event, live in scn.sim.iter_queued()
              if live and event.periodic and event.auto]
    ends = sum(len(node.links) for node in nodes)
    assert len(timers) == ends + 2 * len(nodes)
    assert {id(link._hello_timer) for node in nodes
            for link in node.links.values()} <= {id(t) for t in timers}


def test_first_tick_does_not_switch_a_multihomed_carrier():
    """At a link's first tick nothing has been heard yet; a silence
    check there would blindly rotate every multihomed link's carrier."""
    from repro.analysis.scenarios import continental_scenario

    scn = continental_scenario(seed=5, warmup=0.0)
    links = [link for node in scn.overlay.nodes.values()
             for link in node.links.values()]
    assert all(link._hello_timer.fired == 1 for link in links)
    assert any(len(link.carriers) > 1 for link in links)
    assert [link.switch_count for link in links] == [0] * len(links)
    assert all(link.carrier_idx == 0 for link in links)


def test_link_goes_down_at_the_two_timer_instant():
    """Cut the line's fiber at t=2: both ends flip down at the instant
    the separate check timer flipped them (measured on that code)."""
    scn = make_two_node_line(seed=2)
    downs = []
    for node in scn.overlay.nodes.values():
        link = _only_link(node)
        notify = link.on_state_change

        def watch(link, notify=notify):
            downs.append((link.node_id, link.up, scn.sim.now))
            notify(link)

        link.on_state_change = watch
    assert scn.sim.now == 2.0
    scn.internet.isps["line"].fail_link("r0", "r1")
    scn.run_for(2.0)
    assert sorted(downs) == [("h0", False, 2.3000000000000007),
                             ("h1", False, 2.3000000000000007)]


def test_a_two_timer_snapshot_is_never_restored(tmp_path):
    """A format-1 payload, whose links carry a ``check`` timer beside
    the hello timer, is a store miss, and ``restore`` refuses it."""
    from repro.core.warmstart import (
        SnapshotStore,
        WarmStartError,
        capture,
        restore,
    )

    organic = _line_overlay()
    organic.warm_up(2.0)
    payload = capture(organic)
    legacy = {**payload, "format": 1, "timers": payload["timers"] + [
        {**entry, "kind": "check"} for entry in payload["timers"]
        if entry["kind"] == "hello"]}
    store = SnapshotStore(tmp_path)
    store.save("legacy", legacy)
    store.save("current", payload)
    assert store.load("legacy") is None
    assert store.load("current") == payload
    with pytest.raises(WarmStartError, match="format"):
        restore(_line_overlay(), legacy)
    restore(_line_overlay(), payload)
