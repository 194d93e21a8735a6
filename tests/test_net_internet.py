"""The multi-ISP Internet: carriers, delivery, multihoming, and the
slow interdomain convergence contrasted in E2/E10."""

import pytest

from repro.net.internet import NATIVE, Internet
from repro.net.loss import BernoulliLoss
from repro.net.topologies import continental_internet, line_internet, triangle_internet
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry


def _mini_internet(sim, rngs, native_delay=40.0):
    """Two ISPs, two cities each, hosts multihomed at both cities."""
    inet = Internet(sim, rngs, native_convergence_delay=native_delay)
    for isp in ("A", "B"):
        domain = inet.add_isp(isp, convergence_delay=5.0)
        domain.add_link("east", "west", 0.020)
    inet.add_peering("A", "east", "B", "east")
    inet.add_peering("A", "west", "B", "west")
    for city in ("east", "west"):
        inet.add_host(f"h-{city}", access_delay=0.0)
        inet.attach(f"h-{city}", "A", city)
        inet.attach(f"h-{city}", "B", city)
    return inet


def test_carriers_shared_isps_then_native(sim, rngs):
    inet = _mini_internet(sim, rngs)
    assert inet.carriers("h-east", "h-west") == ["A", "B", NATIVE]


def test_reserved_isp_name(sim, rngs):
    inet = Internet(sim, rngs)
    with pytest.raises(ValueError):
        inet.add_isp(NATIVE)


def test_duplicate_isp_and_host_rejected(sim, rngs):
    inet = Internet(sim, rngs)
    inet.add_isp("A")
    with pytest.raises(ValueError):
        inet.add_isp("A")
    inet.add_host("h")
    with pytest.raises(ValueError):
        inet.add_host("h")


def test_on_net_delivery_delay(sim, rngs):
    inet = _mini_internet(sim, rngs)
    arrivals = []
    inet.send("h-east", "h-west", None, 100, "A", lambda d: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.020)]


def test_unshared_carrier_rejected(sim, rngs):
    inet = _mini_internet(sim, rngs)
    inet.add_host("lonely", access_delay=0.0)
    inet.attach("lonely", "A", "east")
    with pytest.raises(ValueError):
        inet.send("lonely", "h-west", None, 10, "B", lambda d: None)


def test_native_path_crosses_peering_if_needed(sim, rngs):
    inet = _mini_internet(sim, rngs)
    route = inet.current_route("h-east", "h-west", NATIVE)
    assert route is not None
    assert route[0] == ("A", "east")


def test_native_reconverges_slowly(sim, rngs):
    inet = _mini_internet(sim, rngs, native_delay=40.0)
    inet.native  # force build
    drops, arrivals = [], []

    def probe():
        inet.send(
            "h-east", "h-west", None, 10, NATIVE,
            lambda d: arrivals.append(sim.now),
            lambda d, r: drops.append(sim.now),
        )

    for i in range(100):
        sim.schedule_at(i * 1.0, probe)
    sim.schedule_at(5.5, lambda: inet.fail_fiber("A", "east", "west"))
    sim.run(until=99.5)
    # Probes die from t=6 until interdomain convergence at ~45.5 s, then
    # recover via ISP B's fiber (through a peering point).
    assert drops, "no drops observed during the outage"
    assert min(drops) >= 5.9
    recovery = min(t for t in arrivals if t > 6.0)
    assert 45.0 < recovery < 48.0


def test_fiber_route_lists_shared_fibers(sim, rngs):
    inet = _mini_internet(sim, rngs)
    fibers_a = inet.fiber_route("h-east", "h-west", "A")
    fibers_b = inet.fiber_route("h-east", "h-west", "B")
    assert len(fibers_a) == 1 and len(fibers_b) == 1
    assert fibers_a[0] is not fibers_b[0], "carriers must use disjoint fiber"


def test_set_isp_loss_applies_fresh_models(sim, rngs):
    inet = _mini_internet(sim, rngs)
    inet.set_isp_loss("A", lambda: BernoulliLoss(1.0))
    drops = []
    inet.send("h-east", "h-west", None, 10, "A", lambda d: None,
              lambda d, r: drops.append(r))
    sim.run()
    assert drops == ["link-loss"]


def test_continental_internet_builds(sim, rngs):
    inet = continental_internet(sim, rngs)
    assert set(inet.isps) == {"ispA", "ispB"}
    assert "site-NYC" in inet.hosts
    assert inet.carriers("site-NYC", "site-LAX") == ["ispA", "ispB", NATIVE]
    route = inet.current_route("site-NYC", "site-LAX", "ispA")
    assert route[0] == "NYC" and route[-1] == "LAX"


def test_continental_three_isps(sim, rngs):
    inet = continental_internet(sim, rngs, isps=["ispA", "ispB", "ispC"])
    assert len(inet.carriers("site-NYC", "site-LAX")) == 4


def test_line_internet_end_to_end_delay(sim, rngs):
    inet = line_internet(sim, rngs, n_hops=5, hop_delay=0.010)
    arrivals = []
    inet.send("h0", "h5", None, 10, "line", lambda d: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.050)]


def test_triangle_internet(sim, rngs):
    inet = triangle_internet(sim, rngs)
    assert inet.current_route("hx", "hz", "tri") == ["x", "z"]


def test_counters_track_sends_and_drops(sim, rngs):
    inet = _mini_internet(sim, rngs)
    inet.send("h-east", "h-west", None, 10, "A", lambda d: None)
    sim.run()
    assert inet.counters.get("datagrams-sent") == 1
    assert inet.counters.get("datagrams-delivered") == 1


@pytest.mark.parametrize("tier", ["exact", "batched"])
def test_rebuilt_native_domain_never_serves_the_old_domains_profiles(tier):
    """The transit-profile cache is stamped with ``tables_epoch`` and
    used to be keyed on ``id(domain)``: the native domain is dropped and
    rebuilt on ``add_peering``, CPython hands the dead one's address to
    the next allocation of its size, and one reconvergence on the old
    domain plus one more fiber in the new one make the epochs equal —
    the old profile, made of the old route's fibers, was served for the
    new domain. Both tiers read the cache in the one settle step,
    :meth:`Internet._transit`; the batched tier only rounds its
    landing."""
    sim = Simulator()
    inet = Internet(sim, RngRegistry(1), native_convergence_delay=0.5)
    if tier == "batched":
        inet.enable_vectorized(0.00025)
    for isp in ("A", "B"):
        domain = inet.add_isp(isp)
        for i in range(3):
            domain.add_link(f"r{i}", f"r{i + 1}", 0.010)
    inet.add_peering("A", "r3", "B", "r3")
    inet.add_host("src", access_delay=0.0)
    inet.add_host("dst", access_delay=0.0)
    inet.attach("src", "A", "r0")
    inet.attach("dst", "B", "r0")
    arrived = []

    def send():
        # The channel is fetched per send: add_peering invalidates it.
        inet.send_via(inet.channel("src", "dst", NATIVE), None, 10,
                      lambda d: arrived.append(sim.now - d.sent_at))

    sim.schedule_at(0.1, send)
    sim.run(until=1.0)
    inet.native.notify_topology_changed()  # epoch + 1 on the old domain
    sim.schedule_at(1.6, send)  # ... and a profile stamped with it
    sim.run(until=2.0)
    old_epoch = inet.native.tables_epoch
    shortcut = inet.add_peering("A", "r1", "B", "r1")  # drops the domain
    assert inet.native.tables_epoch == old_epoch
    sim.schedule_at(2.1, send)
    sim.run(until=3.0)
    # Seven fibers the long way round, three through the new peering.
    assert arrived == [pytest.approx(0.0602, abs=0.001)] * 2 \
        + [pytest.approx(0.0202, abs=0.001)]
    assert shortcut.packets_carried == 1
    live = inet.native
    served = [profile for (domain, __, __), (epoch, profile)
              in inet._path_cache.items()
              if domain is live and epoch == live.tables_epoch]
    assert served
    for profile in served:
        assert set(profile.links) <= set(live.links())


def test_new_access_delay_reaches_held_channels(sim, rngs):
    """A channel caches both ends' access delays: changing a host's
    re-resolves every channel, so ``send_via`` and ``send`` (which is
    ``send_via`` over a cached channel) both pay the new delay."""
    inet = Internet(sim, rngs)
    domain = inet.add_isp("line")
    for i in range(3):
        domain.add_link(f"r{i}", f"r{i + 1}", 0.010)
    for host, router in (("a", "r0"), ("b", "r3")):
        inet.add_host(host, access_delay=0.0)
        inet.attach(host, "line", router)
    arrivals = []
    inet.send_via(inet.channel("a", "b", "line"), None, 100,
                  lambda d: arrivals.append(sim.now))
    sim.run(until=1.0)
    generation = inet.channel_gen
    inet.hosts["a"].access_delay = 0.005
    inet.send_via(inet.channel("a", "b", "line"), None, 100,
                  lambda d: arrivals.append(sim.now))
    inet.send("a", "b", None, 100, "line", lambda d: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [pytest.approx(0.030), pytest.approx(1.035),
                        pytest.approx(1.035)]
    # Held channels (an overlay link's) are re-fetched on a new generation.
    assert inet.channel_gen == generation + 1
