"""Differential tests of the hello lane.

An overlay link's per-carrier hello (Sec II-A) over a quiet transit —
every fiber crossing on it decided to pass at the send — is one underlay
event and nothing else: no frame, no datagram, no receive dispatch
(``Internet.send_hello``). Everything else — a transit that is not
quiet, a signer, a receiver with a keystore or an adversary behaviour, a
hello in flight when the underlay changes — gets the frame it would
always have had. Each scenario here runs twice:
once as built, and once with every hello forced down the frame path
(each endpoint's ``hello_to_peer`` unwired by monkeypatch), and the two
must agree at every checkpoint on client deliveries, internet and
overlay counters, every fiber's carried totals, every endpoint's warm
state, and the simulator's event count and seq allocator.
"""

from __future__ import annotations

import pytest

from repro.analysis.workloads import CbrSource
from repro.audit import Auditor, assert_identical
from repro.audit.invariants import check_datagram_conservation
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, NoLoss
from repro.security.adversary import NodeBehavior
from repro.security.crypto import KeyStore
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

N = 12
#: Host access delay on the lossy mesh.
ACCESS = 0.0005
WARMUP = 2.0
CHECKPOINTS = 12
STEP = 0.15


class _HelloFilter(NodeBehavior):
    """Swallows every third hello a node receives from one neighbour,
    so the frame a lane hello becomes at such a receiver is read."""

    def __init__(self, victim: str) -> None:
        self.victim = victim

    def on_receive_frame(self, node, frame) -> bool:
        return not (frame.ftype == "hello" and frame.src_node == self.victim
                    and frame.info["seq"] % 3 == 0)


def _burst() -> GilbertElliottLoss:
    return GilbertElliottLoss(mean_good=0.4, mean_bad=0.05, bad_loss=0.5)


def _mesh(keystore=None, lossy=False) -> OverlayNetwork:
    """Ring+chords fibers (i ~ i+1, i ~ i+3), overlay links at ring
    spacings 1 (one fiber) and 4 (two fibers), hosts on their routers:
    hellos ride the lane. ``lossy``: every fiber bursty (hellos ride the
    lane only inside drawn loss-free states) and hosts ``ACCESS`` off
    their routers. The ISP reconverges 0.5 s after a cut or repair, so
    its table rewrites land inside the run."""
    sim = Simulator()
    inet = Internet(sim, RngRegistry(99))
    domain = inet.add_isp("m", convergence_delay=0.5)
    for i in range(N):
        domain.add_router(f"r{i}")
    for a, b in sorted({tuple(sorted((i, (i + d) % N)))
                        for i in range(N) for d in (1, 3)}):
        domain.add_link(f"r{a}", f"r{b}", 0.010, None,
                        _burst() if lossy else None)
    sites = [f"h{i}" for i in range(N)]
    for i, site in enumerate(sites):
        inet.add_host(site, access_delay=ACCESS if lossy else 0.0)
        inet.attach(site, "m", f"r{i}")
    links = sorted({tuple(sorted((sites[i], sites[(i + d) % N])))
                    for i in range(N) for d in (1, 4)})
    return OverlayNetwork(inet, sites, links, keystore=keystore)


def _endpoints(overlay):
    return [link for node in overlay.nodes.values()
            for link in node.links.values()]


def _state(overlay, deliveries) -> dict:
    sim, inet = overlay.sim, overlay.internet
    assert check_datagram_conservation(inet, Auditor(register=False))
    return {
        "deliveries": list(deliveries),
        "internet": inet.counters.as_dict(),
        "overlay": overlay.counters.as_dict(),
        "fibers": {link.name: (link.packets_carried, link.bytes_carried)
                   for link in inet.isps["m"].links()},
        "endpoints": {(link.node_id, link.nbr_id): link.warm_state()
                      for link in _endpoints(overlay)},
        "events": sim.events_processed,
        "seq": sim._seq,
    }


def _run(name: str, frame_path: bool, monkeypatch, keystore=None):
    """Warm the mesh, start a flow, apply scenario ``name`` and sample
    the state at every checkpoint. Returns the samples and how many
    lane hellos were in flight at the checkpoints and when the underlay
    changed."""
    seen = {"checkpoints": 0, "demotions": 0}
    demote = Internet._demote_transits

    def counting_demote(inet):
        seen["demotions"] += sum(
            1 for event, live in inet.sim.iter_queued()
            if live and event.fn is inet._hello_cb)
        demote(inet)

    monkeypatch.setattr(Internet, "_demote_transits", counting_demote)
    overlay = _mesh(keystore, lossy=name in LOSSY)
    if frame_path:
        for link in _endpoints(overlay):
            monkeypatch.setattr(link, "hello_to_peer", None)
    overlay.warm_up(WARMUP)
    sim = overlay.sim
    deliveries = []
    overlay.client("h6", 7, on_message=lambda m: deliveries.append(
        (m.origin, m.flow, m.seq, sim.now)))
    CbrSource(sim, overlay.client("h0"), Address("h6", 7),
              rate_pps=50.0).start()
    SCENARIOS[name](overlay)
    start = _tick(overlay) + 0.005  # every other checkpoint: hellos aloft
    samples = []
    for k in range(CHECKPOINTS):
        sim.run(until=start + STEP * k)
        seen["checkpoints"] += sum(
            1 for event, live in sim.iter_queued()
            if live and event.fn is overlay.internet._hello_cb)
        samples.append(_state(overlay, deliveries))
    return samples, seen


def _tick(overlay) -> float:
    """The next hello tick instant (every endpoint ticks on one grid)."""
    return overlay.nodes["h0"].links["h4"]._hello_timer.time


def _fiber(overlay, a: str, b: str):
    return overlay.internet.isps["m"].link_between(a, b)


def _cut_and_repair(overlay):
    sim, inet = overlay.sim, overlay.internet
    tick = _tick(overlay)
    # In a tick's own instant, after the hellos left: each is demoted
    # back to its source router under the seq of the hop it skipped.
    sim.schedule_at(tick, inet.fail_fiber, "m", "r0", "r3")
    # Mid-flight: hellos on their first fiber are put back on the walk.
    sim.schedule_at(tick + 0.2 + 0.005, inet.fail_fiber, "m", "r4", "r5")
    sim.schedule_at(tick + 0.6 + 0.015, inet.repair_fiber, "m", "r0", "r3")
    sim.schedule_at(tick + 0.9 + 0.005, inet.repair_fiber, "m", "r4", "r5")


def _loss_swap(overlay):
    sim = overlay.sim
    fiber = _fiber(overlay, "r2", "r5")
    tick = _tick(overlay)

    def lossy():
        fiber.loss = BernoulliLoss(0.4)

    def clean():
        fiber.loss = NoLoss()

    sim.schedule_at(tick + 0.105, lossy)
    sim.schedule_at(tick + 1.005, clean)


def _crash_recover(overlay):
    sim = overlay.sim
    tick = _tick(overlay)
    sim.schedule_at(tick + 0.005, overlay.crash, "h8")
    sim.schedule_at(tick + 0.8 + 0.005, overlay.recover, "h8")


def _adversary(overlay):
    sim = overlay.sim
    sim.schedule_at(_tick(overlay) + 0.305, overlay.compromise, "h4",
                    _HelloFilter("h0"))


def _access_gap(overlay):
    """On the lossy mesh: a loss swap and a cut, and their undoing, each
    land inside the access gap of a tick's hellos — sent, their first
    hop not yet up — so the lane hellos go back to start hops still
    ahead."""
    sim, inet = overlay.sim, overlay.internet
    fiber = _fiber(overlay, "r2", "r5")
    at = _tick(overlay) + ACCESS / 2
    sim.schedule_at(at, setattr, fiber, "loss", BernoulliLoss(0.4))
    sim.schedule_at(at + 0.3, inet.fail_fiber, "m", "r0", "r3")
    sim.schedule_at(at + 0.9, setattr, fiber, "loss", _burst())
    sim.schedule_at(at + 1.2, inet.repair_fiber, "m", "r0", "r3")


SCENARIOS = {
    "cut-and-repair": _cut_and_repair,
    "loss-swap": _loss_swap,
    "crash-recover": _crash_recover,
    "adversary": _adversary,
    "lossy-access-gap": _access_gap,
}
#: Scenarios on the lossy mesh with hosts off their routers.
LOSSY = {"lossy-access-gap"}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_hello_lane_matches_the_frame_path(name, monkeypatch):
    lane, seen = _run(name, False, monkeypatch)
    frames, frame_seen = _run(name, True, monkeypatch)
    assert seen["checkpoints"] > 0 and frame_seen["checkpoints"] == 0
    if name in ("cut-and-repair", "loss-swap", "lossy-access-gap"):
        assert seen["demotions"] > 0  # lane hellos met an underlay change
    assert len(lane[-1]["deliveries"]) > 50
    for k, (a, b) in enumerate(zip(lane, frames)):
        assert_identical(a.pop("deliveries"), b.pop("deliveries"),
                         label="deliveries",
                         header=f"{name}: checkpoint {k}")
        assert a == b, f"{name}: checkpoint {k}"


def test_a_keystore_keeps_every_hello_a_frame(monkeypatch):
    lane, seen = _run("cut-and-repair", False, monkeypatch, KeyStore())
    frames, __ = _run("cut-and-repair", True, monkeypatch, KeyStore())
    assert seen["checkpoints"] == 0  # signed: never the lane
    assert lane[-1]["overlay"].get("auth-rejected", 0.0) == 0.0
    for k, (a, b) in enumerate(zip(lane, frames)):
        assert_identical(a.pop("deliveries"), b.pop("deliveries"),
                         label="deliveries", header=f"checkpoint {k}")
        assert a == b, f"checkpoint {k}"
