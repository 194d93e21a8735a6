"""Golden delivery digests (ROADMAP aim 3).

Small, seeded scenarios whose delivery record streams are pinned by
committed blake2b digests (``tests/golden/delivery_digests.json``): a
change that claims to leave the modelled overlay's data-plane outcome
alone — a simulator speed-up, a different packing of the shared-state
flood, a deleted engine — must reproduce them bit for bit. They were
recorded on the heap and held on the timer wheel too until the wheel was
deleted; the heap carries them alone since.

The three loss-free scenarios were recorded on the commit *before* the
state flood was packed into bundles (PR 14); they are the committed
proof that packing moved no delivery. ``lossy_mixed_fibers`` was
recorded on the commit before the wheel's per-(slot, link) loss memo
was deleted (PR 15), on both simulators: its fibers cover every case
that memo special-cased (shared burst-state advance, per-packet draw
plus jitter, serialization queue, outage that still consumes a draw,
two stochastic components), and its digest also folds in the underlay's
drop counters and every fiber's carried/dropped totals — the committed
proof that the deletion moved no RNG draw.

Each scenario also carries an order-insensitive twin, ``sorted_digest``
(the same hash over the *sorted* delivery lines), recorded on the commit
before quiet multi-fiber transits learnt to settle in one step (PR 18).
That change allocates a transit's delivery ``seq`` at its first fiber,
so exact same-instant ties between differently shaped chains may fire
in the other order: it had to reproduce all four twins and the ordered
digests of ``steady_cbr`` and ``crash_recover_across_refresh``, and
re-recorded the other two with the moved lines counted in the JSON's
per-scenario ``note``. Settling at the send every transit whose fiber
crossings are all decided (a Gilbert–Elliott fiber inside its drawn
loss-free state, hosts off their routers) moved such a tie on a fiber
that still walks, and with it the lossy mesh's draw order:
``lossy_mixed_fibers`` and its twin were re-recorded, its ``note``
naming the first divergence; the other three did not move.

Every scenario starts cold, so the organic link-state convergence
storm, the periodic refresh flood at t=5 and (where faults are
injected) sync-on-link-up are all inside the digest's reach.

Regenerate (only when a change is *meant* to move deliveries)::

    PYTHONPATH=src python tests/test_golden_digests.py [scenario ...]
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.workloads import CbrSource
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    ScheduledOutages,
)
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

GOLDEN = Path(__file__).parent / "golden" / "delivery_digests.json"

N = 12
SEED = 1407
FIBER_CHORDS = (1, 3)
OVERLAY_SPACINGS = (1, 4)
PORT = 7
#: (source index, sink index, rate pps): a handful of overlay hops each.
FLOWS = ((0, 6, 40.0), (3, 9, 25.0), (7, 1, 50.0), (10, 4, 20.0))
TRAFFIC_START = 2.0
#: Sources stop here, a drain before the shortest scenario ends, so on a
#: healthy path every offered message could still arrive.
TRAFFIC_SECONDS = 4.0


def _site(i: int) -> str:
    return f"n{i % N:02d}"


def _router(i: int) -> str:
    return f"r{i % N:02d}"


def _burst() -> GilbertElliottLoss:
    return GilbertElliottLoss(mean_good=0.8, mean_bad=0.06, bad_loss=0.5)


#: ``lossy_mixed_fibers``: fiber index -> (capacity_bps, loss, jitter).
#: All of them carry overlay links in the loss-free scenarios, as the
#: single fiber of a spacing-1 link or one of two under a spacing-4 link.
LOSSY_FIBERS = {
    0: lambda: (None, _burst(), 0.0),
    3: lambda: (None, BernoulliLoss(0.03), 0.002),
    5: lambda: (120_000.0, None, 0.0),
    10: lambda: (None, CompositeLoss(ScheduledOutages([(3.0, 3.4)]),
                                     BernoulliLoss(0.02)), 0.0),
    12: lambda: (None, CompositeLoss(BernoulliLoss(0.02), _burst()), 0.0),
    15: lambda: (None, _burst(), 0.001),
    18: lambda: (2_000_000.0, BernoulliLoss(0.02), 0.0),
    21: lambda: (None, ScheduledOutages([(4.0, 4.25)]), 0.0),
}


def _mesh(lossy: bool = False) -> OverlayNetwork:
    """Ring+chords fibers with three distinct delays (so floods arrive
    at several instants per hop), overlay links at spacings 1 and 4
    (one- and two-fiber transits)."""
    sim = Simulator()
    inet = Internet(sim, RngRegistry(SEED))
    domain = inet.add_isp("mesh", convergence_delay=0.5)
    for i in range(N):
        domain.add_router(_router(i))
    fibers = sorted({tuple(sorted((_router(i), _router(i + d))))
                     for i in range(N) for d in FIBER_CHORDS})
    for j, (a, b) in enumerate(fibers):
        capacity, loss, jitter = (
            LOSSY_FIBERS[j]() if lossy and j in LOSSY_FIBERS
            else (None, None, 0.0))
        domain.add_link(a, b, 0.008 + 0.001 * (j % 3), capacity, loss,
                        jitter=jitter)
    for i in range(N):
        inet.add_host(_site(i), access_delay=0.0005)
        inet.attach(_site(i), "mesh", _router(i))
    links = sorted({tuple(sorted((_site(i), _site(i + d))))
                    for i in range(N) for d in OVERLAY_SPACINGS})
    return OverlayNetwork(inet, [_site(i) for i in range(N)], links)


def _start_traffic(overlay: OverlayNetwork) -> None:
    for src, dst, rate in FLOWS:
        overlay.client(_site(dst), PORT)
        CbrSource(overlay.sim, overlay.client(_site(src)),
                  Address(_site(dst), PORT), rate_pps=rate,
                  duration=TRAFFIC_SECONDS).start(delay=TRAFFIC_START)


def _steady(overlay: OverlayNetwork) -> None:
    overlay.sim.run(until=6.5)


def _fiber_cut_repair(overlay: OverlayNetwork) -> None:
    sim = overlay.sim
    domain = overlay.internet.isps["mesh"]
    # The one-fiber transit under overlay link n00-n01, on flow 0's path.
    sim.schedule_at(3.0, domain.fail_link, _router(0), _router(1))
    sim.schedule_at(4.2, domain.repair_link, _router(0), _router(1))
    sim.run(until=6.5)


def _crash_recover_across_refresh(overlay: OverlayNetwork) -> None:
    sim = overlay.sim
    # Down across the t=5 refresh flood; back inside its aftermath.
    sim.schedule_at(4.7, overlay.crash, _site(4))
    sim.schedule_at(5.4, overlay.recover, _site(4))
    sim.run(until=7.5)


SCENARIOS = {
    "steady_cbr": _steady,
    "fiber_cut_repair": _fiber_cut_repair,
    "crash_recover_across_refresh": _crash_recover_across_refresh,
    "lossy_mixed_fibers": _steady,
}
#: Scenarios on the lossy mesh; their digest covers the underlay too.
LOSSY = {"lossy_mixed_fibers"}


def delivery_digest(name: str) -> dict:
    """Run one scenario; the digest recipe is ``perf``'s ``trace_digest``
    (plus, on the lossy mesh, the underlay's counters and every fiber's
    carried/dropped totals)."""
    lossy = name in LOSSY
    overlay = _mesh(lossy)
    overlay.start()
    _start_traffic(overlay)
    SCENARIOS[name](overlay)
    records = overlay.trace.records
    lines = [f"{r.flow}|{r.seq}|{r.sent_at!r}|{r.delivered_at!r}|"
             f"{r.destination}\n" for r in records]
    digest = hashlib.blake2b("".join(lines).encode(), digest_size=16)
    # The order-insensitive twin: same records at the same instants,
    # whatever order same-instant deliveries were written in.
    twin = hashlib.blake2b("".join(sorted(lines)).encode(), digest_size=16)
    if lossy:
        inet = overlay.internet
        for key, value in sorted(inet.counters.as_dict().items()):
            digest.update(f"{key}={value}\n".encode())
        for link in sorted(inet.isps["mesh"].links(), key=lambda f: f.name):
            digest.update(
                f"{link.name}|{link.packets_carried}|"
                f"{link.packets_dropped}\n".encode())
    return {"delivered": len(records), "sent": len(overlay.trace.sends),
            "digest": digest.hexdigest(), "sorted_digest": twin.hexdigest()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delivery_digest_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())["scenarios"][name]
    golden.pop("note", None)
    assert delivery_digest(name) == golden


def test_golden_scenarios_exercise_what_they_claim():
    """A digest over nothing would hold trivially: every scenario
    delivers, and the fault scenarios lose something to the fault."""
    golden = json.loads(GOLDEN.read_text())["scenarios"]
    assert set(golden) == set(SCENARIOS)
    assert golden["steady_cbr"]["delivered"] == golden["steady_cbr"]["sent"] > 400
    for name in ("fiber_cut_repair", "crash_recover_across_refresh",
                 "lossy_mixed_fibers"):
        assert 400 < golden[name]["delivered"] < golden[name]["sent"]


if __name__ == "__main__":
    import subprocess
    import sys

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=Path(__file__).parent, check=False,
    ).stdout.strip()
    # Re-record the named scenarios (default: all); the others keep
    # their digest and the commit they were recorded at.
    payload = json.loads(GOLDEN.read_text())
    for scenario in sys.argv[1:] or sorted(SCENARIOS):
        default = delivery_digest(scenario)
        old = payload["scenarios"][scenario]
        # The sorted twin only moves when a delivery or an instant does:
        # a re-record for a changed *order* must leave it alone.
        twin = old.setdefault("sorted_digest", default["sorted_digest"])
        assert twin == default["sorted_digest"], (
            f"{scenario}: records or instants moved, not just their order "
            "- delete its sorted_digest by hand if that is meant")
        if old.get("digest") != default["digest"]:
            payload["recorded_at_commit"][scenario] = commit
        old.update(default)
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
