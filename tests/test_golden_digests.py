"""Golden delivery digests (ROADMAP aim 3).

Three small, seeded, loss-free scenarios whose delivery record streams
are pinned by committed blake2b digests
(``tests/golden/delivery_digests.json``): a change that claims to leave
the modelled overlay's data-plane outcome alone — a simulator speed-up,
a different packing of the shared-state flood — must reproduce them bit
for bit, on the default and on the columnar simulator. The digests were
recorded on the commit *before* the state flood was packed into
bundles (PR 14); they are the committed proof that packing moved no
delivery.

Every scenario starts cold, so the organic link-state convergence
storm, the periodic refresh flood at t=5 and (where faults are
injected) sync-on-link-up are all inside the digest's reach.

Regenerate (only when a change is *meant* to move deliveries)::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.workloads import CbrSource
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
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


def _mesh(columnar: bool) -> OverlayNetwork:
    """Ring+chords fibers with three distinct delays (so floods arrive
    at several instants per hop), overlay links at spacings 1 and 4
    (one- and two-fiber transits)."""
    sim = Simulator(columnar=columnar)
    inet = Internet(sim, RngRegistry(SEED))
    domain = inet.add_isp("mesh", convergence_delay=0.5)
    for i in range(N):
        domain.add_router(_router(i))
    fibers = sorted({tuple(sorted((_router(i), _router(i + d))))
                     for i in range(N) for d in FIBER_CHORDS})
    for j, (a, b) in enumerate(fibers):
        domain.add_link(a, b, 0.008 + 0.001 * (j % 3), None, None)
    for i in range(N):
        inet.add_host(_site(i), access_delay=0.0005)
        inet.attach(_site(i), "mesh", _router(i))
    links = sorted({tuple(sorted((_site(i), _site(i + d))))
                    for i in range(N) for d in OVERLAY_SPACINGS})
    return OverlayNetwork(inet, [_site(i) for i in range(N)], links,
                          OverlayConfig(columnar=columnar))


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
}


def delivery_digest(name: str, columnar: bool) -> dict:
    """Run one scenario; the digest recipe is ``perf``'s ``trace_digest``."""
    overlay = _mesh(columnar)
    overlay.start()
    _start_traffic(overlay)
    SCENARIOS[name](overlay)
    digest = hashlib.blake2b(digest_size=16)
    records = overlay.trace.records
    for r in records:
        digest.update(
            f"{r.flow}|{r.seq}|{r.sent_at!r}|{r.delivered_at!r}|"
            f"{r.destination}\n".encode())
    return {"delivered": len(records), "sent": len(overlay.trace.sends),
            "digest": digest.hexdigest()}


@pytest.mark.parametrize("columnar", [False, True],
                         ids=["default", "columnar"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delivery_digest_matches_golden(name, columnar):
    golden = json.loads(GOLDEN.read_text())["scenarios"][name]
    assert delivery_digest(name, columnar) == golden


def test_golden_scenarios_exercise_what_they_claim():
    """A digest over nothing would hold trivially: every scenario
    delivers, and the fault scenarios lose something to the fault."""
    golden = json.loads(GOLDEN.read_text())["scenarios"]
    assert set(golden) == set(SCENARIOS)
    assert golden["steady_cbr"]["delivered"] == golden["steady_cbr"]["sent"] > 400
    for name in ("fiber_cut_repair", "crash_recover_across_refresh"):
        assert 400 < golden[name]["delivered"] < golden[name]["sent"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=Path(__file__).parent, check=False,
    ).stdout.strip()
    payload = {
        "recipe": "blake2b-16 over 'flow|seq|sent_at!r|delivered_at!r|destination\\n' "
                  "per delivery record, in trace order",
        "recorded_at_commit": commit,
        "scenarios": {},
    }
    for scenario in sorted(SCENARIOS):
        default = delivery_digest(scenario, columnar=False)
        assert default == delivery_digest(scenario, columnar=True), scenario
        payload["scenarios"][scenario] = default
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
