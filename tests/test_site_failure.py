"""Whole-data-center failures (every fiber at a city goes dark)."""

from repro.analysis.metrics import availability_gaps
from repro.analysis.scenarios import continental_scenario
from repro.analysis.workloads import CbrSource
from repro.core.message import Address


def test_fail_site_cuts_all_incident_fibers():
    scn = continental_scenario(seed=1701)
    cut = scn.internet.fail_site("DEN")
    assert cut, "DEN has fibers in both ISPs"
    isps = {isp for isp, __, ___ in cut}
    assert isps == {"ispA", "ispB"}
    for isp, a, b in cut:
        assert scn.internet.isps[isp].link_between(a, b).failed


def test_repair_site_restores_everything():
    scn = continental_scenario(seed=1702)
    cut = scn.internet.fail_site("DEN")
    scn.internet.repair_site(cut)
    for isp, a, b in cut:
        assert not scn.internet.isps[isp].link_between(a, b).failed


def test_fail_site_is_idempotent_about_already_failed_fibers():
    scn = continental_scenario(seed=1703)
    scn.internet.fail_fiber("ispA", "DEN", "CHI")
    cut = scn.internet.fail_site("DEN")
    assert ("ispA", "DEN", "CHI") not in cut  # it was already down


def test_traffic_routes_around_a_dead_data_center():
    """The Fig 1 resilience story at data-center granularity: losing a
    whole site costs well under a second for traffic through it."""
    scn = continental_scenario(seed=1704)
    overlay = scn.overlay
    times = []
    overlay.client("site-LAX", 7, on_message=lambda m: times.append(scn.sim.now))
    tx = overlay.client("site-NYC")
    source = CbrSource(scn.sim, tx, Address("site-LAX", 7), rate_pps=50).start()
    scn.run_for(3.0)
    transit = overlay.overlay_path("site-NYC", "site-LAX")[1]
    city = transit.removeprefix("site-")
    scn.internet.fail_site(city)
    scn.run_for(10.0)
    source.stop()
    scn.run_for(1.0)
    gaps = availability_gaps(times, expected_interval=0.02)
    assert gaps, "the site failure must be visible"
    assert max(d for __, d in gaps) < 1.0
    assert times[-1] > scn.sim.now - 2.0  # flowing again at the end
