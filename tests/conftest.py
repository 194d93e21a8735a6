"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.scenarios import line_scenario, triangle_scenario
from repro.audit import audit_enabled, collect_report, reset_auditors
from repro.core.config import OverlayConfig
from repro.net.loss import BernoulliLoss
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry


@pytest.fixture(autouse=True)
def audit_gate():
    """Under ``REPRO_AUDIT=1`` a test fails when an auditor registered
    while it ran recorded a violation, its end-of-run checks included
    (``collect_report(run_checks=True)``); the first few are printed.
    Unaudited runs only pay the reset."""
    reset_auditors()
    yield
    if not audit_enabled():
        return
    violations = collect_report(run_checks=True).violations
    if violations:
        shown = violations[:5]
        pytest.fail("\n".join(
            [f"{len(violations)} audit violation(s), {len(shown)} shown:"]
            + [v.format() for v in shown]), pytrace=False)


# The triangle fixture moved into the library (repro.analysis.scenarios)
# so benchmarks can use it without importing the test package.
make_triangle_overlay = triangle_scenario


def make_two_node_line(
    seed: int = 1,
    loss_rate: float = 0.0,
    hop_delay: float = 0.010,
    config: OverlayConfig | None = None,
):
    """Two overlay nodes joined by a single 1-hop overlay link — the
    minimal fixture for exercising link protocols in isolation."""
    loss_factory = None
    if loss_rate > 0:
        loss_factory = lambda: BernoulliLoss(loss_rate)
    return line_scenario(
        seed,
        n_hops=1,
        hop_delay=hop_delay,
        loss_factory=loss_factory,
        config=config,
    )


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rngs() -> RngRegistry:
    return RngRegistry(12345)
