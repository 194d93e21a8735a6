"""Fidelity tiers the workloads run on.

Workloads name a tier, never a flag: the only place the benchmark
spells out ``columnar*`` switches is :func:`config_for`, so a refactor
of the fidelity config surface (ROADMAP B) edits one function here and
no workload.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import OverlayConfig
from repro.sim.events import Simulator

#: Coalescing window of the approximate tier — the documented
#: calibration operating point (``repro.analysis.calibrate.VEC_WINDOW``).
BATCHED_WINDOW = 0.00025

TIERS = ("exact", "batched")


def config_for(tier: str) -> OverlayConfig:
    """The overlay config of one tier: ``exact`` is the default config
    on the default simulator, ``batched`` the numpy bulk-settlement
    approximation."""
    if tier == "exact":
        return OverlayConfig()
    if tier == "batched":
        return OverlayConfig(
            columnar=True,
            columnar_window=BATCHED_WINDOW,
            columnar_vectorized=True,
        )
    raise ValueError(f"unknown tier {tier!r} (known: {TIERS})")


def simulator_for(config: OverlayConfig) -> Simulator:
    """The simulator a config must be deployed on (the engine mode is a
    simulator property the overlay checks against its config)."""
    return Simulator(columnar=config.columnar)


def tier_manifest() -> dict:
    """Every tier's full config, for the run manifest."""
    return {tier: dataclasses.asdict(config_for(tier)) for tier in TIERS}
