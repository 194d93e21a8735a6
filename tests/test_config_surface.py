"""The configuration surface is a reviewed list, not an accretion.

Every ``OverlayConfig`` field and every ``Simulator`` constructor
parameter doubles the configurations tests and benchmarks must cover,
and the ones that select an *implementation* rather than an outcome
("kept as the measured baseline") are the expensive kind: PR 15 deleted
three of them together with the engines they selected. Adding a knob
therefore means editing the literal sets below **and** documenting the
field by name in DESIGN.md — a switch that slips in without either
fails here instead of in a later clean-up.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from pathlib import Path

from repro.core.config import OverlayConfig
from repro.sim.events import Simulator

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"

OVERLAY_CONFIG_FIELDS = {
    "hello_interval",
    "miss_threshold",
    "recover_threshold",
    "proc_delay",
    "lsu_refresh",
    "loss_alpha",
    "latency_alpha",
    "loss_cost_factor",
    "cost_change_threshold",
    "carrier_loss_switch",
    "access_capacity_bps",
    "crypto_sign_delay",
    "crypto_verify_delay",
    "audit",
    "columnar",
    "columnar_window",
    "columnar_vectorized",
    "fluid_flow_accounting",
    "protocol_defaults",
}

SIMULATOR_PARAMETERS = ["columnar"]


def test_overlay_config_fields_are_the_reviewed_set():
    fields = {f.name for f in dataclasses.fields(OverlayConfig)}
    assert fields == OVERLAY_CONFIG_FIELDS, (
        "OverlayConfig's field set changed: update OVERLAY_CONFIG_FIELDS "
        "and document the field in DESIGN.md — added "
        f"{sorted(fields - OVERLAY_CONFIG_FIELDS)}, removed "
        f"{sorted(OVERLAY_CONFIG_FIELDS - fields)}"
    )


def test_simulator_parameters_are_the_reviewed_list():
    params = list(inspect.signature(Simulator.__init__).parameters)[1:]
    assert params == SIMULATOR_PARAMETERS


def test_every_config_name_is_documented_in_design_md():
    words = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", DESIGN.read_text()))
    missing = sorted(
        (OVERLAY_CONFIG_FIELDS | set(SIMULATOR_PARAMETERS)) - words)
    assert not missing, f"undocumented in DESIGN.md: {missing}"
