"""Overlay configuration knobs, with defaults matching the paper's
operating points (10 ms-scale links, sub-second failure reaction,
<1 ms per-node processing)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OverlayConfig:
    """Tuning for an overlay instance.

    Attributes:
        hello_interval: Seconds between hello probes on each overlay
            link direction. With ``miss_threshold`` misses a link is
            declared down, so detection time is roughly
            ``hello_interval * miss_threshold`` — a few hundred ms,
            giving the paper's sub-second rerouting.
        miss_threshold: Consecutive missed hellos before link-down.
        recover_threshold: Consecutive received hellos before a down
            link is declared up again (hysteresis).
        proc_delay: Per-node forwarding processing delay (Sec II-D says
            "less than 1 ms" on commodity machines).
        lsu_refresh: Period for re-flooding one's link-state record even
            without changes (repairs lost updates).
        loss_alpha: EWMA weight for per-link loss estimation.
        latency_alpha: EWMA weight for per-link latency estimation.
        loss_cost_factor: Link routing cost = latency * (1 +
            loss_cost_factor * loss_estimate), advertised in whole
            microseconds; penalizes lossy links.
        cost_change_threshold: Fractional cost change that triggers a
            new link-state update.
        carrier_loss_switch: Hello loss estimate above which a link
            switches to its next candidate carrier (multihoming).
        access_capacity_bps: Rate limit applied by paced link protocols
            (IT-Priority / IT-Reliable) on each outgoing overlay link;
            ``None`` disables pacing.
        crypto_sign_delay / crypto_verify_delay: Per-message CPU cost of
            authentication in the intrusion-tolerant protocols.
        audit: Arm the runtime invariant auditor
            (:mod:`repro.audit`): the overlay is built with audited
            cache variants that re-derive a sampled fraction of hits
            cold, and post-hoc checkers (heap accounting, datagram
            conservation) become available through
            ``OverlayNetwork.auditor``. Also switchable process-wide
            with ``REPRO_AUDIT=1``. Off (the default) constructs the
            plain classes — strictly zero overhead. Audited runs keep
            byte-identical traces (sampling is counter-based, never
            RNG-based).
    """

    hello_interval: float = 0.1
    miss_threshold: int = 3
    recover_threshold: int = 3
    proc_delay: float = 0.0005
    lsu_refresh: float = 5.0
    loss_alpha: float = 0.1
    latency_alpha: float = 0.2
    loss_cost_factor: float = 50.0
    cost_change_threshold: float = 0.25
    carrier_loss_switch: float = 0.3
    access_capacity_bps: float | None = 10_000_000.0
    crypto_sign_delay: float = 0.0
    crypto_verify_delay: float = 0.0
    audit: bool = False
    #: The three ``columnar*`` fields spell one bit: the batched
    #: approximate tier is armed iff ``columnar_window > 0``, and
    #: :class:`repro.core.network.OverlayNetwork` rejects any config in
    #: which ``columnar`` and ``columnar_vectorized`` do not say the
    #: same (the names are historical; ROADMAP A's fidelity selector
    #: replaces all three). The tier (``Internet.enable_vectorized``)
    #: is the exact tier with every landing instant rounded *up* to the
    #: window grid, so a datagram lands at most one window late per
    #: fiber it crosses. It is validated statistically against the
    #: exact tier by :mod:`repro.analysis.calibrate`, never
    #: byte-identical.
    columnar: bool = False
    #: The batched tier's window in seconds (0: exact tier).
    columnar_window: float = 0.0
    #: Must equal ``columnar``: see above.
    columnar_vectorized: bool = False
    #: Settle fluid rate intervals into the per-node FlowTables (the
    #: classify stage's fluid half), so operators see one aggregate
    #: packet+fluid view. Disable for very large fluid fleets (hundreds
    #: of thousands of flows) where per-node flow entries dominate
    #: memory; delivery/latency statistics are unaffected. Irrelevant
    #: when no fluid engine is attached.
    fluid_flow_accounting: bool = True
    #: Extra per-protocol defaults, e.g. {"nm-strikes": {"n": 3, "m": 2}}.
    protocol_defaults: dict = field(default_factory=dict)
