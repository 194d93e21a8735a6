"""Canonical experiment scenarios.

Each builder returns a ready :class:`Scenario` — simulator, underlay,
and a warmed-up overlay — so tests, examples, and benchmarks share one
definition of "the Fig 3 line" or "the continental overlay" instead of
re-wiring it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.config import OverlayConfig
from repro.core.network import OverlayNetwork
from repro.net.internet import Internet
from repro.net.loss import LossModel
from repro.net.loss import BernoulliLoss
from repro.net.topologies import (
    US_CITIES,
    continental_internet,
    line_internet,
    overlay_edges,
    site_name,
    triangle_internet,
)
from repro.sim.events import Simulator
from repro.sim.rng import RngRegistry

LossFactory = Callable[[], LossModel]


@dataclass
class Scenario:
    """A warmed-up experiment environment."""

    sim: Simulator
    rngs: RngRegistry
    internet: Internet
    overlay: OverlayNetwork

    def run_for(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)


def line_scenario(
    seed: int,
    n_hops: int = 5,
    hop_delay: float = 0.010,
    loss_factory: LossFactory | None = None,
    overlay_on_every_hop: bool = True,
    config: OverlayConfig | None = None,
    warmup: float = 2.0,
    jitter: float = 0.0,
) -> Scenario:
    """The Fig 3 fabric.

    ``overlay_on_every_hop=True`` deploys overlay nodes at every router
    (five 10 ms overlay links); ``False`` deploys only the two endpoints
    (one overlay link whose underlay path is the whole 50 ms chain) —
    the end-to-end baseline *on identical fiber*.
    """
    sim = Simulator()
    rngs = RngRegistry(seed)
    internet = line_internet(sim, rngs, n_hops, hop_delay, loss_factory,
                             jitter=jitter)
    if overlay_on_every_hop:
        sites = [f"h{i}" for i in range(n_hops + 1)]
        links = [(f"h{i}", f"h{i + 1}") for i in range(n_hops)]
    else:
        sites = ["h0", f"h{n_hops}"]
        links = [("h0", f"h{n_hops}")]
    overlay = OverlayNetwork(internet, sites, links, config)
    overlay.warm_up(warmup)
    return Scenario(sim, rngs, internet, overlay)


def continental_scenario(
    seed: int,
    isps: list[str] | None = None,
    loss_factory: LossFactory | None = None,
    config: OverlayConfig | None = None,
    warmup: float = 2.0,
    capacity_bps: float | None = None,
    isp_convergence_delay: float = 10.0,
    native_convergence_delay: float = 40.0,
    jitter: float = 0.0,
) -> Scenario:
    """The 12-city, multi-ISP continental overlay (Fig 1's architecture).

    Overlay nodes at every city; overlay links between cities adjacent
    in any ISP footprint (short links, not a clique); every link
    multihomed across the shared ISPs with the native path as fallback.
    """
    names = isps if isps is not None else ["ispA", "ispB"]
    sim = Simulator()
    rngs = RngRegistry(seed)
    internet = continental_internet(
        sim,
        rngs,
        isps=names,
        loss_factory=loss_factory,
        capacity_bps=capacity_bps,
        isp_convergence_delay=isp_convergence_delay,
        native_convergence_delay=native_convergence_delay,
        jitter=jitter,
    )
    sites = [site_name(city) for city in US_CITIES]
    links = [
        (site_name(a), site_name(b)) for a, b in overlay_edges(names)
    ]
    overlay = OverlayNetwork(
        internet, sites, links, config, carriers=_aligned_carriers(names)
    )
    overlay.warm_up(warmup)
    return Scenario(sim, rngs, internet, overlay)


def _aligned_carriers(isps: list[str]) -> dict:
    """Carrier preference per overlay link, aligned with the fiber map
    (Sec II-A: "the overlay topology can be designed in accordance with
    the underlying network topology"): an ISP with a *direct fiber* for
    the link is preferred over one that would route it over a multi-hop
    detour sharing fiber with other overlay links."""
    from repro.net.internet import NATIVE
    from repro.net.topologies import ISP_FOOTPRINTS

    carriers: dict = {}
    for a, b in overlay_edges(isps):
        edge = frozenset((a, b))
        direct = [
            isp for isp in isps
            if any(frozenset(pair) == edge for pair in ISP_FOOTPRINTS[isp])
        ]
        indirect = [isp for isp in isps if isp not in direct]
        carriers[frozenset((site_name(a), site_name(b)))] = (
            direct + indirect + [NATIVE]
        )
    return carriers


def triangle_scenario(
    seed: int = 1,
    loss_rate: float = 0.0,
    config: OverlayConfig | None = None,
    warmup: float = 2.0,
) -> Scenario:
    """A 3-node full-triangle overlay (10 ms legs) — the smallest
    topology with an alternate path; the unit-test workhorse."""
    sim = Simulator()
    rngs = RngRegistry(seed)
    loss_factory = None
    if loss_rate > 0:
        loss_factory = lambda: BernoulliLoss(loss_rate)
    internet = triangle_internet(sim, rngs, loss_factory=loss_factory)
    overlay = OverlayNetwork(
        internet,
        ["hx", "hy", "hz"],
        [("hx", "hy"), ("hy", "hz"), ("hx", "hz")],
        config,
    )
    overlay.warm_up(warmup)
    return Scenario(sim, rngs, internet, overlay)


def endpoints_scenario(
    seed: int,
    isps: list[str] | None = None,
    loss_factory: LossFactory | None = None,
    src_city: str = "NYC",
    dst_city: str = "LAX",
    warmup: float = 2.0,
    config: OverlayConfig | None = None,
) -> Scenario:
    """The *native Internet* baseline on the continental fabric: an
    'overlay' consisting only of the two endpoints, connected by a
    single logical link riding the end-to-end underlay path. Any
    protocol run on it behaves like an end-to-end deployment."""
    sim = Simulator()
    rngs = RngRegistry(seed)
    internet = continental_internet(sim, rngs, isps=isps, loss_factory=loss_factory)
    src, dst = site_name(src_city), site_name(dst_city)
    overlay = OverlayNetwork(internet, [src, dst], [(src, dst)], config)
    overlay.warm_up(warmup)
    return Scenario(sim, rngs, internet, overlay)
