"""Loss processes for underlay fiber links.

The paper's protocols are designed around two facts about Internet
loss: it exists at low background rates, and it is *bursty* — losses
correlate in time ("the window of correlation for loss", Sec IV-A).
:class:`GilbertElliottLoss` is the continuous-time two-state model that
generates exactly that pattern; NM-Strikes' spaced requests and
retransmissions only help because of it.

All models are queried per traversal with ``should_drop(now, rng)`` and
advance their internal state lazily, so they work with packets arriving
at arbitrary simulated times.

The batched tier asks the same question the same way: a lossy fiber
takes the per-packet walk there too, so on every packet tier a link's
loss stream is drawn strictly per packet, in firing order.
"""

from __future__ import annotations

import math
import random
from typing import Iterable


class LossModel:
    """Interface: decide whether a packet crossing the link now is lost."""

    def should_drop(self, now: float, rng: random.Random) -> bool:
        raise NotImplementedError

    def expected_loss_rate(self) -> float:
        """Long-run stationary loss probability (for tests/reporting)."""
        raise NotImplementedError

    # ------------------------------------------------------- fluid view

    def fluid_rate(self, start: float, end: float) -> float:
        """Analytic loss probability applied to fluid traffic crossing
        the link during ``[start, end)``.

        The default is the stationary expectation — exact for Bernoulli,
        and the correct interval average for Gilbert–Elliott once the
        interval is long against the burst timescale (the fluid
        approximation's operating regime). Deterministic models override
        this with the interval's true value.
        """
        return self.expected_loss_rate()

    def next_transition(self, now: float) -> float | None:
        """The next *deterministic* loss-state boundary after ``now``,
        or ``None`` when the model has none. The fluid engine schedules
        a re-solve at each boundary so piecewise-constant intervals
        never straddle a known loss-state transition (scheduled
        outages); stochastic models are folded in analytically instead
        and report no boundaries."""
        return None


class NoLoss(LossModel):
    """A perfect link."""

    def should_drop(self, now: float, rng: random.Random) -> bool:
        return False

    def expected_loss_rate(self) -> float:
        return 0.0


class BernoulliLoss(LossModel):
    """Independent per-packet loss with probability ``rate``."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate

    def should_drop(self, now: float, rng: random.Random) -> bool:
        return rng.random() < self.rate

    def expected_loss_rate(self) -> float:
        return self.rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BernoulliLoss({self.rate})"


class GilbertElliottLoss(LossModel):
    """Continuous-time Gilbert–Elliott bursty loss.

    The link alternates between a Good state (loss probability
    ``good_loss``, mean duration ``mean_good``) and a Bad state (loss
    probability ``bad_loss``, mean duration ``mean_bad``); durations are
    exponential. A ``mean_bad`` of tens of milliseconds reproduces the
    correlated loss events the paper's recovery protocols must bypass.
    """

    def __init__(
        self,
        mean_good: float = 10.0,
        mean_bad: float = 0.05,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ) -> None:
        if mean_good <= 0 or mean_bad <= 0:
            raise ValueError("state durations must be positive")
        for p in (good_loss, bad_loss):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability must be in [0, 1], got {p}")
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self._in_bad = False
        self._state_until = 0.0
        self._initialized = False

    def _advance(self, now: float, rng: random.Random) -> None:
        if not self._initialized:
            # Start in the stationary distribution.
            frac_bad = self.mean_bad / (self.mean_good + self.mean_bad)
            self._in_bad = rng.random() < frac_bad
            self._state_until = self._next_transition(0.0, rng)
            self._initialized = True
        while self._state_until <= now:
            self._in_bad = not self._in_bad
            self._state_until = self._next_transition(self._state_until, rng)

    def _next_transition(self, start: float, rng: random.Random) -> float:
        mean = self.mean_bad if self._in_bad else self.mean_good
        return start + rng.expovariate(1.0 / mean)

    def should_drop(self, now: float, rng: random.Random) -> bool:
        self._advance(now, rng)
        p = self.bad_loss if self._in_bad else self.good_loss
        return p > 0.0 and rng.random() < p

    def in_bad_state(self, now: float, rng: random.Random) -> bool:
        """Expose the current state (used by tests)."""
        self._advance(now, rng)
        return self._in_bad

    def expected_loss_rate(self) -> float:
        total = self.mean_good + self.mean_bad
        return (
            self.mean_good / total * self.good_loss
            + self.mean_bad / total * self.bad_loss
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GilbertElliottLoss(good={self.mean_good}s@{self.good_loss}, "
            f"bad={self.mean_bad}s@{self.bad_loss})"
        )


class ScheduledOutages(LossModel):
    """Deterministic outage windows: every packet inside a window is lost.

    Used to script failure scenarios (e.g. a 30-second degradation of one
    ISP for the multihoming experiment).
    """

    def __init__(self, windows: Iterable[tuple[float, float]]) -> None:
        self.windows = sorted((float(a), float(b)) for a, b in windows)
        for a, b in self.windows:
            if b < a:
                raise ValueError(f"outage window ends before it starts: ({a}, {b})")

    def should_drop(self, now: float, rng: random.Random) -> bool:
        for start, end in self.windows:
            if start <= now < end:
                return True
            if start > now:
                break
        return False

    def expected_loss_rate(self) -> float:
        # Not stationary; report NaN so nobody misuses it.
        return math.nan

    def fluid_rate(self, start: float, end: float) -> float:
        """Exact overlap fraction of ``[start, end)`` with the outage
        windows — deterministic models are applied exactly, not in
        expectation."""
        if end <= start:
            return 0.0
        lost = 0.0
        for w_start, w_end in self.windows:
            if w_start >= end:
                break
            lost += max(0.0, min(end, w_end) - max(start, w_start))
        return lost / (end - start)

    def next_transition(self, now: float) -> float | None:
        """The next window edge strictly after ``now`` (fluid re-solve
        boundary)."""
        boundaries = [t for a, b in self.windows for t in (a, b) if t > now]
        return min(boundaries) if boundaries else None


class CompositeLoss(LossModel):
    """Drops when any of the component models drops."""

    def __init__(self, *models: LossModel) -> None:
        if not models:
            raise ValueError("CompositeLoss needs at least one model")
        self.models = list(models)

    def should_drop(self, now: float, rng: random.Random) -> bool:
        dropped = False
        for model in self.models:
            # Query every model so their internal states stay in sync
            # with simulated time regardless of short-circuiting.
            if model.should_drop(now, rng):
                dropped = True
        return dropped

    def expected_loss_rate(self) -> float:
        keep = 1.0
        for model in self.models:
            keep *= 1.0 - model.expected_loss_rate()
        return 1.0 - keep

    def fluid_rate(self, start: float, end: float) -> float:
        keep = 1.0
        for model in self.models:
            keep *= 1.0 - model.fluid_rate(start, end)
        return 1.0 - keep

    def next_transition(self, now: float) -> float | None:
        boundaries = [
            t for t in (m.next_transition(now) for m in self.models)
            if t is not None
        ]
        return min(boundaries) if boundaries else None
