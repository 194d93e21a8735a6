"""Metric computation over trace records.

Experiments record sends and deliveries into a
:class:`~repro.sim.trace.TraceCollector`; these helpers turn the raw
records into the quantities the paper's claims are phrased in: latency
percentiles, jitter, delivery ratios, within-deadline ratios, and
service-interruption windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.trace import TraceCollector


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution statistics, all in seconds."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    max: float
    jitter: float  #: mean absolute deviation between consecutive latencies

    def scaled_ms(self) -> dict[str, float]:
        """The same numbers in milliseconds (for reporting)."""
        return {
            "mean": self.mean * 1000,
            "p50": self.p50 * 1000,
            "p90": self.p90 * 1000,
            "p99": self.p99 * 1000,
            "max": self.max * 1000,
            "jitter": self.jitter * 1000,
        }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def latency_summary(latencies: list[float]) -> LatencySummary:
    """Summarize a list of one-way latencies (seconds)."""
    if not latencies:
        return LatencySummary(0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan)
    ordered = sorted(latencies)
    jitter_samples = [
        abs(b - a) for a, b in zip(latencies, latencies[1:])
    ]
    jitter = sum(jitter_samples) / len(jitter_samples) if jitter_samples else 0.0
    return LatencySummary(
        count=len(latencies),
        mean=sum(latencies) / len(latencies),
        p50=percentile(ordered, 0.50),
        p90=percentile(ordered, 0.90),
        p99=percentile(ordered, 0.99),
        max=ordered[-1],
        jitter=jitter,
    )


@dataclass(frozen=True)
class FlowStats:
    """Outcome of one flow at one destination."""

    flow: str
    destination: str
    sent: int
    delivered: int
    latency: LatencySummary
    within_deadline: float | None  #: fraction within deadline, if one given

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.sent if self.sent else math.nan


def flow_stats(
    trace: TraceCollector,
    flow: str,
    destination: str,
    deadline: float | None = None,
    after: float = 0.0,
) -> FlowStats:
    """Compute a flow's outcome at ``destination``.

    ``after`` excludes warm-up traffic; ``deadline`` additionally
    reports the fraction of *sent* messages delivered within it.
    """
    sent = [s for s in trace.sends_for_flow(flow) if s.sent_at >= after]
    delivered = [
        r
        for r in trace.for_flow(flow)
        if r.destination == destination and r.sent_at >= after
    ]
    latencies = [r.latency for r in delivered if r.latency is not None]
    within = None
    if deadline is not None and sent:
        on_time = sum(1 for r in delivered if r.within(deadline))
        within = on_time / len(sent)
    return FlowStats(
        flow=flow,
        destination=destination,
        sent=len(sent),
        delivered=len(delivered),
        latency=latency_summary(latencies),
        within_deadline=within,
    )


def weighted_latency_summary(
    intervals: list[tuple[float, float]],
) -> LatencySummary:
    """Summarize fluid ``(weight, latency)`` rate intervals into the
    same :class:`LatencySummary` packet latencies produce.

    Percentiles are weighted (the smallest latency whose cumulative
    delivered weight reaches the quantile); ``count`` is the total
    delivered weight (fractional — modeled messages, not packets);
    ``jitter`` is 0 by construction, since within a rate interval the
    fluid model's latency is constant (probe packets carry the
    per-packet jitter evidence in hybrid runs).
    """
    pairs = [(w, lat) for w, lat in intervals if w > 0.0]
    if not pairs:
        return LatencySummary(
            0, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan
        )
    total = sum(w for w, __ in pairs)
    ordered = sorted(pairs, key=lambda p: p[1])

    def weighted_percentile(q: float) -> float:
        target = q * total
        cumulative = 0.0
        for weight, latency in ordered:
            cumulative += weight
            if cumulative >= target - 1e-12:
                return latency
        return ordered[-1][1]

    return LatencySummary(
        count=total,
        mean=sum(w * lat for w, lat in pairs) / total,
        p50=weighted_percentile(0.50),
        p90=weighted_percentile(0.90),
        p99=weighted_percentile(0.99),
        max=ordered[-1][1],
        jitter=0.0,
    )


def fluid_flow_stats(
    fluid_flow,
    destination: str,
    deadline: float | None = None,
) -> FlowStats:
    """A fluid flow's outcome at one destination, in the same
    :class:`FlowStats` shape packet traces produce (``sent`` and
    ``delivered`` are fractional modeled-message weights).

    ``fluid_flow`` is a settled :class:`repro.core.fluid.FluidFlow`
    (call ``engine.settle_now()`` after the run).
    """
    intervals = fluid_flow.intervals(destination)
    within = None
    if deadline is not None and fluid_flow.offered:
        on_time = sum(w for w, lat in intervals if lat <= deadline)
        within = on_time / fluid_flow.offered
    return FlowStats(
        flow=fluid_flow.flow,
        destination=destination,
        sent=fluid_flow.offered,
        delivered=fluid_flow.delivered(destination),
        latency=weighted_latency_summary(intervals),
        within_deadline=within,
    )


def availability_gaps(
    times: list[float], expected_interval: float, factor: float = 3.0
) -> list[tuple[float, float]]:
    """Service-interruption windows in a continuous probe stream.

    Given the delivery times of a CBR probe flow sent every
    ``expected_interval`` seconds, returns (start, duration) of every
    window where consecutive deliveries were more than
    ``factor * expected_interval`` apart — the measure used to compare
    sub-second overlay rerouting against ~40 s interdomain reconvergence (E2).
    """
    times = sorted(times)
    gaps = []
    for a, b in zip(times, times[1:]):
        if b - a > factor * expected_interval:
            gaps.append((a, b - a))
    return gaps


@dataclass(frozen=True)
class ReplicateStat:
    """Mean ± spread of one metric across replicate runs.

    ``spread`` is the sample standard deviation (0 for a single
    sample). Sweep tables render these as ``mean ±spread`` cells; the
    numeric fields stay accessible for assertions.
    """

    mean: float
    spread: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} ±{self.spread:.3f}"

    def __float__(self) -> float:
        return self.mean


def replicate_stats(values: list[float]) -> ReplicateStat:
    """Aggregate replicate samples of one metric into mean ± spread."""
    if not values:
        raise ValueError("no replicate values")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return ReplicateStat(mean=mean, spread=0.0, n=1)
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return ReplicateStat(mean=mean, spread=math.sqrt(variance), n=n)


def delivered_seqs(trace: TraceCollector, flow: str, destination: str) -> set[int]:
    """Sequence numbers of messages delivered at a destination."""
    return {r.seq for r in trace.for_flow(flow) if r.destination == destination}
