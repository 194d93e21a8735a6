"""Host-time and simulated-time measurements shared by the workloads.

Host time says how fast the simulator ran; simulated time says what
the modelled overlay did. The two never share a number: every function
here returns one or the other, and says which.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import time

from repro.analysis.metrics import percentile

#: Below this many latency samples a p99 is printed but flagged: fewer
#: than ten samples lie beyond it.
P99_MIN_SAMPLES = 1000


class HostWindow:
    """Host cost of a measured window: wall seconds, and user+sys CPU
    seconds of this process and its reaped children."""

    def __enter__(self) -> "HostWindow":
        self._cpu0 = _cpu_seconds()
        self._t0 = time.perf_counter()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        return self

    def __exit__(self, *exc) -> None:
        if not self.wall_s:
            self.stop_wall()
        self.cpu_s = _cpu_seconds() - self._cpu0

    def stop_wall(self) -> None:
        """End the wall clock early (the sweep stops it before it reaps
        its workers, whose CPU only shows once they are waited for)."""
        self.wall_s = time.perf_counter() - self._t0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def reap_children(timeout_s: float = 30.0) -> bool:
    """Wait until every multiprocessing child has exited and been
    waited for (``active_children`` joins the finished ones)."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def peak_rss_mb() -> float:
    """Host: peak resident set of this process plus that of its largest
    reaped child, in MB (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def delivery_metrics(sends: list, records: list) -> dict:
    """Simulated-time outcome of the client messages in ``sends`` /
    ``records`` (slices of a :class:`~repro.sim.trace.TraceCollector`):
    counts, one-way latency percentiles from ``sent_at``, and the
    blake2b digest of the delivery record stream."""
    latencies = sorted(r.delivered_at - r.sent_at for r in records)
    digest = hashlib.blake2b(digest_size=16)
    for r in records:
        digest.update(
            f"{r.flow}|{r.seq}|{r.sent_at!r}|{r.delivered_at!r}|"
            f"{r.destination}\n".encode())
    return {
        "accepted": len(sends),
        "delivered": len(records),
        "latencies": latencies,
        "trace_digest": digest.hexdigest(),
    }


def latency_ms(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted one-way latencies, in ms."""
    return percentile(latencies, q) * 1000.0 if latencies else 0.0
