"""Runtime invariant auditing and trace-divergence detection.

The optimization layers (content-addressed route sharing, the
fingerprint-invalidated forwarding cache, timer recycling, the sweep
cache) all promise the same thing: *faster, but byte-identical*. This
package turns that promise into machine-checked predicates:

* :mod:`repro.audit.invariants` — checkers hooked into the simulator
  and overlay (heap accounting, teardown leaks, datagram conservation,
  sampled forwarding-cache coherence, route-engine consistency,
  shared-state replicas' views and fingerprints, quiet underlay
  transits),
  coordinated by an :class:`~repro.audit.invariants.Auditor`;
* :mod:`repro.audit.diff` — a trace differ that localizes the *first*
  divergent record between two runs, with context;
* :mod:`repro.audit.report` — the violation report benches print under
  ``--audit`` and CI uploads.

Switch it on per overlay with ``OverlayConfig(audit=True)`` or
process-wide with ``REPRO_AUDIT=1``; when off, none of this package is
even imported and the hot paths are exactly the unaudited classes —
strictly zero overhead.
"""

from repro.audit.diff import (
    Divergence,
    TraceDivergenceError,
    assert_identical,
    diff_counters,
    diff_sequences,
    diff_traces,
)
from repro.audit.invariants import (
    AuditedForwardingCache,
    AuditedGroupDatabase,
    AuditedRouteComputeEngine,
    AuditedTopologyDatabase,
    Auditor,
    active_auditors,
    audit_enabled,
    audit_transits,
    check_datagram_conservation,
    check_heap_accounting,
    check_teardown,
    collect_report,
    reset_auditors,
)
from repro.audit.report import AuditReport, AuditViolation

__all__ = [
    "AuditReport",
    "AuditViolation",
    "AuditedForwardingCache",
    "AuditedGroupDatabase",
    "AuditedRouteComputeEngine",
    "AuditedTopologyDatabase",
    "Auditor",
    "Divergence",
    "TraceDivergenceError",
    "active_auditors",
    "assert_identical",
    "audit_enabled",
    "audit_transits",
    "check_datagram_conservation",
    "check_heap_accounting",
    "check_teardown",
    "collect_report",
    "diff_counters",
    "diff_sequences",
    "diff_traces",
    "reset_auditors",
]
