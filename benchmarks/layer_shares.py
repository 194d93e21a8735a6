#!/usr/bin/env python3
"""Render a traced ``perf/run.py`` result as a markdown layer-share table.

CI's bench-smoke job appends this to ``$GITHUB_STEP_SUMMARY`` so every
run shows where the traced window spent its time::

    python3 perf/run.py --workload services_lossy --quick --trace 1 --out perf_out
    python3 benchmarks/layer_shares.py perf_out/trace_services_lossy.json >> "$GITHUB_STEP_SUMMARY"

(and the same for ``storm_churn``, the workload that writes routing
state: its generation moves, route computes and cache invalidations sit
next to the ``alg`` / ``core.linkstate`` / ``core.routing`` shares, and
for ``mesh_exact``, whose overlay links ride five fibers each: the last
row, ``sim.events`` per ``net.datagrams_delivered``, is where an
underlay event per fiber would show).

Only within-run ratios and counts are printed — shares of self time,
calls into each layer, event and frame counts — never absolute seconds:
host time on shared runners moves far more between runs than between
commits.
"""

from __future__ import annotations

import json
import sys

#: Counts worth a glance next to the shares (names from ``perf/catalog.py``).
COUNTS = (
    "sim.events",
    "net.datagrams_sent",
    "net.datagrams_delivered",
    "core.link.frames_sent",
    "core.pipeline.forwarded",
    "core.pipeline.fwd_hit_ratio",
    "core.pipeline.fwd_invalidations",
    "core.linkstate.topo_generations",
    "core.routing.computes",
    "core.routing.hit_ratio",
    "core.session.delivered",
    "protocols.retransmits",
)


def render(traced: dict) -> str:
    folded = traced["folded"]
    lines = [
        f"### `{folded['workload']}` traced, seed {folded['seed']}, "
        f"size {folded['size']:g}",
        "",
        "| layer | share of self time | calls in |",
        "|---|---:|---:|",
    ]
    for layer, entry in sorted(folded["fold"].items(),
                               key=lambda kv: -kv[1]["share"]):
        lines.append(f"| `{layer}` | {entry['share']:.1%} | {entry['calls_in']} |")
    lines += ["", "| count | value |", "|---|---:|"]
    metrics = traced["metrics"]
    lines += [f"| `{name}` | {metrics[name]:g} |" for name in COUNTS
              if name in metrics]
    events, delivered = metrics.get("sim.events"), metrics.get("net.datagrams_delivered")
    if events and delivered:
        lines.append(f"| events per delivered datagram | {events / delivered:.2f} |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        sys.stdout.write(render(json.load(fh)))
