#!/usr/bin/env python3
"""The committed perf ledger.

    python3 perf/ledger.py --add DIR/all.json --label "PR 12 baseline"
    python3 perf/ledger.py --render

``perf/ledger.jsonl`` holds one row per recorded run of
``perf/run.py --all --trace --out DIR``: the run manifest, every
end-to-end metric of every workload, and the layer shares of the
traced run. ``perf/LEDGER.md`` is rendered from it, so the layer table
of any commit that recorded a row can be read from git alone. Rows are
machine-bound: compare a row with its neighbours from the same
machine, never absolute seconds across machines.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[0] = str(ROOT)

from perf import catalog  # noqa: E402
from perf.trace import LAYERS  # noqa: E402

LEDGER = HERE / "ledger.jsonl"
RENDERED = HERE / "LEDGER.md"


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def row_from(payload: dict, label: str) -> dict:
    manifest = dict(payload["manifest"])
    manifest.pop("tiers", None)  # long; the fingerprint pins the source
    row = {"label": label, "commit": _commit(), "manifest": manifest,
           "ok": payload["ok"], "workloads": {}}
    for name, outcome in payload["results"].items():
        entry = {"e2e": outcome["e2e"], "samples": outcome["samples"],
                 "trace_digest": outcome["trace_digest"]}
        traced = payload.get("traced", {}).get(name)
        if traced:
            entry["shares"] = {layer: traced["folded"]["fold"][layer]["share"]
                               for layer in LAYERS}
            entry["overhead_x"] = traced["metrics"][catalog.OVERHEAD]
        row["workloads"][name] = entry
    return row


def render(rows: list[dict]) -> str:
    lines = [
        "# Perf ledger",
        "",
        "Rendered from `perf/ledger.jsonl` by `python3 perf/ledger.py "
        "--render`; do not edit. One section per recorded run, newest "
        "last. Host-time numbers belong to the machine in the manifest.",
    ]
    for row in rows:
        m = row["manifest"]
        lines += [
            "",
            f"## {row['label']}",
            "",
            f"commit `{row['commit']}` · source `{m['source_fingerprint']}` · "
            f"python {m['python']} · {m['cpu_count']} cpus · seed {m['seed']} · "
            f"checks {'ok' if row['ok'] else 'FAILED'}",
            "",
            "| workload | " + " | ".join(
                name for name, *_ in catalog.END_TO_END) + " |",
            "|---|" + "---:|" * len(catalog.END_TO_END),
        ]
        ordered = [(name, row["workloads"][name]) for name in catalog.WORKLOADS
                   if name in row["workloads"]]
        for name, entry in ordered:
            lines.append(f"| `{name}` | " + " | ".join(
                f"{entry['e2e'][metric]:.5g}"
                for metric, *_ in catalog.END_TO_END) + " |")
        if any("shares" in e for e in row["workloads"].values()):
            lines += [
                "",
                "Layer shares of self time (traced run, a third of the "
                "window under cProfile):",
                "",
                "| workload | " + " | ".join(LAYERS) + " | overhead_x |",
                "|---|" + "---:|" * (len(LAYERS) + 1),
            ]
            for name, entry in ordered:
                if "shares" in entry:
                    lines.append(f"| `{name}` | " + " | ".join(
                        f"{entry['shares'][layer]:.1%}" for layer in LAYERS)
                        + f" | {entry['overhead_x']:.2f} |")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--add", help="all.json written by run.py --all --trace")
    parser.add_argument("--label", default="unlabelled run")
    parser.add_argument("--render", action="store_true")
    args = parser.parse_args(argv)
    if args.add:
        with open(args.add) as fh:
            row = row_from(json.load(fh), args.label)
        with open(LEDGER, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if args.add or args.render:
        rows = [json.loads(line) for line in LEDGER.read_text().splitlines()
                if line.strip()]
        RENDERED.write_text(render(rows))
        print(f"rendered {len(rows)} row(s) to {RENDERED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
