"""Smoke test of the benchmark (outside tier-1):

    python -m pytest perf -q

A ``--quick`` pass of every workload (about one simulated second each)
checks the output schema against ``BENCHMARK.json``: every declared
metric name appears, names and units are well formed, and the fold's
layer shares sum to one.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perf import catalog  # noqa: E402
from perf.trace import LAYERS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", "5",
         "--quick", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def test_benchmark_json_is_generated_from_the_catalog():
    assert SPEC == catalog.benchmark_json()


def test_declared_names_and_units_are_well_formed():
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    bounds = {row["name"]: row["bound"] for row in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    declared = {row["name"]: row["unit"] for row in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
        assert entry["value"] > 0, (name, entry)


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_quick_traced_run_reports_every_layer_metric(workload):
    result = _run(workload, trace=1)
    declared = {row["name"]: row["unit"] for row in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
    shares = sum(result["metrics"][f"{layer}.share"]["value"]
                 for layer in LAYERS)
    assert abs(shares - 1.0) <= 0.01
    assert result["metrics"]["trace.overhead_x"]["value"] > 0
