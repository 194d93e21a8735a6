"""Ablation — hello cadence vs reaction time vs overhead.

The sub-second rerouting claim (Sec II-A) rests on the hello-based
failure detector: detection time ~ hello_interval x miss_threshold,
while control-plane bandwidth scales as 1 / hello_interval (per carrier
probed). This ablation sweeps the cadence and measures the actual
service interruption after a fiber cut, plus hello bytes spent.

Expected shape: interruption tracks interval x misses (plus LSU
propagation); all configurations stay sub-second down to several-hundred
-ms cadences; overhead grows linearly as the cadence tightens.
"""

from repro.analysis.metrics import availability_gaps
from repro.analysis.runner import run_sweep
from repro.analysis.sweep import Cell, Sweep, with_counters
from repro.analysis.workloads import CbrSource
from repro.core.config import OverlayConfig
from repro.core.message import Address
from repro.analysis.scenarios import triangle_scenario

from bench_util import print_table, run_experiment, sweep_main

#: (hello interval s, miss threshold)
CADENCES = [(0.05, 3), (0.1, 3), (0.2, 3), (0.1, 5)]
RATE = 100.0
SEED = 3101


def _run_cell(seed: int, hello_interval: float, misses: int):
    config = OverlayConfig(hello_interval=hello_interval, miss_threshold=misses)
    scn = triangle_scenario(seed=seed, config=config)
    overlay = scn.overlay
    times: list[float] = []
    overlay.client("hz", 7, on_message=lambda m: times.append(scn.sim.now))
    tx = overlay.client("hx")
    source = CbrSource(scn.sim, tx, Address("hz", 7), rate_pps=RATE).start()
    scn.run_for(2.0)
    hello_bytes_before = sum(
        l.bytes_sent for n in overlay.nodes.values() for l in n.links.values()
    )
    scn.internet.isps["tri"].fail_link("x", "z")
    scn.run_for(8.0)
    source.stop()
    scn.run_for(0.5)
    gaps = availability_gaps(times, expected_interval=1.0 / RATE)
    return with_counters({
        "outage_s": max((d for __, d in gaps), default=0.0),
        "detect_budget_s": hello_interval * misses,
    }, scn)


SWEEP = Sweep(
    name="ablation_hello",
    run_cell=_run_cell,
    cells=[
        Cell(key=(interval, misses),
             params={"hello_interval": interval, "misses": misses}, seed=SEED)
        for interval, misses in CADENCES
    ],
    master_seed=SEED,
)


def run_hello_ablation(workers=None, replicates=1, cache=True):
    return run_sweep(SWEEP, workers=workers, replicates=replicates, cache=cache)


def show_hello_ablation(result) -> None:
    print_table(
        "Ablation: hello cadence vs reaction to a fiber cut",
        ["hello interval s", "miss threshold", "detect budget s", "outage s"],
        [
            (interval, misses, cell["detect_budget_s"], cell["outage_s"])
            for (interval, misses), cell in result.as_table().items()
        ],
    )


def bench_ablation_hello_cadence(benchmark):
    result = run_experiment(benchmark, run_hello_ablation)
    show_hello_ablation(result)
    table = result.as_table()
    for (interval, misses), cell in table.items():
        budget = cell["detect_budget_s"]
        # Outage ~ detection budget plus one check tick and LSU flood.
        assert cell["outage_s"] <= budget + 2.5 * interval + 0.1, (interval, misses, cell)
        assert cell["outage_s"] < 1.5  # sub-second-to-~1s across the sweep
    # Faster hellos -> faster healing.
    assert table[(0.05, 3)]["outage_s"] < table[(0.2, 3)]["outage_s"]


if __name__ == "__main__":
    sweep_main(__doc__, run_hello_ablation, show_hello_ablation)
