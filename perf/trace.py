"""Tracing for the benchmark: boundary spans and the per-layer fold.

Two instruments, both kept in memory and written out by the caller
when the run ends:

* :class:`Spans` — one span around each of the benchmark's own calls
  into the repo (``build_underlay`` ... ``verify``): name, start, end,
  parent id, and the id of the workload run they belong to. They cost
  two clock reads each, so they stay on in untraced runs too.
* :func:`profiled` — the traced run wraps the measured window in
  ``cProfile`` and folds *self* time (``tottime``, which excludes
  children by construction) by the repo module each function lives in.
  Time in builtins, numpy and the stdlib is charged to the layer that
  called it, through the profiler's callers table.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from contextlib import contextmanager

#: Layers are this repo's modules. First matching prefix wins; paths
#: are relative to ``src/repro``.
LAYER_PREFIXES = (
    ("sim/", "sim"),
    ("net/", "net"),
    ("alg/", "alg"),
    ("protocols/", "protocols"),
    ("core/link.py", "core.link"),
    ("core/linkstate.py", "core.linkstate"),
    ("core/routing.py", "core.routing"),
    ("core/compute.py", "core.routing"),
    ("core/dissemination.py", "core.routing"),
    ("core/pipeline.py", "core.pipeline"),
    ("core/node.py", "core.pipeline"),
    ("core/flows.py", "core.pipeline"),
    ("core/message.py", "core.pipeline"),
    ("core/session.py", "core.session"),
    ("core/client.py", "core.session"),
    ("core/intercept.py", "core.session"),
    ("core/warmstart.py", "core.warmstart"),
    # Traffic sources and scenario builders are the load generator, not
    # the sweep harness the ``analysis`` layer stands for.
    ("analysis/workloads.py", "other"),
    ("analysis/scenarios.py", "other"),
    ("analysis/", "analysis"),
)
LAYERS = (
    "sim", "net", "alg", "protocols", "core.link", "core.linkstate",
    "core.routing", "core.pipeline", "core.session", "core.warmstart",
    "analysis", "other",
)
FOLD_FIELDS = ("self_s", "share", "calls_in")


class Spans:
    """Spans of one workload run, in memory."""

    def __init__(self, run_id: str, epoch: float) -> None:
        self.run_id = run_id
        self.epoch = epoch
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = {
            "id": len(self.rows),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start_s": time.time() - self.epoch,
            "end_s": None,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            self._open.pop()
            row["end_s"] = time.time() - self.epoch


def _repro_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str, root: str) -> str | None:
    """The layer a source file belongs to; ``None`` for code outside
    the repo package (builtins, stdlib, numpy, the benchmark itself)."""
    if not filename.startswith(root):
        return None
    rel = filename[len(root):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def fold_stats(stats: dict, root: str) -> dict:
    """Fold a ``pstats`` table ``{func: (cc, nc, tt, ct, callers)}``
    into ``{layer: {self_s, share, calls_in}}``.

    A function outside the repo package has no layer of its own: its
    self time is split over its callers in proportion to the time the
    callers table attributes to each, recursively, until repo code is
    reached (``other`` when it never is — the benchmark's own frames).
    """
    own = {func: layer_of(func[0], root) for func in stats}
    memo: dict = {}

    def owners(func, trail: frozenset) -> dict[str, float]:
        """Layer weights (summing to 1) that own ``func``'s self time."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        live = {c: v for c, v in callers.items() if c not in trail}
        # Column 2 is this function's self time under that caller;
        # fall back to call counts when the clock never ticked.
        column = 2 if sum(v[2] for v in live.values()) > 0.0 else 0
        total = sum(v[column] for v in live.values())
        if not live or total <= 0:
            return {"other": 1.0}
        weights: dict[str, float] = {}
        for caller, value in live.items():
            share = value[column] / total
            for layer, w in owners(caller, trail | {func}).items():
                weights[layer] = weights.get(layer, 0.0) + share * w
        memo[func] = weights
        return weights

    fold = {layer: {"self_s": 0.0, "share": 0.0, "calls_in": 0}
            for layer in LAYERS}
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        for layer, weight in owners(func, frozenset()).items():
            fold[layer]["self_s"] += tt * weight
        layer = own[func]
        if layer is not None:
            for caller, value in callers.items():
                if (own.get(caller) or "other") != layer:
                    fold[layer]["calls_in"] += value[0]
    total = sum(entry["self_s"] for entry in fold.values())
    for entry in fold.values():
        entry["share"] = entry["self_s"] / total if total > 0 else 0.0
    return fold


@contextmanager
def profiled(enabled: bool):
    """Profile the block when ``enabled``; yields a dict that holds the
    layer fold under ``"fold"`` once the block ends."""
    result: dict = {}
    if not enabled:
        yield result
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield result
    finally:
        profiler.disable()
        result["fold"] = fold_stats(pstats.Stats(profiler).stats, _repro_root())


def fold_metrics(fold: dict) -> dict:
    """Flatten a fold into ``{"<layer>.<field>": value}``."""
    return {f"{layer}.{name}": fold[layer][name]
            for layer in LAYERS for name in FOLD_FIELDS}
