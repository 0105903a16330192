"""Spans around the public functions of each rupturekit layer.

The tracer patches module attributes where callers look them up (modules
import names directly, so ``rupturekit.bench.solve_attack`` and
``rupturekit.response.solve_attack`` are patched separately), records one
span per call in memory and restores the originals on ``uninstall``.
Private helpers are never patched, so the spans survive refactors that
delete them.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (module, attribute, span name) for every lookup the workloads' commands
# reach; a missing attribute is skipped, so a later refactor that deletes a
# name only loses that span
PATCH_POINTS = (
    ("rupturekit.model_io", "parse_instance", "model_io.parse_instance"),
    ("rupturekit.model_io", "export_mip", "model_io.export_mip"),
    ("rupturekit.model_io", "result_to_dict", "model_io.result_to_dict"),
    ("rupturekit.bench", "run_pipeline", "bench.run_pipeline"),
    ("rupturekit.bench", "sweep_budget", "bench.sweep_budget"),
    ("rupturekit.cli", "solve_attack", "attack.solve_attack"),
    ("rupturekit.bench", "solve_attack", "attack.solve_attack"),
    ("rupturekit.response", "solve_attack", "attack.solve_attack"),
    ("rupturekit.bench", "solve_response", "response.solve_response"),
    ("rupturekit.bench", "mceic_matrix", "response.mceic_matrix"),
    ("rupturekit.bench", "dynamic_worst_cut", "response.dynamic_worst_cut"),
    ("rupturekit.cuts", "cuts_for_knapsack", "cuts.cuts_for_knapsack"),
    ("rupturekit.bench", "components", "graph.components"),
    ("rupturekit.attack", "components", "graph.components"),
    ("rupturekit.model_io", "components", "graph.components"),
    ("rupturekit.bench", "rupture_score", "graph.rupture_score"),
    ("rupturekit.attack", "rupture_score", "graph.rupture_score"),
    ("rupturekit.response", "rupture_score", "graph.rupture_score"),
)

ROOT_SPAN = "cli"

# every per-layer metric a traced run reports, with its unit
LAYER_METRICS = {
    "response.solve_response.s": "s",
    "response.solve_response.calls": "count",
    "response.components_max": "count",
    "response.partitions": "count",
    "response.partitions_per_s": "1/s",
    "response.links_added": "count",
    "response.mceic_matrix.s": "s",
    "response.dynamic_worst_cut.self_s": "s",
    "response.dynamic_attack.s": "s",
    "response.dynamic_bb_nodes": "count",
    "attack.solve_attack.s": "s",
    "attack.solve_attack.calls": "count",
    "attack.bb_nodes": "count",
    "attack.bb_nodes_per_s": "1/s",
    "attack.cuts_applied": "count",
    "cuts.cuts_for_knapsack.s": "s",
    "cuts.generated": "count",
    "cuts.applied_per_generated": "ratio",
    "model_io.export_mip.s": "s",
    "model_io.export_bytes": "bytes",
    "model_io.parse_instance.s": "s",
    "model_io.instance_bytes": "bytes",
    "model_io.result_to_dict.s": "s",
    "graph.components.s": "s",
    "graph.components.calls": "count",
    "graph.rupture_score.calls": "count",
    "bench.run_pipeline.self_s": "s",
    "bench.sweep_budget.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# counters that must repeat exactly between runs of one seed
EXACT_COUNTERS = (
    "attack.bb_nodes",
    "response.dynamic_bb_nodes",
    "response.partitions",
    "cuts.generated",
    "model_io.export_bytes",
    "model_io.instance_bytes",
)


def bell(s: int) -> int:
    """Number of set partitions of s items (Bell triangle)."""
    row = [1]
    for _ in range(s):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    op: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                "counters": self.counters}


def _count(name: str, args: tuple, result: Any) -> dict:
    """Counters read from a call's arguments and return value."""
    if name == "attack.solve_attack":
        return {"nodes": result.stats.nodes_explored,
                "cuts_applied": result.stats.cuts_applied}
    if name == "response.solve_response":
        s = args[0].partition.count
        return {"s": s, "partitions": bell(s), "links": len(result.links)}
    if name == "cuts.cuts_for_knapsack":
        return {"generated": len(result)}
    if name == "model_io.export_mip":
        return {"bytes": len(result.encode())}
    if name == "model_io.parse_instance":
        return {"bytes": len(args[0].encode())}
    return {}


class Tracer:
    """Records spans while installed; one tracer per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[Any, str, Callable]] = []
        self._op = 0

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.counters = _count(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def run_op(self, op_id: int, call: Callable[[], Any]) -> Any:
        """Run one operation under a root span named ``cli``."""
        self._op = op_id
        span = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(span)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the given spans (one traced pass)."""
    by_id = {sp.id: sp for sp in spans}
    child_time: dict[int, float] = {}
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration

    def self_time(sp: Span) -> float:
        return sp.duration - child_time.get(sp.id, 0.0)

    def under_dynamic(sp: Span) -> bool:
        parent = by_id.get(sp.parent) if sp.parent is not None else None
        return parent is not None and parent.name == "response.dynamic_worst_cut"

    out = dict.fromkeys(LAYER_METRICS, 0)
    for sp in spans:
        c = sp.counters
        if sp.name == "attack.solve_attack":
            if under_dynamic(sp):
                out["response.dynamic_attack.s"] += sp.duration
                out["response.dynamic_bb_nodes"] += c["nodes"]
            else:
                out["attack.solve_attack.s"] += sp.duration
                out["attack.solve_attack.calls"] += 1
                out["attack.bb_nodes"] += c["nodes"]
            out["attack.cuts_applied"] += c["cuts_applied"]
        elif sp.name == "response.solve_response":
            out["response.solve_response.s"] += sp.duration
            out["response.solve_response.calls"] += 1
            out["response.components_max"] = max(
                out["response.components_max"], c["s"])
            out["response.partitions"] += c["partitions"]
            out["response.links_added"] += c["links"]
        elif sp.name == "response.mceic_matrix":
            out["response.mceic_matrix.s"] += sp.duration
        elif sp.name == "response.dynamic_worst_cut":
            out["response.dynamic_worst_cut.self_s"] += self_time(sp)
        elif sp.name == "cuts.cuts_for_knapsack":
            out["cuts.cuts_for_knapsack.s"] += sp.duration
            out["cuts.generated"] += c["generated"]
        elif sp.name == "model_io.export_mip":
            out["model_io.export_mip.s"] += sp.duration
            out["model_io.export_bytes"] += c["bytes"]
        elif sp.name == "model_io.parse_instance":
            out["model_io.parse_instance.s"] += sp.duration
            out["model_io.instance_bytes"] += c["bytes"]
        elif sp.name == "model_io.result_to_dict":
            out["model_io.result_to_dict.s"] += sp.duration
        elif sp.name == "graph.components":
            out["graph.components.s"] += sp.duration
            out["graph.components.calls"] += 1
        elif sp.name == "graph.rupture_score":
            out["graph.rupture_score.calls"] += 1
        elif sp.name == "bench.run_pipeline":
            out["bench.run_pipeline.self_s"] += self_time(sp)
        elif sp.name == "bench.sweep_budget":
            out["bench.sweep_budget.self_s"] += self_time(sp)
        elif sp.name == ROOT_SPAN:
            out["cli.self_s"] += self_time(sp)
    if out["response.solve_response.s"] > 0:
        out["response.partitions_per_s"] = (
            out["response.partitions"] / out["response.solve_response.s"])
    if out["attack.solve_attack.s"] > 0:
        out["attack.bb_nodes_per_s"] = (
            out["attack.bb_nodes"] / out["attack.solve_attack.s"])
    if out["cuts.generated"] > 0:
        out["cuts.applied_per_generated"] = (
            out["attack.cuts_applied"] / out["cuts.generated"])
    return out
