"""In-memory spans around the public calls the benchmark makes.

A span records its layer, the public call, start and end in nanoseconds,
its parent span and the op it belongs to.  Spans stay in memory until the
run ends.  A layer's self time is a span's duration minus the durations of
its children; probes (calls replayed after an op to split a span the
program does not split itself) are children of the span they split even
though they run outside its interval.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "formats", "synthesis", "flatten", "simulator", "envcode")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self.last_op: dict | None = None

    @contextmanager
    def op(self, layer: str, name: str):
        """Top-level span of one op; every span opened inside shares its op id."""
        self._op += 1
        with self.span(layer, name) as rec:
            self.last_op = rec
            yield rec

    @contextmanager
    def span(self, layer: str, name: str, parent: int | None = None):
        rec = {
            "id": len(self.spans),
            "parent": parent if parent is not None else (self._stack[-1] if self._stack else None),
            "op": self._op,
            "layer": layer,
            "name": f"{layer}.{name}",
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def layer_timer(self, rec: dict):
        """An ``on_layer`` callback for ``uflatgen`` that timestamps each layer into ``rec``."""
        stamps = rec.setdefault("layer_end_ns", [])
        return lambda p, _cur: stamps.append(time.perf_counter_ns())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def summarize(spans: list[dict]) -> dict:
    """Per-call and per-layer totals over all ops of a traced run.

    Returns ``ops`` (op count), ``op_ns`` (summed op durations), ``calls``
    ({name: [count, total_ns, self_ns]}), ``layers`` ({layer: self_ns}),
    ``flatten_layers`` ({p: ns}) and ``counts`` (summed numeric attributes
    such as bytes read and written).
    """
    child_ns = defaultdict(int)
    for rec in spans:
        if rec["parent"] is not None:
            child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
    calls: dict[str, list[int]] = {}
    layers = dict.fromkeys(LAYERS, 0)
    flatten_layers: dict[int, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    ops = op_ns = 0
    for rec in spans:
        dur = rec["end_ns"] - rec["start_ns"]
        own = dur - child_ns[rec["id"]]
        if rec["parent"] is None:
            ops += 1
            op_ns += dur
        entry = calls.setdefault(rec["name"], [0, 0, 0])
        entry[0] += 1
        entry[1] += dur
        entry[2] += own
        layers[rec["layer"]] = layers.get(rec["layer"], 0) + own
        prev = rec["start_ns"]
        for p, end in enumerate(rec.get("layer_end_ns", ())):
            flatten_layers[p] += end - prev
            prev = end
        for key, value in rec.get("counts", {}).items():
            counts[key] += value
    return {
        "ops": ops,
        "op_ns": op_ns,
        "calls": calls,
        "layers": layers,
        "flatten_layers": dict(flatten_layers),
        "counts": dict(counts),
    }


def table(summary: dict) -> list[str]:
    """Human-readable per-call and per-layer lines, all per op."""
    ops = max(summary["ops"], 1)
    op_ns = max(summary["op_ns"], 1)
    lines = [f"{'call':<44} {'calls/op':>9} {'ms/op':>10} {'self ms/op':>11}"]
    for name, (count, total, own) in sorted(summary["calls"].items()):
        lines.append(f"{name + '.ms':<44} {count / ops:>9.3f} {total / ops / 1e6:>10.4f} {own / ops / 1e6:>11.4f}")
    for p, ns in sorted(summary["flatten_layers"].items()):
        lines.append(f"{f'flatten.layer.{p}.ms':<44} {'':>9} {ns / ops / 1e6:>10.4f}")
    lines.append(f"{'layer':<44} {'self ms/op':>9} {'share %':>10}")
    for layer, own in summary["layers"].items():
        lines.append(f"{layer:<44} {own / ops / 1e6:>9.4f} {100.0 * own / op_ns:>10.2f}")
    return lines
