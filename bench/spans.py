"""In-memory spans around the calls into each layer, and the per-layer
metrics derived from them.

The tracer replaces module attributes at the names through which
``engine``, ``regroup``, ``decompose`` and ``partition`` call the next layer,
so the program itself is unchanged.  Every span records its layer, the
operation it belongs to, its parent span, start and end; a layer's self time
is its spans' durations minus the parts covered by their child spans.
"""
from __future__ import annotations

import importlib
import json
import math
import time

# (module, attribute, layer); a layer is named after the module that owns it
WRAPS = (
    ("zxcut.engine", "diagram_from_circuit", "diagram"),
    ("zxcut.engine", "plug", "diagram"),
    ("zxcut.engine", "clifford_simplify", "simplify"),
    ("zxcut.decompose", "clifford_simplify", "simplify"),
    ("zxcut.regroup", "param_safe_simplify", "simplify"),
    ("zxcut.engine", "choose_k", "partition"),
    ("zxcut.partition", "partition_k", "partition"),
    ("zxcut.engine", "split_segments", "engine"),
    ("zxcut.engine", "instantiate", "cutting"),
    ("zxcut.regroup", "instantiate", "cutting"),
    ("zxcut.engine", "precompute_segment", "precompute"),
    ("zxcut.engine", "decompose_to_scalar", "decompose"),
    ("zxcut.regroup", "decompose_to_scalar", "decompose"),
    ("zxcut.engine", "regroup_all", "regroup"),
    ("zxcut.regroup", "regroup_all", "regroup"),
)

# metric name -> unit; times and counts are per operation
PER_LAYER_UNITS = {
    "diagram.build_s": "s/op",
    "simplify.calls": "count/op",
    "simplify.s": "s/op",
    "partition.s": "s/op",
    "partition.k_runs": "count/op",
    "partition.share": "ratio",
    "partition.cuts": "count/op",
    "engine.split_s": "s/op",
    "cutting.instantiate_calls": "count/op",
    "cutting.instantiate_s": "s/op",
    "regroup.precompute_s": "s/op",
    "regroup.table_entries": "count/op",
    "decompose.s": "s/op",
    "decompose.leaves": "count/op",
    "decompose.leaves_per_s": "1/s",
    "decompose.alpha": "ratio",
    "regroup.regroup_s": "s/op",
    "regroup.products": "count/op",
    "regroup.products_per_s": "1/s",
    "costmodel.log2_err": "log2",
}

ALPHA_MIN_T = 8  # as in zxcut.measure_alpha: smaller T-counts say little


class Span:
    __slots__ = ("layer", "name", "op", "parent", "start", "end", "child", "counts")

    def __init__(self, layer, name, op, parent, start):
        self.layer, self.name, self.op, self.parent = layer, name, op, parent
        self.start, self.end, self.child, self.counts = start, 0.0, 0.0, None

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped attributes in and out."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op_id = -1
        self.ops: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(layer, name, self.op_id, parent, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start

    def begin_op(self, label: str) -> None:
        self.op_id += 1
        self._open("op", label)

    def end_op(self, ok: bool, projected_s: float | None) -> None:
        span = self.stack[-1]
        self._close(span)
        self.ops.append({"wall": span.end - span.start, "ok": ok, "projected": projected_s})

    def wrap(self, func, layer: str):
        name = func.__name__
        tracer = self

        if layer == "decompose":
            from zxcut import DecomposeStats

            def traced(d, decomposition=None, stats=None):
                own = stats if stats is not None else DecomposeStats()
                before = own.leaves
                span = tracer._open(layer, name)
                try:
                    return func(d, decomposition, own)
                finally:
                    tracer._close(span)
                    span.counts = {"leaves": own.leaves - before, "t": own.t_initial}
            return traced

        def traced(*args, **kwargs):
            span = tracer._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "choose_k":
                span.counts = {"cuts": len(result.cut_spiders)}
            elif name == "precompute_segment":
                span.counts = {"entries": len(result.scalars)}
            elif name == "regroup_all":
                span.counts = {"products": result.s_crossref}
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, layer in WRAPS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self.wrap(func, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, func = self._saved.pop()
            setattr(module, attr, func)

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "op": s.op, "parent": index[id(s.parent)] if s.parent else None,
                       "layer": s.layer, "name": s.name, "start": s.start, "end": s.end,
                       "self": s.self_s}
                if s.counts:
                    row.update(s.counts)
                fh.write(json.dumps(row) + "\n")

    def per_layer(self) -> dict[str, float]:
        """Per-layer metrics over all recorded operations."""
        n_ops = max(len(self.ops), 1)
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        k_runs = cuts = entries = products = leaves = 0
        alphas = []
        for s in self.spans:
            self_s[s.layer] = self_s.get(s.layer, 0.0) + s.self_s
            calls[s.layer] = calls.get(s.layer, 0) + 1
            if s.parent is None or s.parent.layer != s.layer:
                incl[s.layer] = incl.get(s.layer, 0.0) + (s.end - s.start)
            if s.name == "partition_k":
                k_runs += 1
            c = s.counts
            if not c:
                continue
            cuts += c.get("cuts", 0)
            entries += c.get("entries", 0)
            products += c.get("products", 0)
            if "leaves" in c:
                leaves += c["leaves"]
                if c["t"] >= ALPHA_MIN_T:
                    alphas.append(math.log2(max(c["leaves"], 1)) / c["t"])
        wall = sum(o["wall"] for o in self.ops)
        errs = [abs(math.log2(o["wall"] / o["projected"])) for o in self.ops
                if o["ok"] and o["projected"]]

        def per_op(x):
            return x / n_ops

        def rate(count, layer):
            return count / incl[layer] if incl.get(layer) else 0.0

        return {
            "diagram.build_s": per_op(self_s.get("diagram", 0.0)),
            "simplify.calls": per_op(calls.get("simplify", 0)),
            "simplify.s": per_op(self_s.get("simplify", 0.0)),
            "partition.s": per_op(self_s.get("partition", 0.0)),
            "partition.k_runs": per_op(k_runs),
            "partition.share": self_s.get("partition", 0.0) / wall if wall else 0.0,
            "partition.cuts": per_op(cuts),
            "engine.split_s": per_op(self_s.get("engine", 0.0)),
            "cutting.instantiate_calls": per_op(calls.get("cutting", 0)),
            "cutting.instantiate_s": per_op(self_s.get("cutting", 0.0)),
            "regroup.precompute_s": per_op(self_s.get("precompute", 0.0)),
            "regroup.table_entries": per_op(entries),
            "decompose.s": per_op(self_s.get("decompose", 0.0)),
            "decompose.leaves": per_op(leaves),
            "decompose.leaves_per_s": rate(leaves, "decompose"),
            "decompose.alpha": sum(alphas) / len(alphas) if alphas else 0.0,
            "regroup.regroup_s": per_op(self_s.get("regroup", 0.0)),
            "regroup.products": per_op(products),
            "regroup.products_per_s": rate(products, "regroup"),
            "costmodel.log2_err": sum(errs) / len(errs) if errs else 0.0,
        }

    def precompute_rate(self) -> float:
        """Leaves per second of inclusive ``precompute_segment`` time: the
        measured counterpart of the cost model's ``rPrecomp``."""
        leaves = busy = 0.0
        for s in self.spans:
            if s.layer == "precompute":
                busy += s.end - s.start
            elif s.counts and "leaves" in s.counts and s.parent is not None \
                    and s.parent.layer == "precompute":
                leaves += s.counts["leaves"]
        return leaves / busy if busy else 0.0
