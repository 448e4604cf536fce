"""End-to-end amplitude pipeline and the three-method comparison.

direct  - plug, simplify, decompose; no partitioning.
naive   - partition with the same plan the smart method would use, then sum
          all 2^C global assignments with a full per-term reduction of every
          segment: no precompute sharing, no regrouping.
smart   - cut, precompute each part's scalar table over its local
          parameters, regroup cheapest-first.

All three agree on the amplitude; they differ in how many calculations they
spend, which the report itemises.  ``method_seconds`` is the one price of
each method for a plan; the report's estimate and the sweeps read it.  Any
stage whose projection exceeds the resource caps aborts with the plan
attached instead of running.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .circuits import Circuit
from .costmodel import CostModel
from .cutting import instantiate, mul_cut_weight
from .decompose import DecomposeStats, decompose_to_scalar
from .diagram import EdgeKind, Phase, SpiderKind, ZxDiagram, diagram_from_circuit, plug
from .partition import PartitionPlan, choose_k, unsplit_plan
from .regroup import precompute_segment, regroup_all
from .scalars import ScalarC, phase8_complex
from .simplify import clifford_simplify

METHODS = ("direct", "naive", "smart")


@dataclass
class ResourceCaps:
    leaf_evals: float = 2.0 ** 28
    table_entries: float = 2.0 ** 26


class ResourceCapError(RuntimeError):
    """A stage's projected work exceeds the configured caps."""

    def __init__(self, stage: str, projected: float, cap: float, plan: PartitionPlan):
        super().__init__(
            f"{stage}: projected {projected:.3g} exceeds cap {cap:.3g}")
        self.stage = stage
        self.projected = projected
        self.cap = cap
        self.plan = plan


@dataclass
class Report:
    method: str
    amplitude: complex = 0j
    leaf_evals: int = 0
    table_entries: int = 0
    crossref_products: int = 0
    wall_seconds: float = 0.0
    overhead_seconds: float = 0.0
    t_count: int = 0
    plan: PartitionPlan | None = None
    estimates: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "amplitude": {"re": self.amplitude.real, "im": self.amplitude.imag},
            "probability": abs(self.amplitude) ** 2,
            "tCount": self.t_count,
            "counts": {
                "leafEvals": self.leaf_evals,
                "tableEntries": self.table_entries,
                "crossrefProducts": self.crossref_products,
            },
            "estimates": self.estimates,
            "plan": self.plan.to_json_dict() if self.plan else None,
            "wallSeconds": self.wall_seconds,
            "overheadSeconds": self.overhead_seconds,
        }


def _naive_leaves(plan: PartitionPlan, cm: CostModel) -> float:
    """Projected leaves of the naive method: 2^C full per-term reductions."""
    per_term = sum(2.0 ** (cm.alpha * ti) for ti, _ in plan.per_part)
    return (2.0 ** len(plan.cut_spiders)) * per_term


def method_seconds(plan: PartitionPlan, cm: CostModel) -> dict[str, float]:
    """Projected seconds of each method for a plan.  A k = 1 plan runs plain
    decomposition whatever the method."""
    naive = plan.t_direct_est
    if plan.k > 1:
        naive = cm.seconds(_naive_leaves(plan, cm), overhead=cm.t_overhead)
    return {"direct": plan.t_direct_est, "naive": naive, "smart": plan.t_smart_est}


def split_segments(g: ZxDiagram, plan: PartitionPlan
                   ) -> tuple[list[ZxDiagram], list[set[int]], ScalarC]:
    """Carve the simplified diagram into per-part segment diagrams.

    Cut spiders become their fresh parameterised pieces (parameter id = the
    cut spider's own id); each piece lands in the part that owns its edge.
    Returns (segment diagrams, local parameter sets, overall scalar).
    """
    cut = plan.cut_spiders
    part_params = plan.part_params()
    segs = []
    for part in range(plan.k):
        members = {v for v, p in plan.assignment.items() if p == part}
        seg = g.subdiagram(members)
        seg.params = set(part_params[part])
        segs.append(seg)

    overall = g.scalar.copy()
    for w in sorted(cut):
        sw = g.spiders[w]
        if sw.phase.params:
            raise ValueError("cut spiders must be parameter-free; cut before "
                             "introducing other parameters")
        alpha = sw.phase.fixed
        mul_cut_weight(overall, g.degree(w))
        home = min(p for p in range(plan.k) if w in part_params[p])
        segs[home].param_coeffs[w] = (1 + 0j, phase8_complex(alpha))
        for u, row in sorted(g.adj[w].items()):
            for kind in (EdgeKind.PLAIN, EdgeKind.HADAMARD):
                for _ in range(row[kind]):
                    if u in cut:
                        if u < w:
                            continue  # built when visiting the lower id
                        part = plan.edge_parts[(min(w, u), max(w, u))]
                        seg = segs[part]
                        a = seg.add_spider(SpiderKind.Z, Phase(0, frozenset({w})))
                        b = seg.add_spider(SpiderKind.Z, Phase(0, frozenset({u})))
                        seg.add_edge(a, b, kind)
                    else:
                        part = plan.assignment[u]
                        seg = segs[part]
                        piece = seg.add_spider(SpiderKind.Z, Phase(0, frozenset({w})))
                        seg.add_edge(piece, u, EdgeKind(1 - kind))
    return segs, part_params, overall


def simulate_amplitude(
    circ: Circuit,
    in_spec: str,
    out_spec: str,
    method: str = "smart",
    cm: CostModel | None = None,
    caps: ResourceCaps | None = None,
    seed: int = 0,
    force_partition: bool = False,
    plan_only: bool = False,
    trace=None,
) -> tuple[complex, Report]:
    """Compute <out|U|in> by the chosen method, with a cost report.

    ``trace``, if given, records the rewrite steps of the initial Clifford
    simplification round.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cm = cm or CostModel()
    caps = caps or ResourceCaps()
    started = time.perf_counter()
    g = clifford_simplify(plug(diagram_from_circuit(circ), in_spec, out_spec),
                          trace)
    if method == "direct":
        plan = unsplit_plan(g, cm)
    else:
        plan = choose_k(g, cm, seed=seed, force_partition=force_partition)

    report = Report(method=method, t_count=plan.t_total, plan=plan,
                    overhead_seconds=plan.overhead_seconds)
    est_seconds = method_seconds(plan, cm)[method]
    report.estimates = {
        "alpha": cm.alpha,
        "sDecomp": plan.s_decomp,
        "sPrecomp": plan.s_precomp,
        "sCrossref": plan.s_crossref,
        "tEstSeconds": est_seconds,
        "log2Seconds": cm.log2_seconds(est_seconds),
    }
    if plan_only:
        report.wall_seconds = time.perf_counter() - started
        return 0j, report

    stats = DecomposeStats()
    if plan.k == 1:
        if plan.s_decomp > caps.leaf_evals:
            raise ResourceCapError("decompose", plan.s_decomp, caps.leaf_evals, plan)
        value = decompose_to_scalar(g, stats=stats)
    elif method == "smart":
        segs, part_params, overall = split_segments(g, plan)
        if plan.s_precomp > caps.leaf_evals:
            raise ResourceCapError("precompute", plan.s_precomp, caps.leaf_evals, plan)
        entries = sum(2 ** len(ps) for ps in part_params)
        if entries > caps.table_entries:
            raise ResourceCapError("precompute", entries, caps.table_entries, plan)
        biggest_step = max((2 ** p for _, _, p in plan.schedule), default=0)
        if biggest_step > caps.table_entries:
            raise ResourceCapError("crossref", biggest_step, caps.table_entries, plan)
        result = regroup_all([precompute_segment(seg, stats=stats) for seg in segs])
        value = result.value.times(overall)
        report.table_entries = entries
        report.crossref_products = result.s_crossref
    else:
        # naive: brute-force sum over all 2^C assignments, fully re-reducing
        # every segment for every term
        segs, part_params, overall = split_segments(g, plan)
        projected = _naive_leaves(plan, cm)
        if projected > caps.leaf_evals:
            raise ResourceCapError("naive-sum", projected, caps.leaf_evals, plan)
        all_params = sorted(plan.cut_spiders)
        c = len(all_params)
        total = ScalarC.zero()
        for idx in range(2 ** c):
            bits = {p: (idx >> (c - 1 - pos)) & 1 for pos, p in enumerate(all_params)}
            term = ScalarC.one()
            for seg, ps in zip(segs, part_params):
                local = {p: bits[p] for p in sorted(ps)}
                term.mul(decompose_to_scalar(instantiate(seg, local), stats=stats))
                if term.is_zero:
                    break
            total = total.plus(term)
        value = total.times(overall)
        report.crossref_products = 2 ** c

    report.leaf_evals = stats.leaves
    report.amplitude = value.to_complex()
    report.wall_seconds = time.perf_counter() - started
    return report.amplitude, report
