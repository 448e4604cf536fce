"""End-to-end amplitude pipeline and the three-method comparison.

direct  - plug, simplify, decompose; no partitioning.
naive   - partition with the same plan the smart method would use, then sum
          all 2^C global assignments with a full per-term reduction of every
          segment: no precompute sharing, no regrouping.
smart   - cut, precompute each part's scalar table over its local
          parameters, regroup cheapest-first.  Unforced, it decomposes
          first (``decompose_first``): each connected component is reduced
          by plain decomposition within ``LEAF_BUDGET`` leaves, and only the
          components that overrun are planned, cut and regrouped.

All three agree on the amplitude; they differ in how many calculations they
spend, which the report itemises.  ``method_seconds`` is the one price of
each method for a plan, and ``run_plan`` the one runner of a plan, which
``decompose_first`` calls for the components that overrun.  A plan-only
report holds the full planner's plan (``choose_k`` over every component); a
run reports the plan it ran.  Any stage whose projection exceeds the
resource caps aborts with the plan attached instead of running, and so does
a run whose next leaf, wasted ones counted, would pass the cap.
Cuts are built by ``cutting``.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .circuits import Circuit
from .costmodel import CostModel
from .cutting import cut_spiders, instantiate
from .decompose import DENSE_MAX_SPIDERS, DecomposeStats, LeafCapError, decompose_to_scalar
from .diagram import ZxDiagram, diagram_from_circuit, plug
from .partition import PartitionPlan, _merge, choose_k, unsplit_plan
from .regroup import precompute_segment, regroup_all
from .scalars import ScalarC
from .simplify import clifford_simplify

METHODS = ("direct", "naive", "smart")


@dataclass
class ResourceCaps:
    leaf_evals: float = 2.0 ** 28
    table_entries: float = 2.0 ** 26

    def __post_init__(self):
        # written so that NaN fails it; inf turns a cap off
        for key in ("leaf_evals", "table_entries"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be at least 0 (inf for no cap)")


class ResourceCapError(RuntimeError):
    """A stage's projected work exceeds the configured caps, or, when
    ``measured``, the leaves it has evaluated so far do."""

    def __init__(self, stage: str, projected: float, cap: float, plan: PartitionPlan,
                 measured: bool = False):
        done = "evaluated" if measured else "projected"
        super().__init__(f"{stage}: {done} {projected:.3g} exceeds cap {cap:.3g}")
        self.stage = stage
        self.projected = projected
        self.cap = cap
        self.plan = plan
        self.measured = measured


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

    Every cut spider is cut with its own id as parameter.  A piece joins the
    part of the plan edge it was cut from, to an uncut spider or to another
    cut spider, and a parameter's coefficients join its lowest part.
    Returns (segment diagrams, local parameter sets, overall scalar).
    """
    if any(g.spiders[w].phase.params for w in plan.cut_spiders):
        raise ValueError("cut spiders must be parameter-free; cut before "
                         "introducing other parameters")
    cut = cut_spiders(g, {w: w for w in plan.cut_spiders})
    part_of = dict(plan.assignment)
    for piece in cut.spiders.keys() - g.spiders.keys():
        (u,) = cut.adj[piece]
        (w,) = cut.spiders[piece].phase.params
        x = u if u in g.spiders else min(cut.spiders[u].phase.params)
        part_of[piece] = plan.edge_parts[(min(w, x), max(w, x))]

    part_params = plan.part_params()
    members = [[] for _ in part_params]
    for v, part in part_of.items():
        members[part].append(v)
    segs = cut.carve(members)  # parts share only immutable values with the cut
    for seg, params in zip(segs, part_params):
        seg.params = set(params)
    for p, coeffs in cut.param_coeffs.items():
        home = min(i for i, params in enumerate(part_params) if p in params)
        segs[home].param_coeffs[p] = coeffs
    return segs, part_params, cut.scalar


def _planned_report(plan: PartitionPlan, method: str, cm: CostModel) -> Report:
    est = method_seconds(plan, cm)[method]
    return Report(method=method, t_count=plan.t_total, plan=plan,
                  overhead_seconds=plan.overhead_seconds, estimates={
                      "alpha": cm.alpha, "sDecomp": plan.s_decomp,
                      "sPrecomp": plan.s_precomp, "sCrossref": plan.s_crossref,
                      "tEstSeconds": est, "log2Seconds": cm.log2_seconds(est)})


def run_plan(g: ZxDiagram, plan: PartitionPlan, method: str, cm: CostModel,
             caps: ResourceCaps, spent: int = 0) -> Report:
    """Compute the amplitude of the simplified scalar diagram ``g`` by
    ``method`` on ``plan`` within ``caps``, timing this call.  A k = 1 plan
    runs plain decomposition, the only plan ``direct`` runs.  ``g`` is left
    unchanged, so every method can run on the same diagram.  ``spent``
    leaves, evaluated earlier in the same run, count toward
    ``caps.leaf_evals`` and the report's ``leaf_evals``."""
    if method not in METHODS or (method == "direct" and plan.k > 1):
        raise ValueError(f"method {method!r} cannot run a {plan.k}-part plan")
    started = time.perf_counter()
    report = _planned_report(plan, method, cm)
    # the projected checks come first; the leaves evaluated, summed over
    # every segment and assignment, are capped as they are counted
    stage = "decompose" if plan.k == 1 else "precompute" if method == "smart" else "naive-sum"
    projected = {"decompose": plan.s_decomp, "precompute": plan.s_precomp,
                 "naive-sum": _naive_leaves(plan, cm)}[stage]
    if spent + projected > caps.leaf_evals:
        raise ResourceCapError(stage, spent + projected, caps.leaf_evals, plan)
    if stage == "precompute":
        entries = sum(2 ** len(ps) for ps in plan.part_params())
        if entries > caps.table_entries:
            raise ResourceCapError("precompute", entries, caps.table_entries, plan)
        biggest_step = max((2 ** p for _, _, p in plan.schedule), default=0)
        if biggest_step > caps.table_entries:
            raise ResourceCapError("crossref", biggest_step, caps.table_entries, plan)
    if plan.k > 1:
        segs, part_params, overall = split_segments(g, plan)
    stats = DecomposeStats(leaves=spent, leaf_cap=caps.leaf_evals)
    try:
        if plan.k == 1:
            value = decompose_to_scalar(g, stats=stats)
        elif method == "smart":
            result = regroup_all([precompute_segment(seg, stats=stats) for seg in segs])
            value = result.value.times(overall)
            report.table_entries = entries
            report.crossref_products = result.s_crossref
        else:
            # naive: brute-force sum over all 2^C assignments, fully re-reducing
            # every segment for every term
            all_params = sorted(plan.cut_spiders)
            total = ScalarC.zero()
            for bits in itertools.product((0, 1), repeat=len(all_params)):
                assignment = dict(zip(all_params, bits))
                term = ScalarC.one()
                for seg, ps in zip(segs, part_params):
                    local = {p: assignment[p] for p in sorted(ps)}
                    term.mul(decompose_to_scalar(instantiate(seg, local), stats=stats))
                    if term.is_zero:
                        break
                total = total.plus(term)
            value = total.times(overall)
            report.crossref_products = 2 ** len(all_params)
    except LeafCapError:  # raised before the leaf past the cap is counted
        raise ResourceCapError(stage, stats.leaves + 1, caps.leaf_evals, plan,
                               measured=True) from None

    report.leaf_evals = stats.leaves
    report.amplitude = value.to_complex()
    report.wall_seconds = time.perf_counter() - started
    return report


# Leaves a connected component may take by plain decomposition before it is
# planned instead.  A component that overruns has wasted at most this many
# leaves, so decomposing first costs at most that much more than planning
# straight away (the ski-rental argument: Karlin, Manasse, Rudolph & Sleator,
# "Competitive snoopy caching", Algorithmica 3, 1988).  Chosen from a sweep
# over 8-128 on the random and compound benchmark workloads (CHANGES.md).
LEAF_BUDGET = 32


def decompose_first(g: ZxDiagram, cm: CostModel, caps: ResourceCaps, seed: int = 0) -> Report:
    """The unforced ``smart`` run of the simplified scalar diagram ``g``,
    timing this call, planning included.

    Every connected component (a diagram without spiders is one empty
    component, worth one leaf) is reduced by plain decomposition within
    ``LEAF_BUDGET`` leaves.  A diagram of at most ``DENSE_MAX_SPIDERS``
    spiders is one dense leaf as a whole, so it is reduced in one call, not
    one per component.  The components that overrun are carved into one
    sub-diagram, which ``choose_k`` plans (an empty one when nothing overran)
    and ``run_plan`` runs.  The report's plan merges every finished
    component, as one unsplit part, with the plan that ran, and its
    ``overhead_seconds`` is that planning.  The leaves an overrun wasted
    count toward ``caps.leaf_evals`` and ``leaf_evals``; reaching a leaf past
    the cap raises a measured ``ResourceCapError`` with the plan so far.
    A measured sweep cell times ``smart`` by this call.
    """
    started = time.perf_counter()
    whole = unsplit_plan(g, cm)
    comps = g.carve(sorted(g.connected_components(), key=min)) or [ZxDiagram()]
    one_leaf = len(g.spiders) <= DENSE_MAX_SPIDERS
    value = g.scalar.copy()
    stats = DecomposeStats()
    finished, overran = [], []
    for comp in g.carve([g.spiders]) if one_leaf else comps:
        stats.leaf_cap = min(stats.leaves + LEAF_BUDGET, caps.leaf_evals)
        try:
            value.mul(decompose_to_scalar(comp, stats=stats))
            finished.append(comp)
        except LeafCapError:
            if stats.leaves + 1 > caps.leaf_evals:
                plan = _merge([unsplit_plan(c, cm) for c in comps], whole, cm)
                raise ResourceCapError("decompose", stats.leaves + 1, caps.leaf_evals, plan,
                                       measured=True) from None
            overran.append(comp)
    if one_leaf and finished:
        finished = comps  # one unsplit part per component all the same

    sub = g.carve([[v for comp in overran for v in comp.spiders]])[0]
    sub.scalar = value  # the finished components' factor rides on the run
    sub_plan = choose_k(sub, cm, seed=seed)
    plan = _merge([unsplit_plan(c, cm) for c in finished]
                  + ([sub_plan] if overran else []), whole, cm)
    plan.overhead_seconds = sub_plan.overhead_seconds
    report = _planned_report(plan, "smart", cm)
    if overran:
        try:
            ran = run_plan(sub, sub_plan, "smart", cm, caps, spent=stats.leaves)
        except ResourceCapError as err:
            err.plan = plan
            raise
        report.amplitude = ran.amplitude
        report.leaf_evals = ran.leaf_evals
        report.table_entries = ran.table_entries
        report.crossref_products = ran.crossref_products
    else:
        report.amplitude = value.to_complex()
        report.leaf_evals = stats.leaves
    report.wall_seconds = time.perf_counter() - started
    return report


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
    """Compute <out|U|in> by the chosen method, with a cost report: build,
    simplify, then ``decompose_first`` for an unforced ``smart`` run, and
    otherwise plan and ``run_plan`` unless ``plan_only``.  A plan-only
    report holds the full planner's plan, a run's report the plan it ran.

    ``trace``, if given, records the rewrite steps of the initial Clifford
    simplification round.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    cm = cm or CostModel()
    started = time.perf_counter()
    g = clifford_simplify(plug(diagram_from_circuit(circ), in_spec, out_spec),
                          trace)
    caps = caps or ResourceCaps()
    if method == "smart" and not (force_partition or plan_only):
        report = decompose_first(g, cm, caps, seed)
    else:
        if method == "direct":
            plan = unsplit_plan(g, cm)
        else:
            plan = choose_k(g, cm, seed=seed, force_partition=force_partition)
        if plan_only:
            report = _planned_report(plan, method, cm)
        else:
            report = run_plan(g, plan, method, cm, caps)
    report.wall_seconds = time.perf_counter() - started
    return report.amplitude, report
