"""Balanced k-way partitioning of ZX-diagrams by vertex cuts, planned one
connected component at a time.

A simplified diagram that falls apart into connected components is already
partitioned, with zero cuts.  ``choose_k`` therefore plans each component on
its own and merges the component plans into one: part ids are offset per
component, and the regroup schedule is worked out once over all parts.

Within a component, the diagram maps to its dual hypergraph (every edge a
node, every spider a hyperedge over its incident edges, T-spiders weighted 1
for balance), which is split by seeded multi-start recursive bisection with
Fiduccia-Mattheyses refinement.  A spider whose incident edges span more
than one part is a cut spider; parts are balanced on the T-weight of the
spiders they fully contain.

Every candidate is priced with the one leaf rate of the cost model:
2^(alpha*t_i + c_i) leaves per part plus the cross-referencing products.  A
component's k = 1 candidate therefore costs exactly what plain decomposition
of it costs.  The merged plan pays the configured overhead once and competes
with plain decomposition of the whole diagram, so partitioning never looks
worse than not partitioning.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from numpy.random import default_rng

from .costmodel import CostModel
from .diagram import SpiderKind, ZxDiagram
from .regroup import plan_schedule

FM_STARTS = 8
FM_PASSES = 3
FM_EPS = 0.1  # T-weight balance: a part may hold (1 + FM_EPS) times its share


@dataclass
class PartitionHypergraph:
    """Dual view: one node per ZX edge, one hyperedge per spider."""

    pins: list[list[int]]          # hyperedge -> node indices
    weights: list[int]             # hyperedge T-weight (1 for T-spiders)
    spider_of: list[int]           # hyperedge -> spider id
    node_edges: list[list[int]]    # node -> hyperedges (its two endpoints)
    edge_keys: list[tuple[int, int]]  # node -> (u, v) spider pair, u <= v

    @property
    def n_nodes(self) -> int:
        return len(self.node_edges)


def to_partition_hypergraph(d: ZxDiagram) -> PartitionHypergraph:
    """Exchange every edge for a node and every spider for a hyperedge over
    its incident edges.  Spiders with no edges are dropped (they are plain
    scalars, evaluated before partitioning ever sees them)."""
    edge_ids: list[tuple[int, int]] = []
    node_edges: list[list[int]] = []
    hyper_index: dict[int, int] = {}
    pins: list[list[int]] = []
    weights: list[int] = []
    spider_of: list[int] = []

    for v in sorted(d.spiders):
        s = d.spiders[v]
        if d.degree(v) == 0:
            continue
        hyper_index[v] = len(pins)
        pins.append([])
        spider_of.append(v)
        weights.append(1 if s.kind != SpiderKind.BOUNDARY and s.phase.is_t() else 0)

    for u, v, _kind in d.edges():
        n = len(edge_ids)
        edge_ids.append((min(u, v), max(u, v)))
        touching = []
        for end in {u, v}:
            e = hyper_index[end]
            pins[e].append(n)
            touching.append(e)
        node_edges.append(touching)
    return PartitionHypergraph(pins, weights, spider_of, node_edges, edge_ids)


# -- Fiduccia-Mattheyses bisection --------------------------------------------

class _Bisection:
    """One two-way split over a subset of nodes, tracked incrementally.

    Only hyperedges entirely inside the subset ("alive") carry weight or
    gain: a spider already cut by an enclosing split stays cut no matter
    what happens here.
    """

    def __init__(self, h: PartitionHypergraph, nodes: list[int]):
        self.h = h
        self.nodes = list(nodes)
        node_set = set(nodes)
        self.side = {n: 1 for n in nodes}
        self.ncount = [0, len(nodes)]
        self.alive = [e for e in {e for n in nodes for e in h.node_edges[n]}
                      if all(p in node_set for p in h.pins[e])]
        self.cnt = {e: [0, len(set(h.pins[e]))] for e in self.alive}
        self.total_t = sum(h.weights[e] for e in self.alive)
        self.tw = [0, self.total_t]
        self._edges_of = {
            n: [e for e in set(h.node_edges[n]) if e in self.cnt] for n in nodes
        }
        # every node's neighbours through alive hyperedges, itself included
        self.nbrs = {
            n: sorted({m for e in self._edges_of[n] for m in h.pins[e]}) for n in nodes
        }
        self.cut = 0  # alive hyperedges with pins on both sides

    def cut_size(self) -> int:
        return self.cut

    def imbalance(self, targets) -> float:
        return max(0.0, self.tw[0] - targets[0], self.tw[1] - targets[1])

    def gain(self, n: int) -> int:
        s = self.side[n]
        g = 0
        for e in self._edges_of[n]:
            c = self.cnt[e]
            if c[1 - s] == 0 and c[s] > 1:
                g -= 1
            elif c[s] == 1 and c[1 - s] > 0:
                g += 1
        return g

    def move(self, n: int) -> None:
        s = self.side[n]
        for e in self._edges_of[n]:
            c = self.cnt[e]
            w = self.h.weights[e]
            was_cut = c[1 - s] > 0
            if not was_cut:
                self.tw[s] -= w
            c[s] -= 1
            c[1 - s] += 1
            if c[s] == 0:
                self.tw[1 - s] += w
            self.cut += (c[s] > 0) - was_cut
        self.side[n] = 1 - s
        self.ncount[s] -= 1
        self.ncount[1 - s] += 1

    def feasible(self, n: int, caps, floors) -> bool:
        s = self.side[n]
        if self.ncount[s] - 1 < floors[s]:
            return False
        arriving = sum(self.h.weights[e] for e in self._edges_of[n]
                       if self.cnt[e][s] == 1 and self.cnt[e][1 - s] > 0)
        return self.tw[1 - s] + arriving <= caps[1 - s]


def _node_components(bis: _Bisection) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in bis.nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            n = stack.pop()
            for m in bis.nbrs[n]:
                if m not in seen:
                    seen.add(m)
                    comp.append(m)
                    stack.append(m)
        comps.append(comp)
    return comps


def _seed_side0(bis: _Bisection, target0: float, floors, rng) -> None:
    """Grow side 0 to roughly its T-weight target, keeping the best stop
    within the node-floor window."""
    comps = _node_components(bis)
    if len(comps) > 1:
        # pack whole components: no cut needed between them.  choose_k hands
        # partition_k one connected component at a time, but this is still
        # reached: a bisection for k >= 3 can leave one side in disconnected
        # pieces, and partition_k is public.
        def cw(comp):
            cset = set(comp)
            t = sum(bis.h.weights[e] for e in bis.alive
                    if all(p in cset for p in bis.h.pins[e]))
            return t if t else len(comp) * 1e-6
        targets = (max(target0, 1e-9), max(bis.total_t - target0, 1e-9))
        load = [0.0, 0.0]
        ordered = sorted(comps, key=lambda c: (-cw(c), -len(c), c[0]))
        for comp in ordered:
            s = 0 if load[0] / targets[0] <= load[1] / targets[1] else 1
            if s == 0:
                for n in comp:
                    bis.move(n)
            load[s] += cw(comp)
        if bis.ncount[0] == 0 or bis.ncount[1] == 0:
            for n in ordered[-1]:
                bis.move(n)
        return
    order = []
    start = bis.nodes[int(rng.integers(len(bis.nodes)))]
    seen = {start}
    queue = [start]
    while queue:
        n = queue.pop(0)
        order.append(n)
        for m in bis.nbrs[n]:
            if m not in seen:
                seen.add(m)
                queue.append(m)
    lo = max(1, floors[0])
    hi = max(lo, len(order) - max(1, floors[1]))
    best = None
    best_idx = lo
    for i, n in enumerate(order[:-1], start=1):
        bis.move(n)
        if not (lo <= i <= hi):
            continue
        key = (abs(bis.tw[0] - target0), bis.cut_size(), i)
        if best is None or key < best:
            best = key
            best_idx = i
    for n in reversed(order[best_idx:-1]):
        bis.move(n)


def _fm_refine(bis: _Bisection, caps, floors, targets) -> None:
    for _ in range(FM_PASSES):
        locked: set[int] = set()
        heap = [(-bis.gain(n), n) for n in bis.nodes]
        heapq.heapify(heap)
        history: list[int] = []
        trace = [(bis.cut_size(), bis.imbalance(targets))]
        while heap:
            negg, n = heapq.heappop(heap)
            if n in locked:
                continue
            g = bis.gain(n)
            if -negg != g:
                heapq.heappush(heap, (-g, n))
                continue
            if not bis.feasible(n, caps, floors):
                locked.add(n)
                continue
            bis.move(n)
            locked.add(n)
            history.append(n)
            trace.append((bis.cut_size(), bis.imbalance(targets)))
            for m in bis.nbrs[n]:
                if m not in locked:
                    heapq.heappush(heap, (-bis.gain(m), m))
        best = min(range(len(trace)), key=lambda i: (trace[i], i))
        for n in reversed(history[best:]):
            bis.move(n)
        if best == 0:
            break


def _fm_bisect(h, nodes, k0, k1, rng) -> dict[int, int]:
    bis = _Bisection(h, nodes)
    frac = k0 / (k0 + k1)
    targets = (bis.total_t * frac, bis.total_t * (1 - frac))
    caps = ((1 + FM_EPS) * targets[0] + 1e-9, (1 + FM_EPS) * targets[1] + 1e-9)
    # node floors guard against one side degenerating to a sliver of edges
    # that contains no whole spider
    floors = (max(k0, int(0.6 * len(nodes) * frac)),
              max(k1, int(0.6 * len(nodes) * (1 - frac))))
    _seed_side0(bis, targets[0], floors, rng)
    _fm_refine(bis, caps, floors, targets)
    if bis.ncount[0] == 0 or bis.ncount[1] == 0:
        lone = 0 if bis.ncount[0] == 0 else 1
        flip = max(bis.nodes, key=lambda n: (bis.gain(n), -n))
        if bis.side[flip] != lone:
            bis.move(flip)
    return dict(bis.side)


def _recursive_partition(h, nodes, k, rng, next_part, assignment):
    if k == 1 or len(nodes) == 1:
        for n in nodes:
            assignment[n] = next_part[0]
        next_part[0] += 1
        return
    k0 = k // 2
    k1 = k - k0
    side = _fm_bisect(h, nodes, k0, k1, rng)
    left = [n for n in nodes if side[n] == 0]
    right = [n for n in nodes if side[n] == 1]
    _recursive_partition(h, left, k0, rng, next_part, assignment)
    _recursive_partition(h, right, k1, rng, next_part, assignment)


def partition_k(
    h: PartitionHypergraph,
    k: int,
    seed: int = 0,
) -> tuple[dict[int, int], set[int], dict[int, int]]:
    """Split the hypergraph into k parts, minimising cut spiders with
    T-weight balance (1+FM_EPS), the best of FM_STARTS seeded starts.
    Returns (spider id -> part for uncut spiders, set of cut spider ids,
    hypergraph node -> part)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > len(h.pins):
        raise ValueError(f"k={k} exceeds spider count {len(h.pins)}")
    if k > h.n_nodes:
        raise ValueError(f"k={k} exceeds edge count {h.n_nodes}")
    nodes = list(range(h.n_nodes))
    best = None
    for s in range(FM_STARTS):
        rng = default_rng((seed, k, s))
        assignment: dict[int, int] = {}
        _recursive_partition(h, nodes, k, rng, [0], assignment)
        key, cut, spider_part = _evaluate(h, assignment, k)
        if best is None or key < best[0]:
            best = (key, assignment, cut, spider_part)
    _, node_assignment, cut, spider_part = best
    return spider_part, cut, node_assignment


def _evaluate(h, node_assignment, k):
    """Rank a candidate: spider-empty parts first, then balance-cap
    violation, then cut size, then residual imbalance."""
    spider_part: dict[int, int] = {}
    cut: set[int] = set()
    part_t = [0] * k
    part_spiders = [0] * k
    for e, pin_list in enumerate(h.pins):
        parts = {node_assignment[n] for n in pin_list}
        if len(parts) == 1:
            p = parts.pop()
            spider_part[h.spider_of[e]] = p
            part_t[p] += h.weights[e]
            part_spiders[p] += 1
        else:
            cut.add(h.spider_of[e])
    total_t = sum(part_t) + sum(
        h.weights[e] for e in range(len(h.pins)) if h.spider_of[e] in cut)
    cap = (1 + FM_EPS) * total_t / k + 1e-9
    violation = sum(max(0.0, t - cap) for t in part_t)
    empty = sum(1 for c in part_spiders if c == 0)
    imbalance = max(part_t) - total_t / k if total_t else 0.0
    key = (empty, violation, len(cut), imbalance)
    return key, cut, spider_part


# -- plan selection ------------------------------------------------------------

@dataclass
class PartitionPlan:
    k: int
    assignment: dict[int, int] = field(default_factory=dict)
    cut_spiders: set[int] = field(default_factory=set)
    per_part: list[tuple[int, int]] = field(default_factory=list)  # (t_i, c_i)
    t_total: int = 0
    s_precomp: float = 1.0
    s_crossref: int = 0
    s_decomp: float = 1.0
    t_direct_est: float = 0.0
    t_smart_est: float = 0.0
    schedule: list[tuple[int, int, int]] = field(default_factory=list)
    edge_parts: dict[tuple[int, int], int] = field(default_factory=dict)
    overhead_seconds: float = 0.0
    alpha: float = 0.32

    def part_params(self) -> list[set[int]]:
        """Cut spiders touching each part (the plan-level parameter sets)."""
        out = [set() for _ in range(self.k)]
        for (u, v), part in self.edge_parts.items():
            for end in (u, v):
                if end in self.cut_spiders:
                    out[part].add(end)
        return out

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "cutSpiders": sorted(self.cut_spiders),
            "totalCuts": len(self.cut_spiders),
            "perPart": [{"t": t, "c": c} for t, c in self.per_part],
            "sPrecomp": self.s_precomp,
            "sCrossref": self.s_crossref,
            "sDecomp": self.s_decomp,
            "tDirectEst": self.t_direct_est,
            "tSmartEst": self.t_smart_est,
            "alpha": self.alpha,
            "schedule": [{"pair": [i, j], "p": p} for i, j, p in self.schedule],
            "overheadSeconds": self.overhead_seconds,
        }


def unsplit_plan(d: ZxDiagram, cm: CostModel) -> PartitionPlan:
    """The k = 1 plan: every spider in one part, priced as plain
    decomposition."""
    t = d.t_count()
    plan = PartitionPlan(k=1, alpha=cm.alpha, t_total=t, per_part=[(t, 0)],
                         assignment=dict.fromkeys(d.spiders, 0))
    plan.s_decomp = plan.s_precomp = 2.0 ** (cm.alpha * t)
    plan.t_direct_est = plan.t_smart_est = cm.seconds(plan.s_decomp)
    return plan


def _price(plan: PartitionPlan, part_t: list[int], cm: CostModel,
           overhead: float) -> None:
    """Price a split plan whose part i holds T-count part_t[i]: its
    ``per_part``, precompute leaves, regroup schedule and projected seconds."""
    params = plan.part_params()
    plan.per_part = [(ti, len(ps)) for ti, ps in zip(part_t, params)]
    plan.s_precomp = sum(2.0 ** (cm.alpha * ti + ci) for ti, ci in plan.per_part)
    plan.schedule, plan.s_crossref = plan_schedule(params)
    plan.t_smart_est = cm.seconds(plan.s_precomp, plan.s_crossref, overhead)


def _cheapest(candidates: list[PartitionPlan], force_partition: bool) -> PartitionPlan:
    pool = [c for c in candidates if c.k >= 2] if force_partition else candidates
    return min(pool or candidates, key=lambda c: (c.t_smart_est, c.k))


def _plan_component(
    d: ZxDiagram,
    cm: CostModel,
    k_max: int | None,
    seed: int,
    force_partition: bool,
) -> PartitionPlan:
    """The candidate loop: price k = 1..k_max for one connected diagram and
    keep the cheapest.  Its splits are priced without overhead, which the
    merged plan pays once."""
    base = unsplit_plan(d, cm)
    t = base.t_total
    if k_max is None:
        # floor of 2 so the free search always sees the first split; a bare
        # t/4 would stop forced k>=2 runs from ever being comparable
        k_max = min(16, max(t // 4, 2))

    h = to_partition_hypergraph(d) if d.spiders else None
    candidates = [base]
    if h is not None and h.n_nodes:
        base.edge_parts = dict.fromkeys(h.edge_keys, 0)
        upper = min(k_max, len(h.pins), h.n_nodes)
        if force_partition:
            upper = max(upper, min(2, len(h.pins), h.n_nodes))
        for k in range(2, upper + 1):
            spider_part, cut, node_assignment = partition_k(h, k, seed=seed)
            plan = PartitionPlan(k=k, assignment=spider_part, cut_spiders=cut,
                                 alpha=cm.alpha, t_total=t)
            plan.edge_parts = {
                h.edge_keys[n]: part for n, part in node_assignment.items()
            }
            part_t = [0] * k
            for v, part in spider_part.items():
                if d.spiders[v].phase.is_t():
                    part_t[part] += 1
            _price(plan, part_t, cm, 0.0)
            candidates.append(plan)
    return _cheapest(candidates, force_partition)


def _merge(parts: list[PartitionPlan], whole: PartitionPlan, cm: CostModel) -> PartitionPlan:
    """One plan from the component plans: part ids offset per component, the
    regroup schedule worked out once over all parts, the overhead paid once."""
    plan = PartitionPlan(k=sum(p.k for p in parts), alpha=cm.alpha,
                         t_total=whole.t_total, s_decomp=whole.s_decomp,
                         t_direct_est=whole.t_direct_est)
    offset = 0
    part_t = []
    for p in parts:
        plan.assignment.update((v, offset + i) for v, i in p.assignment.items())
        plan.edge_parts.update((e, offset + i) for e, i in p.edge_parts.items())
        plan.cut_spiders |= p.cut_spiders
        part_t += [t for t, _ in p.per_part]
        offset += p.k
    _price(plan, part_t, cm, cm.t_overhead)
    return plan


def choose_k(
    d: ZxDiagram,
    cm: CostModel,
    k_max: int | None = None,
    seed: int = 0,
    force_partition: bool = False,
) -> PartitionPlan:
    """Pick the plan with the lowest projected runtime, one connected
    component at a time.

    Each component, in order of its smallest spider id, tries k = 1 to k_max
    parts (default min(16, max(t_c/4, 2)) for its T-count t_c), priced
    without overhead.  The cheapest component plans merge into one plan,
    which pays the overhead once and competes with plain decomposition of
    the whole diagram, so the winner never projects slower than that unless
    ``force_partition`` excludes it.  A diagram with one component is
    planned as itself, and only then does ``force_partition`` reach the
    component's candidates.  ``overhead_seconds`` is the time of the whole
    call.
    """
    if d.inputs or d.outputs:
        raise ValueError("choose_k needs a scalar diagram")
    started = time.perf_counter()
    whole = unsplit_plan(d, cm)
    comps = sorted(d.connected_components(), key=min)
    if len(comps) <= 1:
        parts = [_plan_component(d, cm, k_max, seed, force_partition)]
    else:
        parts = [_plan_component(d.subdiagram(c), cm, k_max, seed, False)
                 for c in comps]
    chosen = _cheapest([whole, _merge(parts, whole, cm)], force_partition)
    chosen.overhead_seconds = time.perf_counter() - started
    return chosen
