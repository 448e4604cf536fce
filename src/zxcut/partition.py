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

The refinement keeps every node's gain (the drop in cut size if it alone
moved, between -2 and 2, as a node has at most two spiders) up to date: a
move changes the gains of its hyperedges' other pins only where a side's pin
count crosses 0, 1 or 2 (Fiduccia and Mattheyses, 1982).  Each pass takes
nodes highest gain first, lowest node id on ties, locks a node that would
break a floor or cap when its turn comes, and keeps the first prefix of
moves with the least (cut, imbalance).  These are the moves, and so the
plans, of a refinement that recomputes the gain of every neighbour after
each move; ``tests/test_partition.py`` holds that refinement as a reference.
The hypergraph's neighbour lists and components are computed once and shared
by every start and every k.

Every candidate is priced with the one leaf rate of the cost model:
2^(alpha*t_i + c_i) leaves per part plus the cross-referencing products.  A
component's k = 1 candidate therefore costs exactly what plain decomposition
of it costs.  The merged plan pays the configured overhead once and competes
with plain decomposition of the whole diagram, so partitioning never looks
worse than not partitioning.

A component is searched only where a split can pay.  Two rules plan it as
k = 1 without a search, and without building its hypergraph:

* Dense cutoff.  ``decompose_to_scalar`` evaluates a diagram of at most
  ``decompose.DENSE_MAX_SPIDERS`` spiders as exactly one leaf, since
  simplification never adds spiders.  A split of a connected component cuts
  C >= 1 spiders, so it makes at least two tables of at least two entries,
  each entry an instantiation, a simplification and a leaf of its own.
* Alpha bound.  When alpha*(t_c + 1) <= 4 for its T-count t_c, no 2-way
  split can beat k = 1 in price: both parts carry every one of the C >= 1
  cut spiders as a parameter, so they cost at least
  2^(2 + alpha*(t_c - 1)/2) >= 2^(alpha*t_c) leaves.

Otherwise k grows from 2 and the search stops at the first k whose candidate
prices no lower than the cheapest so far, k = 1 included.  A forced search
of a connected diagram still prices every k from 2 to
min(16, max(t_c // 4, 2)).
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from functools import cached_property

from numpy.random import default_rng

from .costmodel import CostModel
from .decompose import DENSE_MAX_SPIDERS
from .diagram import SpiderKind, ZxDiagram
from .regroup import plan_schedule

_BOUNDARY = SpiderKind.BOUNDARY  # a module name costs a fraction of the enum class lookup

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

    @cached_property
    def nbrs(self) -> list[list[int]]:
        """Node -> the nodes sharing a hyperedge with it, itself included,
        sorted."""
        return [sorted({m for e in nets for m in self.pins[e]})
                for nets in self.node_edges]

    @cached_property
    def components(self) -> tuple[list[list[int]], list[int]]:
        """The connected pieces of the whole node set (see
        ``_node_components``)."""
        return _node_components(range(self.n_nodes), self.nbrs, self.n_nodes)


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
        weights.append(1 if s.kind != _BOUNDARY and s.phase.fixed & 1 else 0)

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
    what happens here.  ``side``, ``nets`` (alive hyperedges) and ``nbrs``
    are indexed by hypergraph node, ``cnt`` (pins on each side) by
    hyperedge; entries outside the subset are unused.
    """

    def __init__(self, h: PartitionHypergraph, nodes: list[int]):
        self.h = h
        self.nodes = nodes
        pins = h.pins
        if len(nodes) == h.n_nodes:
            self.alive = list(range(len(pins)))
            self.nets = h.node_edges
            self.nbrs = h.nbrs
            self.components = h.components
        else:
            inside = [0] * len(pins)
            member = bytearray(h.n_nodes)
            touched = []
            for n in nodes:
                member[n] = 1
                for e in h.node_edges[n]:
                    if not inside[e]:
                        touched.append(e)
                    inside[e] += 1
            self.alive = [e for e in touched if inside[e] == len(pins[e])]
            # only the pins of a dead hyperedge lose nets and neighbours
            self.nets = list(h.node_edges)
            self.nbrs = list(h.nbrs)
            for e in touched:
                if inside[e] < len(pins[e]):
                    for n in pins[e]:
                        if member[n]:
                            own = self.nets[n] = [x for x in h.node_edges[n]
                                                  if inside[x] == len(pins[x])]
                            self.nbrs[n] = sorted({m for x in own for m in pins[x]})
            self.components = _node_components(nodes, self.nbrs, h.n_nodes)
        self.side = [1] * h.n_nodes
        self.ncount = [0, len(nodes)]
        self.cnt = [[0, len(p)] for p in pins]
        self.total_t = sum(h.weights[e] for e in self.alive)
        self.tw = [0, self.total_t]
        self.cut = 0  # alive hyperedges with pins on both sides

    def gains(self) -> list[int]:
        """Every node's gain: how much the cut shrinks if it alone moves."""
        gain = [0] * len(self.side)
        side, cnt = self.side, self.cnt
        for n in self.nodes:
            s = side[n]
            g = 0
            for e in self.nets[n]:
                c = cnt[e]
                if not c[1 - s]:
                    g -= c[s] > 1
                elif c[s] == 1:
                    g += 1
            gain[n] = g
        return gain

    def move(self, n: int) -> None:
        s = self.side[n]
        o = 1 - s
        tw, weights = self.tw, self.h.weights
        for e in self.nets[n]:
            c = self.cnt[e]
            cs, co = c[s], c[o]
            c[s] = cs - 1
            c[o] = co + 1
            if not co:
                tw[s] -= weights[e]
            if cs == 1:
                tw[o] += weights[e]
            self.cut += (cs > 1) - (co > 0)
        self.side[n] = o
        self.ncount[s] -= 1
        self.ncount[o] += 1

    def undo(self, moved: list[int], cut: int, tw: list[int]) -> None:
        """Move every node of ``moved`` back, returning to a state recorded
        as its cut size and side T-weights: only pin counts need redoing."""
        side, cnt, ncount = self.side, self.cnt, self.ncount
        for n in moved:
            s = side[n]
            o = 1 - s
            side[n] = o
            ncount[s] -= 1
            ncount[o] += 1
            for e in self.nets[n]:
                c = cnt[e]
                c[s] -= 1
                c[o] += 1
        self.cut = cut
        self.tw[:] = tw


def _node_components(nodes, nbrs, size) -> tuple[list[list[int]], list[int]]:
    """The connected pieces of a node set, each led by its smallest node,
    and the piece of every node."""
    comp_of = [-1] * size
    comps = []
    for start in nodes:
        if comp_of[start] >= 0:
            continue
        comp_of[start] = len(comps)
        comp = [start]
        for n in comp:
            for m in nbrs[n]:
                if comp_of[m] < 0:
                    comp_of[m] = len(comps)
                    comp.append(m)
        comps.append(comp)
    return comps, comp_of


def _seed_side0(bis: _Bisection, target0: float, floors, rng) -> None:
    """Grow side 0 to roughly its T-weight target, keeping the best stop
    within the node-floor window."""
    comps, comp_of = bis.components
    if len(comps) > 1:
        # pack whole components, heaviest first: no cut is needed between
        # them, and the first two go to different sides.  choose_k hands
        # partition_k one component at a time, but a bisection for k >= 3 can
        # leave one side in disconnected pieces, and partition_k is public.
        t = [0] * len(comps)
        for e in bis.alive:  # an alive hyperedge lies inside one piece
            t[comp_of[bis.h.pins[e][0]]] += bis.h.weights[e]
        weight = [ti if ti else len(comp) * 1e-6 for ti, comp in zip(t, comps)]
        targets = (max(target0, 1e-9), max(bis.total_t - target0, 1e-9))
        load = [0.0, 0.0]
        ordered = sorted(range(len(comps)),
                         key=lambda i: (-weight[i], -len(comps[i]), comps[i][0]))
        for i in ordered:
            s = 0 if load[0] / targets[0] <= load[1] / targets[1] else 1
            if s == 0:
                for n in comps[i]:
                    bis.move(n)
            load[s] += weight[i]
        return
    # breadth-first from a random start; the order list is its own queue
    order = [bis.nodes[int(rng.integers(len(bis.nodes)))]]
    seen = bytearray(len(bis.side))
    seen[order[0]] = 1
    for n in order:
        for m in bis.nbrs[n]:
            if not seen[m]:
                seen[m] = 1
                order.append(m)
    # side 0 takes a prefix of order: the first with the best
    # (T-weight miss, cut) among lengths lo..hi
    lo = max(1, floors[0])
    hi = min(max(lo, len(order) - max(1, floors[1])), len(order) - 1)
    best = None
    best_idx = lo
    for i in range(1, hi + 1):
        bis.move(order[i - 1])
        if i < lo:
            continue
        key = (abs(bis.tw[0] - target0), bis.cut)
        if best is None or key < best:
            best = key
            best_idx = i
            best_tw = bis.tw[:]
    if best_idx < hi:
        bis.undo(order[best_idx:hi], best[1], best_tw)


def _fm_refine(bis: _Bisection, caps, floors, targets) -> None:
    """Up to FM_PASSES passes with incremental gains (see the module
    docstring); a pass that keeps no move ends the refinement.

    A pass takes every node once, moving it or locking it, then rolls back
    to its best prefix.  Heap keys encode (gain, node) as one int, pushed
    whenever a gain changes; a key whose gain is no longer current is
    dropped when popped.
    """
    pins, weights = bis.h.pins, bis.h.weights
    nets, cnt, side, tw, ncount = bis.nets, bis.cnt, bis.side, bis.tw, bis.ncount
    size = len(side)
    t0, t1 = targets
    for _ in range(FM_PASSES):
        gain = bis.gains()
        heap = [(2 - gain[n]) * size + n for n in bis.nodes]  # gains lie in -2..2
        heapq.heapify(heap)
        locked = bytearray(size)
        history: list[int] = []
        cut = bis.cut
        best_cut, best_imb, best_tw = cut, max(0.0, tw[0] - t0, tw[1] - t1), tw[:]
        best = 0
        while heap:
            key = heapq.heappop(heap)
            n = key % size
            if locked[n] or (2 - gain[n]) * size + n != key:
                continue
            locked[n] = 1
            s = side[n]
            o = 1 - s
            if ncount[s] - 1 < floors[s]:
                continue
            arriving = 0
            for e in nets[n]:
                c = cnt[e]
                if c[s] == 1 and c[o]:
                    arriving += weights[e]
            if tw[o] + arriving > caps[o]:
                continue
            for e in nets[n]:
                c = cnt[e]
                cs, co = c[s], c[o]
                c[s] = cs - 1
                c[o] = co + 1
                if not co:
                    tw[s] -= weights[e]
                if cs == 1:
                    tw[o] += weights[e]
                cut += (cs > 1) - (co > 0)
                # gain change of the pins left on side s, and on side o
                d_s = (not co) + (cs == 2)
                d_o = -(co == 1) - (cs == 1)
                if d_s or d_o:
                    for m in pins[e]:
                        if not locked[m]:
                            d = d_s if side[m] == s else d_o
                            if d:
                                gain[m] += d
                                heapq.heappush(heap, (2 - gain[m]) * size + m)
            side[n] = o
            ncount[s] -= 1
            ncount[o] += 1
            history.append(n)
            if cut <= best_cut:
                imb = max(0.0, tw[0] - t0, tw[1] - t1)
                if cut < best_cut or imb < best_imb:
                    best_cut, best_imb, best_tw, best = cut, imb, tw[:], len(history)
        bis.undo(history[best:], best_cut, best_tw)
        if best == 0:
            break


def _fm_bisect(h, nodes, k0, k1, rng) -> _Bisection:
    bis = _Bisection(h, nodes)
    frac = k0 / (k0 + k1)
    targets = (bis.total_t * frac, bis.total_t * (1 - frac))
    caps = ((1 + FM_EPS) * targets[0] + 1e-9, (1 + FM_EPS) * targets[1] + 1e-9)
    # node floors, at least 1, keep either side from emptying or degenerating
    # to a sliver of edges that contains no whole spider
    floors = (max(k0, int(0.6 * len(nodes) * frac)),
              max(k1, int(0.6 * len(nodes) * (1 - frac))))
    _seed_side0(bis, targets[0], floors, rng)
    _fm_refine(bis, caps, floors, targets)
    return bis


def _recursive_partition(h, nodes, k, rng, next_part, assignment):
    if k == 1 or len(nodes) == 1:
        for n in nodes:
            assignment[n] = next_part[0]
        next_part[0] += 1
        return
    k0 = k // 2
    k1 = k - k0
    side = _fm_bisect(h, nodes, k0, k1, rng).side
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
    # edge -> part for split components only, as only cut spiders' edges are read
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
    seed: int,
    force_partition: bool,
) -> PartitionPlan:
    """The candidate loop for one connected diagram: price k = 1, 2, ... up
    to k_max and keep the cheapest.  Its splits are priced without overhead,
    which the merged plan pays once.

    A free search tries no split, and builds no hypergraph, when the
    diagram has at most ``DENSE_MAX_SPIDERS`` spiders or alpha*(t+1) <= 4,
    as no split can beat k = 1 then (see below).  Otherwise it stops at the
    first k whose candidate prices no lower than the cheapest so far, k = 1
    included.  A forced search prices every k from 2 to k_max."""
    base = unsplit_plan(d, cm)
    t = base.t_total
    if not force_partition and (len(d.spiders) <= DENSE_MAX_SPIDERS
                                or cm.alpha * (t + 1) <= 4):
        # decompose_to_scalar evaluates a diagram of at most
        # DENSE_MAX_SPIDERS spiders as one leaf (simplification never adds
        # spiders).  A split of a connected diagram cuts C >= 1 spiders, so
        # it makes at least two tables of at least two entries, each its
        # own instantiation, simplification and leaf.
        #
        # No 2-way split beats k = 1 either when alpha*(t + 1) <= 4.  Each
        # cut spider has edges in both parts, so both parts have the same
        # C >= 1 parameters, and the uncut T-counts sum to at least t - C.
        # By convexity the parts cost at least
        # 2 * 2^(alpha*(t - C)/2 + C) >= 2^(2 + alpha*(t - 1)/2) leaves
        # (C >= 1, alpha <= 1), which is at least 2^(alpha*t) when
        # alpha*(t + 1) <= 4.  The k = 2 candidate would end the loop
        # below, so it is not built.
        return base
    h = to_partition_hypergraph(d)
    # floor of 2 so every search sees the first split
    k_max = min(16, max(t // 4, 2))
    candidates = [base]
    for k in range(2, min(k_max, len(h.pins), h.n_nodes) + 1):
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
        # a free search keeps its candidates strictly falling in price, so
        # the last one is the cheapest so far
        if (not force_partition
                and plan.t_smart_est >= candidates[-1].t_smart_est):
            break
        candidates.append(plan)
    return _cheapest(candidates, force_partition)


def _merge(parts: list[PartitionPlan], whole: PartitionPlan, cm: CostModel) -> PartitionPlan:
    """One plan from the component plans: part ids offset per component, the
    regroup schedule worked out once over all parts, the overhead paid once.
    Only the plans of split components carry ``edge_parts``."""
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
    seed: int = 0,
    force_partition: bool = False,
) -> PartitionPlan:
    """Pick the plan with the lowest projected runtime, one connected
    component at a time.

    Each component, in order of its smallest spider id, prices k = 1 and
    then k = 2, 3, ... up to k_max = min(16, max(t_c // 4, 2)) parts for its
    T-count t_c, without overhead, and stops at the first k that prices
    no lower than the cheapest so far.  A component of at most
    ``DENSE_MAX_SPIDERS`` spiders, which decomposition evaluates as one leaf,
    or with alpha*(t_c + 1) <= 4 is not searched at all, as no split of it
    can beat k = 1 (see the module docstring).  The cheapest component plans
    merge into one plan, which pays the overhead once and competes with plain
    decomposition of the whole diagram, so the winner never projects slower
    than that unless ``force_partition`` excludes it.  A diagram with one
    component is planned as itself, and only then does ``force_partition``
    reach the component's candidates: it prices every k from 2 to k_max.
    ``overhead_seconds`` is the time of the whole call.
    """
    if d.inputs or d.outputs:
        raise ValueError("choose_k needs a scalar diagram")
    started = time.perf_counter()
    whole = unsplit_plan(d, cm)
    comps = sorted(d.connected_components(), key=min)
    if len(comps) <= 1:
        parts = [_plan_component(d, cm, seed, force_partition)]
    else:
        # planning only reads the components, so they need no copies
        parts = [_plan_component(c, cm, seed, False) for c in d.carve(comps)]
    chosen = _cheapest([whole, _merge(parts, whole, cm)], force_partition)
    chosen.overhead_seconds = time.perf_counter() - started
    return chosen
