import heapq
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import zxcut.partition as partition
from zxcut.costmodel import CostModel
from zxcut.decompose import DENSE_MAX_SPIDERS
from zxcut.diagram import EdgeKind, Phase, SpiderKind, ZxDiagram, diagram_from_circuit, plug
from zxcut.engine import ResourceCaps, run_plan
from zxcut.generators import CircuitSpec, CompoundSpec, gen_clifford_t, gen_compound
from zxcut.partition import (PartitionPlan, _Bisection, choose_k, partition_k,
                             to_partition_hypergraph, unsplit_plan)
from zxcut.regroup import plan_schedule
from zxcut.simplify import clifford_simplify

from helpers import random_circuit


def t_path(n):
    d = ZxDiagram()
    vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(n)]
    for a, b in zip(vs, vs[1:]):
        d.add_edge(a, b, EdgeKind.HADAMARD)
    return d, vs


def test_hypergraph_triangle():
    d = ZxDiagram()
    vs = [d.add_spider(SpiderKind.Z) for _ in range(3)]
    for a, b in itertools.combinations(vs, 2):
        d.add_edge(a, b, EdgeKind.HADAMARD)
    h = to_partition_hypergraph(d)
    assert h.n_nodes == 3
    assert len(h.pins) == 3
    assert all(len(p) == 2 for p in h.pins)


def test_hypergraph_drops_isolated_spider():
    d = ZxDiagram()
    d.add_spider(SpiderKind.Z)
    h = to_partition_hypergraph(d)
    assert h.n_nodes == 0
    assert len(h.pins) == 0


def test_hypergraph_handshake():
    rng = default_rng(0)
    c = random_circuit(6, 50, rng)
    d = plug(diagram_from_circuit(c), "+" * 6, "+" * 6)
    h = to_partition_hypergraph(d)
    assert sum(len(set(p)) for p in h.pins) <= 2 * h.n_nodes
    assert sum(len(p) for p in h.pins) == 2 * h.n_nodes


def test_path_bisection_balanced_single_cut():
    d, vs = t_path(9)
    part, cut, _ = partition_k(to_partition_hypergraph(d), 2)
    assert cut == {vs[4]}  # brute force: the middle spider is the only
    # single-spider separator giving a 4/4 T split
    weights = Counter(part.values())
    assert sorted(weights.values()) == [4, 4]


def test_disconnected_components_zero_cuts():
    d = ZxDiagram()
    for _ in range(2):
        vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(5)]
        for a, b in zip(vs, vs[1:]):
            d.add_edge(a, b, EdgeKind.HADAMARD)
    part, cut, _ = partition_k(to_partition_hypergraph(d), 2)
    assert cut == set()
    assert sorted(Counter(part.values()).values()) == [5, 5]


def k6_diagram():
    d = ZxDiagram()
    vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(6)]
    for a, b in itertools.combinations(vs, 2):
        d.add_edge(a, b, EdgeKind.HADAMARD)
    return d, vs


def _splits_after_removal(vs, removed):
    alive = [v for v in vs if v not in removed]
    if len(alive) <= 1:
        return False
    # K6 minus any subset is complete on the remainder, hence connected;
    # spelled out as an explicit reachability check to serve as the oracle
    adj = {v: [u for u in alive if u != v] for v in alive}
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) < len(alive)


def test_k6_has_no_small_separator():
    d, vs = k6_diagram()
    for size in range(0, 5):
        for removed in itertools.combinations(vs, size):
            assert not _splits_after_removal(vs, set(removed))
    part, cut, _ = partition_k(to_partition_hypergraph(d), 2)
    assert len(cut) >= 4


def test_choose_k_disjoint_equal_components():
    d = ZxDiagram()
    for _ in range(2):
        vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(8)]
        for a, b in zip(vs, vs[1:]):
            d.add_edge(a, b, EdgeKind.HADAMARD)
    plan = choose_k(d, CostModel())
    assert plan.k == 2
    assert plan.cut_spiders == set()
    assert sorted(t for t, _ in plan.per_part) == [8, 8]


def test_choose_k_never_beats_k1_baseline():
    rng = default_rng(1)
    cm = CostModel()
    for _ in range(15):
        c = random_circuit(int(rng.integers(3, 8)), int(rng.integers(10, 50)), rng)
        g = clifford_simplify(plug(diagram_from_circuit(c),
                                   "+" * c.n_qubits, "+" * c.n_qubits))
        plan = choose_k(g, cm)
        assert plan.t_smart_est <= plan.t_direct_est + 1e-12


def test_choose_k_stores_consistent_s_precomp():
    rng = default_rng(2)
    cm = CostModel()
    for _ in range(10):
        c = random_circuit(6, 40, rng, nearest=True)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 6, "+" * 6))
        plan = choose_k(g, cm)
        want = sum(2.0 ** (cm.alpha * t + c_) for t, c_ in plan.per_part)
        assert abs(plan.s_precomp - want) < 1e-9


def test_worked_topology_crossref_136_vs_naive_512():
    # four parts with local parameter sets {a,b,c}, {a..f}, {d..i}, {g,h,i}
    params = [set(range(0, 3)), set(range(0, 6)), set(range(3, 9)), set(range(6, 9))]
    schedule, s_crossref = plan_schedule(params)
    assert s_crossref == 136
    assert 2 ** len(set().union(*params)) == 512


def test_partition_k_errors():
    d, _ = t_path(4)
    h = to_partition_hypergraph(d)
    with pytest.raises(ValueError):
        partition_k(h, 1)
    with pytest.raises(ValueError):
        partition_k(h, 40)


def test_monotone_pressure_on_corpus():
    # over corpus averages: partitioning pressure pushes S_precomp down from
    # the k=1 baseline while the total number of cuts keeps growing with k
    # (per-instance violations allowed; the 2->4 step can rise once the
    # per-part T-counts are small enough that the 2^c_i factors dominate,
    # which is exactly why choose_k settles on finite k)
    rng = default_rng(3)
    cm = CostModel()
    s_by_k = {1: [], 2: [], 4: []}
    c_by_k = {1: [], 2: [], 4: []}
    count = 0
    for _ in range(24):
        if count >= 8:
            break
        c = random_circuit(12, 260, rng, nearest=True)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 12, "+" * 12))
        h = to_partition_hypergraph(g)
        if g.t_count() < 16 or len(h.pins) < 6 or h.n_nodes < 6:
            continue
        count += 1
        s_by_k[1].append(2.0 ** (cm.alpha * g.t_count()))
        c_by_k[1].append(0)
        for k in (2, 4):
            part, cut, nodes = partition_k(h, k)
            part_t = [0] * k
            for v, p in part.items():
                if g.spiders[v].phase.is_t():
                    part_t[p] += 1
            params = [set() for _ in range(k)]
            for n, p in nodes.items():
                u, v = h.edge_keys[n]
                for end in (u, v):
                    if end in cut:
                        params[p].add(end)
            s = sum(2.0 ** (cm.alpha * t + len(ps))
                    for t, ps in zip(part_t, params))
            s_by_k[k].append(s)
            c_by_k[k].append(len(cut))
    assert count >= 5
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(s_by_k[2]) <= mean(s_by_k[1])
    assert mean(c_by_k[1]) <= mean(c_by_k[2]) <= mean(c_by_k[4])


def test_separator_validity():
    # removing the cut spiders separates the parts: no remaining edge joins
    # spiders assigned to different parts
    rng = default_rng(4)
    for _ in range(10):
        c = random_circuit(8, 60, rng, nearest=True)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 8, "+" * 8))
        h = to_partition_hypergraph(g)
        if len(h.pins) < 3 or h.n_nodes < 3:
            continue
        part, cut, _ = partition_k(h, min(3, len(h.pins), h.n_nodes))
        for u, v, _k in g.edges():
            if u in cut or v in cut or u == v:
                continue
            assert part[u] == part[v]


def test_disjoint_components_alpha_half_worked_numbers():
    # two disjoint t=20 components under alpha=0.5: S_precomp = 2*2^10 = 2048
    # against the k=1 projection 2^20.  The components are cliques so no
    # further internal split can pay for its cuts.
    d = ZxDiagram()
    for _ in range(2):
        vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(20)]
        for a, b in itertools.combinations(vs, 2):
            d.add_edge(a, b, EdgeKind.HADAMARD)
    plan = choose_k(d, CostModel(alpha=0.5))
    assert plan.k == 2
    assert plan.cut_spiders == set()
    assert plan.s_precomp == pytest.approx(2 * 2 ** 10)
    assert plan.s_decomp == pytest.approx(2 ** 20)


def test_cut_size_matches_recount_after_every_move():
    rng = default_rng(5)
    c = random_circuit(8, 80, rng, nearest=True)
    g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 8, "+" * 8))
    h = to_partition_hypergraph(g)
    # a subset of the nodes, so some hyperedges are not alive in the split
    nodes = sorted(int(n) for n in rng.choice(h.n_nodes, h.n_nodes * 3 // 4,
                                                replace=False))
    bis = _Bisection(h, nodes)

    def recount():
        return sum(1 for e in bis.alive
                   if len({bis.side[n] for n in h.pins[e]}) == 2)

    assert bis.cut == recount() == 0
    for n in rng.choice(nodes, 300):
        bis.move(int(n))
        assert bis.cut == recount()


def add_t_path(d, n):
    vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(n)]
    for a, b in zip(vs, vs[1:]):
        d.add_edge(a, b, EdgeKind.HADAMARD)
    return set(vs)


def test_choose_k_plans_each_component_on_its_own():
    d = ZxDiagram()
    paths = [add_t_path(d, 3), add_t_path(d, 30), add_t_path(d, 4)]
    cm = CostModel()
    plan = choose_k(d, cm)
    assert plan.k >= 4
    for part in range(plan.k):
        members = {v for v, p in plan.assignment.items() if p == part}
        assert sum(1 for path in paths if members & path) == 1
    assert plan.cut_spiders and plan.cut_spiders <= paths[1]
    assert set(plan.assignment) | plan.cut_spiders == set(d.spiders)
    # only the split component's edges are mapped
    assert {u for u, v in plan.edge_parts} | {v for u, v in plan.edge_parts} \
        == paths[1]
    want = sum(2.0 ** (cm.alpha * t + c_) for t, c_ in plan.per_part)
    assert plan.s_precomp == pytest.approx(want, rel=1e-12)
    assert plan.t_smart_est < plan.t_direct_est


def _pinned_circuit(entry):
    if entry["kind"] == "random":
        n, depth, sigma, seed = entry["spec"]
        return gen_clifford_t(CircuitSpec(n, depth, float(sigma), seed))
    return gen_compound(CompoundSpec(*entry["spec"]))


def test_choose_k_reproduces_pinned_plans():
    # plans recorded when the cost model still priced a precomputed leaf at
    # its own rate, with that rate set equal to rDecomp: one leaf price
    # changes no plan, on connected and on multi-component diagrams, free
    # and forced, without and with overhead
    doc = json.loads((Path(__file__).parent / "data" / "pinned_plans.json").read_text())
    entries = doc["diagrams"]
    assert sum(e["components"] == 1 for e in entries) >= 6
    assert sum(e["components"] > 1 for e in entries) >= 6
    for entry in entries:
        g = clifford_simplify(plug(diagram_from_circuit(_pinned_circuit(entry)),
                                   *entry["plugs"]))
        assert len(g.connected_components()) == entry["components"]
        for name, want in entry["plans"].items():
            model, mode = name.split("/")
            plan = choose_k(g, CostModel.from_config(doc["models"][model]),
                            force_partition=mode == "forced")
            got = plan.to_json_dict()
            got.pop("overheadSeconds")
            got["assignment"] = sorted([v, p] for v, p in plan.assignment.items())
            assert got == want, (entry["spec"], name)


def test_partition_k_runs_only_inside_components(monkeypatch):
    # work count, not time: on the criterion-8 compound circuit, 20 gates
    # deeper per block so that each of its components has more than
    # DENSE_MAX_SPIDERS spiders and is searched, every FM run sees one
    # component, at most k_max_c - 1 runs per component
    import zxcut.partition as partition
    circ = gen_compound(CompoundSpec(5, 6, 250, 8, 1.0, 42))
    n = circ.n_qubits
    g = clifford_simplify(plug(diagram_from_circuit(circ), "+" * n, "+" * n))
    comps = g.connected_components()
    assert len(comps) > 1
    seen = []
    original = partition.partition_k

    def recording(h, k, *args, **kwargs):
        seen.append(h)
        return original(h, k, *args, **kwargs)

    monkeypatch.setattr(partition, "partition_k", recording)
    plan = choose_k(g, CostModel())
    assert plan.k >= len(comps)
    assert seen
    for h in seen:
        assert any(set(h.spider_of) <= comp for comp in comps)
    budget = 0
    for comp in comps:
        t_c = sum(1 for v in comp if g.spiders[v].phase.is_t())
        budget += min(16, max(t_c // 4, 2)) - 1
    assert len(seen) <= budget
    # every component's k = 2 loses to its k = 1, which ends its search: one
    # run per component (the full k loop made 32), and the same plan
    per_comp = Counter(next(i for i, comp in enumerate(comps)
                            if set(h.spider_of) <= comp) for h in seen)
    assert max(per_comp.values()) == 1
    assert len(seen) == len(comps) == 5
    assert plan.k == 5
    assert not plan.cut_spiders
    assert plan.t_smart_est == pytest.approx(2.7389425476784846, rel=1e-12)


# -- incremental-gain FM against the full-rescan refinement --------------------
# The reference below is the lazy-heap refinement that incremental gains
# replaced: after every move it recomputes the gain of every unlocked
# neighbour and re-pushes it.  It reads a bisection only through its side,
# pin counts, nets, neighbours, T-weights and ``move``, so it runs on
# ``_Bisection`` as it stands and must make the same moves.

def _ref_gain(bis, n):
    s = bis.side[n]
    g = 0
    for e in bis.nets[n]:
        c = bis.cnt[e]
        if c[1 - s] == 0 and c[s] > 1:
            g -= 1
        elif c[s] == 1 and c[1 - s] > 0:
            g += 1
    return g


def _ref_feasible(bis, n, caps, floors):
    s = bis.side[n]
    if bis.ncount[s] - 1 < floors[s]:
        return False
    arriving = sum(bis.h.weights[e] for e in bis.nets[n]
                   if bis.cnt[e][s] == 1 and bis.cnt[e][1 - s] > 0)
    return bis.tw[1 - s] + arriving <= caps[1 - s]


def _ref_imbalance(bis, targets):
    return max(0.0, bis.tw[0] - targets[0], bis.tw[1] - targets[1])


def reference_fm_refine(bis, caps, floors, targets):
    for _ in range(partition.FM_PASSES):
        locked = set()
        heap = [(-_ref_gain(bis, n), n) for n in bis.nodes]
        heapq.heapify(heap)
        history = []
        trace = [(bis.cut, _ref_imbalance(bis, targets))]
        while heap:
            negg, n = heapq.heappop(heap)
            if n in locked:
                continue
            g = _ref_gain(bis, n)
            if -negg != g:
                heapq.heappush(heap, (-g, n))
                continue
            if not _ref_feasible(bis, n, caps, floors):
                locked.add(n)
                continue
            bis.move(n)
            locked.add(n)
            history.append(n)
            trace.append((bis.cut, _ref_imbalance(bis, targets)))
            for m in bis.nbrs[n]:
                if m not in locked:
                    heapq.heappush(heap, (-_ref_gain(bis, m), m))
        best = min(range(len(trace)), key=lambda i: (trace[i], i))
        for n in reversed(history[best:]):
            bis.move(n)
        if best == 0:
            break


def _recount(bis):
    """Pin counts, cut size, side T-weights and node counts from ``side``."""
    h = bis.h
    cnt = {e: [sum(bis.side[p] == s for p in h.pins[e]) for s in (0, 1)]
           for e in bis.alive}
    cut = sum(1 for c in cnt.values() if c[0] and c[1])
    tw = [sum(h.weights[e] for e in bis.alive if not cnt[e][1 - s]) for s in (0, 1)]
    ncount = [sum(bis.side[n] == s for n in bis.nodes) for s in (0, 1)]
    return cnt, cut, tw, ncount


def _assert_consistent(bis):
    cnt, cut, tw, ncount = _recount(bis)
    assert bis.cut == cut
    assert bis.tw == tw
    assert bis.ncount == ncount
    assert {e: bis.cnt[e] for e in bis.alive} == cnt


def _simplified(circ, rng):
    n = circ.n_qubits
    ins = "".join("01++"[int(x)] for x in rng.integers(4, size=n))
    outs = "".join("01++"[int(x)] for x in rng.integers(4, size=n))
    return clifford_simplify(plug(diagram_from_circuit(circ), ins, outs))


@pytest.fixture(scope="module")
def fm_corpus():
    """Hypergraphs with a k each: the largest component of random circuits at
    sigma 0.5, 2 and inf, and whole compound diagrams of several components."""
    rng = default_rng(11)
    out = []
    seed = 0
    while len(out) < 150:
        seed += 1
        sigma = (0.5, 2.0, math.inf)[seed % 3]
        circ = gen_clifford_t(CircuitSpec(int(rng.integers(8, 15)),
                                          int(rng.integers(80, 240)), sigma, seed))
        g = _simplified(circ, rng)
        if not g.spiders:
            continue
        (biggest,) = g.carve([max(g.connected_components(), key=len)])
        h = to_partition_hypergraph(biggest)
        if h.n_nodes >= 8:
            out.append((f"connected/{sigma}/{seed}", h))
    while len(out) < 210:
        seed += 1
        spec = CompoundSpec(int(rng.integers(2, 5)), int(rng.integers(3, 5)),
                            int(rng.integers(40, 120)), int(rng.integers(0, 3)),
                            1.0, seed)
        g = _simplified(gen_compound(spec), rng)
        h = to_partition_hypergraph(g)
        if len(g.connected_components()) > 1 and h.n_nodes >= 8:
            out.append((f"compound/{seed}", h))
    return [(label, h, min(2 + i % 7, len(h.pins), h.n_nodes))
            for i, (label, h) in enumerate(out)]


def test_partition_k_matches_full_rescan_refinement(monkeypatch, fm_corpus):
    corpus = fm_corpus
    assert len(corpus) >= 200
    assert {k for _, _, k in corpus} == set(range(2, 9))
    assert sum(label.startswith("compound") for label, _, _ in corpus) >= 50
    got = [partition_k(h, k, seed=3) for _, h, k in corpus]
    monkeypatch.setattr(partition, "_fm_refine", reference_fm_refine)
    for (label, h, k), result in zip(corpus, got):
        assert result == partition_k(h, k, seed=3), (label, k)


def test_fm_bisect_on_node_subsets_matches_and_recounts(monkeypatch, fm_corpus):
    corpus = [(label, h) for label, h, _ in fm_corpus[::5]]
    rng = default_rng(12)
    cases = []
    for label, h in corpus:
        size = int(rng.integers(max(4, h.n_nodes // 4), h.n_nodes + 1))
        nodes = sorted(int(n) for n in rng.choice(h.n_nodes, size, replace=False))
        k0 = int(rng.integers(1, 4))
        cases.append((label, h, nodes, k0, k0 + int(rng.integers(0, 2))))
    got = []
    for i, (label, h, nodes, k0, k1) in enumerate(cases):
        bis = partition._fm_bisect(h, nodes, k0, k1, default_rng(i))
        _assert_consistent(bis)
        got.append([bis.side[n] for n in nodes])
    monkeypatch.setattr(partition, "_fm_refine", reference_fm_refine)
    for i, ((label, h, nodes, k0, k1), sides) in enumerate(zip(cases, got)):
        bis = partition._fm_bisect(h, nodes, k0, k1, default_rng(i))
        assert [bis.side[n] for n in nodes] == sides, label


def test_fm_bisect_never_leaves_a_side_empty(monkeypatch, fm_corpus):
    # both node floors are at least 1, so seeding, every move and every
    # rollback keep a node on each side
    seeded = []
    seed_side0 = partition._seed_side0

    def checked_seed(bis, *args):
        seed_side0(bis, *args)
        seeded.append(min(bis.ncount))

    monkeypatch.setattr(partition, "_seed_side0", checked_seed)
    rng = default_rng(21)
    bisections = 0
    for label, h, _ in fm_corpus:
        for _ in range(3):
            size = int(rng.integers(2, h.n_nodes + 1))
            nodes = sorted(int(n) for n in rng.choice(h.n_nodes, size, replace=False))
            k0, k1 = (int(k) for k in rng.integers(1, 5, size=2))
            bis = partition._fm_bisect(h, nodes, k0, k1, default_rng(bisections))
            _assert_consistent(bis)
            assert min(bis.ncount) >= 1, (label, k0, k1)
            bisections += 1
    assert len(seeded) == bisections and min(seeded) >= 1


def test_seeding_splits_the_two_heaviest_pieces(fm_corpus):
    rng = default_rng(22)
    disconnected = 0
    for label, h, _ in fm_corpus:
        size = int(rng.integers(2, h.n_nodes + 1))
        nodes = sorted(int(n) for n in rng.choice(h.n_nodes, size, replace=False))
        bis = _Bisection(h, nodes)
        comps, comp_of = bis.components
        if len(comps) < 2:
            continue
        disconnected += 1
        partition._seed_side0(bis, bis.total_t * float(rng.random()), (1, 1), rng)
        t = [0] * len(comps)
        for e in bis.alive:
            t[comp_of[h.pins[e][0]]] += h.weights[e]
        weight = [ti if ti else len(c) * 1e-6 for ti, c in zip(t, comps)]
        first, second = sorted(range(len(comps)),
                               key=lambda i: (-weight[i], -len(comps[i]), comps[i][0]))[:2]
        assert {bis.side[n] for n in comps[first]} == {0}, label
        assert {bis.side[n] for n in comps[second]} == {1}, label
    assert disconnected >= 100


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(4, 12), st.integers(20, 200),
       st.sampled_from((0.0, 0.5, 2.0, math.inf)), st.integers(0, 2 ** 16),
       st.integers(2, 8))
def test_partition_k_matches_full_rescan_refinement_generated(qubits, depth, sigma,
                                                                seed, k):
    g = _simplified(gen_clifford_t(CircuitSpec(qubits, depth, sigma, seed)),
                    default_rng(seed))
    h = to_partition_hypergraph(g)
    k = min(k, len(h.pins), h.n_nodes)
    if k < 2:
        return
    got = partition_k(h, k, seed=seed)
    original = partition._fm_refine
    partition._fm_refine = reference_fm_refine
    try:
        assert got == partition_k(h, k, seed=seed)
    finally:
        partition._fm_refine = original


# -- the candidate loop: where a split can pay ----------------------------------
# The reference below is the full k loop the candidate loop replaced: it
# prices every k from 1 to k_max, free or forced.  The free search now skips
# components that no split can help and stops at the first k that does not
# pay, so its plan must be the cheapest of a prefix of these candidates.

def _split_candidate(d, h, k, cm, seed=0):
    """The k-way candidate of the full k loop, priced without overhead."""
    spider_part, cut, node_assignment = partition_k(h, k, seed=seed)
    plan = PartitionPlan(k=k, assignment=spider_part, cut_spiders=cut,
                         alpha=cm.alpha, t_total=d.t_count())
    plan.edge_parts = {h.edge_keys[n]: part for n, part in node_assignment.items()}
    part_t = [0] * k
    for v, part in spider_part.items():
        if d.spiders[v].phase.is_t():
            part_t[part] += 1
    partition._price(plan, part_t, cm, 0.0)
    return plan


def reference_candidates(d, cm, seed=0, force_partition=False):
    base = unsplit_plan(d, cm)
    t = base.t_total
    k_max = min(16, max(t // 4, 2))
    h = to_partition_hypergraph(d) if d.spiders else None
    candidates = [base]
    if h is not None and h.n_nodes:
        upper = min(k_max, len(h.pins), h.n_nodes)
        if force_partition:
            upper = max(upper, min(2, len(h.pins), h.n_nodes))
        for k in range(2, upper + 1):
            candidates.append(_split_candidate(d, h, k, cm, seed))
    return candidates


def reference_choose_k(d, cm, force_partition=False):
    """``choose_k`` over the full k loop: (plan, candidates per component)."""
    whole = unsplit_plan(d, cm)
    comps = sorted(d.connected_components(), key=min)
    if len(comps) <= 1:
        per_comp = [reference_candidates(d, cm, force_partition=force_partition)]
    else:
        per_comp = [reference_candidates(c, cm) for c in d.carve(comps)]
    parts = [partition._cheapest(c, force_partition and len(comps) <= 1)
             for c in per_comp]
    merged = partition._merge(parts, whole, cm)
    return partition._cheapest([whole, merged], force_partition), per_comp


def _plan_key(plan):
    got = plan.to_json_dict()
    got.pop("overheadSeconds")
    return (json.dumps(got, sort_keys=True), tuple(sorted(plan.assignment.items())),
            tuple(sorted(plan.edge_parts.items())))


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(partition, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(partition, name, counting)
    return calls


@pytest.fixture(scope="module")
def small_components():
    """Carved components of random circuits at sigma 0.5, 2 and inf and of
    small compound blocks, each with at least two spiders and two edges and
    a T-count of at most 30."""
    rng = default_rng(21)
    out = []
    for seed in range(1, 1000):
        if seed % 4:
            sigma = (0.5, 2.0, math.inf)[seed % 4 - 1]
            circ = gen_clifford_t(CircuitSpec(int(rng.integers(3, 10)),
                                              int(rng.integers(20, 200)), sigma, seed))
        else:
            circ = gen_compound(CompoundSpec(int(rng.integers(2, 4)), 3,
                                             int(rng.integers(15, 40)), 0, 1.0, seed))
        g = _simplified(circ, rng)
        for c in g.carve(sorted(g.connected_components(), key=min)):
            h = to_partition_hypergraph(c)
            if len(h.pins) >= 2 and h.n_nodes >= 2 and c.t_count() <= 30:
                out.append((f"{seed}/{min(c.spiders)}", c, h))
        if len(out) >= 600:
            break
    return out


def test_skipped_components_cannot_gain_from_a_split(monkeypatch, small_components):
    corpus = small_components
    calls = _count_calls(monkeypatch, "partition_k")
    for alpha in (0.25, 0.32, 0.5):
        cm = CostModel(alpha=alpha)
        skipped = [(label, c, h) for label, c, h in corpus
                   if alpha * (c.t_count() + 1) <= 4]
        searched = [c for _, c, _ in corpus if alpha * (c.t_count() + 1) > 4
                    and len(c.spiders) > DENSE_MAX_SPIDERS]
        assert len(skipped) >= 200, alpha
        assert len(searched) >= 10, alpha
        for label, c, h in skipped:
            t = c.t_count()
            split = _split_candidate(c, h, 2, cm)
            assert split.cut_spiders, label
            assert split.t_smart_est > unsplit_plan(c, cm).t_smart_est, (label, alpha)
            assert split.s_precomp >= 2.0 ** (2 + alpha * (t - 1) / 2) * (1 - 1e-12)
            calls[0] = 0
            plan = choose_k(c, cm)
            assert calls[0] == 0, (label, alpha)
            assert plan.k == 1
        for c in searched:
            calls[0] = 0
            choose_k(c, cm)
            assert calls[0] >= 1, alpha


def test_dense_components_are_one_leaf_and_never_searched(monkeypatch, small_components):
    # decompose_to_scalar evaluates a diagram of at most DENSE_MAX_SPIDERS
    # spiders as one leaf, while a split of it makes at least two tables of
    # at least two entries: above the alpha skip, a free search still plans
    # k = 1 without a hypergraph or an FM run
    cm = CostModel()
    dense = [(label, c) for label, c, _ in small_components
             if len(c.spiders) <= DENSE_MAX_SPIDERS and cm.alpha * (c.t_count() + 1) > 4]
    assert len(dense) >= 100
    calls = _count_calls(monkeypatch, "partition_k")
    builds = _count_calls(monkeypatch, "to_partition_hypergraph")
    for label, c in dense:
        calls[0] = builds[0] = 0
        plan = choose_k(c, cm)
        assert plan.k == 1 and not plan.cut_spiders, label
        # the component plan, which choose_k merges, is the unsplit plan,
        # which maps no edge
        own = partition._plan_component(c, cm, 0, False)
        assert calls[0] == builds[0] == 0, label
        assert own.k == 1 and not own.edge_parts, label
        forced = choose_k(c, cm, force_partition=True)
        assert calls[0] >= 1, label
        assert forced.k >= 2 and forced.cut_spiders, label
        one = run_plan(c, plan, "smart", cm, ResourceCaps())
        split = run_plan(c, forced, "smart", cm, ResourceCaps())
        assert one.leaf_evals == 1, label
        assert split.leaf_evals >= 4, label
        assert abs(split.amplitude - one.amplitude) <= 1e-12, label


@pytest.fixture(scope="module")
def loop_corpus():
    """Connected diagrams (the largest component of random circuits at sigma
    0.5, 1, 2 and inf, sized like the benchmark's) and whole compound
    diagrams of several components."""
    rng = default_rng(22)
    connected, multi = [], []
    seed = 0
    while len(connected) < 100:
        seed += 1
        sigma = (0.5, 1.0, 2.0, math.inf)[seed % 4]
        circ = gen_clifford_t(CircuitSpec(int(rng.integers(12, 17)),
                                          int(rng.integers(175, 325)), sigma, seed))
        g = _simplified(circ, rng)
        if not g.spiders:
            continue
        (biggest,) = g.carve([max(g.connected_components(), key=len)])
        if to_partition_hypergraph(biggest).n_nodes >= 4:
            connected.append((f"connected/{sigma}/{seed}", biggest))
    while len(multi) < 20:
        seed += 1
        spec = CompoundSpec(int(rng.integers(2, 5)), int(rng.integers(3, 5)),
                            int(rng.integers(40, 120)), int(rng.integers(0, 3)),
                            1.0, seed)
        g = _simplified(gen_compound(spec), rng)
        if len(g.connected_components()) > 1:
            multi.append((f"compound/{seed}", g))
    return connected, multi


def test_candidate_loop_plans_a_prefix_of_the_full_loop(monkeypatch, loop_corpus):
    connected, multi = loop_corpus
    assert len(connected) >= 100 and len(multi) >= 20
    cm = CostModel()
    bisections = _count_calls(monkeypatch, "_fm_bisect")
    got_total = ref_total = 0.0
    got_fm = ref_fm = 0
    for label, g in connected + multi:
        bisections[0] = 0
        got = choose_k(g, cm)
        got_calls = bisections[0]
        bisections[0] = 0
        ref, per_comp = reference_choose_k(g, cm)
        ref_calls = bisections[0]
        assert got_calls <= ref_calls, label
        got_fm += got_calls
        ref_fm += ref_calls
        got_total += got.t_smart_est
        ref_total += ref.t_smart_est
        assert got.t_smart_est <= unsplit_plan(g, cm).t_smart_est * (1 + 1e-12), label
        comps = g.carve(sorted(g.connected_components(), key=min))
        for c, candidates in zip(comps, per_comp):
            plan = partition._plan_component(c, cm, 0, False)
            prefixes = {_plan_key(partition._cheapest(candidates[:m], False))
                        for m in range(1, len(candidates) + 1)}
            assert _plan_key(plan) in prefixes, label
    assert got_total <= ref_total * 1.01
    assert 3 * got_fm <= ref_fm, (got_fm, ref_fm)


def test_forced_plans_of_connected_diagrams_keep_the_full_loop(loop_corpus):
    connected, _ = loop_corpus
    cm = CostModel()
    for label, g in connected:
        ref, _ = reference_choose_k(g, cm, force_partition=True)
        got = choose_k(g, cm, force_partition=True)
        assert _plan_key(got) == _plan_key(ref), label
