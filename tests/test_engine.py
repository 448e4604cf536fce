import itertools

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut import engine
from zxcut.circuits import Circuit, parse_circuit
from zxcut.costmodel import CostModel
from zxcut.engine import (METHODS, Report, ResourceCapError, ResourceCaps,
                          method_seconds, run_plan, simulate_amplitude,
                          split_segments)
from zxcut.generators import CircuitSpec, CompoundSpec, gen_clifford_t, gen_compound
from zxcut.oracle import MAX_QUBITS, statevector_amplitude
from zxcut.cutting import cut_spiders, instantiate
from zxcut.decompose import DENSE_MAX_SPIDERS
from zxcut.diagram import Phase, ZxDiagram, diagram_from_circuit, plug
from zxcut.partition import choose_k, unsplit_plan
from zxcut.simplify import clifford_simplify
from zxcut.tensor import tensor_of

from helpers import random_circuit, random_plugs


def test_clifford_short_circuit_all_methods():
    rng = default_rng(0)
    gates = []
    for _ in range(30):
        k = int(rng.integers(3))
        if k == 2:
            a, b = rng.choice(5, 2, replace=False)
            gates.append(("CNOT", int(a), int(b)))
        else:
            gates.append((("S", "HSH")[k], int(rng.integers(5))))
    c = Circuit(5, gates)
    amps = {}
    for method in METHODS:
        amp, rep = simulate_amplitude(c, "0" * 5, "0" * 5, method)
        amps[method] = amp
        assert rep.plan.k == 1
    vals = list(amps.values())
    assert abs(vals[0] - vals[1]) < 1e-12 and abs(vals[1] - vals[2]) < 1e-12


def test_three_way_agreement_random_corpus():
    rng = default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        c = random_circuit(n, int(rng.integers(10, 55)), rng,
                           nearest=bool(rng.integers(2)))
        ins, outs = random_plugs(n, rng)
        ref = statevector_amplitude(c, ins, outs)
        for method in METHODS:
            amp, _ = simulate_amplitude(c, ins, outs, method)
            assert abs(amp - ref) < 1e-6


def test_estimates_are_method_seconds_of_the_plan():
    # every method reports its price from method_seconds, with overhead in
    # the model and with partitioning forced; the direct plan is the
    # planner's k = 1 plan
    rng = default_rng(8)
    cm = CostModel(t_overhead=0.37, r_decomp=3000.0)
    compared = 0
    for _ in range(6):
        c = random_circuit(8, 60, rng)
        ins, outs = "+" * 8, random_plugs(8, rng)[1]
        for force in (False, True):
            for method in METHODS:
                _, rep = simulate_amplitude(c, ins, outs, method, cm,
                                            force_partition=force)
                prices = method_seconds(rep.plan, cm)
                assert rep.estimates["tEstSeconds"] == prices[method]
                assert prices["direct"] == cm.seconds(2.0 ** (cm.alpha * rep.t_count))
                if method == "direct":
                    direct = rep.plan
        g = clifford_simplify(plug(diagram_from_circuit(c), ins, outs))
        planned = unsplit_plan(g, cm)
        assert planned.k == 1
        assert ({**direct.to_json_dict(), "overheadSeconds": 0}
                == {**planned.to_json_dict(), "overheadSeconds": 0})
        assert direct.assignment == planned.assignment
        compared += 1
    assert compared == 6


def test_split_segments_reassembles_tensor():
    # sum over all assignments of the product of segment instantiations
    # equals the uncut diagram value
    rng = default_rng(2)
    tested = 0
    for _ in range(60):
        if tested >= 8:
            break
        c = random_circuit(8, 60, rng)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 8, "+" * 8))
        plan = choose_k(g, CostModel(), force_partition=True)
        if plan.k < 2 or not plan.cut_spiders or len(plan.cut_spiders) > 6:
            continue
        tested += 1
        segs, params, overall = split_segments(g, plan)
        all_params = sorted({p for ps in params for p in ps})
        total = 0j
        for bits in itertools.product((0, 1), repeat=len(all_params)):
            asg = dict(zip(all_params, bits))
            term = overall.to_complex()
            for seg, ps in zip(segs, params):
                local = {p: asg[p] for p in ps}
                term *= tensor_of(instantiate(seg, local))
            total += term
        ref = tensor_of(g)
        assert abs(total - ref) < 1e-9 * max(1.0, abs(ref))
    assert tested >= 3


def _copied_subdiagram(d, keep):
    """The induced subdiagram built spider by spider and entry by entry,
    each row in the order of the source row."""
    keep = set(keep)
    out = ZxDiagram()
    out._next = d._next
    for v in sorted(keep):
        out.spiders[v] = d.spiders[v]  # immutable: sharing it copies it
        out.adj[v] = {u: (counts[0], counts[1]) for u, counts in d.adj[v].items()
                      if u in keep}
    return out


def _split_by_copies(g, plan):
    """Segments as split_segments built them by copying every part out of
    the cut copy: the reference for carving them from it."""
    cut = cut_spiders(g, {w: w for w in plan.cut_spiders})
    part_of = dict(plan.assignment)
    for piece in cut.spiders.keys() - g.spiders.keys():
        (u,) = cut.adj[piece]
        (w,) = cut.spiders[piece].phase.params
        x = u if u in g.spiders else min(cut.spiders[u].phase.params)
        part_of[piece] = plan.edge_parts[(min(w, x), max(w, x))]
    part_params = plan.part_params()
    segs = []
    for part, params in enumerate(part_params):
        seg = _copied_subdiagram(cut, (v for v, p in part_of.items() if p == part))
        seg.params = set(params)
        segs.append(seg)
    for p, coeffs in cut.param_coeffs.items():
        home = min(i for i, params in enumerate(part_params) if p in params)
        segs[home].param_coeffs[p] = coeffs
    return segs, part_params, cut.scalar


def _layout(d):
    return ([(v, s.kind, s.phase) for v, s in d.spiders.items()],
            [(v, [(u, list(row)) for u, row in nbrs.items()]) for v, nbrs in d.adj.items()])


def test_split_segments_carves_the_cut_copy_as_the_copies_were():
    # forced plans whose cut spiders share legs: every segment has the
    # parameters, coefficients, layout and tensor of the copied part, and
    # the diagram itself is left unchanged
    rng = default_rng(7)
    tested = 0
    for _ in range(40):
        c = random_circuit(8, 80, rng)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 8, "+" * 8))
        plan = choose_k(g, CostModel(), force_partition=True)
        if not any(u != v and {u, v} <= plan.cut_spiders for u, v, _ in g.edges()):
            continue
        tested += 1
        before = g.to_json()
        segs, params, overall = split_segments(g, plan)
        assert g.to_json() == before
        want_segs, want_params, want_overall = _split_by_copies(g, plan)
        assert params == want_params
        assert overall.to_complex() == want_overall.to_complex()
        for seg, want in zip(segs, want_segs):
            assert seg.params == want.params
            assert seg.param_coeffs == want.param_coeffs
            assert _layout(seg) == _layout(want)
            ps = sorted(seg.params)
            for bits in itertools.product((0, 1), repeat=len(ps)):
                asg = dict(zip(ps, bits))
                assert np.array_equal(tensor_of(instantiate(seg, asg)),
                                      tensor_of(instantiate(want, asg)))
    assert tested >= 4


def test_split_segments_rejects_a_parameterised_cut_spider():
    rng = default_rng(2)
    for _ in range(60):
        g = clifford_simplify(plug(diagram_from_circuit(random_circuit(8, 60, rng)),
                                   "+" * 8, "+" * 8))
        plan = choose_k(g, CostModel(), force_partition=True)
        if plan.cut_spiders:
            break
    w = min(plan.cut_spiders)
    g.spiders[w] = g.spiders[w].with_phase(Phase(g.spiders[w].phase.fixed,
                                                 frozenset({10 ** 6})))
    g.params.add(10 ** 6)
    with pytest.raises(ValueError, match="parameter-free"):
        split_segments(g, plan)


def test_run_plan_leaves_the_diagram_unchanged():
    # every method runs on the one simplified diagram, with cuts on its plan
    rng = default_rng(3)
    cm = CostModel()
    ran_cuts = 0
    for _ in range(20):
        c = random_circuit(8, 60, rng)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 8, "+" * 8))
        before = g.to_json()
        plan = choose_k(g, cm, force_partition=True)
        ref = statevector_amplitude(c, "+" * 8, "+" * 8)
        for method in METHODS:
            run_on = unsplit_plan(g, cm) if method == "direct" else plan
            rep = run_plan(g, run_on, method, cm, ResourceCaps())
            assert abs(rep.amplitude - ref) < 1e-9
            assert g.to_json() == before
        if plan.cut_spiders:
            ran_cuts += 1
            cut_run = (g, plan)
    assert ran_cuts >= 3
    # direct runs only the unsplit plan
    with pytest.raises(ValueError):
        run_plan(*cut_run, "direct", cm, ResourceCaps())


def test_compound_circuits_agree_with_oracle():
    # multi-component plans with mixed 0/1/+ plugs, some of them cutting
    # inside a component
    rng = default_rng(7)
    cut_inside = 0
    for seed in range(6):
        circ = gen_compound(CompoundSpec(3, 4, 90, 1, 1.0, seed))
        n = circ.n_qubits
        assert n <= MAX_QUBITS
        ins, outs = random_plugs(n, rng)
        ref = statevector_amplitude(circ, ins, outs)
        g = clifford_simplify(plug(diagram_from_circuit(circ), ins, outs))
        for method in ("smart", "naive"):
            amp, rep = simulate_amplitude(circ, ins, outs, method)
            assert abs(amp - ref) < 1e-9
        assert rep.plan.k >= len(g.connected_components())
        # each segment's table is built over exactly the plan's parameters
        # for its part, and those are the parameters its spiders carry
        segs, params, _ = split_segments(g, rep.plan)
        assert [seg.params for seg in segs] == params == rep.plan.part_params()
        for seg in segs:
            assert seg.params == {p for s in seg.spiders.values() for p in s.phase.params}
        if len(g.connected_components()) > 1 and rep.plan.cut_spiders:
            cut_inside += 1
    assert cut_inside >= 1


def test_smart_counts_never_exceed_naive():
    rng = default_rng(3)
    checked = 0
    for _ in range(40):
        if checked >= 5:
            break
        c = random_circuit(8, 60, rng)
        amp_s, rep_s = simulate_amplitude(c, "+" * 8, "+" * 8, "smart",
                                          force_partition=True)
        if rep_s.plan.k < 2 or not rep_s.plan.cut_spiders:
            continue
        checked += 1
        amp_n, rep_n = simulate_amplitude(c, "+" * 8, "+" * 8, "naive",
                                          force_partition=True)
        assert abs(amp_s - amp_n) < 1e-6
        smart_total = rep_s.leaf_evals + rep_s.crossref_products
        naive_total = rep_n.leaf_evals + rep_n.crossref_products
        assert smart_total <= naive_total
    assert checked >= 2


def test_worked_topology_counts_136_vs_512():
    # the 4-part/9-cut worked instance: pairwise regrouping spends 136
    # cross-reference products where the naive global sum spends 2^9 = 512
    from zxcut.regroup import plan_schedule
    params = [set(range(0, 3)), set(range(0, 6)), set(range(3, 9)),
              set(range(6, 9))]
    _, s_crossref = plan_schedule(params)
    assert s_crossref == 136
    assert 2 ** 9 == 512


def test_resource_cap_direct():
    c = gen_deep_compound()
    caps = ResourceCaps(leaf_evals=4, table_entries=2 ** 26)
    with pytest.raises(ResourceCapError) as err:
        simulate_amplitude(c, "+" * c.n_qubits, "+" * c.n_qubits, "direct",
                           caps=caps)
    assert err.value.stage == "decompose"
    assert err.value.plan is not None


@pytest.mark.parametrize("method,leaves", [("direct", 1349), ("naive", 64), ("smart", 64)])
def test_resource_cap_on_leaves_evaluated(method, leaves):
    # alpha = 0.05 projects fewer leaves than each method evaluates, so only
    # the count of leaves actually evaluated can stop the run; the 2-part
    # plan has two cut spiders, which naive sums over.  Both parts (T 22 and
    # 24) are big enough that their trees branch before they reach dense
    # leaves, as the whole diagram's does
    c = random_circuit(12, 400, default_rng(5), nearest=True)
    cm = CostModel(alpha=0.05)
    args = (c, "+" * 12, "+" * 12, method, cm)
    amp, full = simulate_amplitude(*args, force_partition=True)
    assert full.leaf_evals == leaves
    assert method == "direct" or len(full.plan.cut_spiders) == 2
    projected = {"direct": full.plan.s_decomp, "smart": full.plan.s_precomp,
                 "naive": 2 ** 2 * sum(2 ** (cm.alpha * t) for t, _ in full.plan.per_part)}
    assert projected[method] <= leaves - 1
    with pytest.raises(ResourceCapError) as err:
        simulate_amplitude(*args, caps=ResourceCaps(leaf_evals=leaves - 1),
                           force_partition=True)
    assert err.value.measured
    assert err.value.stage == {"direct": "decompose", "smart": "precompute",
                               "naive": "naive-sum"}[method]
    assert (err.value.projected, err.value.cap) == (leaves, leaves - 1)
    assert err.value.plan.cut_spiders == full.plan.cut_spiders
    again, rep = simulate_amplitude(*args, caps=ResourceCaps(leaf_evals=leaves),
                                    force_partition=True)
    assert (again, rep.leaf_evals) == (amp, leaves)


@pytest.mark.parametrize("case", ["overrun", "finished"])
def test_decompose_first_caps_count_wasted_leaves(case):
    # an unforced smart run first decomposes each component within
    # LEAF_BUDGET leaves.  The 12-qubit circuit is one component that
    # overruns and then runs unsplit (alpha = 0.05 searches no split and
    # keeps every projection low), so it wastes exactly LEAF_BUDGET leaves;
    # the three components of the compound circuit all finish.  Wasted leaves
    # count toward the cap like the others: capped at exactly its leaves a
    # run passes, and one leaf less raises the measured error with the plan
    # so far
    cm = CostModel(alpha=0.05)
    if case == "overrun":
        c, ins, outs = random_circuit(12, 400, default_rng(5), nearest=True), "+" * 12, "+" * 12
    else:
        c, ins, outs = gen_compound(CompoundSpec(3, 4, 90, 1, 1.0, 1)), "0+1" * 4, "+10" * 4
    args = (c, ins, outs, "smart", cm)
    amp, full = simulate_amplitude(*args)
    _, direct = simulate_amplitude(c, ins, outs, "direct", cm)
    assert abs(amp - statevector_amplitude(c, ins, outs)) < 1e-9
    if case == "overrun":
        assert (full.plan.k, full.leaf_evals) == (1, direct.leaf_evals + engine.LEAF_BUDGET)
    else:
        assert (full.plan.k, full.leaf_evals) == (3, 4)
        assert direct.leaf_evals > 4
    leaves = full.leaf_evals
    again, rep = simulate_amplitude(*args, caps=ResourceCaps(leaf_evals=leaves))
    assert (again, rep.leaf_evals) == (amp, leaves)
    with pytest.raises(ResourceCapError) as err:
        simulate_amplitude(*args, caps=ResourceCaps(leaf_evals=leaves - 1))
    assert err.value.measured and err.value.stage == "decompose"
    assert (err.value.projected, err.value.cap) == (leaves, leaves - 1)
    assert err.value.plan.k == full.plan.k


def test_decompose_first_counts_only_leaves_evaluated(monkeypatch):
    # a component that overruns LEAF_BUDGET stops before the leaf past the
    # budget is counted, so what each decompose_to_scalar call adds to the
    # shared count, as a tracer wrapping it sees, sums to the report's
    # leaves: the overrun's, then the precomputed tables' of its plan
    from zxcut import regroup
    c = gen_clifford_t(CircuitSpec(16, 400, 1.0, 503))
    plugs = "+" * c.n_qubits
    real = engine.decompose_to_scalar
    added = []

    def counting(d, decomposition=None, stats=None):
        before = stats.leaves
        try:
            return real(d, decomposition, stats)
        finally:
            added.append(stats.leaves - before)

    for module in (engine, regroup):
        monkeypatch.setattr(module, "decompose_to_scalar", counting)
    amp, rep = simulate_amplitude(c, plugs, plugs)
    assert rep.plan.k >= 2 and len(added) > 1
    assert added[0] == engine.LEAF_BUDGET  # the component that overran
    assert sum(added) == rep.leaf_evals
    monkeypatch.undo()
    assert abs(amp - simulate_amplitude(c, plugs, plugs, "direct")[0]) < 1e-9


def test_decompose_first_evaluates_a_small_diagram_as_one_leaf():
    # the simplified diagram has three components and 18 spiders, so the
    # tree's dense cutoff takes all of it as one leaf; the report keeps one
    # unsplit part per component
    c, ins, outs = gen_compound(CompoundSpec(3, 4, 60, 1, 1.0, 1)), "+0" * 6, "1+" * 6
    g = clifford_simplify(plug(diagram_from_circuit(c), ins, outs))
    assert len(g.spiders) <= DENSE_MAX_SPIDERS and len(g.connected_components()) == 3
    amp, rep = simulate_amplitude(c, ins, outs)
    assert abs(amp - statevector_amplitude(c, ins, outs)) < 1e-9
    assert (rep.leaf_evals, rep.plan.k, rep.plan.cut_spiders) == (1, 3, set())
    parts = [{v for v, part in rep.plan.assignment.items() if part == i} for i in range(3)]
    assert sorted(map(sorted, parts)) == sorted(map(sorted, g.connected_components()))


@pytest.mark.parametrize("budget", [0, 1])
def test_decompose_first_plans_only_the_components_that_overrun(monkeypatch, budget):
    # the compound circuit has three components; at a budget of one leaf
    # one of them overruns and is planned alone, with two cuts, while the
    # others finish as one unsplit part each.  At a budget of 0 every
    # component overruns and the run's plan is the full planner's
    c, ins, outs = gen_compound(CompoundSpec(3, 4, 90, 1, 1.0, 1)), "0+1" * 4, "+10" * 4
    cm = CostModel()
    g = clifford_simplify(plug(diagram_from_circuit(c), ins, outs))
    planned = []

    def recording(d, *args, **kwargs):
        planned.append((set(d.spiders), choose_k(d, *args, **kwargs)))
        return planned[-1][1]
    monkeypatch.setattr(engine, "choose_k", recording)
    monkeypatch.setattr(engine, "LEAF_BUDGET", budget)
    amp, rep = simulate_amplitude(c, ins, outs, "smart", cm)
    assert abs(amp - statevector_amplitude(c, ins, outs)) < 1e-9
    ((spiders, sub_plan),) = planned
    comps = g.connected_components()
    overran = [comp for comp in comps if comp <= spiders]
    assert spiders == set().union(*overran)
    assert len(overran) == (len(comps) if budget == 0 else 1)
    assert rep.plan.k == len(comps) - len(overran) + sub_plan.k
    assert rep.plan.cut_spiders == sub_plan.cut_spiders and len(sub_plan.cut_spiders) == 2
    if budget == 0:
        whole = choose_k(g, cm)
        assert (rep.plan.k, rep.plan.cut_spiders, rep.plan.per_part) == (
            whole.k, whole.cut_spiders, whole.per_part)
    # the merged plan is a plan of the whole diagram
    segs, params, _ = split_segments(g, rep.plan)
    assert params == rep.plan.part_params() and len(segs) == rep.plan.k


@pytest.mark.parametrize("method,stage", [("smart", "precompute"), ("naive", "naive-sum")])
def test_resource_cap_on_projected_leaves_of_a_split_plan(method, stage):
    # the 2-cut plan above: a cap below its projected leaves stops the run
    # before a leaf is evaluated
    c = random_circuit(12, 400, default_rng(5), nearest=True)
    cm = CostModel(alpha=0.05)
    g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 12, "+" * 12))
    plan = choose_k(g, cm, force_partition=True)
    assert len(plan.cut_spiders) == 2
    projected = {"smart": plan.s_precomp,
                 "naive": 2 ** 2 * sum(2 ** (cm.alpha * t) for t, _ in plan.per_part)}
    cap = projected[method] / 2
    with pytest.raises(ResourceCapError) as err:
        run_plan(g, plan, method, cm, ResourceCaps(leaf_evals=cap))
    assert (err.value.stage, err.value.projected, err.value.cap) == (stage, projected[method], cap)
    assert err.value.plan is plan
    assert not err.value.measured


def test_projected_caps_are_checked_before_the_diagram_is_split(monkeypatch):
    # the 2-cut plan above: a run its caps refuse carves no segments
    c = random_circuit(12, 400, default_rng(5), nearest=True)
    cm = CostModel(alpha=0.05)
    g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 12, "+" * 12))
    plan = choose_k(g, cm, force_partition=True)

    def no_split(*args):
        raise AssertionError("split_segments ran for a refused run")
    monkeypatch.setattr(engine, "split_segments", no_split)
    naive = 2 ** 2 * sum(2 ** (cm.alpha * t) for t, _ in plan.per_part)
    entries = sum(2 ** len(ps) for ps in plan.part_params())
    for method, caps, want in (
            ("smart", ResourceCaps(leaf_evals=plan.s_precomp / 2),
             ("precompute", plan.s_precomp, plan.s_precomp / 2)),
            ("naive", ResourceCaps(leaf_evals=naive / 2), ("naive-sum", naive, naive / 2)),
            ("smart", ResourceCaps(table_entries=entries - 1),
             ("precompute", entries, entries - 1))):
        with pytest.raises(ResourceCapError) as err:
            run_plan(g, plan, method, cm, caps)
        assert (err.value.stage, err.value.projected, err.value.cap) == want


@pytest.mark.parametrize("field", ["leaf_evals", "table_entries"])
def test_resource_caps_refuse_nan_and_negative_caps(field):
    for bad in (float("nan"), -1):
        with pytest.raises(ValueError, match=field):
            ResourceCaps(**{field: bad})
    assert getattr(ResourceCaps(**{field: float("inf")}), field) == float("inf")
    assert getattr(ResourceCaps(**{field: 0}), field) == 0


def gen_deep_compound():
    from zxcut.generators import CompoundSpec, gen_compound
    return gen_compound(CompoundSpec(2, 3, 80, 2, 1.0, 0))


def test_resource_cap_smart_tables():
    c = gen_deep_compound()
    caps = ResourceCaps(leaf_evals=2 ** 28, table_entries=1)
    try:
        simulate_amplitude(c, "+" * 6, "+" * 6, "smart", caps=caps,
                           force_partition=True)
    except ResourceCapError as err:
        assert err.stage in ("precompute", "crossref")


def test_plan_only_skips_execution():
    c = random_circuit(6, 40, default_rng(4))
    amp, rep = simulate_amplitude(c, "+" * 6, "+" * 6, "smart", plan_only=True)
    assert amp == 0j
    assert rep.leaf_evals == 0
    assert rep.plan is not None
    assert rep.estimates["tEstSeconds"] > 0


def test_report_serialises():
    c = random_circuit(4, 20, default_rng(5))
    _, rep = simulate_amplitude(c, "+" * 4, "+" * 4, "smart")
    doc = rep.to_json_dict()
    assert doc["method"] == "smart"
    assert set(doc["counts"]) == {"leafEvals", "tableEntries", "crossrefProducts"}
    assert doc["plan"]["k"] >= 1
    import json
    json.dumps(doc)  # must be JSON-clean


def test_unknown_method():
    c = Circuit(1)
    with pytest.raises(ValueError):
        simulate_amplitude(c, "0", "0", "samrt")


def test_sigma0_desk_scale_estimate_ratio():
    # at 20 qubits x 200 gates with nearest-neighbour CNOTs the planner
    # splits three of four circuits into components, and the split plans
    # need 3.7-19x fewer leaves than plain decomposition
    from zxcut.generators import CircuitSpec, gen_clifford_t
    plans = []
    for i in range(4):
        c = gen_clifford_t(CircuitSpec(20, 200, 0.0, 4000 + i))
        _, rep = simulate_amplitude(c, "+" * 20, "+" * 20, "smart", plan_only=True)
        plans.append(rep.plan)
    assert [p.k for p in plans] == [2, 1, 3, 4]
    assert [len(p.cut_spiders) for p in plans] == [0, 0, 0, 0]
    assert [p.s_decomp / p.s_precomp for p in plans] == pytest.approx(
        [3.7365661801702523, 1.0, 18.632459522093068, 6.879442656061143], rel=1e-9)


def test_low_sigma_frontier_cheaper_on_average():
    import math
    from zxcut.generators import CircuitSpec, gen_clifford_t
    cm = CostModel()
    means = {}
    for sigma in (2.0, math.inf):
        tot = cnt = 0
        for n in (16, 20):
            for d in (150, 250):
                for i in range(3):
                    c = gen_clifford_t(CircuitSpec(n, d, sigma, 700 + i))
                    g = clifford_simplify(plug(diagram_from_circuit(c),
                                               "+" * n, "+" * n))
                    plan = choose_k(g, cm)
                    tot += math.log2(plan.t_smart_est)
                    cnt += 1
        means[sigma] = tot / cnt
    assert means[2.0] < means[math.inf]
