import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut import simplify
from zxcut.circuits import parse_circuit
from zxcut.costmodel import CostModel
from zxcut.cutting import cut_spider, instantiate
from zxcut.decompose import (DENSE_MAX_SPIDERS, decompose_to_scalar,
                             derive_one_t_coefficients, derive_two_t_coefficients)
from zxcut.diagram import (EdgeKind, Phase, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug)
from zxcut.engine import split_segments
from zxcut.generators import CircuitSpec, gen_clifford_t
from zxcut.oracle import statevector_amplitude
from zxcut.partition import choose_k
from zxcut.scalars import ScalarC
from zxcut.simplify import Trace, clifford_simplify, param_safe_simplify, simplify_in_place
from zxcut.tensor import tensor_of

from helpers import (graph_like_breaks, random_circuit, random_graphlike_diagram, random_plugs,
                     random_scalar_diagram)


def relerr(a, b):
    return abs(a - b) / max(1.0, abs(b))


def test_empty_diagram_fixpoint():
    g = clifford_simplify(ZxDiagram())
    assert not g.spiders
    assert abs(g.scalar.to_complex() - 1) < 1e-15


def test_fusion_adds_phases():
    d = ZxDiagram()
    a = d.add_spider(SpiderKind.Z, Phase(1))
    b = d.add_spider(SpiderKind.Z, Phase(1))
    d.add_edge(a, b, EdgeKind.PLAIN)
    aux = d.add_spider(SpiderKind.BOUNDARY)
    d.outputs = [aux]
    d.add_edge(a, aux)
    g = clifford_simplify(d)
    spiders = [s for s in g.spiders.values() if s.kind == SpiderKind.Z]
    assert len(spiders) == 1
    assert spiders[0].phase.fixed == 2  # pi/4 + pi/4 = pi/2


def test_clifford_scalar_fully_reduces():
    rng = default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        gates = []
        for _ in range(30):
            k = int(rng.integers(3))
            if k == 2 and n > 1:
                q = int(rng.integers(n - 1))
                gates.append(("CNOT", q, q + 1))
            else:
                gates.append((("S", "HSH")[k % 2], int(rng.integers(n))))
        from zxcut.circuits import Circuit
        c = Circuit(n, gates)
        ins, outs = random_plugs(n, rng)
        g = clifford_simplify(plug(diagram_from_circuit(c), ins, outs))
        assert len(g.spiders) == 0
        assert abs(g.scalar.to_complex() - statevector_amplitude(c, ins, outs)) < 1e-9


def test_tensor_preserved_500_random_diagrams():
    rng = default_rng(2)
    for _ in range(500):
        d = random_scalar_diagram(rng, n_max=4, d_max=14)
        ref = tensor_of(d)
        g = clifford_simplify(d)
        assert relerr(tensor_of(g), ref) < 1e-9


def test_tensor_preserved_with_boundary():
    rng = default_rng(8)
    for _ in range(60):
        c = random_circuit(3, int(rng.integers(4, 20)), rng)
        d = diagram_from_circuit(c)
        ref = tensor_of(d)
        out = tensor_of(clifford_simplify(d))
        assert np.max(np.abs(out - ref)) < 1e-9


def test_t_count_never_increases():
    # circuit diagrams come from the builder graph-like, so the looped
    # diagrams bring the X-spiders and plain edges that fusion and colour
    # change work on
    rng = default_rng(3)
    diagrams = [random_scalar_diagram(rng) for _ in range(80)]
    diagrams += [_looped_diagram(rng, int(rng.integers(1, 6))) for _ in range(80)]
    for d in diagrams:
        g = clifford_simplify(d)
        assert g.t_count() <= d.t_count()


def test_rejects_parameterised_input():
    rng = default_rng(4)
    d = random_scalar_diagram(rng)
    v = next(v for v, s in d.spiders.items() if s.kind != SpiderKind.BOUNDARY)
    cutd = cut_spider(d, v, 0)
    with pytest.raises(ValueError):
        clifford_simplify(cutd)


def test_param_free_param_safe_equals_full():
    rng = default_rng(5)
    for _ in range(30):
        d = random_scalar_diagram(rng)
        a = clifford_simplify(d)
        b = param_safe_simplify(d)
        assert len(a.spiders) == len(b.spiders)
        assert abs(a.scalar.to_complex() - b.scalar.to_complex()) < 1e-12


def test_param_xor_cancellation():
    d = ZxDiagram()
    d.params.add(7)
    a = d.add_spider(SpiderKind.Z, Phase(0, frozenset({7})))
    b = d.add_spider(SpiderKind.Z, Phase(0, frozenset({7})))
    d.add_edge(a, b, EdgeKind.PLAIN)
    out = d.add_spider(SpiderKind.BOUNDARY)
    d.outputs = [out]
    d.add_edge(a, out)
    g = param_safe_simplify(d)
    z = [s for s in g.spiders.values() if s.kind == SpiderKind.Z]
    assert len(z) == 1
    assert z[0].phase.params == frozenset()
    assert z[0].phase.fixed == 0


def test_param_safe_commutes_with_instantiate():
    rng = default_rng(6)
    for _ in range(25):
        c = random_circuit(4, int(rng.integers(8, 25)), rng)
        d = plug(diagram_from_circuit(c), "+" * 4, "+" * 4)
        cands = sorted(v for v, s in d.spiders.items() if s.kind != SpiderKind.BOUNDARY)
        v1, v2 = rng.choice(cands, 2, replace=False)
        cutd = cut_spider(cut_spider(d, int(v1), 0), int(v2), 1)
        simp = param_safe_simplify(cutd)
        for bits in itertools.product((0, 1), repeat=2):
            asg = {0: bits[0], 1: bits[1]}
            a = tensor_of(clifford_simplify(instantiate(simp, asg)))
            b = tensor_of(instantiate(cutd, asg))
            assert relerr(a, b) < 1e-9


def test_zero_scalar_short_circuit():
    # <0|X|0> = 0: the zero is detected exactly and the diagram cleared
    from zxcut.circuits import parse_circuit
    d = plug(diagram_from_circuit(parse_circuit("X 0\n")), "0", "0")
    g = clifford_simplify(d)
    assert g.scalar.is_zero
    assert not g.spiders


def test_termination_on_large_diagram():
    rng = default_rng(9)
    c = random_circuit(40, 18000, rng, nearest=True)
    d = plug(diagram_from_circuit(c), "+" * 40, "+" * 40)
    assert len(d.spiders) >= 10_000
    g = clifford_simplify(d)  # must halt
    assert len(g.spiders) < len(d.spiders)


def test_trace_records_rules():
    # every rule fires somewhere on a small corpus of circuits with mixed
    # plugs, so a rule that no input reaches fails here
    rng = default_rng(10)
    diagrams = [random_scalar_diagram(rng) for _ in range(12)]
    for i in range(12):
        n, depth = int(rng.integers(6, 10)), int(rng.integers(60, 171))
        circ = gen_clifford_t(CircuitSpec(n, depth, (0.5, 1.0, 2.0, math.inf)[i % 4], 500 + i))
        diagrams.append(plug(diagram_from_circuit(circ), *random_plugs(n, rng)))
    names = set()
    for d in diagrams:
        tr = Trace()
        clifford_simplify(d, tr)
        names.update(s["rule"] for s in tr.steps)
        for step in tr.steps:
            assert isinstance(step["spiders"], list)
            assert len(step["scalarDelta"]) == 3
    assert names == {v for k, v in vars(simplify).items() if k.startswith("RULE_")}


def test_random_graphlike_preservation():
    rng = default_rng(11)
    for _ in range(60):
        d = random_graphlike_diagram(rng, int(rng.integers(3, 8)),
                                     boundary=int(rng.integers(0, 3)))
        ref = tensor_of(d)
        out = tensor_of(clifford_simplify(d))
        assert np.max(np.abs(np.atleast_1d(out - ref))) < 1e-9


# rewrite sequence of a fixed 3-qubit circuit, as a rescan of every spider
# after every rule gives it; the builder has already fused six gates (ids 6,
# 11, 14, 15, 16 and 19) into the spider before them on their wire, so
# simplification starts by fusing the plugs
PINNED_CIRCUIT = ("CNOT 1 2\nT 2\nCNOT 1 2\nCNOT 2 1\nCNOT 0 1\nCNOT 1 2\n"
                  "T 1\nT 0\nT 0\nHSH 1\nS 2\nT 2\n")
PINNED_STEPS = [
    ("fuse", [18, 22]), ("fuse", [2, 4]), ("fuse", [1, 3]), ("fuse", [0, 10]),
    ("copy", [0, 9, 20]), ("copy", [12, 17, 21]),
    ("hadamardCancel", [5, 7]), ("pivot", [1, 2, 5, 7, 9]), ("pivot", [7, 8, 9, 13]),
    ("identity", [5, 9, 12]), ("fuse", [5, 12]), ("localComplement", [5, 13]),
    ("localComplement", [13, 18]), ("scalarElim", [18]),
]


def test_trace_of_fixed_circuit_is_pinned():
    d = plug(diagram_from_circuit(parse_circuit(PINNED_CIRCUIT)), "++1", "0++")
    tr = Trace()
    g = clifford_simplify(d, tr)
    assert [(s["rule"], s["spiders"]) for s in tr.steps] == PINNED_STEPS
    assert not g.spiders
    assert abs(g.scalar.to_complex() - (-0.1767766952966369 + 0.42677669529663687j)) < 1e-15


def _steps_and_result(h, trace: Trace, g: ZxDiagram) -> None:
    h.update(repr([(step["rule"], step["spiders"]) for step in trace.steps]).encode())
    h.update(g.to_json().encode())


# sha256 over every branch simplification of two decomposition trees, each
# the (rule, spiders) sequence of the call, resumed from the spiders a term
# changed, then the diagram it leaves; a change to what a resumed call
# rewrites, where or in which order, or to the pair the tree branches on,
# shows here
PINNED_BRANCHES = (546, "f7701be79733e951bee33b25f3eb07e04582596508e7aa54d235b7c54fbf9e19")


def test_branch_simplifications_are_pinned(monkeypatch):
    import zxcut.decompose
    h = hashlib.sha256()
    calls = 0

    def traced(g, touched=None, trace=None):
        nonlocal calls
        tr = Trace()
        simplify_in_place(g, touched, tr)
        _steps_and_result(h, tr, g)
        calls += 1
    monkeypatch.setattr(zxcut.decompose, "simplify_in_place", traced)
    for spec in (CircuitSpec(16, 400, 1.0, 500), CircuitSpec(14, 300, 0.5, 501)):
        n = spec.qubits
        decompose_to_scalar(plug(diagram_from_circuit(gen_clifford_t(spec)), "+" * n, "+" * n))
    assert (calls, h.hexdigest()) == PINNED_BRANCHES


# the same over the parameter-safe simplification of each segment of a
# forced five-part plan with eight cut spiders, whose segments carry 3-7
# parameters each
PINNED_SEGMENTS = (5, "4774bdf777696e336baefccda08e327954a688c7adafd7fbe6d00cd0b1e32fd5")


def test_segment_simplifications_are_pinned():
    c = gen_clifford_t(CircuitSpec(12, 200, 1.0, 2))
    g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 12, "+" * 12))
    segs = split_segments(g, choose_k(g, CostModel(), force_partition=True))[0]
    h = hashlib.sha256()
    for seg in segs:
        assert seg.params
        tr = Trace()
        _steps_and_result(h, tr, param_safe_simplify(seg, tr))
    assert (len(segs), h.hexdigest()) == PINNED_SEGMENTS


def _trace_adds_up(d: ZxDiagram) -> bool | None:
    """Whether the trace's factors times the scalar of ``d`` give the scalar
    of its simplification, to 1e-12 relative; None when that scalar is 0."""
    tr = Trace()
    want = clifford_simplify(d, tr).scalar.to_complex()
    if not want:
        return None
    got = d.scalar.copy()
    for step in tr.steps:
        re, im, k = step["scalarDelta"]
        got.mul(ScalarC(complex(re, im), k))
    return abs(got.to_complex() - want) <= 1e-12 * abs(want)


def test_trace_factors_multiply_to_the_simplified_scalar():
    # a Hadamard cancel inside a pivot, a local complementation or an
    # identity removal is its own step, not also part of the enclosing one
    assert _trace_adds_up(plug(diagram_from_circuit(parse_circuit(PINNED_CIRCUIT)),
                               "++1", "0++"))
    rng = default_rng(14)
    checked = [_trace_adds_up(random_scalar_diagram(rng)) for _ in range(80)]
    assert False not in checked
    assert checked.count(True) >= 50
    # X-spiders, self-loops and parallel plain edges, which circuits no
    # longer bring: colour changes, fusions and their loop and pair cancels
    looped = [_trace_adds_up(_looped_diagram(rng, int(rng.integers(1, 6)))) for _ in range(80)]
    assert False not in looped
    assert looped.count(True) >= 50


def test_simplifiers_leave_their_input_unchanged():
    rng = default_rng(12)
    for _ in range(20):
        d = random_scalar_diagram(rng)
        before = d.to_json()
        clifford_simplify(d)
        param_safe_simplify(d)
        assert d.to_json() == before
        v = next(v for v, s in sorted(d.spiders.items()) if s.kind != SpiderKind.BOUNDARY)
        cut = cut_spider(d, v, 0)
        before = cut.to_json()
        param_safe_simplify(cut)
        assert cut.to_json() == before


def _canonical(g: ZxDiagram):
    spiders = sorted((v, s.kind, s.phase.fixed, sorted(s.phase.params))
                     for v, s in g.spiders.items())
    edges = sorted((u, v, tuple(row)) for u, nbrs in g.adj.items()
                   for v, row in nbrs.items() if u <= v)
    return spiders, edges, g.scalar.coeff, g.scalar.sqrt2_pow, g.scalar.is_zero


def test_resuming_from_touched_spiders_equals_a_fresh_simplification():
    # the decomposition tree rewrites a simplified diagram and resumes from
    # the spiders it changed; that must give what a fresh call gives, rewrite
    # for rewrite, down the whole tree and for target pairs other than the
    # ones it picks
    rng = default_rng(13)
    pair, single = derive_two_t_coefficients(), derive_one_t_coefficients()
    checked = 0
    for _ in range(12):
        n = int(rng.integers(4, 8))
        d = plug(diagram_from_circuit(random_circuit(n, 100, rng)), "+" * n, "+" * n)
        stack = [clifford_simplify(d)]
        while stack:
            g = stack.pop()
            ts = [v for v, s in sorted(g.spiders.items()) if s.phase.is_t()]
            if not ts:
                continue
            rule = pair if len(ts) >= 2 else single
            targets = tuple(int(v) for v in sorted(rng.choice(ts, rule.t_cost, replace=False)))
            for term in rule.terms:
                branch = g.copy()
                fresh = branch._next
                term.apply(branch, targets)
                fresh_trace, resumed_trace = Trace(), Trace()
                expected = clifford_simplify(branch, fresh_trace)
                simplify_in_place(branch, [*targets, *range(fresh, branch._next)],
                                  resumed_trace)
                assert _canonical(branch) == _canonical(expected)
                # the same rewrites at the same spiders, in the same order
                assert resumed_trace.steps == fresh_trace.steps
                checked += 1
                stack.append(branch)
    assert checked > 200


def test_resuming_reaches_a_rule_at_a_lower_neighbour():
    # a T-spider that turns Pauli lets its lower-id Pauli neighbour pivot
    # with it; the sweep meets that neighbour first
    d = ZxDiagram()
    y, v, a, b, c, e = (d.add_spider(SpiderKind.Z, Phase(k)) for k in (0, 1, 1, 1, 3, 5))
    for s, t in ((y, v), (y, a), (y, b), (v, c), (v, e), (a, c), (b, e), (c, e), (a, b)):
        d.add_edge(s, t, EdgeKind.HADAMARD)
    g = clifford_simplify(d)
    assert _canonical(g)[:2] == _canonical(d)[:2]  # nothing to rewrite yet
    g.spiders[v] = g.spiders[v].with_phase(Phase(0))
    tr = Trace()
    expected = clifford_simplify(g)
    simplify_in_place(g, [v], tr)
    assert ("pivot", [y, v]) in [(s["rule"], s["spiders"][:2]) for s in tr.steps]
    assert _canonical(g) == _canonical(expected)


def _looped_diagram(rng, n_spiders, boundary=0, params=0):
    """Random Z- and X-spiders joined by parallel plain and Hadamard edges,
    with plain and Hadamard self-loops on the X-spiders and ``boundary``
    output wires; spider i < ``params`` carries parameter i."""
    d = ZxDiagram()
    vs = []
    for i in range(n_spiders):
        kind = SpiderKind.X if rng.random() < 0.6 else SpiderKind.Z
        ps = frozenset({i}) if i < params else frozenset()
        vs.append(d.add_spider(kind, Phase(int(rng.integers(8)), ps)))
    for v in vs:
        if d.spiders[v].kind == SpiderKind.X:
            for kind in EdgeKind:
                for _ in range(int(rng.integers(3))):
                    d.add_edge(v, v, kind)
    for a, b in itertools.combinations(vs, 2):
        if rng.random() < 0.5:
            kind = EdgeKind(int(rng.integers(2)))
            for _ in range(int(rng.integers(1, 3))):
                d.add_edge(a, b, kind)
    for _ in range(boundary):
        b = d.add_spider(SpiderKind.BOUNDARY)
        d.outputs.append(b)
        d.add_edge(b, vs[int(rng.integers(n_spiders))], EdgeKind(int(rng.integers(2))))
    return d


def _assert_close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_colour_change_keeps_a_self_loop_of_an_x_spider():
    # X(0) on a wire with a plain self-loop is the identity; swapping the
    # loop's kind with the other edges would make it X/sqrt(2)
    d = ZxDiagram()
    a, b = d.add_spider(SpiderKind.BOUNDARY), d.add_spider(SpiderKind.BOUNDARY)
    x = d.add_spider(SpiderKind.X)
    d.inputs, d.outputs = [a], [b]
    d.add_edge(a, x)
    d.add_edge(x, b)
    d.add_edge(x, x)
    _assert_close(tensor_of(d), np.eye(2))
    _assert_close(tensor_of(clifford_simplify(d)), np.eye(2))
    cut = cut_spider(d, x, 0)
    _assert_close(sum(tensor_of(instantiate(cut, {0: bit})) for bit in (0, 1)), np.eye(2))


def test_x_spiders_with_loops_and_parallel_edges_simplify_exactly():
    rng = default_rng(31)
    for _ in range(150):
        d = _looped_diagram(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        _assert_close(tensor_of(clifford_simplify(d)), tensor_of(d))


def test_x_spiders_with_loops_and_parallel_edges_decompose_exactly():
    rng = default_rng(32)
    for _ in range(100):
        d = _looped_diagram(rng, int(rng.integers(1, 5)))
        _assert_close(decompose_to_scalar(d).to_complex(), tensor_of(d))


def test_x_spiders_with_loops_and_parameters_simplify_for_every_assignment():
    rng = default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = _looped_diagram(rng, n, int(rng.integers(0, 3)), int(rng.integers(1, n + 1)))
        g = param_safe_simplify(d)
        params = sorted(d.params)
        for bits in itertools.product((0, 1), repeat=len(params)):
            asg = dict(zip(params, bits))
            _assert_close(tensor_of(instantiate(g, asg)), tensor_of(instantiate(d, asg)))


def test_rules_after_fusion_see_a_simple_graph(monkeypatch):
    # the invariant of the simplify module docstring, checked before every
    # call of the rules written for it, on every kind of input they get:
    # circuits, X-multigraphs with loops and parameters, the segments of
    # split plans and decomposition branches resumed from touched spiders
    calls = collections.Counter()

    def check_before(name, fused):
        rule = getattr(simplify, name)

        def checked(g, *args):
            assert graph_like_breaks(g, fused) == [], name
            calls[name] += 1
            return rule(g, *args)
        monkeypatch.setattr(simplify, name, checked)

    # True for the rules after the fuse/identity/copy loop, which see no
    # plain edge between Z-spiders either
    rules = {"_lcomp_at": True, "_pivot_at": True, "_scalar_elim_pass": True,
             "_identity_at": False, "_copy_at": False}
    for name, fused in rules.items():
        check_before(name, fused)

    rng = default_rng(41)
    for _ in range(100):
        clifford_simplify(random_scalar_diagram(rng))
    for _ in range(100):
        n = int(rng.integers(1, 6))
        param_safe_simplify(_looped_diagram(rng, n, int(rng.integers(1, 4)),
                                            int(rng.integers(1, n + 1))))
    split = 0
    while split < 8:
        g = clifford_simplify(plug(diagram_from_circuit(random_circuit(8, 60, rng)),
                                   "+" * 8, "+" * 8))
        plan = choose_k(g, CostModel(), force_partition=True)
        if plan.k > 1:
            split += 1
            for seg in split_segments(g, plan)[0]:
                param_safe_simplify(seg)
    branched = 0
    while branched < 20:
        d = plug(diagram_from_circuit(random_circuit(8, 160, rng)), "+" * 8, "+" * 8)
        if len(clifford_simplify(d).spiders) > DENSE_MAX_SPIDERS:
            decompose_to_scalar(d)  # a branch resumes from the spiders it changed
            branched += 1
    assert all(calls[name] for name in rules)
