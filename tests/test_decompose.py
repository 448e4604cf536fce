import itertools
import math

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.decompose import (DENSE_MAX_SPIDERS, DecomposeStats, decompose_to_scalar,
                             derive_one_t_coefficients, derive_two_t_coefficients,
                             measure_alpha, _path_sum, _pick_t_pair, _template_tensor)
from zxcut.diagram import (EdgeKind, Phase, Spider, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug)
from zxcut.generators import CircuitSpec, gen_clifford_t
from zxcut.oracle import statevector_amplitude
from zxcut.scalars import ScalarC, phase8_complex
from zxcut.simplify import clifford_simplify
from zxcut.tensor import tensor_of

from helpers import (random_circuit, random_graphlike_diagram, random_plugs,
                     random_scalar_diagram)


def test_two_t_solve_residual():
    rule = derive_two_t_coefficients()
    target = _template_tensor(2, None, None)
    recon = sum(complex(term.coefficient) * _template_tensor(2, term.apply, None)
                for term in rule.terms)
    assert np.linalg.norm(recon - target) < 1e-12


def test_two_t_reconstruction_at_00():
    # the (0,0) entry of |T>|T> is 1 in the unnormalised convention
    target = _template_tensor(2, None, None)
    assert abs(target[0] - 1) < 1e-12


def test_alpha_nominal():
    assert derive_two_t_coefficients().alpha_nominal == 0.5


def test_one_t_solve_residual():
    rule = derive_one_t_coefficients()
    target = _template_tensor(1, None, None)
    recon = sum(complex(term.coefficient) * _template_tensor(1, term.apply, None)
                for term in rule.terms)
    assert np.linalg.norm(recon - target) < 1e-12


def test_clifford_only_equals_simplify():
    rng = default_rng(0)
    from zxcut.circuits import Circuit
    gates = []
    for _ in range(30):
        k = int(rng.integers(3))
        if k == 2:
            gates.append(("CNOT", int(rng.integers(3)), 3))
        else:
            gates.append((("S", "HSH")[k], int(rng.integers(4))))
    c = Circuit(4, gates)
    d = plug(diagram_from_circuit(c), "0000", "0000")
    stats = DecomposeStats()
    val = decompose_to_scalar(d, stats=stats)
    ref = clifford_simplify(d).scalar
    assert abs(val.to_complex() - ref.to_complex()) < 1e-12
    assert stats.leaves == 1


def test_matches_oracle_on_random_clifford_t():
    rng = default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        c = random_circuit(n, int(rng.integers(10, 41)), rng)
        ins, outs = random_plugs(n, rng)
        d = plug(diagram_from_circuit(c), ins, outs)
        val = decompose_to_scalar(d)
        assert abs(val.to_complex() - statevector_amplitude(c, ins, outs)) < 1e-7
    # 12-14 qubits, deep enough that most simplified diagrams have more than
    # DENSE_MAX_SPIDERS spiders, so the pair rule and zero pruning run before
    # the nodes become dense leaves
    rng = default_rng(7)
    branched = 0
    for _ in range(30):
        n = int(rng.integers(12, 15))
        c = random_circuit(n, 300, rng)
        ins, outs = random_plugs(n, rng)
        stats = DecomposeStats()
        val = decompose_to_scalar(plug(diagram_from_circuit(c), ins, outs), stats=stats)
        assert abs(val.to_complex() - statevector_amplitude(c, ins, outs)) < 1e-12
        branched += stats.leaves >= 2
    assert branched >= 20


def test_path_sum_matches_tensor_of():
    # graph-like diagrams of 1 to DENSE_MAX_SPIDERS spiders, every phase and
    # an exact nontrivial scalar: every size the dense kernel evaluates is
    # checked against the oracle.  Edge densities run from 0 to 1 up to 20
    # spiders, complete graphs included, and from 0 to 0.6 above, where a
    # denser graph can pass the oracle's tensor.MAX_LEGS; complete graphs
    # above 20 spiders are test_path_sum_expands_complete_graphs_on_a_spider
    rng = default_rng(15)
    diagrams = []
    for _ in range(700):
        n = int(rng.integers(1, DENSE_MAX_SPIDERS + 1))
        diagrams.append(random_graphlike_diagram(rng, n, float(rng.random()) * (1 if n <= 20 else 0.6)))
    diagrams += [random_graphlike_diagram(rng, n, 1.0) for n in range(1, 21)]
    zeros = 0
    for d in diagrams:
        d.scalar.mul_phase8(int(rng.integers(8)))
        d.scalar.mul_sqrt2(int(rng.integers(-3, 4)))
        val = _path_sum(d)
        ref = tensor_of(d)
        assert abs(val.to_complex() - ref) <= 1e-12 * max(1.0, abs(ref))
        # the sum itself is an integer combination of w^0..w^3: exactly zero,
        # or (on these diagrams) far from it
        total = abs(ref) * 2 ** (d.edge_count() / 2) / abs(d.scalar.to_complex())
        assert val.is_zero == (total < 1e-6)
        zeros += val.is_zero
    assert zeros > 0
    assert max(len(d.spiders) for d in diagrams) == DENSE_MAX_SPIDERS


def _without(d, v, shift):
    """``d`` without spider ``v``, its neighbours' phases shifted by ``shift`` pi/4."""
    g = d.copy()
    for u in g.adj[v]:
        if u != v:
            g.spiders[u] = g.spiders[u].with_phase(g.spiders[u].phase.add_fixed(shift))
    g.remove_spider(v)
    return g


@pytest.mark.parametrize("phases", ["all T", "odd"])
def test_path_sum_expands_complete_graphs_on_a_spider(phases):
    # summing over one spider v's two values, V(G) = sqrt(2)^-deg(v) *
    # (V(G - v) + w^k_v * V(G - v with v's neighbours shifted by pi)): the
    # complete graphs of 21 to DENSE_MAX_SPIDERS spiders, too wide for the
    # oracle, each against two path sums one spider smaller, down to those of
    # 20 spiders that test_path_sum_matches_tensor_of checks against it.
    # Phases are odd multiples of pi/4: with even ones mixed in, the sum over
    # a complete graph mostly cancels to exactly zero
    rng = default_rng(16)
    for n in range(21, DENSE_MAX_SPIDERS + 1):
        d = random_graphlike_diagram(rng, n, 1.0)
        for u in d.spiders:
            k = 1 if phases == "all T" else 2 * int(rng.integers(4)) + 1
            d.spiders[u] = d.spiders[u].with_phase(Phase(k))
        d.scalar.mul_phase8(int(rng.integers(8)))
        v = int(rng.integers(n))
        off = _path_sum(_without(d, v, 0))
        on = _path_sum(_without(d, v, 4)).times(ScalarC.from_phase8(d.spiders[v].phase.fixed))
        expected = off.plus(on)
        expected.mul_sqrt2(-(n - 1))
        # the two terms can cancel, so the error is bounded by their size
        scale = (abs(off.to_complex()) + abs(on.to_complex())) * 2 ** (-(n - 1) / 2)
        val = _path_sum(d)
        assert not val.is_zero
        assert abs(val.to_complex() - expected.to_complex()) <= 1e-12 * scale


def test_path_sum_is_exactly_zero_at_the_cutoff():
    # two leaves of phases 0 and pi on one spider force it to 0 and to 1, so
    # every term cancels; the rest is a random graph with random phases
    d = random_graphlike_diagram(default_rng(17), DENSE_MAX_SPIDERS - 2, 0.5)
    for k in (0, 4):
        leaf = d.add_spider(SpiderKind.Z, Phase(k))
        d.add_edge(leaf, 0, EdgeKind.HADAMARD)
    assert len(d.spiders) == DENSE_MAX_SPIDERS
    assert _path_sum(d).is_zero
    # a leaf of phase pi/2 instead does not cancel
    d.spiders[leaf] = d.spiders[leaf].with_phase(Phase(2))
    assert not _path_sum(d).is_zero


def test_path_sum_of_unconnected_t_spiders_at_the_cutoff_is_exact():
    # DENSE_MAX_SPIDERS unconnected T-spiders sum to (1 + w)^n: each entry
    # of the kernel's transform over the low half is (1 + w)^(n/2), whose
    # coefficients of w^0..w^3 are not powers of two, and the value is bit
    # for bit that of the exact integer coefficients
    n = DENSE_MAX_SPIDERS
    d = ZxDiagram()
    for _ in range(n):
        d.add_spider(SpiderKind.Z, Phase(1))
    coeffs = [1, 0, 0, 0]
    for _ in range(n):  # times 1 + w, with w * w^3 = -1
        coeffs = [coeffs[0] - coeffs[3], coeffs[1] + coeffs[0],
                  coeffs[2] + coeffs[1], coeffs[3] + coeffs[2]]
    w4 = np.array([phase8_complex(k) for k in range(4)])
    expected = ScalarC(complex(np.array(coeffs, dtype=float) @ w4))
    val = _path_sum(d)
    assert (val.coeff, val.sqrt2_pow) == (expected.coeff, expected.sqrt2_pow)
    assert abs(val.to_complex() - (1 + phase8_complex(1)) ** n) <= 1e-12 * abs(val.to_complex())


@pytest.mark.parametrize("n", range(1, 13))
def test_path_sum_is_the_sum_over_every_assignment(n):
    # the integer coefficients of w^0..w^3 summed directly over all 2^n
    # assignments give the path sum's value bit for bit, on random graphs
    # and on the all-T complete graph
    rng = default_rng(100 + n)
    diagrams = [random_graphlike_diagram(rng, n, p) for p in (0.0, 0.3, 0.6, 0.9)]
    diagrams.append(random_graphlike_diagram(rng, n, 1.0))
    for u in diagrams[-1].spiders:
        diagrams[-1].spiders[u] = diagrams[-1].spiders[u].with_phase(Phase(1))
    w4 = np.array([phase8_complex(k) for k in range(4)])
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    for d in diagrams:
        vs = sorted(d.spiders)
        k = np.array([d.spiders[v].phase.fixed for v in vs])
        upper = np.array([[u > v and u in d.adj[v] for u in vs] for v in vs], dtype=int)
        r = (bits @ k + 4 * ((bits @ upper) * bits).sum(1)) % 8
        counts = np.bincount(r, minlength=8)
        coeffs = (counts[:4] - counts[4:]).astype(float)
        expected = ScalarC(complex(coeffs @ w4), -d.edge_count())
        val = _path_sum(d)
        assert val.is_zero == expected.is_zero
        assert (val.coeff, val.sqrt2_pow) == (expected.coeff, expected.sqrt2_pow)


def test_path_sum_of_z_pi_is_exactly_zero():
    # Z(pi) alone is 1 + e^(i*pi)
    d = ZxDiagram()
    d.add_spider(SpiderKind.Z, Phase(4))
    assert _path_sum(d).is_zero


@pytest.mark.parametrize("defect", ["X-spider", "plain edge", "parallel edges",
                                    "self-loop", "parameter"])
def test_path_sum_rejects_what_is_not_graph_like(defect):
    d = random_graphlike_diagram(default_rng(6), 4, 1.0)
    if defect == "X-spider":
        d.spiders[0] = Spider.of(SpiderKind.X, d.spiders[0].phase)
    elif defect == "plain edge":
        d.remove_edge(0, 1, EdgeKind.HADAMARD)
        d.add_edge(0, 1, EdgeKind.PLAIN)
    elif defect == "parallel edges":
        d.add_edge(0, 1, EdgeKind.HADAMARD)
    elif defect == "self-loop":
        d.add_edge(2, 2, EdgeKind.HADAMARD)
    else:
        d.spiders[3] = d.spiders[3].with_phase(Phase(1, frozenset({0})))
    with pytest.raises(AssertionError):
        _path_sum(d)


def test_leaf_bound():
    rng = default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        c = random_circuit(n, int(rng.integers(10, 50)), rng)
        d = plug(diagram_from_circuit(c), "+" * n, "+" * n)
        stats = DecomposeStats()
        decompose_to_scalar(d, stats=stats)
        assert stats.leaves <= 2 ** math.ceil(stats.t_initial / 2)


def test_leaf_bound_above_the_dense_cutoff():
    # criterion 10's diagrams all end as one dense leaf; these simplify to
    # more than DENSE_MAX_SPIDERS spiders, so the pair rule builds the tree
    rng = default_rng(5)
    checked = branched = 0
    for _ in range(20):
        n = int(rng.integers(12, 15))
        c = random_circuit(n, 300, rng)
        d = plug(diagram_from_circuit(c), *random_plugs(n, rng))
        if len(clifford_simplify(d).spiders) <= DENSE_MAX_SPIDERS:
            continue
        stats = DecomposeStats()
        decompose_to_scalar(d, stats=stats)
        assert stats.leaves <= 2 ** math.ceil(stats.t_initial / 2)
        checked += 1
        branched += stats.leaves >= 2
    assert checked >= 15
    assert branched > checked // 2


def test_simplified_scalar_diagrams_never_keep_exactly_one_t():
    # why decompose_to_scalar needs no one-spider rule: Pauli neighbours
    # are pivoted or copied, +-pi/2 ones complemented, a lone spider
    # evaluated as a scalar
    rng = default_rng(8)
    diagrams = [random_scalar_diagram(rng) for _ in range(300)]
    for _ in range(30):
        n = int(rng.integers(12, 15))
        c = random_circuit(n, int(rng.integers(20, 121)), rng)
        diagrams.append(plug(diagram_from_circuit(c), *random_plugs(n, rng)))
    odd = 0
    for d in diagrams:
        odd += d.t_count() % 2
        assert clifford_simplify(d).t_count() != 1
    assert odd >= 100


def _graph_like(phases, edges):
    """Z-spiders 0.. with fixed phases k*pi/4, joined by Hadamard edges."""
    d = ZxDiagram()
    for k in phases:
        d.add_spider(SpiderKind.Z, Phase(k))
    for u, v in edges:
        d.add_edge(u, v, EdgeKind.HADAMARD)
    return d


def _pair(d):
    return _pick_t_pair(d, sorted(v for v, s in d.spiders.items() if s.phase.fixed & 1))


def test_pair_sharing_a_pauli_neighbour_beats_shared_t_neighbours():
    # T-spiders 0 and 1 share the three T-spiders 4-6, while 2 and 3 share
    # only the Pauli spider 7; branching on 2 and 3 removes or reduces 7 in
    # both terms, so they win against the most shared neighbours overall
    d = _graph_like([1] * 7 + [4], [(a, t) for a in (0, 1) for t in (4, 5, 6)]
                    + [(2, 7), (3, 7)])
    assert _pair(d) == (2, 3)


def test_pair_ties_go_to_the_smaller_symmetric_difference():
    # 0, 1 and 2, 3 each share one Pauli spider (4 and 5); 0 also has the
    # Pauli neighbours 6 and 7, a symmetric difference of 2, while 2 and 3
    # are adjacent, which leaves theirs empty once the pair itself is left out
    d = _graph_like([1] * 4 + [4, 4, 0, 0],
                    [(0, 4), (1, 4), (0, 6), (0, 7), (2, 5), (3, 5), (2, 3)])
    assert _pair(d) == (2, 3)


def test_pair_full_ties_go_to_the_lowest_ids():
    # every pair of the T-spiders 0-3, whatever their phases, shares the
    # Pauli spider 4 and has no other neighbour
    d = _graph_like([7, 5, 3, 1, 0], [(t, 4) for t in range(4)])
    assert _pair(d) == (0, 1)


def _reference_pair(d):
    """The documented key, compared over every pair of T-spiders."""
    ts = sorted(v for v, s in d.spiders.items() if s.phase.fixed & 1)

    def key(a, b):
        na, nb = set(d.adj[a]) - {b}, set(d.adj[b]) - {a}
        return (len((na & nb) - set(ts)), -len(na ^ nb), -a, -b)
    return max(itertools.combinations(ts, 2), key=lambda pair: key(*pair))


def test_pair_matches_a_scan_of_every_pair():
    # counting through the shared Pauli spiders picks what comparing every
    # pair by the documented key picks, also where no Pauli spider has two
    # T neighbours and every pair ties on the first key
    rng = default_rng(29)
    unshared = 0
    for i in range(400):
        n = int(rng.integers(4, 24))
        d = random_graphlike_diagram(rng, n, float(rng.choice([0.05, 0.15, 0.3, 0.6])))
        ts = sorted(v for v, s in d.spiders.items() if s.phase.fixed & 1)
        if len(ts) < 2:
            continue
        if all(len(d.adj[v].keys() & set(ts)) < 2 for v in d.spiders if v not in ts):
            unshared += 1
        assert _pair(d) == _reference_pair(d), i
    assert unshared >= 50


def test_four_t_leaf_cap():
    # an uncancellable t=4 diagram needs at most 2^(0.5*4) = 4 leaves
    d = ZxDiagram()
    from zxcut.diagram import EdgeKind, Phase
    vs = [d.add_spider(SpiderKind.Z, Phase(1)) for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            d.add_edge(vs[i], vs[j], EdgeKind.HADAMARD)
    stats = DecomposeStats()
    decompose_to_scalar(d, stats=stats)
    if stats.t_initial == 4:
        assert stats.leaves <= 4


def test_linearity_in_scalar():
    rng = default_rng(3)
    c = random_circuit(4, 30, rng)
    d = plug(diagram_from_circuit(c), "+" * 4, "+" * 4)
    base = decompose_to_scalar(d).to_complex()
    d2 = d.copy()
    d2.scalar.mul_complex(2.5 - 1j)
    scaled = decompose_to_scalar(d2).to_complex()
    assert abs(scaled - (2.5 - 1j) * base) < 1e-9 * max(1, abs(base))


def test_rejects_boundary_and_params():
    c = random_circuit(2, 5, default_rng(4))
    d = diagram_from_circuit(c)
    with pytest.raises(ValueError):
        decompose_to_scalar(d)
    from zxcut.cutting import cut_spider
    scalar = plug(d, "00", "00")
    v = next(v for v, s in scalar.spiders.items() if s.kind != SpiderKind.BOUNDARY)
    with pytest.raises(ValueError):
        decompose_to_scalar(cut_spider(scalar, v, 0))


def test_measure_alpha_rejects_clifford_sample():
    from zxcut.circuits import Circuit
    c = Circuit(2, [("S", 0), ("CNOT", 0, 1)])
    d = plug(diagram_from_circuit(c), "00", "00")
    with pytest.raises(ValueError):
        measure_alpha([d])


def test_measure_alpha_range():
    # only a diagram with more than DENSE_MAX_SPIDERS spiders branches; one at
    # or below the cutoff is a single dense leaf
    rng = default_rng(5)
    sample, dense = [], 0
    while len(sample) < 12:
        c = random_circuit(8, 140, rng)
        d = plug(diagram_from_circuit(c), "+" * 8, "+" * 8)
        g = clifford_simplify(d)
        if len(g.spiders) > DENSE_MAX_SPIDERS:
            sample.append(d)
        elif g.t_count() >= 8:
            stats = DecomposeStats()
            decompose_to_scalar(d, stats=stats)
            assert stats.leaves == 1
            dense += 1
    assert dense > 0
    mean, std = measure_alpha(sample)
    assert 0 < mean <= 0.5
    assert std >= 0


# (qubits, depth, sigma, generator seed, in plugs, out plugs, simplified T,
# leaves, amplitude): leaves and amplitudes with nodes of at most
# DENSE_MAX_SPIDERS spiders evaluated as dense leaves.  Each amplitude was
# re-pinned only after it agreed to 1.2e-16 with its pin from the fully
# branching tree, whose leaves were 11, 18, 14, 9, 8, 18, 8, 9, 785, 615 and
# 349.  The last three were re-pinned again when the cutoff rose from 20 to
# 26 spiders (64, 62 and 12 leaves before), after agreeing to 1e-17 with
# their pins at 20 and to 2.2e-16 with a dense statevector.  The first two
# of them were re-pinned once more when the pair rule came to count only
# shared neighbours that are not T-spiders (20 and 30 leaves before), after
# agreeing to 1.2e-18 with their pins from the previous rule, and the first
# to 3.3e-17 with a dense statevector (the second has more qubits than the
# oracle takes); a change to the rewrite sequence, to the pair rule, to any
# scalar factor or to the cutoff moves them
PINNED_DECOMPOSITIONS = [
    (10, 120, 0.5, 3, '00+1+0+++0', '10++100000', 12, 1,
     -0.015625 + 0.0078125j),
    (12, 150, 1.0, 5, '0++1+10+011+', '00000+11+1+0', 13, 1,
     -0.0004739075920298548 - 0.021149271728019902j),
    (12, 150, math.inf, 6, '+011+10110+1', '111111++1010', 13, 1,
     0.018525940184059706 + 0.027482554320049757j),
    (10, 120, 0.5, 64, '1+01101+10', '1+0++110+1', 13, 1,
     -0.022767293456039797 - 0.06439563036811942j),
    (12, 150, 1.0, 68, '1+11+0+0101+', '++++++000+1+', 16, 1,
     -0.0009765625 + 0.00040450543200497573j),
    (12, 150, math.inf, 69, '11++0+110++1', '100111+01111', 12, 1,
     -0.005189168456039805 - 0.010239532592029855j),
    (10, 120, 0.5, 74, '1011+++00+', '10000+++00', 13, 1,
     0.04363895654396021 - 0.08515230419227865j),
    (12, 150, 1.0, 76, '10011++0+000', '++++1++0+1++', 12, 1,
     -0.0004739075920298533 + 0.0034323424079701465j),
    # the size of the direct benchmark workload: trees that still branch
    (14, 250, math.inf, 228, '0111+1+0+0+010', '+++01+++1+1+++', 32, 9,
     0.002245287876245333 - 0.0011798677027397369j),
    (16, 300, 1.0, 204, '10+011+01+000+++', '+0+1+++0+++11001', 36, 9,
     -0.00086623462862702 - 0.0007450626697501552j),
    (14, 300, 1.0, 200, '+001+1++0+101+', '+0+01+0+101011', 31, 2,
     -0.013252995910024873 - 0.007847201080012437j),
]


@pytest.mark.parametrize("row", PINNED_DECOMPOSITIONS, ids=lambda r: f"{r[0]}x{r[1]}s{r[2]}/{r[3]}")
def test_pinned_leaves_and_amplitudes(row):
    n, depth, sigma, seed, ins, outs, t, leaves, amp = row
    d = plug(diagram_from_circuit(gen_clifford_t(CircuitSpec(n, depth, sigma, seed))), ins, outs)
    before = d.to_json()
    stats = DecomposeStats()
    val = decompose_to_scalar(d, None, stats)
    assert (stats.t_initial, stats.leaves) == (t, leaves)
    assert val.to_complex() == amp  # bit for bit
    assert d.to_json() == before


def test_deep_tree_leaves():
    # a deep tree, where the pair rule decides most of the cost: counting
    # shared T neighbours as well takes 56,260 leaves here
    c = gen_clifford_t(CircuitSpec(12, 500, 0.5, 700))
    d = plug(diagram_from_circuit(c), "+" * 12, "+" * 12)
    stats = DecomposeStats()
    val = decompose_to_scalar(d, None, stats)
    assert stats.leaves == 4054
    assert abs(val.to_complex() - statevector_amplitude(c, "+" * 12, "+" * 12)) < 1e-9
