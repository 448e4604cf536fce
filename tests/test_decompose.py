import math

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.decompose import (DENSE_MAX_SPIDERS, DecomposeStats, decompose_to_scalar,
                             derive_one_t_coefficients, derive_two_t_coefficients,
                             measure_alpha, _path_sum, _template_tensor)
from zxcut.diagram import (EdgeKind, Phase, Spider, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug)
from zxcut.generators import CircuitSpec, gen_clifford_t
from zxcut.oracle import statevector_amplitude
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
        c = random_circuit(n, 240, rng)
        ins, outs = random_plugs(n, rng)
        stats = DecomposeStats()
        val = decompose_to_scalar(plug(diagram_from_circuit(c), ins, outs), stats=stats)
        assert abs(val.to_complex() - statevector_amplitude(c, ins, outs)) < 1e-12
        branched += stats.leaves >= 2
    assert branched >= 20


def test_path_sum_matches_tensor_of():
    # graph-like diagrams of 1 to DENSE_MAX_SPIDERS spiders, every phase, edge
    # density from 0 to 1 and the complete graphs, under an exact nontrivial
    # scalar: every size the dense kernel evaluates is checked against the
    # oracle, which evaluates all of them
    rng = default_rng(15)
    diagrams = [random_graphlike_diagram(rng, int(rng.integers(1, DENSE_MAX_SPIDERS + 1)),
                                         float(rng.random()))
                for _ in range(700)]
    diagrams += [random_graphlike_diagram(rng, n, 1.0) for n in range(1, DENSE_MAX_SPIDERS + 1)]
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
        c = random_circuit(n, 240, rng)
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
        c = random_circuit(8, 120, rng)
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
# 349; a change to the rewrite sequence, to any scalar factor or to the
# cutoff moves them
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
    (14, 250, math.inf, 228, '0111+1+0+0+010', '+++01+++1+1+++', 32, 64,
     0.002245287876245333 - 0.0011798677027397354j),
    (16, 300, 1.0, 204, '10+011+01+000+++', '+0+1+++0+++11001', 36, 62,
     -0.0008662346286270194 - 0.000745062669750154j),
    (14, 300, 1.0, 200, '+001+1++0+101+', '+0+01+0+101011', 31, 12,
     -0.013252995910024865 - 0.007847201080012434j),
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
