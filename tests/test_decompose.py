import math

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.decompose import (DecomposeStats, decompose_to_scalar,
                             derive_one_t_coefficients, derive_two_t_coefficients,
                             measure_alpha, _template_tensor)
from zxcut.diagram import SpiderKind, ZxDiagram, diagram_from_circuit, plug
from zxcut.generators import CircuitSpec, gen_clifford_t
from zxcut.oracle import statevector_amplitude
from zxcut.simplify import clifford_simplify

from helpers import random_circuit, random_plugs


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


def test_leaf_bound():
    rng = default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        c = random_circuit(n, int(rng.integers(10, 50)), rng)
        d = plug(diagram_from_circuit(c), "+" * n, "+" * n)
        stats = DecomposeStats()
        decompose_to_scalar(d, stats=stats)
        assert stats.leaves <= 2 ** math.ceil(stats.t_initial / 2)


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
    rng = default_rng(5)
    sample = []
    while len(sample) < 12:
        c = random_circuit(5, 70, rng)
        d = plug(diagram_from_circuit(c), "+" * 5, "+" * 5)
        if clifford_simplify(d).t_count() >= 8:
            sample.append(d)
    mean, std = measure_alpha(sample)
    assert 0 < mean <= 0.5
    assert std >= 0


# (qubits, depth, sigma, generator seed, in plugs, out plugs, simplified T,
# leaves, amplitude): leaves and amplitudes as the one-rescan-per-rule
# simplifier gave them (the first eight) and as the worklist with one log
# position per rule gave them (the last three); a change to the rewrite
# sequence or to any scalar factor moves them
PINNED_DECOMPOSITIONS = [
    (10, 120, 0.5, 3, '00+1+0+++0', '10++100000', 12, 11,
     -0.015624999999999976 + 0.00781249999999999j),
    (12, 150, 1.0, 5, '0++1+10+011+', '00000+11+1+0', 13, 18,
     -0.00047390759202985133 - 0.02114927172801988j),
    (12, 150, math.inf, 6, '+011+10110+1', '111111++1010', 13, 14,
     0.018525940184059682 + 0.027482554320049722j),
    (10, 120, 0.5, 64, '1+01101+10', '1+0++110+1', 13, 9,
     -0.022767293456039783 - 0.06439563036811936j),
    (12, 150, 1.0, 68, '1+11+0+0101+', '++++++000+1+', 16, 8,
     -0.000976562499999999 + 0.00040450543200497703j),
    (12, 150, math.inf, 69, '11++0+110++1', '100111+01111', 12, 18,
     -0.005189168456039799 - 0.010239532592029841j),
    (10, 120, 0.5, 74, '1011+++00+', '10000+++00', 13, 8,
     0.043638956543960154 - 0.08515230419227855j),
    (12, 150, 1.0, 76, '10011++0+000', '++++1++0+1++', 12, 9,
     -0.0004739075920298522 + 0.003432342407970142j),
    # the size of the direct benchmark workload: hundreds of leaves
    (14, 250, math.inf, 228, '0111+1+0+0+010', '+++01+++1+1+++', 32, 785,
     0.0022452878762453305 - 0.0011798677027397336j),
    (16, 300, 1.0, 204, '10+011+01+000+++', '+0+1+++0+++11001', 36, 615,
     -0.000866234628627017 - 0.000745062669750154j),
    (14, 300, 1.0, 200, '+001+1++0+101+', '+0+01+0+101011', 31, 349,
     -0.01325299591002484 - 0.007847201080012411j),
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
