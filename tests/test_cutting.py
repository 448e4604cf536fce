import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.cutting import cut_cost, cut_normalization, cut_spider, instantiate
from zxcut.diagram import (EdgeKind, Phase, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug)
from zxcut.tensor import tensor_of

from helpers import random_circuit, random_plugs, random_scalar_diagram


def both_assignments(d, p):
    return [instantiate(d, {p: a}) for a in (0, 1)]


def test_normalization_solved_once():
    nu, mu = cut_normalization()
    assert abs(nu - 2 ** -0.5) < 1e-12
    assert abs(mu - 1) < 1e-12


def test_cut_degree1_state():
    # |0> + |1>: branch a reproduces sqrt(2)|a> * s_a with s_a = 1/sqrt(2)
    d = ZxDiagram()
    b = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(SpiderKind.Z)
    d.outputs = [b]
    d.add_edge(v, b)
    cutd = cut_spider(d, v, 0)
    t0, t1 = (tensor_of(x) for x in both_assignments(cutd, 0))
    assert np.allclose(t0.ravel(), [1, 0])
    assert np.allclose(t1.ravel(), [0, 1])
    assert np.allclose((t0 + t1).ravel(), [1, 1])


def test_cut_degree2_identity():
    d = ZxDiagram()
    b1 = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(SpiderKind.Z)
    b2 = d.add_spider(SpiderKind.BOUNDARY)
    d.inputs, d.outputs = [b1], [b2]
    d.add_edge(b1, v)
    d.add_edge(v, b2)
    cutd = cut_spider(d, v, 5)
    total = sum(tensor_of(instantiate(cutd, {5: a})) for a in (0, 1))
    assert np.allclose(total, np.eye(2))


def test_cut_t_spider_makes_clifford_branches():
    d = ZxDiagram()
    b = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(SpiderKind.Z, Phase(1))
    d.outputs = [b]
    d.add_edge(v, b)
    cutd = cut_spider(d, v, 0)
    assert cutd.t_count() == d.t_count() - 1
    for inst in both_assignments(cutd, 0):
        assert inst.t_count() == 0


def test_cut_identity_200_random_pairs():
    rng = default_rng(0)
    for _ in range(200):
        d = random_scalar_diagram(rng, n_max=4, d_max=20)
        cands = sorted(v for v, s in d.spiders.items()
                       if s.kind != SpiderKind.BOUNDARY)
        v = int(rng.choice(cands))
        ref = tensor_of(d)
        cutd = cut_spider(d, v, 0)
        total = sum(tensor_of(x) for x in both_assignments(cutd, 0))
        assert abs(total - ref) < 1e-9 * max(1.0, abs(ref))


def test_cut_preserves_boundary():
    rng = default_rng(1)
    c = random_circuit(3, 12, rng)
    d = diagram_from_circuit(c)
    v = next(v for v, s in d.spiders.items() if s.kind != SpiderKind.BOUNDARY)
    cutd = cut_spider(d, v, 0)
    assert cutd.inputs == d.inputs
    assert cutd.outputs == d.outputs
    ref = tensor_of(d)
    total = sum(tensor_of(x) for x in both_assignments(cutd, 0))
    assert np.max(np.abs(total - ref)) < 1e-9


def test_cut_separates_legs():
    # cutting a hub spider leaves its former neighbours in separate components
    d = ZxDiagram()
    hub = d.add_spider(SpiderKind.Z)
    leaves = [d.add_spider(SpiderKind.Z, Phase(2)) for _ in range(4)]
    for leaf in leaves:
        d.add_edge(hub, leaf, EdgeKind.HADAMARD)
    cutd = cut_spider(d, hub, 0)
    comps = cutd.connected_components()
    assert len(comps) == 4


def test_cut_x_spider_color_changes():
    d = ZxDiagram()
    b = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(SpiderKind.X, Phase(4))
    d.outputs = [b]
    d.add_edge(v, b)
    ref = tensor_of(d)
    cutd = cut_spider(d, v, 0)
    total = sum(tensor_of(x) for x in both_assignments(cutd, 0))
    assert np.max(np.abs(total - ref)) < 1e-9


@pytest.mark.parametrize("loop", [EdgeKind.PLAIN, EdgeKind.HADAMARD])
@pytest.mark.parametrize("kind", [SpiderKind.X, SpiderKind.Z])
def test_cut_spider_with_a_self_loop(kind, loop):
    d = ZxDiagram()
    b = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(kind, Phase(1))
    d.outputs = [b]
    d.add_edge(v, b)
    d.add_edge(v, v, loop)
    ref = tensor_of(d)
    total = sum(tensor_of(x) for x in both_assignments(cut_spider(d, v, 0), 0))
    assert np.max(np.abs(total - ref)) < 1e-9


def test_cut_parameterised_spider():
    # cutting a spider that already carries a parameter unfuses it first
    rng = default_rng(2)
    d = random_scalar_diagram(rng, n_max=3, d_max=10)
    cands = sorted(v for v, s in d.spiders.items() if s.kind != SpiderKind.BOUNDARY)
    first = cut_spider(d, int(cands[0]), 0)
    carrier = next(v for v, s in first.spiders.items() if s.phase.params)
    second = cut_spider(first, carrier, 1)
    ref = tensor_of(d)
    total = 0
    for a in (0, 1):
        for b in (0, 1):
            total += tensor_of(instantiate(second, {0: a, 1: b}))
    assert abs(total - ref) < 1e-9 * max(1.0, abs(ref))


def test_instantiate_empty_assignment():
    rng = default_rng(3)
    d = random_scalar_diagram(rng)
    d2 = instantiate(d, {})
    assert abs(tensor_of(d2) - tensor_of(d)) < 1e-12


def test_instantiate_adds_pi():
    d = ZxDiagram()
    d.params.add(9)
    v = d.add_spider(SpiderKind.Z, Phase(1, frozenset({9})))
    inst = instantiate(d, {9: 1})
    assert inst.spiders[v].phase.fixed == 5  # pi/4 + pi
    assert not inst.spiders[v].phase.params


def test_instantiate_unknown_parameter():
    d = ZxDiagram()
    with pytest.raises(ValueError):
        instantiate(d, {4: 1})


@pytest.mark.parametrize("bit", [2, -1, 0.5, None])
def test_instantiate_rejects_a_bit_other_than_0_or_1(bit):
    # on a T-phase cut a bit of 2 would shift the phase as 0 does but take
    # the coefficient of 1, a value neither branch has
    d = ZxDiagram()
    v = d.add_spider(SpiderKind.Z, Phase(1))
    b = d.add_spider(SpiderKind.BOUNDARY)
    d.outputs = [b]
    d.add_edge(v, b)
    cut = cut_spider(d, v, 0)
    with pytest.raises(ValueError, match="bit 0 or 1"):
        instantiate(cut, {0: bit})
    total = sum(tensor_of(instantiate(cut, {0: one_or_zero})) for one_or_zero in (0, 1))
    assert np.allclose(total, tensor_of(d))


def test_cut_errors():
    d = ZxDiagram()
    v = d.add_spider(SpiderKind.Z)
    w = d.add_spider(SpiderKind.Z)
    d.add_edge(v, w, EdgeKind.HADAMARD)
    with pytest.raises(ValueError):
        cut_spider(d, 99, 0)
    c1 = cut_spider(d, v, 0)
    with pytest.raises(ValueError):
        cut_spider(c1, w, 0)  # parameter id collision


def test_cut_cost():
    assert cut_cost([]) == 1
    assert cut_cost(range(9)) == 512
    assert cut_cost(range(3)) == 8
