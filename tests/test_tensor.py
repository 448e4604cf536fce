import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.diagram import EdgeKind, Phase, SpiderKind, ZxDiagram, diagram_from_circuit, plug
from zxcut.oracle import statevector_amplitude
from zxcut.tensor import TensorSizeError, tensor_of

from helpers import random_circuit


def wire_spider(phase=Phase(0), kind=SpiderKind.Z):
    d = ZxDiagram()
    b1 = d.add_spider(SpiderKind.BOUNDARY)
    v = d.add_spider(kind, phase)
    b2 = d.add_spider(SpiderKind.BOUNDARY)
    d.inputs, d.outputs = [b1], [b2]
    d.add_edge(b1, v)
    d.add_edge(v, b2)
    return d


def test_z_spider_two_wires_is_identity():
    assert np.allclose(tensor_of(wire_spider()), np.eye(2))


def test_z_pi_is_pauli_z():
    assert np.allclose(tensor_of(wire_spider(Phase(4))), np.diag([1, -1]))


def test_x_pi_is_pauli_x():
    m = tensor_of(wire_spider(Phase(4), SpiderKind.X))
    assert np.allclose(m, np.array([[0, 1], [1, 0]]))


def test_degree_zero_spider_value():
    for k in range(8):
        d = ZxDiagram()
        d.add_spider(SpiderKind.Z, Phase(k))
        want = 1 + np.exp(1j * np.pi * k / 4)
        assert abs(tensor_of(d) - want) < 1e-12


def test_hadamard_edge():
    d = ZxDiagram()
    b1 = d.add_spider(SpiderKind.BOUNDARY)
    b2 = d.add_spider(SpiderKind.BOUNDARY)
    d.inputs, d.outputs = [b1], [b2]
    d.add_edge(b1, b2, EdgeKind.HADAMARD)
    assert np.allclose(tensor_of(d), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_scalar_diagram_matches_oracle():
    rng = default_rng(5)
    c = random_circuit(3, 20, rng)
    d = plug(diagram_from_circuit(c), "+++", "+++")
    assert abs(tensor_of(d) - statevector_amplitude(c, "+++", "+++")) < 1e-9


def test_rejects_parameters():
    d = ZxDiagram()
    d.params.add(0)
    v = d.add_spider(SpiderKind.Z, Phase(0, frozenset({0})))
    with pytest.raises(ValueError):
        tensor_of(d)


def test_size_cap():
    d = ZxDiagram()
    for _ in range(30):
        b = d.add_spider(SpiderKind.BOUNDARY)
        v = d.add_spider(SpiderKind.Z)
        d.add_edge(b, v)
        d.outputs.append(b)
    with pytest.raises(TensorSizeError):
        tensor_of(d)


def test_parallel_edges_and_self_loops():
    # two parallel Hadamard edges between Z spiders equal a bare 1/2 factor
    d = ZxDiagram()
    u = d.add_spider(SpiderKind.Z)
    v = d.add_spider(SpiderKind.Z)
    d.add_edge(u, v, EdgeKind.HADAMARD)
    d.add_edge(u, v, EdgeKind.HADAMARD)
    assert abs(tensor_of(d) - 2.0) < 1e-12  # (1+1)(...)/2 = 4/2
    # plain self-loop on a spider changes nothing
    d2 = ZxDiagram()
    w = d2.add_spider(SpiderKind.Z, Phase(2))
    d2.add_edge(w, w, EdgeKind.PLAIN)
    assert abs(tensor_of(d2) - (1 + 1j)) < 1e-12
