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


# X-spider rules, each against a matrix derived by hand: an X(theta) spider on
# a wire is H diag(1, e^(i*theta)) H, whose entries are (1 +/- e^(i*theta))/2
_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def x_wire(k):
    w = np.exp(1j * np.pi * k / 4)
    return np.array([[1 + w, 1 - w], [1 - w, 1 + w]]) / 2


def chain(spiders, edge_kinds):
    """Input boundary, the (kind, phase) spiders, output boundary, joined in
    a line by edges of the given kinds (one more than there are spiders)."""
    d = ZxDiagram()
    b1 = d.add_spider(SpiderKind.BOUNDARY)
    vs = [b1] + [d.add_spider(kind, phase) for kind, phase in spiders]
    vs.append(d.add_spider(SpiderKind.BOUNDARY))
    d.inputs, d.outputs = [b1], [vs[-1]]
    for u, v, kind in zip(vs, vs[1:], edge_kinds):
        d.add_edge(u, v, kind)
    return d, vs


def test_x_with_hadamard_self_loop_is_pauli_x_over_sqrt2():
    # a Hadamard self-loop adds pi and a factor 1/sqrt(2): X(0) becomes X(pi)/sqrt(2)
    d, vs = chain([(SpiderKind.X, Phase(0))], [EdgeKind.PLAIN] * 2)
    d.add_edge(vs[1], vs[1], EdgeKind.HADAMARD)
    assert np.allclose(tensor_of(d), np.array([[0, 1], [1, 0]]) / np.sqrt(2))


def test_plain_self_loop_leaves_x_unchanged():
    want = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2  # X(pi/2) = H S H
    d, vs = chain([(SpiderKind.X, Phase(2))], [EdgeKind.PLAIN] * 2)
    assert np.allclose(tensor_of(d), want)
    d.add_edge(vs[1], vs[1], EdgeKind.PLAIN)
    assert np.allclose(tensor_of(d), want)


def test_x_spiders_joined_by_plain_and_hadamard_edges():
    spiders = [(SpiderKind.X, Phase(2)), (SpiderKind.X, Phase(1))]
    # a plain edge fuses them into X(3pi/4)
    d, _ = chain(spiders, [EdgeKind.PLAIN, EdgeKind.PLAIN, EdgeKind.PLAIN])
    assert np.allclose(tensor_of(d), x_wire(3))
    # a Hadamard edge composes them with H between, input side first
    d, _ = chain(spiders, [EdgeKind.PLAIN, EdgeKind.HADAMARD, EdgeKind.PLAIN])
    assert np.allclose(tensor_of(d), x_wire(1) @ _H @ x_wire(2))
    assert not np.allclose(x_wire(1) @ _H @ x_wire(2), x_wire(2) @ _H @ x_wire(1))


def test_hadamard_edge_into_x0_is_hadamard():
    # X(0) on a wire is the identity, so only the Hadamard edge is left
    d, _ = chain([(SpiderKind.X, Phase(0))], [EdgeKind.HADAMARD, EdgeKind.PLAIN])
    assert np.allclose(tensor_of(d), _H)


def test_parallel_plain_edges_between_x_and_z():
    # Hopf law: Z(pi/2) and X(pi) joined by two plain edges disconnect, with a
    # factor 1/2, into the effect (1, i) of Z(pi/2) and the state H (1, -1) =
    # sqrt(2) |1> of X(pi): [[0, 0], [1, i]] / sqrt(2)
    d, vs = chain([(SpiderKind.Z, Phase(2)), (SpiderKind.X, Phase(4))], [EdgeKind.PLAIN] * 3)
    d.add_edge(vs[1], vs[2], EdgeKind.PLAIN)
    assert np.allclose(tensor_of(d), np.array([[0, 0], [1, 1j]]) / np.sqrt(2))
