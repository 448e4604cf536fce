import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.circuits import Circuit, parse_circuit
from zxcut.oracle import naive_global_sum, statevector_amplitude
from zxcut.regroup import Segment
from zxcut.scalars import ScalarC

from helpers import random_circuit


def test_empty_circuit_identity():
    c = Circuit(3)
    assert abs(statevector_amplitude(c, "000", "000") - 1) < 1e-15
    assert abs(statevector_amplitude(c, "000", "100")) < 1e-15


def test_single_t_plus_projection():
    c = parse_circuit("T 0\n")
    want = (1 + np.exp(1j * np.pi / 4)) / 2
    assert abs(statevector_amplitude(c, "+", "+") - want) < 1e-12


def test_ghz_ladder_amplitude():
    for n in (2, 4, 6):
        gates = [("H", 0)] + [("CNOT", q, q + 1) for q in range(n - 1)]
        c = Circuit(n, gates)
        assert abs(statevector_amplitude(c, "0" * n, "0" * n) - 1 / np.sqrt(2)) < 1e-12
        assert abs(statevector_amplitude(c, "0" * n, "1" * n) - 1 / np.sqrt(2)) < 1e-12
        assert abs(statevector_amplitude(c, "0" * n, "1" + "0" * (n - 1))) < 1e-12


def test_unitarity_sweep():
    rng = default_rng(0)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        c = random_circuit(n, int(rng.integers(10, 40)), rng)
        total = sum(abs(statevector_amplitude(c, "0" * n, format(i, f"0{n}b"))) ** 2
                    for i in range(2 ** n))
        assert abs(total - 1) < 1e-9


def test_hsh_is_three_gates():
    # HSH must equal the literal H,S,H product
    c1 = parse_circuit("qubits 1\nHSH 0\n")
    c2 = parse_circuit("qubits 1\nH 0\nS 0\nH 0\n")
    for ins in ("0", "1", "+"):
        for outs in ("0", "1", "+"):
            a = statevector_amplitude(c1, ins, outs)
            b = statevector_amplitude(c2, ins, outs)
            assert abs(a - b) < 1e-12


def test_qubit_cap():
    c = Circuit(15)
    with pytest.raises(ValueError):
        statevector_amplitude(c, "0" * 15, "0" * 15)


def test_naive_sum_single_segment():
    s = Segment((), [ScalarC(2.5 - 1j)])
    assert naive_global_sum([s]) == pytest.approx(2.5 - 1j)


def test_naive_sum_table1_instance():
    a = Segment((0, 1), [ScalarC(v) for v in (1, 2, 3, 4)])
    b = Segment((1, 2), [ScalarC(v) for v in (5, 6, 7, 8)])
    # sum over (a, c) of [19, 22, 43, 50]
    assert naive_global_sum([a, b]) == pytest.approx(134)


def test_naive_sum_param_cap():
    segs = [Segment(tuple(range(13)), [ScalarC(1)] * 2 ** 13),
            Segment(tuple(range(12, 25)), [ScalarC(1)] * 2 ** 13)]
    with pytest.raises(ValueError):
        naive_global_sum(segs)


class CountingTable:
    """A table that counts how often its scalars are read."""

    def __init__(self, params, values):
        self.local_params = params
        self.values = [ScalarC(v) for v in values]
        self.reads = 0

    @property
    def scalars(self):
        self.reads += 1
        return list(self.values)


def test_naive_sum_reads_each_table_once():
    a = CountingTable((0, 1), (1, 2, 3, 4))
    b = CountingTable((1, 2), (5, 6, 7, 8))
    assert naive_global_sum([a, b]) == pytest.approx(134)
    assert (a.reads, b.reads) == (1, 1)
