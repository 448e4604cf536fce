import pytest

from zxcut.circuits import Circuit, CircuitParseError, gate_error, parse_circuit
from zxcut.diagram import diagram_from_circuit
from zxcut.oracle import statevector_amplitude


def test_parse_basic():
    text = """
    # a comment
    qubits 3
    T 0
    H 1   # trailing comment
    CNOT 0 2
    Sdg 1
    HSH 2
    """
    c = parse_circuit(text)
    assert c.n_qubits == 3
    assert c.gates == [("T", 0), ("H", 1), ("CNOT", 0, 2), ("Sdg", 1), ("HSH", 2)]


def test_qubit_count_inferred():
    c = parse_circuit("T 0\nCNOT 1 4\n")
    assert c.n_qubits == 5


def test_roundtrip():
    c = Circuit(2, [("H", 0), ("CNOT", 0, 1), ("T", 1)])
    assert parse_circuit(c.to_text()).gates == c.gates


@pytest.mark.parametrize("bad", [
    "RX 0 1.5",          # non-pi/4 rotations have no gate
    "T 0 1",
    "CNOT 0 0",
    "CNOT 0",
    "T x",
    "T -1",
    "qubits 2\nT 5",
    "",
])
def test_rejects(bad):
    with pytest.raises(CircuitParseError):
        parse_circuit(bad)


def test_depth_counts_hsh_as_one():
    c = parse_circuit("qubits 1\nHSH 0\nT 0\n")
    assert c.depth == 2


@pytest.mark.parametrize("gate", [
    ("T", -1), ("T", 2), ("CNOT", 1, 1), ("CNOT", 0, 2), ("T", 0, 1),
    ("CNOT", 0), ("H",), ("Q", 0),
])
def test_parser_builder_and_oracle_refuse_the_same_gates(gate):
    why = gate_error(gate, 2)
    assert why is not None
    with pytest.raises(CircuitParseError) as err:
        parse_circuit(f"qubits 2\nH 0\n{' '.join(map(str, gate))}\nCNOT 0 1\n")
    assert str(err.value) == f"line 3: {why}"
    c = Circuit(2, [("H", 0), gate, ("CNOT", 0, 1)])
    for run in (diagram_from_circuit, lambda c: statevector_amplitude(c, "00", "11")):
        with pytest.raises(ValueError) as err:
            run(c)
        assert str(err.value) == f"gate 1 {gate!r}: {why}"
