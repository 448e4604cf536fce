"""Clifford+T circuits as plain gate lists, plus the line-oriented text format.

One gate per line: ``T q``, ``S q``, ``Sdg q``, ``Z q``, ``X q``, ``H q``,
``HSH q``, ``CNOT c t``.  ``#`` starts a comment.  An optional ``qubits n``
line pins the register size (otherwise it is inferred from the largest qubit
index used).  Phases outside the pi/4 family have no gate here and are
rejected at parse time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

ONE_QUBIT_GATES = ("T", "S", "Sdg", "Z", "X", "H", "HSH")
TWO_QUBIT_GATES = ("CNOT",)


class CircuitParseError(ValueError):
    pass


@dataclass
class Circuit:
    n_qubits: int
    gates: list[tuple] = field(default_factory=list)

    def add(self, name: str, *qubits: int) -> None:
        self.gates.append((name, *qubits))

    @property
    def depth(self) -> int:
        """Total gate count (HSH counts as a single gate)."""
        return len(self.gates)

    def to_text(self) -> str:
        lines = [f"qubits {self.n_qubits}"]
        for g in self.gates:
            lines.append(" ".join(str(x) for x in g))
        return "\n".join(lines) + "\n"


def gate_error(gate, n_qubits: int) -> str | None:
    """Why ``gate`` is no gate on ``n_qubits`` qubits, or None when it is one:
    a known name, that gate's number of qubits, each an int in
    ``0..n_qubits-1``, and a CNOT's two distinct."""
    name, qubits = (gate[0], gate[1:]) if gate else (None, ())
    if name not in ONE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
        return f"unknown gate {name!r}"
    arity = 1 if name in ONE_QUBIT_GATES else 2
    if len(qubits) != arity:
        return f"{name} takes {arity} qubit{'s' if arity > 1 else ''}"
    if any(type(q) is not int or not 0 <= q < n_qubits for q in qubits):
        return f"qubits must be ints in 0..{n_qubits - 1}"
    if len(set(qubits)) != arity:
        return f"{name} takes two distinct qubits"
    return None


def parse_circuit(text: str, n_qubits: int | None = None) -> Circuit:
    """Parse the text format.  Raises CircuitParseError on malformed input."""
    gates: list[tuple] = []
    linenos: list[int] = []
    declared = n_qubits
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        name, args = parts[0], parts[1:]
        if name == "qubits":
            if len(args) != 1 or not args[0].isdigit():
                raise CircuitParseError(f"line {lineno}: bad qubits declaration")
            declared = int(args[0])
            continue
        try:
            gates.append((name, *(int(a) for a in args)))
        except ValueError:
            raise CircuitParseError(f"line {lineno}: non-integer qubit in {line!r}") from None
        linenos.append(lineno)
    n = declared if declared is not None else max(
        (q + 1 for gate in gates for q in gate[1:]), default=0)
    if n <= 0:
        raise CircuitParseError("no qubit count and no qubit 0 or above; add a 'qubits n' line")
    for lineno, gate in zip(linenos, gates):
        why = gate_error(gate, n)
        if why is not None:
            raise CircuitParseError(f"line {lineno}: {why}")
    return Circuit(n, gates)
