"""Independent ground truth: dense statevector simulation and the brute-force
global parameter sum.

Kept deliberately separate from the diagram machinery: gates act on state
vectors by their matrix definitions, HSH is applied as three gates, and the
global sum below extracts bits in a per-bit loop and multiplies table entries
one assignment at a time, sharing nothing with the batched-matmul contraction
of the regrouping code.
"""
from __future__ import annotations

import numpy as np

from .circuits import Circuit, gate_error

_T = np.exp(1j * np.pi / 4)
_GATES = {
    "T": np.array([[1, 0], [0, _T]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "Sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
}

MAX_QUBITS = 14


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    state = state.reshape([2] * n)
    state = np.moveaxis(state, q, 0)
    state = np.tensordot(mat, state, axes=([1], [0]))
    return np.moveaxis(state, 0, q).reshape(-1)

def _apply_cnot(state: np.ndarray, c: int, t: int, n: int) -> np.ndarray:
    state = state.reshape([2] * n).copy()
    idx0 = [slice(None)] * n
    idx1 = [slice(None)] * n
    idx0[c], idx0[t] = 1, 0
    idx1[c], idx1[t] = 1, 1
    state[tuple(idx0)], state[tuple(idx1)] = (
        state[tuple(idx1)].copy(), state[tuple(idx0)].copy())
    return state.reshape(-1)


def run_statevector(circ: Circuit, start: np.ndarray) -> np.ndarray:
    """``start`` after the gates of ``circ``; a gate ``parse_circuit`` would
    refuse raises ``ValueError`` naming its position."""
    n = circ.n_qubits
    state = start
    for pos, gate in enumerate(circ.gates):
        why = gate_error(gate, n)
        if why is not None:
            raise ValueError(f"gate {pos} {gate!r}: {why}")
        name = gate[0]
        if name == "CNOT":
            state = _apply_cnot(state, gate[1], gate[2], n)
        elif name == "HSH":
            for m in ("H", "S", "H"):
                state = _apply_1q(state, _GATES[m], gate[1], n)
        else:
            state = _apply_1q(state, _GATES[name], gate[1], n)
    return state


def statevector_amplitude(circ: Circuit, in_spec: str, out_spec: str) -> complex:
    """<out|U|in> by gate-by-gate state application.

    ``in_spec``/``out_spec`` are bitstrings over the qubits (first character =
    qubit 0), or "+" repeated to mean the uniform plus state.  Mixed strings
    of '0', '1' and '+' are allowed.
    """
    n = circ.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"oracle capped at {MAX_QUBITS} qubits")
    if len(in_spec) != n or len(out_spec) != n:
        raise ValueError("plug length does not match qubit count")

    def build(spec: str) -> np.ndarray:
        vecs = []
        for ch in spec:
            if ch == "0":
                vecs.append(np.array([1, 0], dtype=complex))
            elif ch == "1":
                vecs.append(np.array([0, 1], dtype=complex))
            elif ch == "+":
                vecs.append(np.array([1, 1], dtype=complex) / np.sqrt(2))
            else:
                raise ValueError(f"bad plug character {ch!r}")
        state = vecs[0]
        for v in vecs[1:]:
            state = np.kron(state, v)
        return state

    final = run_statevector(circ, build(in_spec))
    return complex(np.vdot(build(out_spec), final))


MAX_GLOBAL_PARAMS = 24


def naive_global_sum(segments) -> complex:
    """Brute-force sum over all parameter assignments of the product of
    per-segment table lookups.

    ``segments`` is an iterable of objects with ``local_params`` (ordered
    parameter ids) and ``scalars`` (table of length 2^len(local_params),
    first parameter = most significant bit).
    """
    segs = list(segments)
    all_params = sorted({p for s in segs for p in s.local_params})
    if len(all_params) > MAX_GLOBAL_PARAMS:
        raise ValueError(f"more than {MAX_GLOBAL_PARAMS} global parameters")
    tables = [[complex(x) for x in s.scalars] for s in segs]
    total = 0j
    for global_idx in range(2 ** len(all_params)):
        bit_of = {}
        for pos, p in enumerate(all_params):
            # per-bit reference extraction: first parameter is the MSB
            bit_of[p] = (global_idx >> (len(all_params) - 1 - pos)) & 1
        prod = 1 + 0j
        for s, table in zip(segs, tables):
            local = 0
            for p in s.local_params:
                local = (local << 1) | bit_of[p]
            prod *= table[local]
        total += prod
    return total
