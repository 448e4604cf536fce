"""Seeded inputs, operations and independent checks for the four workloads.

An *operation* is one ``simulate_amplitude`` call on the circuit workloads
(``random``, ``direct``, ``compound``) and one ``regroup_all`` contraction on
``tables``.  The inputs of a run come from its seed alone:

* circuit workloads pick one (class, generator seed, plugs) entry from every
  stratum of the frozen pool in ``catalog.json`` and rebuild the circuit with
  ``gen_clifford_t`` or ``gen_compound``;
* ``tables`` builds a fixed list of network shapes whose table values are
  drawn from the seed.

Every result is checked against a computation made apart from the ZX
pipeline: a dense statevector amplitude for circuits and a numpy ``einsum``
over the same tables for ``tables``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import default_rng

import zxcut.regroup
from zxcut import (CircuitSpec, CompoundSpec, CostModel, ScalarC, Segment,
                   gen_clifford_t, gen_compound, plan_schedule,
                   simulate_amplitude, statevector_amplitude)
from zxcut.oracle import MAX_QUBITS

WORKLOADS = ("random", "direct", "compound", "tables")
CATALOG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")

# Amplitudes of these circuits are around 2^-8; decomposition error is ~1e-15.
AMPLITUDE_TOL = 1e-9
# A table contraction may cancel; compare against the sum of |terms|.
TABLE_RTOL = 1e-9


@dataclass
class Item:
    """One operation of a workload, with its independent reference."""

    label: str
    op: Callable[[], tuple[complex, float]]  # -> (value, projected seconds)
    reference: Callable[[], tuple[complex, float]]  # -> (value, tolerance)
    is_amplitude: bool
    expect: complex | None = None
    tol: float = 0.0

    def attach_reference(self) -> None:
        self.expect, self.tol = self.reference()

    def check(self, value: complex) -> bool:
        if self.expect is None:
            raise RuntimeError(f"{self.label}: reference not attached")
        if self.is_amplitude and abs(value) > 1 + AMPLITUDE_TOL:
            return False
        return abs(value - self.expect) <= self.tol


# -- circuit workloads ------------------------------------------------------

def load_catalog(path: str = CATALOG) -> dict:
    with open(path) as fh:
        return json.load(fh)


def build_circuit(cls: dict, gen_seed: int):
    if cls["kind"] == "clifford_t":
        sigma = math.inf if cls["sigma"] == "inf" else float(cls["sigma"])
        return gen_clifford_t(CircuitSpec(cls["qubits"], cls["depth"], sigma, gen_seed))
    return gen_compound(CompoundSpec(cls["blocks"], cls["qubits_per_block"],
                                     cls["depth_per_block"], cls["external_cnots"],
                                     float(cls["block_sigma"]), gen_seed))


def _apply_1q(state: np.ndarray, q: int, mat: np.ndarray) -> np.ndarray:
    s = state.reshape(2 ** q, 2, -1)
    lo, hi = s[:, 0, :], s[:, 1, :]
    out = np.empty_like(s)
    out[:, 0, :] = mat[0, 0] * lo + mat[0, 1] * hi
    out[:, 1, :] = mat[1, 0] * lo + mat[1, 1] * hi
    return out.reshape(-1)


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_DIAG = {"T": np.exp(1j * math.pi / 4), "S": 1j, "Sdg": -1j, "Z": -1}
_PLUG = {"0": np.array([1, 0], dtype=complex), "1": np.array([0, 1], dtype=complex),
         "+": np.array([1, 1], dtype=complex) / math.sqrt(2)}


def dense_amplitude(circ, in_spec: str, out_spec: str) -> complex:
    """<out|U|in> by dense statevector; qubit 0 is the most significant axis.

    Used above the oracle's qubit cap.  Diagonal gates scale the |1> half of
    the state in place; a CNOT swaps the target halves where the control is 1.
    """
    n = circ.n_qubits
    state = _PLUG[in_spec[0]]
    for ch in in_spec[1:]:
        state = np.kron(state, _PLUG[ch])
    for gate in circ.gates:
        name = gate[0]
        if name in _DIAG:
            state.reshape(2 ** gate[1], 2, -1)[:, 1, :] *= _DIAG[name]
        elif name == "H":
            state = _apply_1q(state, gate[1], _H)
        elif name == "HSH":
            state = _apply_1q(state, gate[1], _H)
            state.reshape(2 ** gate[1], 2, -1)[:, 1, :] *= 1j
            state = _apply_1q(state, gate[1], _H)
        elif name == "X":
            state = _apply_1q(state, gate[1], np.array([[0, 1], [1, 0]], dtype=complex))
        elif name == "CNOT":
            c, t = gate[1], gate[2]
            view = state.reshape([2] * n)
            idx0 = [slice(None)] * n
            idx1 = [slice(None)] * n
            idx0[c] = idx1[c] = 1
            idx0[t], idx1[t] = 0, 1
            tmp = view[tuple(idx0)].copy()
            view[tuple(idx0)] = view[tuple(idx1)]
            view[tuple(idx1)] = tmp
        else:
            raise ValueError(f"unknown gate {name!r}")
    bra = _PLUG[out_spec[0]]
    for ch in out_spec[1:]:
        bra = np.kron(bra, _PLUG[ch])
    return complex(np.vdot(bra, state))


def reference_amplitude(circ, in_spec: str, out_spec: str) -> complex:
    if circ.n_qubits <= MAX_QUBITS:
        return statevector_amplitude(circ, in_spec, out_spec)
    return dense_amplitude(circ, in_spec, out_spec)


def circuit_item(label: str, circ, in_spec: str, out_spec: str, method: str) -> Item:
    def op():
        amp, rep = simulate_amplitude(circ, in_spec, out_spec, method)
        return amp, rep.estimates["tEstSeconds"]

    def reference():
        return reference_amplitude(circ, in_spec, out_spec), AMPLITUDE_TOL

    return Item(label, op, reference, is_amplitude=True)


def circuit_inputs(workload: str, seed: int) -> list[tuple]:
    """(label, circuit, input plug, output plug) for one entry from every
    stratum of the workload's pool, in a seeded order."""
    entry = load_catalog()[workload]
    rng = default_rng([seed, WORKLOADS.index(workload)])
    inputs = []
    for si, stratum in enumerate(entry["strata"]):
        index, gen_seed, in_spec, out_spec = stratum[int(rng.integers(len(stratum)))][:4]
        cls = entry["classes"][index]
        inputs.append((f"{cls['name']}/{si}/{gen_seed}", build_circuit(cls, gen_seed),
                       in_spec, out_spec))
    return [inputs[i] for i in rng.permutation(len(inputs))]


def circuit_items(workload: str, seed: int) -> list[Item]:
    method = load_catalog()[workload]["method"]
    return [circuit_item(*inp, method) for inp in circuit_inputs(workload, seed)]


# -- tables workload --------------------------------------------------------

# (shape, segments, bundle width): every step size follows from the shape.
#   ring  - segment i holds bundles i and i+1 (mod m); steps of 2^(3w)
#   star  - a hub holding k bundles, one leaf per bundle; steps 2^(kw), ...
#   open  - a chain whose segments also all hold one global parameter, which
#           stays open across every step but the last; steps of 2^(2w+1)
# Steps fall on both sides of NUMPY_TABLE_THRESHOLD = 2^14; the largest is 2^21.
# The median network, ring/4/6 (numpy steps of 2^18), is some 30% away in
# time from its neighbours in the sorted list, so the median operation is
# always the same network and a large step, the case this workload is for.
NETWORKS = (
    ("ring", 8, 3),
    ("star", 3, 5),
    ("open", 4, 7),
    ("star", 4, 4),
    ("ring", 4, 6),
    ("ring", 5, 6),
    ("open", 5, 6),
    ("ring", 6, 6),
    ("ring", 4, 7),
)


def network_param_sets(shape: str, m: int, w: int) -> list[list[int]]:
    """Parameter sets (labels 0..P-1) of the segments of one network."""
    if shape == "ring":
        bundles = [list(range(b * w, (b + 1) * w)) for b in range(m)]
        return [bundles[i] + bundles[(i + 1) % m] for i in range(m)]
    if shape == "star":
        bundles = [list(range(b * w, (b + 1) * w)) for b in range(m)]
        return [sum(bundles, [])] + bundles
    if shape == "open":
        bundles = [list(range(b * w, (b + 1) * w)) for b in range(m - 1)]
        g = (m - 1) * w
        chain = [bundles[0]] + [bundles[i] + bundles[i + 1] for i in range(m - 2)]
        chain.append(bundles[-1])
        return [sorted(ps + [g]) for ps in chain]
    raise ValueError(f"unknown network shape {shape!r}")


def random_segments(param_sets: list[list[int]], rng) -> list[Segment]:
    """Tables of random complex values with random sqrt(2) exponents (first
    parameter = most significant bit).  Only the values come from the seed:
    the parameter ids, and so the bit layout of every step, stay fixed."""
    segments = []
    for ps in param_sets:
        size = 2 ** len(ps)
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pows = rng.integers(-2, 3, size=size)
        segments.append(Segment(tuple(ps), [ScalarC(complex(a), int(k)) for a, k in zip(z, pows)]))
    return segments


def einsum_reference(segments: list[Segment]) -> tuple[complex, float]:
    """Sum over all parameter assignments of the product of table entries,
    by numpy einsum; returns (value, tolerance from the sum of |terms|)."""
    labels = {p: i for i, p in enumerate(sorted({p for s in segments for p in s.local_params}))}
    if len(labels) > 52:
        raise ValueError("einsum reference supports at most 52 parameters")
    operands, abs_operands = [], []
    for s in segments:
        arr = np.array([complex(x) for x in s.scalars]).reshape((2,) * len(s.local_params))
        subs = [labels[p] for p in s.local_params]
        operands += [arr, subs]
        abs_operands += [np.abs(arr), subs]
    value = complex(np.einsum(*operands, [], optimize="greedy"))
    scale = float(np.einsum(*abs_operands, [], optimize="greedy"))
    return value, TABLE_RTOL * scale


def table_item(label: str, segments: list[Segment]) -> Item:
    projected = plan_schedule([set(s.local_params) for s in segments])[1] / CostModel().r_crossref

    def op():
        # looked up at call time, so a traced run sees the wrapped function
        result = zxcut.regroup.regroup_all(segments)
        return result.value.to_complex(), projected

    return Item(label, op, lambda: einsum_reference(segments), is_amplitude=False)


def table_items(seed: int, networks=NETWORKS) -> list[Item]:
    rng = default_rng([seed, WORKLOADS.index("tables")])
    return [table_item(f"{shape}/{m}/{w}", random_segments(network_param_sets(shape, m, w), rng))
            for shape, m, w in networks]


# -- entry points -----------------------------------------------------------

def make_items(workload: str, seed: int) -> list[Item]:
    if workload == "tables":
        return table_items(seed)
    if workload in WORKLOADS:
        return circuit_items(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str) -> None:
    """First use of every code path an operation takes, on a fixed input
    that does not depend on the seed: coefficient solves, cut weights,
    lazily built tables."""
    if workload == "tables":
        for item in table_items(0, networks=(("ring", 4, 2), ("open", 3, 2))):
            item.op()
        return
    method = "direct" if workload == "direct" else "smart"
    circ = gen_clifford_t(CircuitSpec(8, 80, math.inf, 0))
    simulate_amplitude(circ, "0+1+0+1+", "+01+10+0", method)
