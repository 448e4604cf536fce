"""Property tests: the three methods against the statevector oracle, and
parameter-safe simplification against instantiation, on generated inputs.

Examples are drawn deterministically (``derandomize``), so a failure
reproduces on every run.
"""
import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zxcut.circuits import Circuit
from zxcut.cutting import cut_spider, instantiate
from zxcut.diagram import SpiderKind, diagram_from_circuit, plug
from zxcut.engine import simulate_amplitude
from zxcut.oracle import statevector_amplitude
from zxcut.simplify import param_safe_simplify
from zxcut.tensor import tensor_of

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

SINGLE = ("T", "T", "S", "Sdg", "Z", "X", "H", "HSH")  # T twice: more to decompose


@st.composite
def circuits(draw, max_qubits: int, min_gates: int, max_gates: int) -> Circuit:
    n = draw(st.integers(2, max_qubits))
    gates = []
    for _ in range(draw(st.integers(min_gates, max_gates))):
        if draw(st.integers(0, 3)) == 0:
            c, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(("CNOT", c, t))
        else:
            gates.append((draw(st.sampled_from(SINGLE)), draw(st.integers(0, n - 1))))
    return Circuit(n, gates)


@st.composite
def plugged_circuits(draw):
    # at least 30 gates, so that about a third of the forced plans cut
    circ = draw(circuits(8, 30, 80))
    plugs = st.text("01+", min_size=circ.n_qubits, max_size=circ.n_qubits)
    return circ, draw(plugs), draw(plugs)


@PROPERTY
@given(plugged_circuits())
def test_methods_agree_with_the_oracle(case):
    circ, ins, outs = case
    want = statevector_amplitude(circ, ins, outs)
    for method, forced in (("direct", False), ("naive", False), ("smart", False),
                           ("naive", True), ("smart", True)):
        amp, _ = simulate_amplitude(circ, ins, outs, method, force_partition=forced)
        assert abs(amp - want) < 1e-9, (method, forced, amp, want)


@st.composite
def cut_diagrams(draw):
    circ = draw(circuits(4, 1, 25))
    n = circ.n_qubits
    plugs = st.text("01+", min_size=n, max_size=n)
    d = plug(diagram_from_circuit(circ), draw(plugs), draw(plugs))
    inner = sorted(v for v, s in d.spiders.items() if s.kind != SpiderKind.BOUNDARY)
    chosen = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=3, unique=True))
    for p, v in enumerate(chosen):
        d = cut_spider(d, v, p)
    return d


@PROPERTY
@given(cut_diagrams())
def test_param_safe_simplify_commutes_with_instantiate(d):
    simp = param_safe_simplify(d)
    params = sorted(d.params)
    for bits in itertools.product((0, 1), repeat=len(params)):
        asg = dict(zip(params, bits))
        got = np.asarray(tensor_of(instantiate(simp, asg)))
        want = np.asarray(tensor_of(instantiate(d, asg)))
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, float(np.max(np.abs(want))))
