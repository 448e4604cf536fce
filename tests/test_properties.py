"""Property tests: the three methods against the statevector oracle, the
decompose-first smart run with components that overrun, and parameter-safe
simplification against instantiation, on generated inputs.

Examples are drawn deterministically (``derandomize``), so a failure
reproduces on every run.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zxcut import engine
from zxcut.circuits import Circuit
from zxcut.cutting import cut_spider, instantiate
from zxcut.diagram import SpiderKind, diagram_from_circuit, plug
from zxcut.engine import simulate_amplitude
from zxcut.generators import CircuitSpec, CompoundSpec, gen_clifford_t, gen_compound
from zxcut.oracle import statevector_amplitude
from zxcut.simplify import clifford_simplify, param_safe_simplify
from zxcut.tensor import tensor_of

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

SINGLE = ("T", "T", "S", "Sdg", "Z", "X", "H", "HSH")  # T twice: more to decompose
CLIFFORD = SINGLE[2:]


@st.composite
def circuits(draw, max_qubits: int, min_gates: int, max_gates: int,
             single: tuple[str, ...] = SINGLE) -> Circuit:
    n = draw(st.integers(2, max_qubits))
    gates = []
    for _ in range(draw(st.integers(min_gates, max_gates))):
        if draw(st.integers(0, 3)) == 0:
            c, t = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(("CNOT", c, t))
        else:
            gates.append((draw(st.sampled_from(single)), draw(st.integers(0, n - 1))))
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
def generated_circuits(draw):
    """Seeded generator circuits, compounds of several blocks or random
    Clifford+T circuits, with mixed 0/1/+ plugs."""
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        spec = CompoundSpec(draw(st.integers(2, 3)), draw(st.integers(2, 4)),
                            draw(st.integers(20, 100)), draw(st.integers(0, 2)), 1.0, seed)
        circ = gen_compound(spec)
    else:
        spec = CircuitSpec(draw(st.integers(3, 12)), draw(st.integers(30, 280)),
                           draw(st.sampled_from([0.0, 1.0, math.inf])), seed)
        circ = gen_clifford_t(spec)
    plugs = st.text("01+", min_size=circ.n_qubits, max_size=circ.n_qubits)
    return circ, draw(plugs), draw(plugs)


@settings(PROPERTY, max_examples=80)
@given(generated_circuits(), st.sampled_from([0, 1]))
def test_decompose_first_agrees_when_components_overrun(case, budget):
    # a leaf budget of 0 makes every component overrun, and of 1 every one
    # that takes more than one leaf, so the planner's cuts run on the
    # components that overran and the rest finish by plain decomposition
    circ, ins, outs = case
    want = statevector_amplitude(circ, ins, outs)
    direct, _ = simulate_amplitude(circ, ins, outs, "direct")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "LEAF_BUDGET", budget)
        amp, _ = simulate_amplitude(circ, ins, outs, "smart")
    assert abs(amp - want) < 1e-9 and abs(amp - direct) < 1e-9, (budget, amp, want)


def test_overrun_components_reach_cuts():
    # the property above runs real cuts: over the first generated circuits
    # of both families, a budget of 0 or 1 plans splits with C > 0
    cut = {0: 0, 1: 0}
    for seed in range(12):
        for circ in (gen_compound(CompoundSpec(3, 4, 90, 1, 1.0, seed)),
                     gen_clifford_t(CircuitSpec(12, 280, 1.0, seed))):
            n = circ.n_qubits
            ins, outs = ("0+1" * n)[:n], ("+10" * n)[:n]
            want = statevector_amplitude(circ, ins, outs)
            direct, _ = simulate_amplitude(circ, ins, outs, "direct")
            for budget in cut:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(engine, "LEAF_BUDGET", budget)
                    amp, rep = simulate_amplitude(circ, ins, outs, "smart")
                assert abs(amp - want) < 1e-9 and abs(amp - direct) < 1e-9
                cut[budget] += bool(rep.plan.cut_spiders)
    assert min(cut.values()) >= 4, cut


@PROPERTY
@given(circuits(6, 0, 40, CLIFFORD), st.data())
def test_an_empty_simplified_diagram_is_one_leaf(circ, data):
    # a Clifford circuit simplifies to no spiders at all: one empty
    # component, one leaf, whatever the budget
    n = circ.n_qubits
    ins, outs = (data.draw(st.text("01+", min_size=n, max_size=n)) for _ in range(2))
    assert not clifford_simplify(plug(diagram_from_circuit(circ), ins, outs)).spiders
    want = statevector_amplitude(circ, ins, outs)
    for budget in (0, engine.LEAF_BUDGET):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "LEAF_BUDGET", budget)
            amp, rep = simulate_amplitude(circ, ins, outs, "smart")
        assert abs(amp - want) < 1e-9
        assert (rep.leaf_evals, rep.plan.k) == (1, 1)


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
