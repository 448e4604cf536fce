import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.stats import chisquare

from zxcut.circuits import parse_circuit
from zxcut.generators import (CircuitSpec, CompoundSpec, gen_clifford_t,
                              gen_compound, sample_span, span_weights)


def cnot_spans(circ):
    return [abs(g[1] - g[2]) for g in circ.gates if g[0] == "CNOT"]


def test_seed_determinism():
    a = gen_clifford_t(CircuitSpec(6, 200, 2.0, 11))
    b = gen_clifford_t(CircuitSpec(6, 200, 2.0, 11))
    assert a.gates == b.gates
    c = gen_clifford_t(CircuitSpec(6, 200, 2.0, 12))
    assert c.gates != a.gates


def test_emits_parseable_text():
    c = gen_clifford_t(CircuitSpec(4, 30, math.inf, 3))
    again = parse_circuit(c.to_text())
    assert again.gates == c.gates
    assert again.n_qubits == 4


def test_sigma_zero_nearest_neighbour():
    c = gen_clifford_t(CircuitSpec(12, 3000, 0.0, 5))
    spans = cnot_spans(c)
    assert spans and set(spans) == {1}


def test_sigma_inf_uniform_targets():
    c = gen_clifford_t(CircuitSpec(8, 60000, math.inf, 6))
    pairs = Counter((g[1], g[2]) for g in c.gates if g[0] == "CNOT")
    counts = np.array(list(pairs.values()))
    # all 56 ordered pairs occur and are roughly uniform
    assert len(pairs) == 56
    assert counts.min() > counts.mean() * 0.8


def test_gate_kind_frequencies():
    d = 10_000
    c = gen_clifford_t(CircuitSpec(10, d, math.inf, 13))
    kinds = Counter(g[0] for g in c.gates)
    # 3 sigma of a binomial(d, 1/4)
    sd = math.sqrt(d * 0.25 * 0.75)
    for kind in ("T", "S", "HSH", "CNOT"):
        assert abs(kinds[kind] - d / 4) < 3 * sd


def test_single_qubit_redraws_cnot():
    c = gen_clifford_t(CircuitSpec(1, 100, math.inf, 9))
    assert len(c.gates) == 100
    assert all(g[0] != "CNOT" for g in c.gates)


def test_sigma3_span_ratio():
    c = gen_clifford_t(CircuitSpec(40, 400_000, 3.0, 5))
    spans = np.array(cnot_spans(c))
    ratio = (spans == 4).mean() / (spans == 1).mean()
    assert abs(ratio - 0.6065) < 0.05


def test_span_sampler_chi_square():
    for sigma in (1.0, 2.0, 3.0):
        rng = default_rng(17)
        max_dq = 12
        draws = np.array([sample_span(rng, sigma, max_dq) for _ in range(100_000)])
        w = span_weights(sigma, max_dq)
        w = w / w.sum()
        obs = np.bincount(draws, minlength=max_dq + 1)[1:].astype(float)
        expected = w * len(draws)
        keep = expected >= 5
        obs_m = np.append(obs[keep], obs[~keep].sum())
        exp_m = np.append(expected[keep], expected[~keep].sum())
        if exp_m[-1] < 1e-12:
            obs_m, exp_m = obs_m[:-1], exp_m[:-1]
        _, p = chisquare(obs_m, exp_m)
        assert p > 0.01


def test_compound_block_structure():
    spec = CompoundSpec(4, 3, 25, 6, 1.0, 2)
    c = gen_compound(spec)
    assert c.n_qubits == 12
    ext = [g for g in c.gates if g[0] == "CNOT" and g[1] // 3 != g[2] // 3]
    assert len(ext) == 6


def test_compound_no_externals_is_disconnected():
    c = gen_compound(CompoundSpec(3, 3, 25, 0, 1.0, 4))
    blocks = {q // 3 for g in c.gates for q in g[1:]}
    for g in c.gates:
        qs = {q // 3 for q in g[1:]}
        assert len(qs) == 1
    assert blocks == {0, 1, 2}


def test_compound_determinism():
    a = gen_compound(CompoundSpec(3, 4, 30, 5, 2.0, 7))
    b = gen_compound(CompoundSpec(3, 4, 30, 5, 2.0, 7))
    assert a.gates == b.gates


def test_spec_validation():
    with pytest.raises(ValueError):
        CircuitSpec(0, 5)
    with pytest.raises(ValueError):
        CircuitSpec(3, 5, -1.0)
    with pytest.raises(ValueError):
        CompoundSpec(1, 3, 10, 0)
    # NaN passed the old sigma check and failed later in numpy
    with pytest.raises(ValueError, match="sigma"):
        CircuitSpec(4, 10, math.nan)
    for args, field in [((3, 0, 10, 1), "qubits_per_block"),
                        ((3, 2, -5, 1), "depth_per_block"),
                        ((3, 2, 5, -1), "external_cnots"),
                        ((3, 2, 5, 1, -1.0), "block_sigma"),
                        ((3, 2, 5, 1, math.nan), "block_sigma")]:
        with pytest.raises(ValueError, match=field):
            CompoundSpec(*args)
    CompoundSpec(2, 1, 0, 0, math.inf)  # the smallest values stay allowed


def test_compound_cut_bound_and_natural_separation():
    # a plan for k = blocks needs at most 2 cut spiders per external CNOT,
    # and with no external CNOTs no cuts at all
    from zxcut.diagram import diagram_from_circuit, plug
    from zxcut.partition import partition_k, to_partition_hypergraph
    from zxcut.simplify import clifford_simplify
    checked = 0
    for seed in range(6):
        spec = CompoundSpec(5, 6, 60, 8, 1.0, seed)
        c = gen_compound(spec)
        g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 30, "+" * 30))
        h = to_partition_hypergraph(g)
        if len(h.pins) < 5 or h.n_nodes < 5:
            continue
        _, cut, _ = partition_k(h, 5)
        assert len(cut) <= 2 * spec.external_cnots
        checked += 1
    assert checked >= 3

    c = gen_compound(CompoundSpec(3, 4, 80, 0, 1.0, 9))
    g = clifford_simplify(plug(diagram_from_circuit(c), "+" * 12, "+" * 12))
    _, cut, _ = partition_k(to_partition_hypergraph(g), 3)
    assert cut == set()


# sha256 of each gate list as JSON; the benchmark catalog and
# tests/data/pinned_plans.json rely on the generators keeping these circuits
PINNED_GATE_LISTS = {
    "clifford_t/1/0.0": "be05a31a1549273ef1c6c8c16fe907c40a05e1733d8c6ea6596cbbf52d9ed879",
    "clifford_t/1/1.0": "be05a31a1549273ef1c6c8c16fe907c40a05e1733d8c6ea6596cbbf52d9ed879",
    "clifford_t/1/inf": "be05a31a1549273ef1c6c8c16fe907c40a05e1733d8c6ea6596cbbf52d9ed879",
    "clifford_t/2/0.0": "9fd2ff0533806b4a7fb8f538a8e7aeca1b7fa031142532da4ed6bfc82a1c0ab6",
    "clifford_t/2/1.0": "9fd2ff0533806b4a7fb8f538a8e7aeca1b7fa031142532da4ed6bfc82a1c0ab6",
    "clifford_t/2/inf": "6e933cf38897b316d571a286f671a0ebb69d30243a768c6db0e6f6730b4c93f8",
    "clifford_t/7/0.0": "25b6ce0d6c6a695fc0140689eeb741f8bb1ee922135f89fc1a2f925ab3837af2",
    "clifford_t/7/1.0": "85e0f81a96fda67a5391cf606903e4406dad558347e2903d85118e0d5d016571",
    "clifford_t/7/inf": "267738d38cec722cf2dd9719820b54a995ff3b5043a8573d7c62ada8df65ddec",
    "compound/1/0.0/0": "2d916106d424d9ef394c890d6e3d19fd6529ea4646d44318557e49ae4309b439",
    "compound/1/0.0/8": "a60f76bcfbc75a1f2f31196b85e059f6a1f348abf0cc77e1ad6064a01f775118",
    "compound/1/1.0/0": "2d916106d424d9ef394c890d6e3d19fd6529ea4646d44318557e49ae4309b439",
    "compound/1/1.0/8": "73815b0fd77edc93a7a0ae0a108220e0a9ccd189136494f453ca2d9327591137",
    "compound/1/inf/0": "2d916106d424d9ef394c890d6e3d19fd6529ea4646d44318557e49ae4309b439",
    "compound/1/inf/8": "e0b3cb22cf9425b584f26a7c8daf4589e567cfaeff3897ea270f9ae29a688940",
    "compound/3/0.0/0": "c824b6f8e1f70ab7896ed74ba0f6440fd536feface9dd5b4f6be72cf4e4141d1",
    "compound/3/0.0/8": "f35e52e073d681ab04759c85d695026eae01565f6de55a35d03f67b54bb0d725",
    "compound/3/1.0/0": "c824b6f8e1f70ab7896ed74ba0f6440fd536feface9dd5b4f6be72cf4e4141d1",
    "compound/3/1.0/8": "b6e94fb9687219fd77b09c20ede048198f658dc0d783db7d0bf45f42078cf0aa",
    "compound/3/inf/0": "c824b6f8e1f70ab7896ed74ba0f6440fd536feface9dd5b4f6be72cf4e4141d1",
    "compound/3/inf/8": "98f961a7a77b3f7e30b96997099fde5c09ef130ec9a85d4b018ecd93efeee658",
}


def _pinned_grid():
    for n in (1, 2, 7):
        for sigma in (0.0, 1.0, math.inf):
            yield f"clifford_t/{n}/{sigma}", gen_clifford_t(CircuitSpec(n, 120, sigma, 11))
    for q in (1, 3):
        for bs in (0.0, 1.0, math.inf):
            for ext in (0, 8):
                yield (f"compound/{q}/{bs}/{ext}",
                       gen_compound(CompoundSpec(4, q, 40, ext, bs, 5)))


def test_gate_lists_are_pinned():
    digests = {label: hashlib.sha256(json.dumps(c.gates).encode()).hexdigest()
               for label, c in _pinned_grid()}
    assert digests == PINNED_GATE_LISTS
