import hashlib
import math

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.circuits import Circuit, parse_circuit
from zxcut.cutting import cut_spiders, instantiate
from zxcut.diagram import (EdgeKind, Phase, Spider, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug, validate)
from zxcut.generators import CircuitSpec, CompoundSpec, gen_clifford_t, gen_compound
from zxcut.oracle import run_statevector, statevector_amplitude
from zxcut.simplify import Trace, clifford_simplify, param_safe_simplify
from zxcut.tensor import tensor_of

from helpers import random_circuit, random_plugs, random_scalar_diagram


def test_validate_empty():
    assert validate(ZxDiagram()) == []


def test_validate_dangling_edge():
    d = ZxDiagram()
    v = d.add_spider(SpiderKind.Z)
    d.adj[v][99] = (1, 0)  # simulate corruption
    assert any("missing spider" in p for p in validate(d))


def test_validate_reports_edge_records_that_are_no_pairs_or_hold_no_edges():
    d = ZxDiagram()
    u, v = d.add_spider(SpiderKind.Z), d.add_spider(SpiderKind.Z)
    d.adj[u][v] = d.adj[v][u] = (0, 0)
    assert any("holds no edges" in p for p in validate(d))
    d.adj[u][v] = d.adj[v][u] = [1, 0]
    assert any("not a (plain, hadamard) pair" in p for p in validate(d))


def test_validate_undeclared_parameter():
    d = ZxDiagram()
    v = d.add_spider(SpiderKind.Z)
    # bypasses add_spider bookkeeping
    d.spiders[v] = d.spiders[v].with_phase(Phase(0, frozenset({3})))
    assert any("undeclared parameter" in p for p in validate(d))


def test_phase_param_xor():
    p = Phase(1, frozenset({2})).add(Phase(2, frozenset({2, 5})))
    assert p.fixed == 3
    assert p.params == frozenset({5})


def test_phase_fixed_mod8():
    assert Phase(9).fixed == 1
    assert Phase(3).add_fixed(-5).fixed == 6


def _any_gate_circuit(rng) -> Circuit:
    n = int(rng.integers(1, 6))
    c = Circuit(n)
    for _ in range(int(rng.integers(0, 60))):
        if n > 1 and rng.random() < 0.3:
            c.add("CNOT", *(int(q) for q in rng.choice(n, 2, replace=False)))
        else:
            c.add(("T", "S", "Sdg", "Z", "X", "H", "HSH")[int(rng.integers(7))],
                  int(rng.integers(n)))
    return c


def test_builder_validates():
    # and lays graph-like diagrams: no X-spider, and a single Hadamard edge
    # wherever two spiders that are not boundaries meet
    rng = default_rng(0)
    circuits = [random_circuit(4, 25, rng) for _ in range(20)]
    circuits += [_any_gate_circuit(rng) for _ in range(30)]
    for c in circuits:
        d = diagram_from_circuit(c)
        assert validate(d) == []
        assert len(d.inputs) == len(d.outputs) == c.n_qubits
        assert SpiderKind.X not in {s.kind for s in d.spiders.values()}
        for u, v, kind in d.edges():
            if SpiderKind.BOUNDARY not in (d.spiders[u].kind, d.spiders[v].kind):
                assert kind == EdgeKind.HADAMARD and u != v
                assert d.edge_counts(u, v) == (0, 1)


def test_plug_identity():
    c = parse_circuit("qubits 1\n")
    d = diagram_from_circuit(c)
    assert abs(tensor_of(plug(d, "0", "0")) - 1) < 1e-12
    assert abs(tensor_of(plug(d, "0", "1"))) < 1e-12


def test_plug_t_gate_plus_states():
    c = parse_circuit("T 0\n")
    amp = tensor_of(plug(diagram_from_circuit(c), "+", "+"))
    assert abs(amp - (1 + np.exp(1j * np.pi / 4)) / 2) < 1e-12


def test_plug_length_mismatch():
    c = parse_circuit("T 0\n")
    with pytest.raises(ValueError):
        plug(diagram_from_circuit(c), "00", "0")


def test_plug_matches_oracle_on_random_circuits():
    rng = default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        c = random_circuit(n, int(rng.integers(5, 41)), rng)
        ins, outs = random_plugs(n, rng)
        zx = tensor_of(plug(diagram_from_circuit(c), ins, outs))
        sv = statevector_amplitude(c, ins, outs)
        assert abs(zx - sv) < 1e-9


def test_deformation_invariance():
    # relabeling spiders and reordering edges must not change the tensor
    rng = default_rng(3)
    for _ in range(15):
        c = random_circuit(3, 15, rng)
        d = plug(diagram_from_circuit(c), "000", "000")
        ref = tensor_of(d)
        js = d.to_json()
        again = ZxDiagram.from_json(js)
        assert abs(tensor_of(again) - ref) < 1e-12


def test_json_roundtrip_fields():
    c = parse_circuit("H 0\nCNOT 0 1\nT 1\n")
    d = diagram_from_circuit(c)
    d2 = ZxDiagram.from_json(d.to_json())
    assert validate(d2) == []
    assert len(d2.spiders) == len(d.spiders)
    assert d2.edge_count() == d.edge_count()
    assert abs(d2.scalar.to_complex() - d.scalar.to_complex()) < 1e-15


def test_an_x_spider_with_parameters_and_a_hadamard_loop_is_valid():
    # the colour change clears the loop before it swaps the other edges, so
    # the parameter-safe simplification is exact for both bits
    d = ZxDiagram()
    a, b = d.add_spider(SpiderKind.BOUNDARY), d.add_spider(SpiderKind.BOUNDARY)
    d.inputs, d.outputs = [a], [b]
    v = d.add_spider(SpiderKind.X, Phase(2, frozenset({1})))
    d.add_edge(a, v)
    d.add_edge(v, b, EdgeKind.HADAMARD)
    d.add_edge(v, v, EdgeKind.HADAMARD)
    assert validate(d) == []
    g = param_safe_simplify(d)
    for bit in (0, 1):
        want = tensor_of(instantiate(d, {1: bit}))
        assert np.allclose(tensor_of(instantiate(g, {1: bit})), want, atol=1e-12)


def test_copies_and_carved_parts_share_spider_records():
    d = plug(diagram_from_circuit(random_circuit(3, 20, default_rng(4))), "+0+", "1+0")
    parts = d.carve(sorted(d.connected_components(), key=min))
    for v, s in d.spiders.items():
        assert d.copy().spiders[v] is s
        assert any(part.spiders.get(v) is s for part in parts)


def test_replacing_a_record_in_a_copy_or_part_leaves_the_source():
    d = diagram_from_circuit(parse_circuit("T 0\nCNOT 0 1\nS 1\n"))
    before = d.to_json()
    for other in (d.copy(), *d.carve([set(d.spiders)])):
        for v, s in other.spiders.items():
            other.spiders[v] = Spider.of(SpiderKind.X, s.phase.add_fixed(3))
        assert d.to_json() == before


@pytest.mark.parametrize("field", ["kind", "phase"])
def test_spider_fields_cannot_be_assigned(field):
    s = Spider.of(SpiderKind.Z, Phase(1))
    with pytest.raises(AttributeError):
        setattr(s, field, getattr(Spider.of(SpiderKind.X, Phase(4)), field))
    assert s == Spider(SpiderKind.Z, Phase(1))


def test_parameter_free_records_are_the_shared_constants():
    for kind in SpiderKind:
        for k in range(8):
            s = Spider.of(kind, Phase(k + 8))
            assert (s.kind, s.phase) == (kind, Phase(k))
            assert s is Spider.of(kind, Phase(k)) is s.with_phase(Phase(k))
    assert Spider.of(SpiderKind.Z, Phase(1, frozenset({2}))).phase.params == {2}
    # so is every record that building, plugging, simplifying, cutting and
    # instantiating leave without a parameter
    rng = default_rng(5)
    for _ in range(10):
        g = clifford_simplify(plug(diagram_from_circuit(random_circuit(4, 30, rng)),
                                   *random_plugs(4, rng)))
        cut = cut_spiders(g, {v: 100 + v for v in sorted(g.spiders)[:2]})
        for d in (g, cut, instantiate(cut, {p: p % 2 for p in cut.params})):
            for s in d.spiders.values():
                if not s.phase.params:
                    assert s is Spider.of(s.kind, s.phase)


def test_copies_and_carved_parts_share_edge_count_pairs():
    d = plug(diagram_from_circuit(random_circuit(3, 20, default_rng(4))), "+0+", "1+0")
    copy = d.copy()
    parts = d.carve([set(d.spiders)])
    for u, nbrs in d.adj.items():
        for v, counts in nbrs.items():
            assert type(counts) is tuple
            assert d.adj[v][u] is counts
            assert copy.adj[u][v] is counts and parts[0].adj[u][v] is counts


def test_changing_an_edge_in_a_copy_or_part_leaves_the_source():
    d = plug(diagram_from_circuit(parse_circuit("T 0\nCNOT 0 1\nH 1\nS 1\nCNOT 1 0\n")),
             "+0", "1+")
    before = d.to_json()
    halves = [{v for v in d.spiders if v % 2 == r} for r in (0, 1)]
    for other in (d.copy(), *d.carve([set(d.spiders)]), *d.carve(halves)):
        for u, v, kind in list(other.edges()):
            other.add_edge(u, v, EdgeKind(1 - kind))
            other.remove_edge(u, v, kind)
        for v in other.spiders:
            other.set_edges(v, v, 1, 1)
        assert validate(other) == []
        assert d.to_json() == before


def test_set_edges_writes_both_ends_and_no_entry_at_zero():
    d = ZxDiagram()
    u, v = d.add_spider(SpiderKind.Z), d.add_spider(SpiderKind.X)
    d.set_edges(u, v, 2, 1)
    assert d.adj[u][v] is d.adj[v][u]
    assert d.edge_counts(v, u) == (2, 1) and d.degree(u) == 3
    d.set_edges(u, v, 0, 0)
    assert d.adj == {u: {}, v: {}} and d.edge_counts(u, v) == (0, 0)
    d.set_edges(v, v, 0, 1)
    assert d.adj[v] == {v: (0, 1)} and d.degree(v) == 2
    assert list(d.edges()) == [(v, v, EdgeKind.HADAMARD)]
    d.set_edges(v, v, 0, 0)
    assert d.adj == {u: {}, v: {}} and validate(d) == []


def test_remove_edge_past_zero_raises():
    d = ZxDiagram()
    u, v = d.add_spider(SpiderKind.Z), d.add_spider(SpiderKind.Z)
    d.add_edge(u, v, EdgeKind.HADAMARD)
    with pytest.raises(ValueError, match="more edges than present"):
        d.remove_edge(u, v, EdgeKind.PLAIN)
    with pytest.raises(ValueError, match="more edges than present"):
        d.remove_edge(u, v, EdgeKind.HADAMARD, 2)


def test_public_writers_leave_the_diagram_valid():
    rng = default_rng(9)
    plugged = [random_scalar_diagram(rng) for _ in range(30)]
    plugged += [plug(diagram_from_circuit(random_circuit(5, 40, rng)), *random_plugs(5, rng))
                for _ in range(10)]
    for d in plugged:
        assert validate(d) == []
        g = clifford_simplify(d)
        for source in (d, g):
            ids = sorted(source.spiders)
            cut = cut_spiders(source, {v: 100 + v for v in ids[::3][:3]})
            assigned = instantiate(cut, {p: p % 2 for p in cut.params})
            halves = [set(ids[: len(ids) // 2]), set(ids[len(ids) // 2:])]
            parts = (*source.carve(source.connected_components()), *source.carve(halves))
            for out in (g, cut, assigned, *parts):
                assert validate(out) == []


def _unitary(c: Circuit) -> np.ndarray:
    """The circuit's matrix, column by column from the statevector oracle."""
    dim = 2 ** c.n_qubits
    return np.stack([run_statevector(c, np.eye(dim, dtype=complex)[j]) for j in range(dim)],
                    axis=1)


def _layout_circuits() -> list[str]:
    """Small circuits for every case of the builder: each gate after 0-2
    H on its wire, behind nothing, a Z-spider, or a Z-spider with a pending
    Hadamard; X-type gates beside CNOT targets; repeated CNOTs on a pair."""
    texts = []
    for before in ("", "T 0\n", "X 0\n"):
        for hs in range(3):
            for gate in ("T 0", "S 0", "Sdg 0", "Z 0", "X 0", "H 0", "HSH 0",
                         "CNOT 0 1", "CNOT 1 0"):
                texts.append("qubits 2\n" + before + "H 0\n" * hs + gate + "\nT 0\n")
    texts += [
        "CNOT 0 1\nX 1\n", "X 1\nCNOT 0 1\n", "HSH 1\nCNOT 0 1\nHSH 1\n",
        "CNOT 0 1\nHSH 1\nCNOT 2 1\n", "CNOT 1 0\nX 1\nCNOT 0 1\n",
        "CNOT 0 1\nCNOT 0 1\n", "CNOT 0 1\nCNOT 0 1\nCNOT 0 1\n",
        "CNOT 0 1\nT 0\nS 1\nCNOT 0 1\n", "CNOT 0 1\nH 0\nCNOT 0 1\n",
        "CNOT 0 1\nCNOT 1 0\nCNOT 0 1\n", "CNOT 0 1\nCNOT 0 2\nCNOT 0 1\nCNOT 0 2\n",
        "CNOT 0 2\nCNOT 1 2\nCNOT 0 2\nCNOT 1 2\nT 2\n",
        "qubits 3\nH 0\nH 1\nH 2\n",
    ]
    return texts


def test_layout_matches_gate_matrices():
    for text in _layout_circuits():
        c = parse_circuit(text)
        got = tensor_of(diagram_from_circuit(c))
        assert np.max(np.abs(got - _unitary(c))) < 1e-12, text


def test_repeated_cnots_cancel_their_hadamard_edges_while_building():
    d = diagram_from_circuit(parse_circuit("CNOT 0 1\nT 0\nCNOT 0 1\n"))
    control, target = 2, 3  # the first CNOT's spiders, which the rest join
    assert d.edge_counts(control, target) == (0, 0)
    assert d.spiders[control] == Spider.of(SpiderKind.Z, Phase(1))
    assert d._next == 9 and len(d.spiders) == 6


@pytest.mark.parametrize("gate, why", [
    (("T", -1), "qubits must be ints in 0..1"),
    (("T", 2), "qubits must be ints in 0..1"),
    (("T", 1.0), "qubits must be ints in 0..1"),
    (("CNOT", 1, 1), "CNOT takes two distinct qubits"),
    (("CNOT", 0, 2), "qubits must be ints in 0..1"),
    (("T", 0, 1), "T takes 1 qubit"),
    (("CNOT", 0), "CNOT takes 2 qubits"),
    (("H",), "H takes 1 qubit"),
    (("U", 0), "unknown gate 'U'"),
    ((), "unknown gate None"),
])
def test_builder_refuses_gates_parse_circuit_refuses(gate, why):
    c = Circuit(2, [("H", 0), gate, ("CNOT", 0, 1)])
    with pytest.raises(ValueError) as err:
        diagram_from_circuit(c)
    assert str(err.value) == f"gate 1 {gate!r}: {why}"


# sha256 of the simplified diagram's JSON for seeded generator circuits with
# mixed 0/1/+ plugs, then sha256 of repr([(rule, spiders)]) over its Trace: a
# change to the builder or the simplifier that moves any spider id, edge,
# phase or scalar bit of a simplified diagram, or any rewrite or the order the
# rewrites fire in, shows here
PINNED_SIMPLIFIED = [
    (("clifford_t", 6, 90, 0.0, 500), "+++++0", "010++0",
     "994986504835a823063644354d5e9e99e0266cae16c249d51c02c7d388d976cd",
     "34fd8b207d6a8704eb9146249c080b751a145a449621f6ae45a55bdf4799560b"),
    (("clifford_t", 6, 90, 1.0, 501), "001++1", "++11++",
     "5855c5faff9853d61ff1ff25226a68a6c171276e9dafb9d77eb05ecb0acb4247",
     "9f6ffa91bbeea0620dcdd83f2b1be46527b1f832eac2aeb151c338dbebee67bb"),
    (("clifford_t", 6, 90, math.inf, 502), "1+1000", "1++++0",
     "2e7553f2f38104c51e3b87e3f6931cb047bfd864461e2b6e74dd6e329546ba3e",
     "d68e9225ec391c2e4b4b95676f94ca9b093c10666ba63a427c0403952328f53d"),
    (("clifford_t", 6, 90, 0.5, 503), "++100+", "+1+1+0",
     "2c8afe5f2246a48bc712c35b1a3f415e375cf400e23d99c0e370af0827deb743",
     "fe1fd9e968602978bc34eeb504168d98909cafd0b8b2ad596092a64b229e704f"),
    (("clifford_t", 8, 120, 0.0, 504), "+101++1+", "1+00+0++",
     "107e9cf235297e08cbecc722f4d3920214fbf25010916f8cd622e51fed59f633",
     "222de04a211b7f223a2c9d33d7e93195261d28b6ad330c6e0a79e40981ad8a4f"),
    (("clifford_t", 8, 120, 1.0, 505), "0++1+101", "1+0001+0",
     "2c26c190fa0d03d721d639bed644a8c9601eec9f3940610cc433cca5de4aabc4",
     "8855aba926f1de6c1056cbf9adfd94c2c997b8f21e38ebd13040edeec911da97"),
    (("clifford_t", 8, 120, math.inf, 506), "11100++0", "+++1+1+0",
     "0fadaf4db04cc944da6484ca97516e17bdf581ddf34034a78f73ed41688ef287",
     "2c5a5c9dffac3259ad1fe55b1c58a12aa301a16eeea48acec290e7c4049fa178"),
    (("clifford_t", 8, 120, 0.5, 507), "++++++++", "0000+++1",
     "5e0b0aadedf301cb75ce378c5c58c6225141487fd7488387122f8e7d8359a15b",
     "d13ea8484ebfd13072933837e4cc33e928dd255fb13ebe3367078fb9127bda03"),
    (("clifford_t", 10, 150, 0.0, 508), "00+++011++", "0+1+1++11+",
     "c627c537ec4ed54a909b247dc363392b099becb7d9811e3de710b099556ab6e6",
     "e10cbe053e9ec7f5e5c5ae9c00690e90cfe2293c4a4c3212f49ff93da04454a2"),
    (("clifford_t", 10, 150, 1.0, 509), "10+++01+10", "+0011+++1+",
     "e172df2c198bd7b66cc9ddc2c2f49a8388703186efa61a7299ed82143519ae96",
     "616d44edeb9397b1574cf5fa1411b92a71b4c3eb5dbd1fa6dcc705d5b42f0486"),
    (("clifford_t", 10, 150, math.inf, 510), "+1++++1+0+", "++++01+1+1",
     "7a721a33f0e731057fd109aedd3239fa719cf214d590b89fbf2b22439722ea7a",
     "2806e8ea72ab5af85800236333ba7a5f2dc91b5e2bfb9b9b4f7b6c5ebad895cb"),
    (("clifford_t", 10, 150, 0.5, 511), "+00+1+++1+", "++0+1+0+++",
     "1f588bbf46e361a4c92e5c73020f1f0568694ce264cd99ff40034bcdeece249b",
     "86a0befc23971b0093a7c3e120f39e89bd04f2b06488f9b5f9d526e5d242dacd"),
    (("clifford_t", 12, 180, 0.0, 512), "01++++++0101", "00++11001010",
     "3670dcf3ba44aad6ea5501ab941e3b36dbc0eb3fe7f3f443743ff2d21b9bf476",
     "6e4b596a93496eda7efc8ca36306a79610aff015be5635592dcc13ea40c3f1fd"),
    (("clifford_t", 12, 180, 1.0, 513), "101+++++00+1", "+1+1+++++1+1",
     "cd903f535ff8a6b6f8daac6a2ae92b58cace22cfa8fd89d763c1f24cedd68260",
     "39ee0c204b8139bcb7b0e16375dfb55c02ed86d65e2ee4b1793e29caa816f9d1"),
    (("clifford_t", 12, 180, math.inf, 514), "101++01+++00", "+++00+0++000",
     "449f4306e4bc30b3220ac3bd30b4211b80dcab2fcdd5fe232a10e13d21acc054",
     "b68625df5aef953e7d565873b7f2bf4fb2eeac26864885859a1d19f156865696"),
    (("clifford_t", 12, 180, 0.5, 515), "++++1+0+1110", "0001++++++++",
     "9a9e1f88d87e798152c721fc78dd5d5de05e0458dcd53a36dea0a82632ef2194",
     "d39b03f42414d6396fcab9a2644276cce0bdabae16a0874d8d2d0faefca4af23"),
    (("compound", 2, 4, 60, 2, 1.0, 600), "+0++01++", "+1010000",
     "7c76f068e00ad3c6a64e945da7f8fd5558f8640f960bc2b975c7a67121f5b45b",
     "0e8c1d0c333bdd5fb97f29a965f47c1a9277f2c5170046cd20bff1bff7a22292"),
    (("compound", 2, 5, 80, 3, math.inf, 601), "+000+0+000", "++111+1++0",
     "79383af3a203168e00efb3e928323acb60416c7c5434e8b1b39a14af3b0e3bbf",
     "e2fcefa730f3535b0380db6165158ca41df71d6f1e7f95be3c2585281d533a1e"),
    (("compound", 3, 3, 60, 4, 0.0, 602), "++11++0++", "++11+0110",
     "caee9c1309cdea8b576f30d7a9b15d297b41e9f07bd3c93647c5170e9d018697",
     "b97d173bb7bb62ea63b1fbf06869c8b507da4108e5ddb03a15021baa497f3825"),
    (("compound", 3, 4, 70, 2, 1.0, 603), "+++0++1++0++", "+01++1+++0++",
     "6c915a480c2ca73441cb5ac943b7718afa8ea95086f6c4e9fa5a6abe3423ce02",
     "552dbf7a3e19f5af670ba22fbdad419bc472628976e5e48d562c3c8e5b0e64e5"),
    (("compound", 4, 3, 50, 5, 1.0, 604), "111+++1+0101", "1+0+1+1+0001",
     "837bfa55687aa4bc88b905848e43a428045c7a2a72c9f312eb55ee8066875f61",
     "471bbe448ff3c879f92222d03d7a719ba6d4556bb14d3659ca7d4e6d1d4d80a7"),
    (("compound", 2, 6, 90, 1, 0.5, 605), "+++++01+0+++", "0+00+0+011++",
     "ec3c1a385d4a2d2da26bc0d9263ccb33c9456e1c0172e692c21dd9155e58a4b4",
     "8d79d7ebb6bb8ce2dd2553cdc62fe519b1829497d522e86688ad322f6f5ce2fb"),
    (("compound", 3, 4, 80, 6, math.inf, 606), "10+00+0+01+1", "011+11++++++",
     "5710eea7e5e1eda74f41e48ddfdae23a5e3d41befdf3fbd6ea128e0744b88f12",
     "56dd171d9d567d69b2498d1471d8ad007a2e51ac690e9dba784549b2961ee877"),
    (("compound", 4, 3, 60, 3, 0.0, 607), "111+++++1+0+", "++0++111++0+",
     "a84b0d4965379d66c77673cb69389de60e44f3a86ce14eac2c3bb5bfbc73df97",
     "6c44da8c24492ef20f5a0bc3ab2398b74236d299feb617dca558185f2693865e"),
]


@pytest.mark.parametrize("spec, ins, outs, digest, steps_digest", PINNED_SIMPLIFIED,
                         ids=[f"{row[0][0]}-{row[0][-1]}" for row in PINNED_SIMPLIFIED])
def test_simplified_diagrams_are_pinned(spec, ins, outs, digest, steps_digest):
    if spec[0] == "clifford_t":
        c = gen_clifford_t(CircuitSpec(*spec[1:]))
    else:
        c = gen_compound(CompoundSpec(*spec[1:]))
    trace = Trace()
    g = clifford_simplify(plug(diagram_from_circuit(c), ins, outs), trace)
    assert hashlib.sha256(g.to_json().encode()).hexdigest() == digest
    steps = repr([(step["rule"], step["spiders"]) for step in trace.steps])
    assert hashlib.sha256(steps.encode()).hexdigest() == steps_digest
    # a simplified diagram is a fixed point: simplifying it again fires nothing
    again = Trace()
    assert clifford_simplify(g, again).to_json() == g.to_json()
    assert again.steps == []
