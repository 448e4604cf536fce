import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.circuits import parse_circuit
from zxcut.cutting import cut_spiders, instantiate
from zxcut.diagram import (EdgeKind, Phase, Spider, SpiderKind, ZxDiagram,
                           diagram_from_circuit, plug, validate)
from zxcut.oracle import statevector_amplitude
from zxcut.simplify import clifford_simplify
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


def test_builder_validates():
    rng = default_rng(0)
    for _ in range(20):
        c = random_circuit(4, 25, rng)
        d = diagram_from_circuit(c)
        assert validate(d) == []
        assert len(d.inputs) == len(d.outputs) == 4


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


def test_validate_x_spider_param_hadamard_loop():
    d = ZxDiagram()
    d.params.add(1)
    v = d.add_spider(SpiderKind.X, Phase(0, frozenset({1})))
    d.add_edge(v, v, EdgeKind.HADAMARD)
    assert any("Hadamard self-loop" in p for p in validate(d))


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
