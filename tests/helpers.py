"""Shared builders for randomised tests."""
from __future__ import annotations

from numpy.random import Generator, default_rng

from zxcut.circuits import Circuit
from zxcut.diagram import EdgeKind, Phase, SpiderKind, ZxDiagram, diagram_from_circuit, plug

GATE_POOL = ("T", "S", "HSH")


def random_circuit(n: int, depth: int, rng: Generator, nearest: bool = False) -> Circuit:
    gates = []
    for _ in range(depth):
        k = int(rng.integers(4))
        if k == 3 and n > 1:
            c = int(rng.integers(n))
            if nearest:
                dirs = [x for x in (-1, 1) if 0 <= c + x < n]
                t = c + int(rng.choice(dirs))
            else:
                t = int(rng.choice([x for x in range(n) if x != c]))
            gates.append(("CNOT", c, t))
        else:
            gates.append((GATE_POOL[k % 3], int(rng.integers(n))))
    return Circuit(n, gates)


def random_plugs(n: int, rng: Generator) -> tuple[str, str]:
    chars = list("01+")
    ins = "".join(chars[int(rng.integers(3))] for _ in range(n))
    outs = "".join(chars[int(rng.integers(3))] for _ in range(n))
    return ins, outs


def random_scalar_diagram(rng: Generator, n_max: int = 5, d_max: int = 30) -> ZxDiagram:
    n = int(rng.integers(2, n_max + 1))
    d = int(rng.integers(4, d_max + 1))
    circ = random_circuit(n, d, rng)
    ins, outs = random_plugs(n, rng)
    return plug(diagram_from_circuit(circ), ins, outs)


def random_graphlike_diagram(rng: Generator, n_spiders: int, edge_p: float = 0.4,
                             boundary: int = 0) -> ZxDiagram:
    """A random Z-spider diagram with Hadamard edges and pi/4 phases."""
    d = ZxDiagram()
    vs = [d.add_spider(SpiderKind.Z, Phase(int(rng.integers(8)))) for _ in range(n_spiders)]
    for i in range(n_spiders):
        for j in range(i + 1, n_spiders):
            if rng.random() < edge_p:
                d.add_edge(vs[i], vs[j], EdgeKind.HADAMARD)
    for _ in range(boundary):
        b = d.add_spider(SpiderKind.BOUNDARY)
        d.outputs.append(b)
        d.add_edge(b, vs[int(rng.integers(n_spiders))], EdgeKind.PLAIN)
    return d


def graph_like_breaks(g: ZxDiagram, fused: bool = True) -> list[str]:
    """Where ``g`` breaks the graph-like invariant of ``zxcut.simplify``: an
    X-spider, a self-loop, two Hadamard edges between the same spiders and,
    when ``fused``, a plain edge between two Z-spiders."""
    breaks = []
    for v, s in g.spiders.items():
        if s.kind == SpiderKind.X:
            breaks.append(f"X-spider {v}")
        for u, (plain, had) in g.adj[v].items():
            if u == v:
                breaks.append(f"self-loop at {v}")
            elif had > 1:
                breaks.append(f"{had} Hadamard edges between {v} and {u}")
            elif fused and plain and s.kind == g.spiders[u].kind == SpiderKind.Z:
                breaks.append(f"plain edge between Z-spiders {v} and {u}")
    return breaks
