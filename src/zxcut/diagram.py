"""Scalar ZX-diagrams: Z/X spiders, plain and Hadamard edges, pi/4 phases
with boolean parameter terms, and a tracked global scalar.

Boundary wires are represented by explicit degree-1 BOUNDARY vertices, so a
bare wire (e.g. an identity circuit) is just an edge between two boundary
vertices.  A diagram with no boundary vertices denotes a single complex
number.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum

from .circuits import Circuit
from .scalars import ScalarC


class SpiderKind(IntEnum):
    Z = 0
    X = 1
    BOUNDARY = 2


class EdgeKind(IntEnum):
    PLAIN = 0
    HADAMARD = 1


@dataclass(frozen=True, slots=True)
class Phase:
    """fixed * pi/4 plus pi for each parameter assigned 1.

    ``fixed`` is kept in 0..7; ``params`` is a frozenset of parameter ids,
    a parameter occurring twice having cancelled (x xor x = 0).
    """

    fixed: int = 0
    params: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "fixed", self.fixed % 8)

    def add(self, other: "Phase") -> "Phase":
        params = self.params ^ other.params
        if params:
            return Phase(self.fixed + other.fixed, params)
        return _FIXED_PHASES[(self.fixed + other.fixed) % 8]

    def add_fixed(self, k: int) -> "Phase":
        if self.params:
            return Phase(self.fixed + k, self.params)
        return _FIXED_PHASES[(self.fixed + k) % 8]

    def is_t(self) -> bool:
        """Odd multiple of pi/4; parameter terms shift by pi and do not matter."""
        return self.fixed % 2 == 1

    def __repr__(self) -> str:
        if self.params:
            return f"Phase({self.fixed}/4pi+{set(self.params)})"
        return f"Phase({self.fixed}/4pi)"


# phases are immutable, so the eight parameter-free ones are shared
_FIXED_PHASES = tuple(Phase(k) for k in range(8))
PHASE_ZERO = _FIXED_PHASES[0]


class Spider:
    __slots__ = ("kind", "phase")

    def __init__(self, kind: SpiderKind, phase: Phase = PHASE_ZERO):
        self.kind = kind
        self.phase = phase

    def copy(self) -> "Spider":
        return Spider(self.kind, self.phase)

    def __repr__(self) -> str:
        return f"Spider({self.kind.name}, {self.phase!r})"


class ZxDiagram:
    """Spiders plus an edge multiset, with parallel-edge counts per kind.

    ``adj[u][v]`` is a two-element list ``[plain_count, hadamard_count]``;
    self-loops live at ``adj[v][v]``.  All mutation goes through the helpers
    here so the adjacency stays symmetric.
    """

    def __init__(self):
        self.spiders: dict[int, Spider] = {}
        self.adj: dict[int, dict[int, list[int]]] = {}
        self.scalar: ScalarC = ScalarC.one()
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.params: set[int] = set()
        # per-parameter multiplicative coefficients (value for bit 0, bit 1),
        # applied to the global scalar when the parameter is instantiated
        self.param_coeffs: dict[int, tuple[complex, complex]] = {}
        self._next = 0

    # -- construction ------------------------------------------------------

    def add_spider(self, kind: SpiderKind, phase: Phase = PHASE_ZERO) -> int:
        v = self._next
        self._next += 1
        self.spiders[v] = Spider(kind, phase)
        self.adj[v] = {}
        self.params |= phase.params
        return v

    def add_edge(self, u: int, v: int, kind: EdgeKind = EdgeKind.PLAIN, count: int = 1) -> None:
        # adjacency rows are shared list objects, so both directions stay in sync
        row = self.adj[u].get(v)
        if row is None:
            row = [0, 0]
            self.adj[u][v] = row
            if u != v:
                self.adj[v][u] = row
        row[kind] += count

    def remove_edge(self, u: int, v: int, kind: EdgeKind, count: int = 1) -> None:
        row = self.adj[u][v]
        row[kind] -= count
        if row[kind] < 0:
            raise ValueError("removed more edges than present")
        if row[0] == 0 and row[1] == 0:
            del self.adj[u][v]
            if u != v:
                del self.adj[v][u]

    def remove_spider(self, v: int) -> None:
        for u in list(self.adj[v]):
            if u != v:
                del self.adj[u][v]
        del self.adj[v]
        del self.spiders[v]

    # -- queries -----------------------------------------------------------

    def edge_counts(self, u: int, v: int) -> tuple[int, int]:
        row = self.adj[u].get(v)
        return (row[0], row[1]) if row else (0, 0)

    def degree(self, v: int) -> int:
        """Leg count: parallel edges count separately, self-loops twice."""
        d = 0
        for u, row in self.adj[v].items():
            d += row[0] + row[1]
            if u == v:
                d += row[0] + row[1]
        return d

    def edges(self):
        """Yield (u, v, kind) once per parallel edge, u <= v."""
        for u, nbrs in self.adj.items():
            for v, row in nbrs.items():
                if v < u:
                    continue
                for _ in range(row[0]):
                    yield (u, v, EdgeKind.PLAIN)
                for _ in range(row[1]):
                    yield (u, v, EdgeKind.HADAMARD)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def t_count(self) -> int:
        return sum(
            1 for v, s in self.spiders.items()
            if s.kind != SpiderKind.BOUNDARY and s.phase.is_t()
        )

    def connected_components(self) -> list[set[int]]:
        seen: set[int] = set()
        comps = []
        for start in self.spiders:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for u in self.adj[v]:
                    if u not in seen:
                        seen.add(u)
                        comp.add(u)
                        stack.append(u)
            comps.append(comp)
        return comps

    def carve(self, parts) -> list["ZxDiagram"]:
        """The induced subdiagrams on the disjoint spider sets ``parts``,
        preserving spider ids; each has scalar one and no boundaries or
        parameters.  They share this diagram's spider objects and adjacency
        rows rather than copying them, so a change to one shows in the
        other: copy what is to be changed while the other is still used."""
        out = []
        for keep in parts:
            keep = sorted(keep)
            inside = set(keep)
            d = ZxDiagram()
            d._next = self._next
            for v in keep:
                d.spiders[v] = self.spiders[v]
                d.adj[v] = {}
            for v in keep:
                for u, row in self.adj[v].items():
                    if u in inside and u >= v:
                        d.adj[v][u] = row
                        if u != v:
                            d.adj[u][v] = row
            out.append(d)
        return out

    def copy(self) -> "ZxDiagram":
        d = ZxDiagram.__new__(ZxDiagram)
        d.spiders = {v: Spider(s.kind, s.phase) for v, s in self.spiders.items()}
        adj = d.adj = {v: {} for v in self.adj}
        for v, nbrs in self.adj.items():
            row_v = adj[v]
            for u, row in nbrs.items():
                if u >= v:
                    fresh = row_v[u] = row.copy()
                    if u != v:
                        adj[u][v] = fresh
        d.scalar = self.scalar.copy()
        d.inputs = list(self.inputs)
        d.outputs = list(self.outputs)
        d.params = set(self.params)
        d.param_coeffs = dict(self.param_coeffs)
        d._next = self._next
        return d

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        obj = {
            "spiders": {
                str(v): {"kind": s.kind.name, "fixed": s.phase.fixed,
                         "params": sorted(s.phase.params)}
                for v, s in sorted(self.spiders.items())
            },
            "edges": [[u, v, k.name] for u, v, k in self.edges()],
            "scalar": {"coeff": [self.scalar.coeff.real, self.scalar.coeff.imag],
                       "sqrt2Pow": self.scalar.sqrt2_pow,
                       "isZero": self.scalar.is_zero},
            "inputs": self.inputs,
            "outputs": self.outputs,
            "params": sorted(self.params),
            "paramCoeffs": {
                str(p): [[c0.real, c0.imag], [c1.real, c1.imag]]
                for p, (c0, c1) in sorted(self.param_coeffs.items())
            },
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ZxDiagram":
        obj = json.loads(text)
        d = cls()
        remap: dict[int, int] = {}
        for key, sp in obj["spiders"].items():
            v = d.add_spider(SpiderKind[sp["kind"]],
                             Phase(sp["fixed"], frozenset(sp["params"])))
            remap[int(key)] = v
        for u, v, kname in obj["edges"]:
            d.add_edge(remap[u], remap[v], EdgeKind[kname])
        sc = obj["scalar"]
        d.scalar = ScalarC(complex(*sc["coeff"]), sc["sqrt2Pow"])
        if sc["isZero"]:
            d.scalar = ScalarC.zero()
        d.inputs = [remap[v] for v in obj["inputs"]]
        d.outputs = [remap[v] for v in obj["outputs"]]
        d.params = set(obj["params"])
        d.param_coeffs = {
            int(p): (complex(*c0), complex(*c1))
            for p, (c0, c1) in obj.get("paramCoeffs", {}).items()
        }
        return d


def validate(d: ZxDiagram) -> list[str]:
    """Return invariant violations (empty list means the diagram is well formed)."""
    problems = []
    for v, nbrs in d.adj.items():
        if v not in d.spiders:
            problems.append(f"adjacency row for missing spider {v}")
        for u, row in nbrs.items():
            if u not in d.spiders:
                problems.append(f"edge references missing spider {u}")
            elif u != v and d.adj.get(u, {}).get(v) != row:
                problems.append(f"asymmetric edge record between {u} and {v}")
            if row[0] < 0 or row[1] < 0:
                problems.append(f"negative edge count between {v} and {u}")
    for v in d.spiders:
        if v not in d.adj:
            problems.append(f"spider {v} missing adjacency row")
    for v, s in d.spiders.items():
        if s.kind == SpiderKind.BOUNDARY:
            if s.phase != PHASE_ZERO:
                problems.append(f"boundary vertex {v} carries a phase")
            if d.degree(v) != 1:
                problems.append(f"boundary vertex {v} has degree {d.degree(v)}")
            if v not in d.inputs and v not in d.outputs:
                problems.append(f"boundary vertex {v} not listed in inputs/outputs")
        for p in s.phase.params:
            if p not in d.params:
                problems.append(f"undeclared parameter {p} on spider {v}")
        if s.kind == SpiderKind.X and s.phase.params:
            plain, had = d.edge_counts(v, v)
            if had:
                problems.append(
                    f"X-spider {v} carries parameters and a Hadamard self-loop")
    for b in d.inputs + d.outputs:
        if b not in d.spiders or d.spiders[b].kind != SpiderKind.BOUNDARY:
            problems.append(f"boundary list entry {b} is not a BOUNDARY vertex")
    for p in d.param_coeffs:
        if p not in d.params:
            problems.append(f"coefficient recorded for undeclared parameter {p}")
    return problems


# -- circuits to diagrams ----------------------------------------------------

_GATE_PHASES = {"T": 1, "S": 2, "Sdg": 6, "Z": 4}


def diagram_from_circuit(circ: Circuit) -> ZxDiagram:
    """Translate a gate list into a ZX-diagram with boundary vertices.

    Hadamards are not nodes: an H gate toggles the kind of the next edge laid
    on its wire.  A CNOT becomes the usual Z(control)-X(target) pair with a
    sqrt(2) scalar.
    """
    d = ZxDiagram()
    last: list[int] = []
    pending: list[EdgeKind] = []
    for _ in range(circ.n_qubits):
        b = d.add_spider(SpiderKind.BOUNDARY)
        d.inputs.append(b)
        last.append(b)
        pending.append(EdgeKind.PLAIN)

    def attach(q: int, v: int) -> None:
        d.add_edge(last[q], v, pending[q])
        last[q] = v
        pending[q] = EdgeKind.PLAIN

    for gate in circ.gates:
        name = gate[0]
        if name == "H":
            q = gate[1]
            pending[q] = EdgeKind(1 - pending[q])
        elif name in _GATE_PHASES:
            v = d.add_spider(SpiderKind.Z, Phase(_GATE_PHASES[name]))
            attach(gate[1], v)
        elif name == "X":
            v = d.add_spider(SpiderKind.X, Phase(4))
            attach(gate[1], v)
        elif name == "HSH":
            v = d.add_spider(SpiderKind.X, Phase(2))
            attach(gate[1], v)
        elif name == "CNOT":
            c, t = gate[1], gate[2]
            vc = d.add_spider(SpiderKind.Z)
            vt = d.add_spider(SpiderKind.X)
            attach(c, vc)
            attach(t, vt)
            d.add_edge(vc, vt, EdgeKind.PLAIN)
            d.scalar.mul_sqrt2(1)
        else:
            raise ValueError(f"unknown gate {name!r}")

    for q in range(circ.n_qubits):
        b = d.add_spider(SpiderKind.BOUNDARY)
        d.outputs.append(b)
        attach(q, b)
    return d


def plug(d: ZxDiagram, in_bits: str, out_bits: str) -> ZxDiagram:
    """Close all boundary wires with basis or plus-state plugs.

    Characters '0'/'1' plug an X-spider of phase 0/pi, '+' plugs a phase-0
    Z-spider.  Each plug carries a 1/sqrt(2) so the closed diagram evaluates
    to the amplitude <out|U|in> directly.
    """
    if len(in_bits) != len(d.inputs):
        raise ValueError(f"need {len(d.inputs)} input bits, got {len(in_bits)}")
    if len(out_bits) != len(d.outputs):
        raise ValueError(f"need {len(d.outputs)} output bits, got {len(out_bits)}")
    out = d.copy()
    for wires, bits in ((out.inputs, in_bits), (out.outputs, out_bits)):
        for b, ch in zip(wires, bits):
            s = out.spiders[b]
            if ch == "0":
                s.kind, s.phase = SpiderKind.X, PHASE_ZERO
            elif ch == "1":
                s.kind, s.phase = SpiderKind.X, Phase(4)
            elif ch == "+":
                s.kind, s.phase = SpiderKind.Z, PHASE_ZERO
            else:
                raise ValueError(f"bad plug character {ch!r}")
            out.scalar.mul_sqrt2(-1)
    out.inputs = []
    out.outputs = []
    return out
