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

from .circuits import Circuit, gate_error
from .scalars import ScalarC


class SpiderKind(IntEnum):
    Z = 0
    X = 1
    BOUNDARY = 2


class EdgeKind(IntEnum):
    PLAIN = 0
    HADAMARD = 1


# module names for the members the hot loops read, which cost a fraction of
# an attribute lookup on the enum class
_Z, _BOUNDARY = SpiderKind.Z, SpiderKind.BOUNDARY
_PLAIN, _HADAMARD = EdgeKind.PLAIN, EdgeKind.HADAMARD


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


@dataclass(frozen=True, slots=True)
class Spider:
    """A spider's kind and phase: an immutable value, shared between
    diagrams, that a rewrite replaces rather than changes."""

    kind: SpiderKind
    phase: Phase = PHASE_ZERO

    @staticmethod
    def of(kind: SpiderKind, phase: Phase = PHASE_ZERO) -> "Spider":
        """The record of ``kind`` and ``phase``, shared when parameter-free."""
        return Spider(kind, phase) if phase.params else _FIXED_SPIDERS[kind][phase.fixed]

    def with_phase(self, phase: Phase) -> "Spider":
        return Spider.of(self.kind, phase)

    def __repr__(self) -> str:
        return f"Spider({self.kind.name}, {self.phase!r})"


# like phases, the 24 parameter-free spider records are shared
_FIXED_SPIDERS = tuple(tuple(Spider(kind, phase) for phase in _FIXED_PHASES)
                       for kind in SpiderKind)

NO_EDGES = (0, 0)  # the edge counts between two spiders with no entry


class ZxDiagram:
    """Spiders plus an edge multiset, with parallel-edge counts per kind.

    ``adj[u][v]`` is the immutable pair ``(plain_count, hadamard_count)``,
    the same tuple at both ends; self-loops live at ``adj[v][v]``, and no
    entry records zero edges.  A writer replaces the pair at both ends
    (``set_edges``), so copies and carved parts share pairs as they share
    the immutable spider records.
    """

    def __init__(self):
        self.spiders: dict[int, Spider] = {}
        self.adj: dict[int, dict[int, tuple[int, int]]] = {}
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
        self.spiders[v] = Spider.of(kind, phase)
        self.adj[v] = {}
        self.params |= phase.params
        return v

    def add_edge(self, u: int, v: int, kind: EdgeKind = EdgeKind.PLAIN) -> None:
        # an added edge never empties the entry, so no set_edges call
        row_u = self.adj[u]
        plain, had = row_u.get(v, NO_EDGES)
        row_u[v] = self.adj[v][u] = (plain, had + 1) if kind else (plain + 1, had)

    def set_edges(self, u: int, v: int, plain: int, had: int) -> None:
        """Record ``plain`` plain and ``had`` Hadamard edges between ``u`` and
        ``v`` at both ends (one entry when ``u == v``), none at ``(0, 0)``."""
        if plain or had:
            self.adj[u][v] = self.adj[v][u] = (plain, had)
        else:
            self.adj[u].pop(v, None)
            self.adj[v].pop(u, None)

    def remove_edge(self, u: int, v: int, kind: EdgeKind, count: int = 1) -> None:
        plain, had = self.adj[u][v]
        if kind == _PLAIN:
            plain -= count
        else:
            had -= count
        if plain < 0 or had < 0:
            raise ValueError("removed more edges than present")
        self.set_edges(u, v, plain, had)

    def remove_spider(self, v: int) -> None:
        for u in list(self.adj[v]):
            if u != v:
                del self.adj[u][v]
        del self.adj[v]
        del self.spiders[v]

    # -- queries -----------------------------------------------------------

    def edge_counts(self, u: int, v: int) -> tuple[int, int]:
        return self.adj[u].get(v, NO_EDGES)

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
                    yield (u, v, _PLAIN)
                for _ in range(row[1]):
                    yield (u, v, _HADAMARD)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def t_count(self) -> int:
        return sum(
            1 for v, s in self.spiders.items()
            if s.kind != _BOUNDARY and s.phase.fixed & 1
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
        parameters.  They share this diagram's spider records and edge-count
        pairs, which are immutable, and nothing mutable."""
        out = []
        for keep in parts:
            keep = sorted(keep)
            inside = set(keep)
            d = ZxDiagram()
            d._next = self._next
            d.spiders = {v: self.spiders[v] for v in keep}
            d.adj = {v: {u: e for u, e in self.adj[v].items() if u in inside} for v in keep}
            out.append(d)
        return out

    def copy(self) -> "ZxDiagram":
        """A copy that shares the immutable spider records and edge-count
        pairs; only the dicts holding them are new."""
        d = ZxDiagram.__new__(ZxDiagram)
        d.spiders = dict(self.spiders)
        d.adj = {v: nbrs.copy() for v, nbrs in self.adj.items()}
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
        for u, counts in nbrs.items():
            if u not in d.spiders:
                problems.append(f"edge references missing spider {u}")
            elif u != v and d.adj.get(u, {}).get(v) != counts:
                problems.append(f"asymmetric edge record between {u} and {v}")
            if type(counts) is not tuple or len(counts) != 2:
                problems.append(f"edge record between {v} and {u} is not a "
                                f"(plain, hadamard) pair")
            elif counts[0] < 0 or counts[1] < 0:
                problems.append(f"negative edge count between {v} and {u}")
            elif counts == NO_EDGES:
                problems.append(f"edge record between {v} and {u} holds no edges")
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
    for b in d.inputs + d.outputs:
        if b not in d.spiders or d.spiders[b].kind != SpiderKind.BOUNDARY:
            problems.append(f"boundary list entry {b} is not a BOUNDARY vertex")
    for p in d.param_coeffs:
        if p not in d.params:
            problems.append(f"coefficient recorded for undeclared parameter {p}")
    return problems


# -- circuits to diagrams ----------------------------------------------------

# the one-qubit gates but H as a Z-spider phase, in units of pi/4, and whether
# the spider has a Hadamard on each leg: X = H Z(pi) H and HSH = H Z(pi/2) H
_ONE_QUBIT = {"T": (1, 0), "S": (2, 0), "Sdg": (6, 0), "Z": (4, 0),
              "X": (4, 1), "HSH": (2, 1)}


def _gate_error(pos: int, gate, n: int) -> ValueError:
    return ValueError(f"gate {pos} {gate!r}: {gate_error(gate, n)}")


def diagram_from_circuit(circ: Circuit) -> ZxDiagram:
    """Lay a gate list as a graph-like ZX-diagram with boundary vertices.

    Every spider but the boundaries is a Z-spider, and every edge between
    two of them is a single Hadamard edge.  Each wire keeps its last spider
    and whether a Hadamard is pending on its next edge: an H gate toggles
    that bit and lays nothing.  An X-type gate (X, HSH, a CNOT target) is a
    Z-spider with a Hadamard on each leg, so it flips the kind of its
    incoming edge and leaves a Hadamard pending.  A gate whose incoming edge
    is plain joins the wire's last spider, when that is a Z-spider, adding
    its phase there.  A CNOT joins its control and target spiders by a
    Hadamard edge and contributes sqrt(2); a second Hadamard edge between
    the same two spiders cancels the first with a factor 1/2.

    Every gate but H uses up one spider id (a CNOT two), whether laid or
    fused, and the fused spider keeps its lower id, as the simplifier's
    spider fusion does.  A gate that ``parse_circuit`` would refuse, one with
    an unknown name, the wrong number of qubits, a qubit that is not an int
    in ``0..n_qubits-1`` or a CNOT on one qubit twice, raises ``ValueError``
    naming its position.
    """
    n = circ.n_qubits
    d = ZxDiagram()
    spiders, adj = d.spiders, d.adj
    last = [d.add_spider(SpiderKind.BOUNDARY) for _ in range(n)]
    d.inputs = list(last)
    pending = [0] * n  # 1 when a Hadamard waits for the wire's next edge
    z_spiders = _FIXED_SPIDERS[_Z]

    def lay(q: int, x: int, k: int) -> int:
        """The Z-spider of phase ``k`` that a gate on wire ``q`` adds, with a
        Hadamard on each leg when ``x``."""
        v = d._next
        d._next += 1
        u = last[q]
        had = pending[q] ^ x
        pending[q] = x
        s = spiders[u]
        if not had and s.kind == _Z:
            if k:
                spiders[u] = z_spiders[(s.phase.fixed + k) % 8]
            return u
        # a new spider's one edge, written as ZxDiagram.add_edge would
        spiders[v] = z_spiders[k]
        adj[u][v] = edge = (0, 1) if had else (1, 0)
        adj[v] = {u: edge}
        last[q] = v
        return v

    for pos, gate in enumerate(circ.gates):
        name = gate[0] if gate else None
        if name == "CNOT":
            if len(gate) != 3:
                raise _gate_error(pos, gate, n)
            c, t = gate[1], gate[2]
            if type(c) is not int or type(t) is not int or not (
                    0 <= c < n and 0 <= t < n and c != t):
                raise _gate_error(pos, gate, n)
            vc, vt = lay(c, 0, 0), lay(t, 1, 0)
            plain, had = adj[vc].get(vt, NO_EDGES)
            if had:  # the CNOT's sqrt(2) times the cancelled pair's 1/2
                d.set_edges(vc, vt, plain, had - 1)
                d.scalar.mul_sqrt2(-1)
            else:
                d.add_edge(vc, vt, _HADAMARD)
                d.scalar.mul_sqrt2(1)
            continue
        if len(gate) != 2:
            raise _gate_error(pos, gate, n)
        q = gate[1]
        if type(q) is not int or not 0 <= q < n:
            raise _gate_error(pos, gate, n)
        if name == "H":
            pending[q] ^= 1
            continue
        phase = _ONE_QUBIT.get(name)
        if phase is None:
            raise _gate_error(pos, gate, n)
        lay(q, phase[1], phase[0])

    for q in range(n):
        b = d.add_spider(SpiderKind.BOUNDARY)
        d.outputs.append(b)
        d.add_edge(last[q], b, pending[q])
    return d


_PLUGS = {"0": Spider.of(SpiderKind.X), "1": Spider.of(SpiderKind.X, Phase(4)),
          "+": Spider.of(SpiderKind.Z)}


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
            if ch not in _PLUGS:
                raise ValueError(f"bad plug character {ch!r}")
            out.spiders[b] = _PLUGS[ch]
            out.scalar.mul_sqrt2(-1)
    out.inputs = []
    out.outputs = []
    return out
