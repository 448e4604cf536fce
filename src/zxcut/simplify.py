"""Clifford simplification of ZX-diagrams, full and parameter-safe.

The engine keeps diagrams in graph-like form (Z-spiders only, Hadamard edges,
no self-loops or parallel edges) and applies local rules until none fires:
spider fusion, identity removal, state copy, local complementation on
interior +-pi/2 spiders, pivoting on interior 0/pi pairs, phase-gadget fusion
and direct evaluation of tiny scalar components.  Every rule preserves the
diagram's tensor exactly, with all dropped factors folded into the global
scalar.

Parameter safety: a rule touching the *pivotal* spiders of a match requires
them parameter-free, while mere neighbours may carry boolean parameters,
since they only ever receive fixed phase shifts.  Fusion is always safe
(parameter sets combine by symmetric difference).
"""
from __future__ import annotations

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .scalars import ScalarC

RULE_FUSE = "fuse"
RULE_IDENTITY = "identity"
RULE_COPY = "copy"
RULE_HADAMARD_CANCEL = "hadamardCancel"
RULE_LCOMP = "localComplement"
RULE_PIVOT = "pivot"
RULE_GADGET_FUSE = "gadgetFuse"
RULE_SCALAR_ELIM = "scalarElim"


class Trace:
    """Optional rewrite log: one entry per rule application."""

    def __init__(self):
        self.steps: list[dict] = []

    def record(self, g: ZxDiagram, rule: str, spiders, before: ScalarC) -> None:
        after = g.scalar
        if before.is_zero or after.is_zero:
            delta = [0.0, 0.0, 0]
        else:
            d = after.coeff / before.coeff
            delta = [d.real, d.imag, after.sqrt2_pow - before.sqrt2_pow]
        self.steps.append({"rule": rule, "spiders": sorted(spiders), "scalarDelta": delta})


def _snap(g: ZxDiagram, trace: Trace | None) -> ScalarC | None:
    return g.scalar.copy() if trace is not None else None


# -- normalisation helpers ---------------------------------------------------

def _clear_self_loops(g: ZxDiagram, v: int, trace: Trace | None) -> None:
    row = g.adj[v].get(v)
    if not row:
        return
    before = _snap(g, trace)
    plain, had = row[0], row[1]
    # a plain self-loop contracts to nothing; a Hadamard self-loop adds pi
    # and a 1/sqrt(2)
    if had:
        g.spiders[v].phase = g.spiders[v].phase.add_fixed(4 * had)
        g.scalar.mul_sqrt2(-had)
    row[0] = row[1] = 0
    del g.adj[v][v]
    if trace is not None and (plain or had):
        trace.record(g, RULE_HADAMARD_CANCEL, [v], before)


def _reduce_parallel_h(g: ZxDiagram, u: int, v: int, trace: Trace | None) -> None:
    """Cancel Hadamard edges between two Z-spiders in pairs, 1/2 per pair."""
    if u == v:
        return
    row = g.adj[u].get(v)
    if not row or row[1] < 2:
        return
    pairs = row[1] // 2
    before = _snap(g, trace)
    g.remove_edge(u, v, EdgeKind.HADAMARD, 2 * pairs)
    g.scalar.mul_sqrt2(-2 * pairs)
    if trace is not None:
        trace.record(g, RULE_HADAMARD_CANCEL, [u, v], before)


def _add_edge_norm(g: ZxDiagram, u: int, v: int, kind: EdgeKind, trace: Trace | None) -> None:
    """Add an edge and immediately resolve the loop/parallel it may create."""
    if u == v:
        if kind == EdgeKind.HADAMARD:
            before = _snap(g, trace)
            g.spiders[u].phase = g.spiders[u].phase.add_fixed(4)
            g.scalar.mul_sqrt2(-1)
            if trace is not None:
                trace.record(g, RULE_HADAMARD_CANCEL, [u], before)
        return
    g.add_edge(u, v, kind)
    if kind == EdgeKind.HADAMARD and g.spiders[u].kind == SpiderKind.Z \
            and g.spiders[v].kind == SpiderKind.Z:
        _reduce_parallel_h(g, u, v, trace)


def _toggle_pairs(g: ZxDiagram, pairs, trace: Trace | None) -> None:
    for s, t in pairs:
        _add_edge_norm(g, s, t, EdgeKind.HADAMARD, trace)


def to_graph_like(g: ZxDiagram, trace: Trace | None = None) -> None:
    """Colour-change every X-spider to Z and normalise loops and parallels."""
    for v, s in g.spiders.items():
        if s.kind == SpiderKind.X:
            for row in g.adj[v].values():
                row[0], row[1] = row[1], row[0]
            s.kind = SpiderKind.Z
    for v in list(g.spiders):
        _clear_self_loops(g, v, trace)
    for v in list(g.spiders):
        if v not in g.spiders or g.spiders[v].kind != SpiderKind.Z:
            continue
        for u in list(g.adj[v]):
            if u > v and u in g.spiders and g.spiders[u].kind == SpiderKind.Z:
                _reduce_parallel_h(g, v, u, trace)


# -- rule passes -------------------------------------------------------------

def _fuse_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    queue = [(u, v) for u, v, k in g.edges() if k == EdgeKind.PLAIN]
    while queue:
        u, v = queue.pop()
        if u == v or u not in g.spiders or v not in g.spiders:
            continue
        if g.spiders[u].kind != SpiderKind.Z or g.spiders[v].kind != SpiderKind.Z:
            continue
        plain, _ = g.edge_counts(u, v)
        if plain < 1:
            continue
        if v < u:
            u, v = v, u  # lower id survives
        absorbed_phase = g.spiders[v].phase
        before = _snap(g, trace)
        g.remove_edge(u, v, EdgeKind.PLAIN)
        # absorb v into u: remaining u-v edges become self-loops on u
        for x in list(g.adj[v]):
            row = g.adj[v][x]
            p, h = row[0], row[1]
            row[0] = row[1] = 0
            if x != v:
                del g.adj[x][v]
            target = u if x in (u, v) else x
            if p:
                g.add_edge(u, target, EdgeKind.PLAIN, p)
            if h:
                g.add_edge(u, target, EdgeKind.HADAMARD, h)
        g.adj[v].clear()
        g.remove_spider(v)
        g.spiders[u].phase = g.spiders[u].phase.add(absorbed_phase)
        if trace is not None:
            trace.record(g, RULE_FUSE, [u, v], before)
        _clear_self_loops(g, u, trace)
        for x in list(g.adj[u]):
            if g.spiders[x].kind == SpiderKind.Z:
                _reduce_parallel_h(g, u, x, trace)
            p, _ = g.edge_counts(u, x)
            if p:
                queue.append((u, x))
        applied += 1
    return applied


def _id_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    for v in sorted(g.spiders):
        if v not in g.spiders:
            continue
        s = g.spiders[v]
        if s.kind != SpiderKind.Z or s.phase.fixed or s.phase.params:
            continue
        if v in g.adj[v]:
            continue
        legs = []
        for u, row in g.adj[v].items():
            legs += [(u, EdgeKind.PLAIN)] * row[0] + [(u, EdgeKind.HADAMARD)] * row[1]
        if len(legs) != 2:
            continue
        (x, k1), (y, k2) = legs
        before = _snap(g, trace)
        g.remove_spider(v)
        kind = EdgeKind.PLAIN if k1 == k2 else EdgeKind.HADAMARD
        _add_edge_norm(g, x, y, kind, trace)
        if trace is not None:
            trace.record(g, RULE_IDENTITY, [v, x, y], before)
        applied += 1
    return applied


def _copy_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    for v in sorted(g.spiders):
        if v not in g.spiders:
            continue
        s = g.spiders[v]
        if s.kind != SpiderKind.Z or s.phase.params or s.phase.fixed % 4:
            continue
        if g.degree(v) != 1:
            continue
        w = next(iter(g.adj[v]))
        _, had = g.edge_counts(v, w)
        if not had:
            continue  # plain edge: fusion's job
        sw = g.spiders[w]
        if sw.kind != SpiderKind.Z:
            continue
        a = s.phase.fixed // 4
        if a and sw.phase.params:
            continue  # e^(i*a*beta) would depend on the assignment
        others = [t for t in g.adj[w] if t != v]
        if any(g.spiders[t].kind != SpiderKind.Z for t in others):
            continue
        if any(g.edge_counts(w, t)[0] for t in others):
            continue
        before = _snap(g, trace)
        # pushing the X-basis state through w: each neighbour gains a*pi,
        # w and the copier disappear
        if a:
            g.scalar.mul_phase8(sw.phase.fixed)
        g.scalar.mul_sqrt2(1 - len(others))
        for t in others:
            g.spiders[t].phase = g.spiders[t].phase.add_fixed(4 * a)
        g.remove_spider(v)
        g.remove_spider(w)
        if trace is not None:
            trace.record(g, RULE_COPY, [v, w] + others, before)
        applied += 1
    return applied


def _interior(g: ZxDiagram, v: int) -> bool:
    return all(g.spiders[u].kind == SpiderKind.Z for u in g.adj[v] if u != v)


def _lcomp_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    for v in sorted(g.spiders):
        if v not in g.spiders:
            continue
        s = g.spiders[v]
        if s.kind != SpiderKind.Z or s.phase.params or s.phase.fixed not in (2, 6):
            continue
        if any(row[0] for row in g.adj[v].values()):
            continue  # plain legs pending fusion
        if not _interior(g, v):
            continue
        nbrs = sorted(g.adj[v])
        n = len(nbrs)
        before = _snap(g, trace)
        g.scalar.mul_phase8(1 if s.phase.fixed == 2 else 7)
        g.scalar.mul_sqrt2((n - 1) * (n - 2) // 2)
        shift = -2 if s.phase.fixed == 2 else 2
        for t in nbrs:
            g.spiders[t].phase = g.spiders[t].phase.add_fixed(shift)
        g.remove_spider(v)
        _toggle_pairs(g, ((nbrs[i], nbrs[j]) for i in range(n) for j in range(i + 1, n)),
                      trace)
        if trace is not None:
            trace.record(g, RULE_LCOMP, [v] + nbrs, before)
        applied += 1
    return applied


def _pivot_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    for u in sorted(g.spiders):
        if u not in g.spiders:
            continue
        su = g.spiders[u]
        if su.kind != SpiderKind.Z or su.phase.params or su.phase.fixed % 4:
            continue
        if any(row[0] for row in g.adj[u].values()) or not _interior(g, u):
            continue
        for v in sorted(g.adj[u]):
            if v <= u or v not in g.spiders:
                continue
            sv = g.spiders[v]
            if sv.phase.params or sv.phase.fixed % 4:
                continue
            if any(row[0] for row in g.adj[v].values()) or not _interior(g, v):
                continue
            a, b = su.phase.fixed // 4, sv.phase.fixed // 4
            nu = set(g.adj[u]) - {v}
            nv = set(g.adj[v]) - {u}
            common = sorted(nu & nv)
            only_u = sorted(nu - set(common))
            only_v = sorted(nv - set(common))
            p, q, r = len(only_u), len(only_v), len(common)
            before = _snap(g, trace)
            if a and b:
                g.scalar.mul_phase8(4)
            g.scalar.mul_sqrt2(p * q + p * r + q * r + 1 - p - q - 2 * r)
            for x in only_u:
                g.spiders[x].phase = g.spiders[x].phase.add_fixed(4 * b)
            for y in only_v:
                g.spiders[y].phase = g.spiders[y].phase.add_fixed(4 * a)
            for z in common:
                g.spiders[z].phase = g.spiders[z].phase.add_fixed(4 * (a + b + 1))
            g.remove_spider(u)
            g.remove_spider(v)
            pairs = [(x, y) for x in only_u for y in only_v]
            pairs += [(x, z) for x in only_u for z in common]
            pairs += [(y, z) for y in only_v for z in common]
            _toggle_pairs(g, pairs, trace)
            if trace is not None:
                trace.record(g, RULE_PIVOT, [u, v] + only_u + only_v + common, before)
            applied += 1
            break  # u is gone
    return applied


def _gadget_pass(g: ZxDiagram, trace: Trace | None) -> int:
    """Fuse phase gadgets whose connectivity sets coincide."""
    gadgets: dict[frozenset[int], list[tuple[int, int]]] = {}
    for h in sorted(g.spiders):
        s = g.spiders[h]
        if s.kind != SpiderKind.Z or s.phase.fixed or s.phase.params:
            continue
        if any(row[0] for row in g.adj[h].values()) or not _interior(g, h):
            continue
        carriers = [t for t in g.adj[h] if g.degree(t) == 1]
        if len(carriers) != 1:
            continue
        conn = frozenset(t for t in g.adj[h] if t != carriers[0])
        if len(conn) >= 2:
            gadgets.setdefault(conn, []).append((h, carriers[0]))
    applied = 0
    for conn, group in sorted(gadgets.items(), key=lambda kv: kv[1][0]):
        group.sort()
        keep_h, keep_c = group[0]
        for h, c in group[1:]:
            before = _snap(g, trace)
            g.spiders[keep_c].phase = g.spiders[keep_c].phase.add(g.spiders[c].phase)
            g.remove_spider(c)
            g.remove_spider(h)
            g.scalar.mul_sqrt2(1 - len(conn))
            if trace is not None:
                trace.record(g, RULE_GADGET_FUSE, [keep_h, keep_c, h, c], before)
            applied += 1
    return applied


def _scalar_elim_pass(g: ZxDiagram, trace: Trace | None) -> int:
    applied = 0
    for comp in g.connected_components():
        if len(comp) > 2:
            continue
        spiders = [g.spiders[v] for v in comp]
        if any(s.kind == SpiderKind.BOUNDARY or s.phase.params for s in spiders):
            continue
        before = _snap(g, trace)
        if len(comp) == 1:
            (v,) = comp
            value = ScalarC.one().plus(ScalarC.from_phase8(spiders[0].phase.fixed))
            g.remove_spider(v)
        else:
            u, v = sorted(comp)
            plain, had = g.edge_counts(u, v)
            ka, kb = g.spiders[u].phase.fixed, g.spiders[v].phase.fixed
            if plain:
                # sum over the shared index; any H edges contribute parity signs
                value = ScalarC.one().plus(ScalarC.from_phase8((ka + kb + 4 * had) % 8))
                value.mul_sqrt2(-had)
            else:
                value = ScalarC.one()
                value = value.plus(ScalarC.from_phase8(ka))
                value = value.plus(ScalarC.from_phase8(kb))
                value = value.plus(ScalarC.from_phase8((ka + kb + 4 * had) % 8))
                value.mul_sqrt2(-had)
            g.remove_spider(u)
            g.remove_spider(v)
        g.scalar.mul(value)
        if trace is not None:
            trace.record(g, RULE_SCALAR_ELIM, comp, before)
        applied += 1
        if g.scalar.is_zero:
            break
    return applied


# -- drivers -----------------------------------------------------------------

def _run(g: ZxDiagram, trace: Trace | None) -> None:
    to_graph_like(g, trace)
    while True:
        if g.scalar.is_zero:
            if not g.inputs and not g.outputs:
                for v in list(g.spiders):
                    g.remove_spider(v)
            return
        while _fuse_pass(g, trace) + _id_pass(g, trace) + _copy_pass(g, trace):
            if g.scalar.is_zero:
                break
        if g.scalar.is_zero:
            continue
        if _lcomp_pass(g, trace):
            continue
        if _pivot_pass(g, trace):
            continue
        if _gadget_pass(g, trace):
            continue
        if _scalar_elim_pass(g, trace):
            continue
        return


def clifford_simplify(d: ZxDiagram, trace: Trace | None = None) -> ZxDiagram:
    """Fully simplify a parameter-free diagram.

    A scalar Clifford diagram reduces to zero spiders with the answer in the
    global scalar; T-spiders may remain otherwise.
    """
    if d.params or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("clifford_simplify requires a parameter-free diagram")
    g = d.copy()
    _run(g, trace)
    return g


def param_safe_simplify(d: ZxDiagram, trace: Trace | None = None) -> ZxDiagram:
    """Simplify so that every rule application is valid for all boolean
    parameter assignments simultaneously.

    On a parameter-free diagram this coincides with :func:`clifford_simplify`.
    """
    g = d.copy()
    _run(g, trace)
    return g
