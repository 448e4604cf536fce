"""Clifford simplification of ZX-diagrams, full and parameter-safe.

The engine keeps diagrams in graph-like form (Z-spiders only, Hadamard edges,
no self-loops or parallel edges) and applies local rules until none fires:
spider fusion, identity removal, state copy, local complementation on
interior +-pi/2 spiders, pivoting on interior 0/pi pairs, phase-gadget fusion
and direct evaluation of tiny scalar components.  Every rule preserves the
diagram's tensor exactly, with all dropped factors folded into the global
scalar.

Worklist: a rule can only start to match at or next to a change, so the
rules look only at spiders on a worklist.  Every rewrite appends the spiders
whose phase, kind or edges it changed to one log.  Each new batch of log
entries is read once: one pass spreads it to the neighbours and reads each
spider's phase, and every rule is handed only the spiders of its phase class
that it could now match at (identity removal phase 0, local complementation
+-pi/2, copy a Pauli spider with one neighbour, pivoting the Pauli spiders
and their Pauli neighbours, gadget fusion phase 0 and the neighbours, scalar
elimination a spider with at most one neighbour).  A spider that changes
class later is logged again, so nothing a rule could match is missed, and a
rule with nothing handed to it does not run.  The rules keep their priority
(fusion, identity and copy to a fixed point, then local complementation,
pivoting, gadget fusion and scalar elimination) and every pass visits its
spiders in id order, so the rewrites are those a rescan of the whole diagram
would make, in the same order.  :func:`simplify_in_place` is the one body: a
fresh call puts every spider on the worklist, while the decomposition tree
passes only the spiders a term changed in an already simplified diagram.
That diagram is copied once per extra branch and rewritten in place for the
last one; :func:`clifford_simplify` and :func:`param_safe_simplify` copy their
input and leave it untouched.

Parameter safety: a rule touching the *pivotal* spiders of a match requires
them parameter-free, while mere neighbours may carry boolean parameters,
since they only ever receive fixed phase shifts.  Fusion is always safe
(parameter sets combine by symmetric difference).
"""
from __future__ import annotations

import functools
import heapq
import itertools

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


# -- the worklist ------------------------------------------------------------

# readers of the worklist, one per pass but fusion
_ID, _COPY, _LCOMP, _PIVOT, _GADGET, _SCALAR = range(6)


class _Worklist:
    """Spiders whose phase, kind or edges changed, kept as one append-only
    log, and per reader the set of spiders handed to it and not yet read.

    ``flush`` hands every batch of new log entries out at once.  A rule
    matches only at a parameter-free Z-spider of its phase class, so that is
    all a reader gets: identity removal and local complementation look only
    at a spider's own phase and edges (and its neighbours' kinds, which only
    a colour change alters, touching them too), so they get logged spiders
    alone.  Copy needs a Pauli spider with one neighbour, which a change at
    that neighbour can make match; pivoting a pair of Pauli neighbours, one
    of them changed; gadget fusion a phase-0 hub at or next to a change; and
    scalar elimination a changed spider with at most one neighbour.  A
    spider whose class or edges change later is logged again, and so is
    every end of an edge a rewrite adds or removes, so a reader never misses
    a spider it would match; a handed-out spider that no longer matches is
    refused by the rule itself.  Fusion has a list of its own, ``plain``,
    holding an end of every plain edge between Z-spiders; only the caller, a
    colour change and identity removal make such edges outside fusion, which
    removes them all.
    """

    __slots__ = ("spiders", "adj", "log", "done", "todo", "plain")

    def __init__(self, g: ZxDiagram, touched: list[int]):
        self.spiders = g.spiders
        self.adj = g.adj
        self.log = list(touched)
        self.done = 0
        self.todo: list[set[int]] = [set(), set(), set(), set(), set(), set()]
        self.plain = list(touched)

    def touch(self, *vs: int) -> None:
        """The phase, kind or edges of the spiders ``vs`` changed."""
        self.log.extend(vs)

    def flush(self) -> None:
        """Hand the spiders logged since the last flush to their readers."""
        log, done = self.log, self.done
        if done == len(log):
            return
        self.done = len(log)
        spiders, adj = self.spiders, self.adj
        ident, copy, lcomp, pivot, gadget, scalar = self.todo
        z = SpiderKind.Z
        near = set()  # the logged spiders and their neighbours
        beside = set()  # the neighbours of the logged Pauli spiders
        for v in set(log[done:]):
            row = adj.get(v)
            if row is None:
                continue  # removed
            near.add(v)
            near.update(row)
            if len(row) < 2 or (len(row) == 2 and v in row):
                scalar.add(v)  # no more than one neighbour
            s = spiders[v]
            if s.kind != z or s.phase.params:
                continue
            k = s.phase.fixed
            if k == 2 or k == 6:
                lcomp.add(v)
            elif not k & 3:
                if not k:
                    ident.add(v)
                pivot.add(v)
                beside.update(row)
        for u in near:
            s = spiders[u]
            k = s.phase.fixed
            if k & 3 or s.kind != z or s.phase.params:
                continue
            if not k:
                gadget.add(u)
            if u in beside:
                pivot.add(u)
            if len(adj[u]) == 1:
                copy.add(u)

    def take(self, reader: int) -> set[int]:
        """The spiders handed to ``reader``, leaving it none."""
        todo = self.todo[reader]
        self.todo[reader] = set()
        return todo


def _sweep(g: ZxDiagram, wl: _Worklist, reader: int, fire, trace: Trace | None) -> int:
    """Try ``fire`` in id order at the reader's worklist spiders.

    A spider that a rewrite touches joins this sweep when its id lies ahead
    and waits for the next sweep otherwise, as in one pass over every spider.
    Every rewrite is flushed at once, so the sweep leaves nothing unhanded.
    """
    spiders = g.spiders
    heap = sorted(wl.take(reader))
    applied = 0
    last = -1
    while heap:
        v = heapq.heappop(heap)
        if v == last or v not in spiders:
            continue  # a spider pushed twice pops twice in a row
        last = v
        if not fire(g, wl, v, trace):
            continue
        applied += 1
        wl.flush()
        # what this rewrite touched ahead of v joins this sweep; the rest
        # stays for the next
        waiting = wl.todo[reader]
        ahead = [u for u in waiting if u > v]
        for u in ahead:
            waiting.discard(u)
            heapq.heappush(heap, u)
    return applied


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


def _colour_change(g: ZxDiagram, v: int, trace: Trace | None) -> None:
    """Turn X-spider ``v`` into a Z-spider: clear its self-loops, whose kind a
    colour change keeps as both ends flip, then toggle its other edges."""
    _clear_self_loops(g, v, trace)
    for row in g.adj[v].values():
        row[0], row[1] = row[1], row[0]
    g.spiders[v].kind = SpiderKind.Z


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
    """Add a Hadamard edge between each pair of distinct Z-spiders, cancelling
    it against one already there (``_add_edge_norm`` for that case)."""
    adj = g.adj
    for s, t in pairs:
        row = adj[s].get(t)
        if row is None:
            row = adj[s][t] = adj[t][s] = [0, 1]
            continue
        row[1] += 1
        if row[1] < 2:
            continue
        n = row[1] // 2
        before = _snap(g, trace)
        row[1] -= 2 * n
        if not row[0] and not row[1]:
            del adj[s][t], adj[t][s]
        g.scalar.mul_sqrt2(-2 * n)
        if trace is not None:
            trace.record(g, RULE_HADAMARD_CANCEL, [s, t], before)


def _to_graph_like(g: ZxDiagram, vs: list[int], wl: _Worklist, trace: Trace | None) -> None:
    """Colour-change the X-spiders among ``vs`` (ascending ids) to Z and
    normalise their loops and parallel edges; elsewhere the diagram must be
    graph-like already."""
    spiders, adj = g.spiders, g.adj
    for v in vs:
        if spiders[v].kind == SpiderKind.X:
            _colour_change(g, v, trace)
            # every edge changed kind, at both of its ends
            wl.plain.append(v)
            wl.touch(v, *adj[v])
        elif v in adj[v]:
            _clear_self_loops(g, v, trace)
            wl.touch(v)
    members = set(vs)
    for v in vs:
        if spiders[v].kind != SpiderKind.Z:
            continue
        for u in [u for u, row in adj[v].items() if row[1] >= 2]:
            if (u > v or u not in members) and spiders[u].kind == SpiderKind.Z:
                _reduce_parallel_h(g, v, u, trace)
                wl.touch(v, u)


# -- rules -------------------------------------------------------------------

def _fuse_pass(g: ZxDiagram, wl: _Worklist, trace: Trace | None) -> int:
    if not wl.plain:
        return 0
    spiders, adj = g.spiders, g.adj
    # ZxDiagram.edges() lists a plain edge in the row of its lower end; only
    # rows holding a plain edge of a listed spider can hold one between
    # Z-spiders, and their plain edges are queued in the order edges() gives
    rows = set()
    for w in set(wl.plain):
        row_w = adj.get(w)
        if row_w:
            for x, row in row_w.items():
                if row[0]:
                    rows.add(x if x < w else w)
    wl.plain = []
    if not rows:
        return 0
    queue = [(u, v) for u in sorted(rows) for v, row in adj[u].items() if v >= u
             for _ in range(row[0])]
    applied = 0
    while queue:
        u, v = queue.pop()
        if u == v or u not in spiders or v not in spiders:
            continue
        if spiders[u].kind != SpiderKind.Z or spiders[v].kind != SpiderKind.Z:
            continue
        row = adj[u].get(v)
        if not row or not row[0]:
            continue
        if v < u:
            u, v = v, u  # lower id survives
        absorbed_phase = spiders[v].phase
        before = _snap(g, trace)
        g.remove_edge(u, v, EdgeKind.PLAIN)
        # absorb v into u: remaining u-v edges become self-loops on u
        moved = list(adj[v].items())
        row_u = adj[u]
        for x, row in moved:
            if x != v:
                del adj[x][v]
            target = u if x == u or x == v else x
            # the row of u and target, shared by both ends (ZxDiagram.add_edge)
            kept = row_u.get(target)
            if kept is None:
                kept = row_u[target] = [0, 0]
                if target != u:
                    adj[target][u] = kept
            kept[0] += row[0]
            kept[1] += row[1]
            row[0] = row[1] = 0
        adj[v].clear()
        g.remove_spider(v)
        spiders[u].phase = spiders[u].phase.add(absorbed_phase)
        if trace is not None:
            trace.record(g, RULE_FUSE, [u, v], before)
        if u in adj[u]:
            _clear_self_loops(g, u, trace)
        for x, row in list(adj[u].items()):
            if row[1] >= 2 and spiders[x].kind == SpiderKind.Z:
                _reduce_parallel_h(g, u, x, trace)
            if row[0]:
                queue.append((u, x))
        wl.touch(*[x for x, _ in moved if x != u and x != v], u)
        applied += 1
    return applied


def _identity_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    s = g.spiders[v]
    if s.kind != SpiderKind.Z or s.phase.fixed or s.phase.params:
        return False
    row_v = g.adj[v]
    if v in row_v or len(row_v) > 2:
        return False
    legs = []
    for u, row in row_v.items():
        legs += [(u, EdgeKind.PLAIN)] * row[0] + [(u, EdgeKind.HADAMARD)] * row[1]
    if len(legs) != 2:
        return False
    (x, k1), (y, k2) = legs
    before = _snap(g, trace)
    g.remove_spider(v)
    kind = EdgeKind.PLAIN if k1 == k2 else EdgeKind.HADAMARD
    _add_edge_norm(g, x, y, kind, trace)
    if kind == EdgeKind.PLAIN:
        wl.plain.append(x)
    if trace is not None:
        trace.record(g, RULE_IDENTITY, [v, x, y], before)
    wl.touch(x, y)
    return True


def _copy_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    s = g.spiders[v]
    if s.kind != SpiderKind.Z or s.phase.params or s.phase.fixed % 4:
        return False
    row_v = g.adj[v]
    if len(row_v) != 1:
        return False
    ((w, row),) = row_v.items()
    if w == v or row[0] or row[1] != 1:
        return False  # not one leg, or a plain one: fusion's job
    spiders = g.spiders
    sw = spiders[w]
    if sw.kind != SpiderKind.Z:
        return False
    a = s.phase.fixed // 4
    if a and sw.phase.params:
        return False  # e^(i*a*beta) would depend on the assignment
    others = []
    for t, row in g.adj[w].items():
        if t != v:
            if row[0] or spiders[t].kind != SpiderKind.Z:
                return False
            others.append(t)
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
    for t in others:
        if t in g.spiders:
            wl.touch(t)
    return True


def _interior(g: ZxDiagram, v: int) -> bool:
    """Every edge at ``v`` is a Hadamard edge to a Z-spider: no plain leg
    pending fusion, no boundary or X neighbour."""
    spiders = g.spiders
    for u, row in g.adj[v].items():
        if row[0] or (u != v and spiders[u].kind != SpiderKind.Z):
            return False
    return True


def _lcomp_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    s = g.spiders[v]
    if s.kind != SpiderKind.Z or s.phase.params or s.phase.fixed not in (2, 6):
        return False
    if not _interior(g, v):
        return False
    nbrs = sorted(g.adj[v])
    n = len(nbrs)
    before = _snap(g, trace)
    g.scalar.mul_phase8(1 if s.phase.fixed == 2 else 7)
    g.scalar.mul_sqrt2((n - 1) * (n - 2) // 2)
    shift = -2 if s.phase.fixed == 2 else 2
    for t in nbrs:
        g.spiders[t].phase = g.spiders[t].phase.add_fixed(shift)
    g.remove_spider(v)
    _toggle_pairs(g, itertools.combinations(nbrs, 2), trace)
    if trace is not None:
        trace.record(g, RULE_LCOMP, [v] + nbrs, before)
    wl.touch(*nbrs)
    return True


def _pivot_at(g: ZxDiagram, wl: _Worklist, u: int, trace: Trace | None) -> bool:
    su = g.spiders[u]
    if su.kind != SpiderKind.Z or su.phase.params or su.phase.fixed % 4:
        return False
    if not _interior(g, u):
        return False
    for v in sorted(g.adj[u]):
        if v <= u:
            continue
        sv = g.spiders[v]
        if sv.phase.params or sv.phase.fixed % 4:
            continue
        if not _interior(g, v):
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
        wl.touch(*only_u, *only_v, *common)
        return True
    return False


def _gadget_at(g: ZxDiagram, h: int) -> tuple[int, frozenset[int]] | None:
    """(carrier, connectivity set) when ``h`` is the hub of a phase gadget."""
    s = g.spiders[h]
    if s.kind != SpiderKind.Z or s.phase.fixed or s.phase.params:
        return None
    if not _interior(g, h):
        return None
    adj = g.adj
    carriers = [t for t in adj[h] if len(adj[t]) == 1 and g.degree(t) == 1]
    if len(carriers) != 1:
        return None
    conn = frozenset(t for t in g.adj[h] if t != carriers[0])
    return (carriers[0], conn) if len(conn) >= 2 else None


def _gadget_pass(g: ZxDiagram, wl: _Worklist, trace: Trace | None) -> int:
    """Fuse phase gadgets whose connectivity sets coincide."""
    spiders = g.spiders
    gadgets: dict[frozenset[int], list[tuple[int, int]]] = {}
    for h in wl.take(_GADGET):
        found = h in spiders and _gadget_at(g, h)
        if not found or found[1] in gadgets:
            continue
        conn = found[1]
        # a hub with this connectivity set neighbours each spider in it
        group = []
        for h2 in g.adj[next(iter(conn))]:
            other = _gadget_at(g, h2)
            if other is not None and other[1] == conn:
                group.append((h2, other[0]))
        gadgets[conn] = sorted(group)
    applied = 0
    for conn, group in sorted(gadgets.items(), key=lambda kv: kv[1][0]):
        keep_h, keep_c = group[0]
        for h, c in group[1:]:
            before = _snap(g, trace)
            spiders[keep_c].phase = spiders[keep_c].phase.add(spiders[c].phase)
            g.remove_spider(c)
            g.remove_spider(h)
            g.scalar.mul_sqrt2(1 - len(conn))
            if trace is not None:
                trace.record(g, RULE_GADGET_FUSE, [keep_h, keep_c, h, c], before)
            wl.touch(keep_c)
            for t in conn:
                if t in spiders:
                    wl.touch(t)
            applied += 1
    return applied


@functools.lru_cache(maxsize=512)
def _component_value(ka: int, kb: int | None = None, plain: int = 0, had: int = 0) -> ScalarC:
    """Value of a component of one spider of phase ``ka`` (``kb`` None) or of
    two, joined by ``plain`` plain and ``had`` Hadamard edges.  Shared: the
    caller must not change it."""
    if kb is None:
        return ScalarC.one().plus(ScalarC.from_phase8(ka))
    if plain:
        # sum over the shared index; any H edges contribute parity signs
        value = ScalarC.one().plus(ScalarC.from_phase8((ka + kb + 4 * had) % 8))
    else:
        value = ScalarC.one()
        value = value.plus(ScalarC.from_phase8(ka))
        value = value.plus(ScalarC.from_phase8(kb))
        value = value.plus(ScalarC.from_phase8((ka + kb + 4 * had) % 8))
    value.mul_sqrt2(-had)
    return value


def _scalar_elim_pass(g: ZxDiagram, wl: _Worklist, trace: Trace | None) -> int:
    """Evaluate connected components of one or two spiders."""
    spiders, adj = g.spiders, g.adj
    comps: dict[int, list[int]] = {}
    for v in wl.take(_SCALAR):
        row = adj.get(v)
        if row is None or len(row) > 2:
            continue
        nbrs = [u for u in row if u != v]
        if not nbrs:
            comps[v] = [v]
        elif len(nbrs) == 1:
            u = nbrs[0]
            if len(adj[u]) <= 2 and adj[u].keys() <= {u, v}:
                comps[min(u, v)] = sorted((u, v))
    applied = 0
    for _, comp in sorted(comps.items()):
        if any(spiders[v].kind == SpiderKind.BOUNDARY or spiders[v].phase.params
               for v in comp):
            continue
        before = _snap(g, trace)
        if len(comp) == 1:
            value = _component_value(spiders[comp[0]].phase.fixed)
        else:
            u, v = comp
            plain, had = g.edge_counts(u, v)
            value = _component_value(spiders[u].phase.fixed, spiders[v].phase.fixed,
                                     plain, had)
        for v in comp:
            g.remove_spider(v)
        g.scalar.mul(value)
        if trace is not None:
            trace.record(g, RULE_SCALAR_ELIM, comp, before)
        applied += 1
        if g.scalar.is_zero:
            break
    return applied


# -- drivers -----------------------------------------------------------------

def simplify_in_place(g: ZxDiagram, touched=None, trace: Trace | None = None) -> None:
    """Simplify ``g`` in place, every rule application valid for all
    assignments of its boolean parameters.

    ``touched`` lists the spiders whose phase, kind or edges changed since
    ``g`` was last simplified, including any added since; only they start
    on the worklist.  ``None`` puts every spider on it.
    """
    touched = sorted(g.spiders) if touched is None else sorted(set(touched))
    wl = _Worklist(g, touched)
    # only a changed spider can be an X-spider or have a loop or parallel edge
    _to_graph_like(g, touched, wl, trace)
    todo = wl.todo
    while True:
        if g.scalar.is_zero:
            if not g.inputs and not g.outputs:
                for v in list(g.spiders):
                    g.remove_spider(v)
            return
        # a pass runs only when the worklist handed it a spider to look at;
        # the sweeps flush as they go, so only here is the log behind
        while True:
            fired = _fuse_pass(g, wl, trace)
            wl.flush()
            if todo[_ID]:
                fired += _sweep(g, wl, _ID, _identity_at, trace)
            if todo[_COPY]:
                fired += _sweep(g, wl, _COPY, _copy_at, trace)
            if not fired or g.scalar.is_zero:
                break
        if g.scalar.is_zero:
            continue
        if todo[_LCOMP] and _sweep(g, wl, _LCOMP, _lcomp_at, trace):
            continue
        if todo[_PIVOT] and _sweep(g, wl, _PIVOT, _pivot_at, trace):
            continue
        if todo[_GADGET] and _gadget_pass(g, wl, trace):
            continue
        # evaluating whole components changes no other spider, so no rule
        # can match anew: only a zero scalar is left to handle
        if todo[_SCALAR]:
            _scalar_elim_pass(g, wl, trace)
        if not g.scalar.is_zero:
            return


def param_safe_simplify(d: ZxDiagram, trace: Trace | None = None) -> ZxDiagram:
    """Simplify so that every rule application is valid for all boolean
    parameter assignments simultaneously.

    On a parameter-free diagram this coincides with :func:`clifford_simplify`.
    """
    g = d.copy()
    simplify_in_place(g, None, trace)
    return g


def clifford_simplify(d: ZxDiagram, trace: Trace | None = None) -> ZxDiagram:
    """Fully simplify a parameter-free diagram.

    A scalar Clifford diagram reduces to zero spiders with the answer in the
    global scalar; T-spiders may remain otherwise.
    """
    if d.params or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("clifford_simplify requires a parameter-free diagram")
    return param_safe_simplify(d, trace)
