"""Clifford simplification of ZX-diagrams, full and parameter-safe.

The engine applies local rules until none fires: spider fusion, identity
removal, state copy, local complementation on interior +-pi/2 spiders,
pivoting on interior 0/pi pairs and direct evaluation of tiny scalar
components.  Every rule preserves the diagram's tensor exactly, with all
dropped factors folded into the global scalar.

Graph-like form (Duncan, Kissinger, Perdrix & van de Wetering, Quantum 4,
279, 2020).  The helpers that make and remove self-loops, parallel edges and
X-spiders (``_start``, ``_fuse_pass``, ``_add_edge_norm``,
``_colour_change``, ``_clear_self_loops``) accept any input and keep that:

- no self-loop outlives the rewrite that makes it;
- no two Z-spiders share more than one Hadamard edge;
- no X-spider outlives ``_start``;
- once the fuse/identity/copy loop stops, no plain edge joins two Z-spiders.

Identity removal and copy are written for a diagram without self-loops or
doubled Hadamard edges; local complementation, pivoting and scalar
elimination for a simple graph of Z-spiders joined by single Hadamard
edges, with boundary wires hanging off it.

Worklist: a rule can only start to match at or next to a change, so the
rules look only at spiders on a worklist.  Every rewrite ends by touching
the spiders whose phase, kind or edges it changed.  The touch classifies
each of them once, in the state the rewrite left, and hands it to every
reader (a rule that takes spiders from the worklist) that could now match
at it: identity removal a phase-0 spider with two legs, local
complementation a +-pi/2 spider, copy a Pauli spider with one neighbour and
scalar elimination a spider in a component of at most two.  Pivoting gets
every Pauli spider and turns them into the lower ends of pairs of Pauli
neighbours when it runs.  A sweep's reader takes what each of its rewrites
touched at once, so that the spiders ahead join the sweep.

Why the rewrites are the same as a rescan's: when a reader runs, it holds
every spider its rule matches at.  A spider that matches now was touched
when it last changed, in the state it is still in, and handed out then.
A change at a neighbour that can make a spider match touches that
neighbour, and the hand-out then looks at the spider too: a colour change,
for every rule; a neighbour's phase, for pivoting; a neighbour's degree,
for scalar elimination; and for copy any change at the copying neighbour,
which hands out again the spiders copy refused for its sake.  Each end of
an edge a rewrite adds or removes is touched.  Handing out more changes
nothing: a rule refuses a spider where it does not match, as it does one
that changed again since it was handed out.  The rules keep their priority
(fusion, identity and copy to a fixed point, then local complementation,
pivoting and scalar elimination) and every sweep visits its spiders in id
order, so the rewrites are those a rescan of the whole diagram would make,
in the same order.  :func:`simplify_in_place` is the one body: a fresh
call touches every spider once ``_start`` has made the diagram graph-like,
while the decomposition tree passes only the spiders a term changed in an
already simplified diagram.  That diagram is copied once per extra branch
and rewritten in place for the last one; :func:`clifford_simplify` and
:func:`param_safe_simplify` copy their input and leave it untouched.

Parameter safety: a rule touching the *pivotal* spiders of a match requires
them parameter-free, while mere neighbours may carry boolean parameters,
since they only ever receive fixed phase shifts.  Fusion is always safe
(parameter sets combine by symmetric difference).
"""
from __future__ import annotations

import functools
import heapq

from .diagram import _FIXED_SPIDERS, NO_EDGES, EdgeKind, Spider, SpiderKind, ZxDiagram
from .scalars import ScalarC

RULE_FUSE = "fuse"
RULE_IDENTITY = "identity"
RULE_COPY = "copy"
RULE_HADAMARD_CANCEL = "hadamardCancel"
RULE_LCOMP = "localComplement"
RULE_PIVOT = "pivot"
RULE_SCALAR_ELIM = "scalarElim"


class Trace:
    """Optional rewrite log: one entry per rule application, each with the
    factor ``scalarDelta`` that the global scalar gained since the entry
    before it (since the start of simplification for the first)."""

    def __init__(self):
        self.steps: list[dict] = []
        self.mark = ScalarC.one()  # the scalar as of the last entry

    def record(self, g: ZxDiagram, rule: str, spiders) -> None:
        before, after = self.mark, g.scalar
        if before.is_zero or after.is_zero:
            delta = [0.0, 0.0, 0]
        else:
            d = after.coeff / before.coeff
            delta = [d.real, d.imag, after.sqrt2_pow - before.sqrt2_pow]
        self.steps.append({"rule": rule, "spiders": sorted(spiders), "scalarDelta": delta})
        self.mark = after.copy()


# -- the worklist ------------------------------------------------------------

# readers of the worklist, one per pass but fusion
_ID, _COPY, _LCOMP, _PIVOT, _SCALAR = range(5)

# module names for the enum members and records the hot loops read, which
# cost a fraction of an attribute lookup on the enum class
_Z, _X, _BOUNDARY = SpiderKind.Z, SpiderKind.X, SpiderKind.BOUNDARY
_PLAIN, _HADAMARD = EdgeKind.PLAIN, EdgeKind.HADAMARD
_Z_SPIDERS = _FIXED_SPIDERS[_Z]  # the parameter-free Z-spider records, by phase
_ONE_H = (0, 1)  # the edge counts of one Hadamard edge
_ONE_H_ONLY = frozenset([_ONE_H])  # a row's values in graph-like form


class _Worklist:
    """Per reader, the set of spiders handed to it and not yet read.

    Every rewrite ends with one ``touch`` of the spiders whose phase, kind
    or edges it changed.  It classifies each of them once, in the state the
    rewrite left, and adds it to the set of every reader that could now
    match at it.  A rule matches only at a parameter-free Z-spider: identity
    removal at phase 0 with two legs, copy at a Pauli spider with one
    neighbour, local complementation at +-pi/2, and scalar elimination in a
    component of at most two spiders.  Pivoting matches at the lower end of
    a pair of Pauli neighbours; its set holds the Pauli spiders, which
    ``_pivot_ends`` turns into those ends when pivoting runs.  Only copy and
    scalar elimination read a neighbour's state: a change there touches that
    neighbour, and a component of two is found from either end.  Copy also
    refuses a spider for its neighbour's sake; the spider then waits in
    ``blocked``, keyed by that neighbour, until the neighbour is touched.
    Fusion has a list of its own, ``plain``, holding an end of every plain
    edge between Z-spiders; only the caller, a colour change and identity
    removal make such edges outside fusion, which removes them all.
    """

    __slots__ = ("spiders", "adj", "todo", "plain", "blocked")

    def __init__(self, g: ZxDiagram):
        self.spiders = g.spiders
        self.adj = g.adj
        self.todo: list[set[int]] = [set(), set(), set(), set(), set()]
        self.plain: list[int] = []
        # neighbour -> the Pauli spiders copy refused for its sake
        self.blocked: dict[int, list[int]] = {}

    def touch(self, vs) -> None:
        """The phase, kind or edges of the spiders ``vs`` changed."""
        spiders, adj, blocked = self.spiders, self.adj, self.blocked
        ident, copy, lcomp, pivot, scalar = self.todo
        for v in vs:
            if blocked and v in blocked:
                copy.update(blocked.pop(v))
            s = spiders[v]
            phase = s.phase
            if s.kind != _Z or phase.params:
                continue
            row = adj[v]
            n = len(row)
            k = phase.fixed
            if k & 3:
                if not k & 1:
                    lcomp.add(v)
            else:
                pivot.add(v)
                if n == 1:
                    copy.add(v)
                if not k and (n == 2 or n == 1 and sum(*row.values()) == 2):
                    ident.add(v)  # two legs
            if n < 2 and (not n or len(adj[next(iter(row))]) == 1):
                scalar.add(v)


def _pivot_ends(wl: _Worklist, vs) -> list[int]:
    """The lower end of every pair of Pauli neighbours, one of them among
    ``vs``: the spider the pivot sweep matches the pair at."""
    spiders, adj = wl.spiders, wl.adj
    out = []
    for v in vs:
        row = adj.get(v)
        if row is None:
            continue
        s = spiders[v]
        if s.phase.fixed & 3 or s.kind != _Z or s.phase.params:
            continue
        for u in row:
            t = spiders[u]
            if not t.phase.fixed & 3 and t.kind == _Z and not t.phase.params:
                out.append(min(u, v))
    return out


def _sweep(g: ZxDiagram, wl: _Worklist, reader: int, fire, trace: Trace | None,
           ends=None) -> int:
    """Try ``fire`` in id order at the reader's worklist spiders (``ends``
    of them, if given).

    While the sweep runs, its reader's set collects what each rewrite
    touches: after the rewrite, a spider whose id lies ahead joins this
    sweep, as in one pass over every spider, and the rest wait for the next
    sweep.  The other readers' sets fill as the rewrites touch spiders.
    """
    spiders, todo = g.spiders, wl.todo
    heap = todo[reader]
    new = todo[reader] = set()
    heap = sorted(heap if ends is None else set(ends(wl, heap)))
    waiting = set()
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
        if new:
            for u in new if ends is None else ends(wl, new):
                if u > v:
                    heapq.heappush(heap, u)
                else:
                    waiting.add(u)
            new.clear()
    todo[reader] = waiting
    return applied


# -- normalisation helpers ---------------------------------------------------

def _clear_self_loops(g: ZxDiagram, v: int, trace: Trace | None) -> None:
    loops = g.adj[v].pop(v, None)
    if loops is None:
        return
    # a plain self-loop contracts to nothing; a Hadamard self-loop adds pi
    # and a 1/sqrt(2)
    had = loops[1]
    if had:
        g.spiders[v] = g.spiders[v].with_phase(g.spiders[v].phase.add_fixed(4 * had))
        g.scalar.mul_sqrt2(-had)
    if trace is not None:
        trace.record(g, RULE_HADAMARD_CANCEL, [v])


def _colour_change(g: ZxDiagram, v: int, trace: Trace | None) -> None:
    """Turn X-spider ``v`` into a Z-spider: clear its self-loops, whose kind a
    colour change keeps as both ends flip, then toggle its other edges."""
    _clear_self_loops(g, v, trace)
    adj = g.adj
    row_v = adj[v]
    for u, (plain, had) in row_v.items():
        row_v[u] = adj[u][v] = (had, plain)  # same keys: the dict keeps its order
    g.spiders[v] = Spider.of(_Z, g.spiders[v].phase)


def _reduce_parallel_h(g: ZxDiagram, u: int, v: int, trace: Trace | None) -> None:
    """Cancel Hadamard edges between two Z-spiders in pairs, 1/2 per pair."""
    row = g.adj[u].get(v)
    if not row or row[1] < 2:
        return
    pairs = row[1] // 2
    g.remove_edge(u, v, _HADAMARD, 2 * pairs)
    g.scalar.mul_sqrt2(-2 * pairs)
    if trace is not None:
        trace.record(g, RULE_HADAMARD_CANCEL, [u, v])


def _add_edge_norm(g: ZxDiagram, u: int, v: int, kind: EdgeKind, trace: Trace | None) -> None:
    """Add an edge and immediately resolve the loop/parallel it may create."""
    if u == v:
        if kind == _HADAMARD:  # a plain loop contracts to nothing
            g.add_edge(u, u, kind)
            _clear_self_loops(g, u, trace)
        return
    g.add_edge(u, v, kind)
    if kind == _HADAMARD and g.spiders[u].kind == _Z and g.spiders[v].kind == _Z:
        _reduce_parallel_h(g, u, v, trace)


def _start(g: ZxDiagram, vs: list[int], wl: _Worklist, trace: Trace | None) -> None:
    """Bring the spiders ``vs`` (ascending ids) into graph-like form, the
    rest of the diagram being graph-like already, and touch them.

    The X-spiders among them are colour-changed and every self-loop cleared
    first, in id order, touching the neighbours outside ``vs`` whose edges
    changed kind.  One pass over their rows then notes the rows other than
    single Hadamard edges; only those are read again, to list their spiders
    for fusion and to cancel parallel Hadamard edges between Z-spiders in id
    order.  A spider next to ``vs`` with no other neighbour may be one copy
    refused for that neighbour's sake, so copy gets it again.
    """
    spiders, adj = g.spiders, g.adj
    members = set(vs)
    outside = []  # the other spiders whose edges changed
    for v in [v for v in vs if spiders[v].kind == _X or v in adj[v]]:
        if spiders[v].kind == _X:
            _colour_change(g, v, trace)
            # every edge changed kind, at both of its ends
            outside += adj[v].keys() - members
        else:
            _clear_self_loops(g, v, trace)
    for v in vs:
        row_v = adj[v]
        if _ONE_H_ONLY.issuperset(row_v.values()):
            continue
        plain = doubled = False
        for row in row_v.values():
            plain = plain or row[0] > 0
            doubled = doubled or row[1] > 1
        if plain:
            wl.plain.append(v)
        if not doubled or spiders[v].kind != _Z:
            continue
        for u in [u for u, row in row_v.items() if row[1] >= 2]:
            if (u > v or u not in members) and spiders[u].kind == _Z:
                _reduce_parallel_h(g, v, u, trace)
                outside.append(u)
    wl.touch(vs)
    wl.touch(outside)
    if len(members) < len(spiders):
        wl.todo[_COPY].update(u for v in vs for u in adj[v]
                              if u not in members and len(adj[u]) == 1)


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
    queue = [(u, v) for u in sorted(rows) for v, row in adj[u].items() if row[0] and v >= u
             for _ in range(row[0])]
    applied = 0
    while queue:
        u, v = queue.pop()
        if u == v or u not in spiders or v not in spiders:
            continue
        if spiders[u].kind != _Z or spiders[v].kind != _Z:
            continue
        row = adj[u].get(v)
        if not row or not row[0]:
            continue
        if v < u:
            u, v = v, u  # lower id survives
        if row[0] > 1 or row[1]:
            adj[u][v] = adj[v][u] = (row[0] - 1, row[1])
        else:
            del adj[u][v], adj[v][u]
        # absorb v into u: remaining u-v edges become self-loops on u
        row_u = adj[u]
        changed = [u]
        for x, (plain, had) in adj.pop(v).items():
            if x != v:
                del adj[x][v]
            if x == u or x == v:
                x = u
            else:
                changed.append(x)
            # both ends written here, as ZxDiagram.set_edges would, whose
            # call's cost shows in this inner loop
            kept = row_u.get(x, NO_EDGES)
            row_u[x] = adj[x][u] = (kept[0] + plain, kept[1] + had)
        # the summed phase, a shared record when parameter-free
        pu, pv = spiders[u].phase, spiders.pop(v).phase
        if pu.params or pv.params:
            spiders[u] = Spider.of(_Z, pu.add(pv))
        else:
            spiders[u] = _Z_SPIDERS[(pu.fixed + pv.fixed) & 7]
        if trace is not None:
            trace.record(g, RULE_FUSE, [u, v])
        if u in row_u:
            _clear_self_loops(g, u, trace)
        doubled = []
        for x, row in row_u.items():
            if row[0]:
                queue.append((u, x))
            if row[1] >= 2:
                doubled.append(x)
        for x in doubled:
            if spiders[x].kind == _Z:
                _reduce_parallel_h(g, u, x, trace)
        wl.touch(changed)
        applied += 1
    return applied


def _identity_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    s = g.spiders[v]
    if s.kind != _Z or s.phase.fixed or s.phase.params:
        return False
    adj = g.adj
    row_v = adj[v]
    # two legs: one edge to each of two neighbours, or two edges to one
    if len(row_v) == 2:
        (x, row_x), (y, row_y) = row_v.items()
        if sum(row_x) != 1 or sum(row_y) != 1:
            return False
        kind = _PLAIN if row_x == row_y else _HADAMARD
        del adj[y][v]
    elif len(row_v) == 1:
        ((x, row_x),) = row_v.items()
        if sum(row_x) != 2:
            return False
        y = x
        kind = _HADAMARD if row_x[0] == 1 else _PLAIN
    else:
        return False
    del adj[x][v], adj[v], g.spiders[v]
    _add_edge_norm(g, x, y, kind, trace)
    if kind == _PLAIN:
        wl.plain.append(x)
    if trace is not None:
        trace.record(g, RULE_IDENTITY, [v, x, y])
    wl.touch((x, y))
    return True


def _shift_phase(spiders: dict, t: int, k: int) -> None:
    """Add ``k`` pi/4 to the phase of Z-spider ``t``: a parameter-free
    record is read from the table of shared ones."""
    phase = spiders[t].phase
    if phase.params:
        spiders[t] = spiders[t].with_phase(phase.add_fixed(k))
    else:
        spiders[t] = _Z_SPIDERS[(phase.fixed + k) & 7]


def _copy_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    spiders = g.spiders
    s = spiders[v]
    if s.kind != _Z or s.phase.params or s.phase.fixed & 3:
        return False
    adj = g.adj
    row_v = adj[v]
    if len(row_v) != 1:
        return False
    ((w, row),) = row_v.items()
    if row[0]:
        return False  # a plain leg: fusion's job
    sw = spiders[w]
    a = s.phase.fixed >> 2
    # e^(i*a*beta) would depend on the assignment when w has parameters
    if sw.kind != _Z or a and sw.phase.params:
        wl.blocked.setdefault(w, []).append(v)
        return False
    others = []
    for t, row in adj[w].items():
        if t != v:
            if row[0] or spiders[t].kind != _Z:
                wl.blocked.setdefault(w, []).append(v)
                return False
            others.append(t)
    # pushing the X-basis state through w: each neighbour gains a*pi,
    # w and the copier disappear
    if a:
        g.scalar.mul_phase8(sw.phase.fixed)
    g.scalar.mul_sqrt2(1 - len(others))
    for t in others:
        del adj[t][w]
        if a:
            _shift_phase(spiders, t, 4)
    del adj[v], adj[w], spiders[v], spiders[w]
    if trace is not None:
        trace.record(g, RULE_COPY, [v, w] + others)
    wl.touch(others)
    return True


def _interior(g: ZxDiagram, v: int) -> bool:
    """Every neighbour of ``v`` is a Z-spider: no boundary wire."""
    spiders = g.spiders
    for u in g.adj[v]:
        if spiders[u].kind != _Z:
            return False
    return True


def _toggle_pairs(g: ZxDiagram, pairs, trace: Trace | None) -> None:
    """Toggle the Hadamard edge between each pair of Z-spiders: add it where
    there is none, cancel it with a factor 1/2 where there is one.  Both ends
    are written here, not by ``ZxDiagram.set_edges``: in this inner loop of
    pivoting the call's cost shows."""
    adj = g.adj
    for s, t in pairs:
        row_s = adj[s]
        if t not in row_s:
            row_s[t] = adj[t][s] = (0, 1)
            continue
        del row_s[t], adj[t][s]
        g.scalar.mul_sqrt2(-2)
        if trace is not None:
            trace.record(g, RULE_HADAMARD_CANCEL, [s, t])


def _lcomp_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    spiders = g.spiders
    s = spiders[v]
    k = s.phase.fixed
    if k != 2 and k != 6 or s.kind != _Z or s.phase.params:
        return False
    adj = g.adj
    row_v = adj[v]
    for t in row_v:
        if spiders[t].kind != _Z:
            return False  # a boundary wire
    nbrs = sorted(row_v)
    n = len(nbrs)
    shift = 6 if k == 2 else 2
    # v goes; each neighbour's phase shifts, as in _shift_phase, and the edge
    # between each pair of neighbours toggles, as in _toggle_pairs: the cost
    # of their calls shows here
    del adj[v], spiders[v]
    scalar = g.scalar
    for i, t in enumerate(nbrs):
        phase = spiders[t].phase
        if phase.params:
            spiders[t] = spiders[t].with_phase(phase.add_fixed(shift))
        else:
            spiders[t] = _Z_SPIDERS[(phase.fixed + shift) & 7]
        row_t = adj[t]
        del row_t[v]
        for x in nbrs[i + 1:]:
            if x not in row_t:
                row_t[x] = adj[x][t] = _ONE_H
                continue
            del row_t[x], adj[x][t]
            scalar.mul_sqrt2(-2)
            if trace is not None:
                trace.record(g, RULE_HADAMARD_CANCEL, [t, x])
    # after the cancels, so that their trace entries hold only their own factor
    scalar.mul_phase8(1 if k == 2 else 7)
    scalar.mul_sqrt2((n - 1) * (n - 2) // 2)
    if trace is not None:
        trace.record(g, RULE_LCOMP, [v] + nbrs)
    wl.touch(nbrs)
    return True


def _pivot_at(g: ZxDiagram, wl: _Worklist, u: int, trace: Trace | None) -> bool:
    spiders = g.spiders
    su = spiders[u]
    if su.kind != _Z or su.phase.params or su.phase.fixed & 3:
        return False
    if not _interior(g, u):
        return False
    adj = g.adj
    for v in sorted(adj[u]):
        if v <= u:
            continue
        sv = spiders[v]
        if sv.phase.params or sv.phase.fixed & 3:
            continue
        if not _interior(g, v):
            continue
        a, b = su.phase.fixed >> 2, sv.phase.fixed >> 2
        nu = adj[u].keys() - {v}
        nv = adj[v].keys() - {u}
        common = sorted(nu & nv)
        only_u = sorted(nu - nv)
        only_v = sorted(nv - nu)
        for ts, k in ((only_u, 4 * b), (only_v, 4 * a), (common, 4 * (a + b + 1))):
            if k & 7:
                for t in ts:
                    _shift_phase(spiders, t, k)
        g.remove_spider(u)
        g.remove_spider(v)
        pairs = [(x, y) for x in only_u for y in only_v]
        pairs += [(x, z) for x in only_u for z in common]
        pairs += [(y, z) for y in only_v for z in common]
        _toggle_pairs(g, pairs, trace)
        # after the cancels, so that their trace entries hold only their own factor
        if a and b:
            g.scalar.mul_phase8(4)
        p, q, r = len(only_u), len(only_v), len(common)
        g.scalar.mul_sqrt2(p * q + p * r + q * r + 1 - p - q - 2 * r)
        if trace is not None:
            trace.record(g, RULE_PIVOT, [u, v] + only_u + only_v + common)
        wl.touch(only_u + only_v + common)
        return True
    return False


@functools.lru_cache(maxsize=512)
def _component_value(ka: int, kb: int | None = None) -> ScalarC:
    """Value of a component of one spider of phase ``ka`` (``kb`` None) or of
    two, joined by one Hadamard edge.  Shared: the caller must not change
    it."""
    value = ScalarC.one().plus(ScalarC.from_phase8(ka))
    if kb is not None:
        value = value.plus(ScalarC.from_phase8(kb))
        value = value.plus(ScalarC.from_phase8((ka + kb + 4) % 8))
        value.mul_sqrt2(-1)
    return value


def _scalar_elim_pass(g: ZxDiagram, wl: _Worklist, trace: Trace | None) -> int:
    """Evaluate connected components of one or two spiders."""
    spiders, adj = g.spiders, g.adj
    comps: dict[int, tuple[int, ...]] = {}
    todo, wl.todo[_SCALAR] = wl.todo[_SCALAR], set()
    for v in todo:
        row = adj.get(v)
        if row is None or len(row) > 1:
            continue
        if not row:
            comps[v] = (v,)
            continue
        (u,) = row
        if len(adj[u]) == 1:
            comps[min(u, v)] = (min(u, v), max(u, v))
    applied = 0
    for _, comp in sorted(comps.items()):
        if any(spiders[v].kind == _BOUNDARY or spiders[v].phase.params
               for v in comp):
            continue
        value = _component_value(*(spiders[v].phase.fixed for v in comp))
        for v in comp:
            g.remove_spider(v)
        g.scalar.mul(value)
        if trace is not None:
            trace.record(g, RULE_SCALAR_ELIM, comp)
        applied += 1
        if g.scalar.is_zero:
            break
    return applied


# -- drivers -----------------------------------------------------------------

def simplify_in_place(g: ZxDiagram, touched=None, trace: Trace | None = None) -> None:
    """Simplify ``g`` in place, every rule application valid for all
    assignments of its boolean parameters.

    ``g`` must be simplified except at ``touched``: the spiders whose
    phase, kind or edges changed since ``g`` was last simplified, including
    any added since.  Only they start on the worklist, and only they may be
    X-spiders or carry self-loops or parallel edges.  ``None`` puts every
    spider on it.
    """
    touched = sorted(g.spiders) if touched is None else sorted(set(touched))
    if trace is not None:
        trace.mark = g.scalar.copy()
    wl = _Worklist(g)
    # only a changed spider can be an X-spider or have a loop or parallel edge
    _start(g, touched, wl, trace)
    todo = wl.todo
    while True:
        if g.scalar.is_zero:
            if not g.inputs and not g.outputs:
                for v in list(g.spiders):
                    g.remove_spider(v)
            return
        # a pass runs only when the worklist handed it a spider to look at
        while True:
            fired = _fuse_pass(g, wl, trace)
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
        if todo[_PIVOT] and _sweep(g, wl, _PIVOT, _pivot_at, trace, _pivot_ends):
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
