"""Clifford simplification of ZX-diagrams, full and parameter-safe.

The engine applies local rules until none fires: spider fusion, identity
removal, state copy, local complementation on interior +-pi/2 spiders,
pivoting on interior 0/pi pairs, phase-gadget fusion and direct evaluation
of tiny scalar components.  Every rule preserves the diagram's tensor
exactly, with all dropped factors folded into the global scalar.

Graph-like form (Duncan, Kissinger, Perdrix & van de Wetering, Quantum 4,
279, 2020).  The helpers that make and remove self-loops, parallel edges and
X-spiders (``_start``, ``_fuse_pass``, ``_add_edge_norm``,
``_colour_change``, ``_clear_self_loops``) accept any input and keep that:

- no self-loop outlives the rewrite that makes it;
- no two Z-spiders share more than one Hadamard edge;
- no X-spider outlives ``_start``;
- once the fuse/identity/copy loop stops, no plain edge joins two Z-spiders.

Identity removal and copy are written for a diagram without self-loops or
doubled Hadamard edges; local complementation, pivoting, gadget fusion and
scalar elimination for a simple graph of Z-spiders joined by single
Hadamard edges, with boundary wires hanging off it.

Worklist: a rule can only start to match at or next to a change, so the
rules look only at spiders on a worklist.  Every rewrite appends the spiders
whose phase, kind or edges it changed to one log, and each reader (a rule
that takes spiders from the worklist) is handed only the spiders of its
phase class that it could now match at: identity removal a phase-0 spider
with at most two neighbours, local complementation a +-pi/2 spider, copy a
Pauli spider with one neighbour, pivoting the lower end of a pair of Pauli
neighbours, gadget fusion a phase-0 spider at or next to a change, and
scalar elimination a component of at most two spiders.  The log is handed
out in batches, each read in the diagram's state at that moment: a sweep
gives its own reader the spiders of each of its rewrites at once, so that
those ahead join the sweep, and the other readers the whole sweep's log in
one flush when it ends; pivoting and gadget fusion, which run only once the
other rules stop, read the log when they are about to run.

Why the rewrites are the same as a rescan's: when a reader runs, it holds
every spider its rule matches at.  A spider that matches now either was
handed out when it last changed, in the state it is still in, or changed
since and was logged again, and every log entry is handed out before the
readers that can match at it run.  A change at a neighbour that can make
a spider match logs that neighbour, and the hand-out then looks at the
spider too: a colour change, for every rule; a neighbour's phase, for
pivoting; a neighbour's degree, for gadget fusion and scalar elimination;
and for copy any change at the copying neighbour, which hands out again
the spiders copy refused for its sake.  Each end of an edge a rewrite adds
or removes is logged.  Handing out more changes nothing: a rule refuses a
spider where it does not match.  The rules keep their priority (fusion,
identity and copy to a fixed point, then local complementation, pivoting,
gadget fusion and scalar elimination) and every sweep visits its spiders in
id order, so the rewrites are those a rescan of the whole diagram would
make, in the same order.  :func:`simplify_in_place` is the one body: a
fresh call logs every spider once ``_start`` has made the diagram
graph-like, while the decomposition tree passes only the spiders a term
changed in an already simplified diagram.  That diagram is copied once per
extra branch and rewritten in place for the last one;
:func:`clifford_simplify` and :func:`param_safe_simplify` copy their input
and leave it untouched.

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
RULE_GADGET_FUSE = "gadgetFuse"
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
_ID, _COPY, _LCOMP, _PIVOT, _GADGET, _SCALAR = range(6)

# module names for the enum members and records the hot loops read, which
# cost a fraction of an attribute lookup on the enum class
_Z, _X, _BOUNDARY = SpiderKind.Z, SpiderKind.X, SpiderKind.BOUNDARY
_PLAIN, _HADAMARD = EdgeKind.PLAIN, EdgeKind.HADAMARD
_Z_SPIDERS = _FIXED_SPIDERS[_Z]  # the parameter-free Z-spider records, by phase
_ONE_H = (0, 1)  # the edge counts of one Hadamard edge


class _Worklist:
    """Spiders whose phase, kind or edges changed, kept as one append-only
    log, and per reader the set of spiders handed to it and not yet read.

    A rule but scalar elimination matches only at a parameter-free Z-spider
    of its phase class, so that is all its reader gets; the ``_own_*``
    functions say which spiders of a batch of log entries each reader takes.
    Identity removal and local complementation look only at a spider's own
    phase and edges (and its neighbours' kinds, which only a colour change
    alters, logging them too), so they get logged spiders alone.  So does
    scalar elimination, which also reads the one neighbour's degree: a
    change there logs that neighbour, and a component of two is found from
    either end.  Copy needs a Pauli spider with one neighbour; its match
    also depends on that neighbour, so a spider it refused for the
    neighbour's sake waits in ``blocked`` until the neighbour is logged.
    Pivoting needs a pair of Pauli neighbours, one of them changed, and
    gadget fusion a phase-0 hub at or next to a change, since a neighbour's
    degree decides which neighbour is the hub's carrier.  ``flush`` hands
    the entries since its last call to identity removal, copy, local
    complementation and scalar elimination, and ``flush_late`` to pivoting
    and gadget fusion, which run only once the others stop, just before they
    run.  Fusion has a list of its own, ``plain``, holding an end of every
    plain edge between Z-spiders; only the caller, a colour change and
    identity removal make such edges outside fusion, which removes them all.
    """

    __slots__ = ("spiders", "adj", "log", "done", "late", "todo", "plain", "blocked")

    def __init__(self, g: ZxDiagram):
        self.spiders = g.spiders
        self.adj = g.adj
        self.log: list[int] = []
        self.done = 0  # the log entries handed out by ``flush``
        self.late = 0  # the log entries handed out by ``flush_late``
        self.todo: list[set[int]] = [set(), set(), set(), set(), set(), set()]
        self.plain: list[int] = []
        # Pauli spiders with one neighbour that copy refused for that
        # neighbour's sake; a change there hands them out again
        self.blocked: set[int] = set()

    def touch(self, *vs: int) -> None:
        """The phase, kind or edges of the spiders ``vs`` changed."""
        self.log.extend(vs)

    def flush(self, skip: int = -1) -> None:
        """Hand the spiders logged since the last flush to identity removal,
        copy, local complementation and scalar elimination, but not to
        ``skip``."""
        log, done = self.log, self.done
        if done == len(log):
            return
        self.done = len(log)
        window = set(log[done:])
        for reader in (_ID, _COPY, _LCOMP, _SCALAR):
            if reader != skip:
                self.todo[reader].update(_OWN[reader](self, window))

    def unblocked(self, window: set[int]) -> list[int]:
        """The blocked spiders next to ``window``, now no longer blocked."""
        adj = self.adj
        out = [u for u in self.blocked if u in adj and not adj[u].keys().isdisjoint(window)]
        self.blocked.difference_update(out)
        return out

    def flush_late(self) -> None:
        """Hand the spiders logged since the last call to pivoting and
        gadget fusion, which run only once the other rules stop."""
        log, late = self.log, self.late
        if late == len(log):
            return
        self.late = len(log)
        window = set(log[late:])
        self.todo[_PIVOT].update(_own_pivot(self, window))
        spiders, adj = self.spiders, self.adj
        near = set()  # the logged spiders and their neighbours
        for v in window:
            row = adj.get(v)
            if row is not None:
                near.add(v)
                near.update(row)
        gadget = self.todo[_GADGET]
        for u in near:
            s = spiders[u]
            if not s.phase.fixed and s.kind == _Z and not s.phase.params:
                gadget.add(u)

    def take(self, reader: int) -> set[int]:
        """The spiders handed to ``reader``, leaving it none."""
        todo = self.todo[reader]
        self.todo[reader] = set()
        return todo


def _own_identity(wl: _Worklist, vs) -> list[int]:
    """The phase-0 spiders among ``vs`` with at most two neighbours."""
    spiders, adj = wl.spiders, wl.adj
    out = []
    for v in vs:
        row = adj.get(v)
        if row is not None and len(row) <= 2:
            s = spiders[v]
            if not s.phase.fixed and s.kind == _Z and not s.phase.params:
                out.append(v)
    return out


def _own_lcomp(wl: _Worklist, vs) -> list[int]:
    """The +-pi/2 spiders among ``vs``."""
    spiders = wl.spiders
    out = []
    for v in vs:
        s = spiders.get(v)
        if s is not None and s.kind == _Z and not s.phase.params:
            k = s.phase.fixed
            if k == 2 or k == 6:
                out.append(v)
    return out


def _own_copy(wl: _Worklist, vs) -> list[int]:
    """The Pauli spiders with one neighbour among ``vs``, and the blocked
    ones next to ``vs``."""
    spiders, adj = wl.spiders, wl.adj
    window = set(vs)
    out = wl.unblocked(window) if wl.blocked else []
    for v in window:
        row = adj.get(v)
        if row is not None and len(row) == 1:
            s = spiders[v]
            if not s.phase.fixed & 3 and s.kind == _Z and not s.phase.params:
                out.append(v)
    return out


def _own_pivot(wl: _Worklist, vs) -> list[int]:
    """The lower end of every pair of Pauli neighbours, one of them among
    ``vs``: the spider the pivot sweep matches the pair at."""
    spiders, adj = wl.spiders, wl.adj
    out = []
    for v in set(vs):
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


def _own_scalar(wl: _Worklist, vs) -> list[int]:
    """The spiders among ``vs`` in a component of at most two spiders."""
    adj = wl.adj
    out = []
    for v in vs:
        row = adj.get(v)
        if row is not None and len(row) < 2 and (not row or len(adj[next(iter(row))]) == 1):
            out.append(v)
    return out


# what a reader takes from a batch of log entries: a sweeping reader after
# each of its own rewrites, the others in ``flush`` or ``flush_late``
_OWN = {_ID: _own_identity, _COPY: _own_copy, _LCOMP: _own_lcomp, _PIVOT: _own_pivot,
        _SCALAR: _own_scalar}


def _sweep(g: ZxDiagram, wl: _Worklist, reader: int, fire, trace: Trace | None) -> int:
    """Try ``fire`` in id order at the reader's worklist spiders.

    After each rewrite the reader alone takes, from the entries the rewrite
    logged, the spiders it could now match at: one whose id lies ahead joins
    this sweep, as in one pass over every spider, and the rest wait for the
    next sweep.  The other readers run only after the sweep, so they are
    handed its whole log in one flush at its end, in the diagram's state
    then.  That gives each of them every spider it matches at when it runs,
    as a flush after every rewrite would: a spider that matches then changed
    at some rewrite of the sweep or before it, and a spider handed out on
    the way that stopped matching is refused by the rule.
    """
    spiders, log = g.spiders, wl.log
    own = _OWN[reader]
    heap = sorted(wl.take(reader))
    waiting = wl.todo[reader]
    applied = 0
    last = -1
    mark = len(log)
    while heap:
        v = heapq.heappop(heap)
        if v == last or v not in spiders:
            continue  # a spider pushed twice pops twice in a row
        last = v
        if not fire(g, wl, v, trace):
            continue
        applied += 1
        for u in own(wl, log[mark:]):
            if u > v:
                heapq.heappush(heap, u)
            else:
                waiting.add(u)
        mark = len(log)
    wl.flush(reader)
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
    for u, (plain, had) in list(g.adj[v].items()):
        g.set_edges(v, u, had, plain)
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
    rest of the diagram being graph-like already, and log them.

    The X-spiders among them are colour-changed and every self-loop cleared
    first, in id order, logging the neighbours outside ``vs`` whose edges
    changed kind.  One pass over their rows then notes the rows other than
    single Hadamard edges; only those are read again, to list their spiders
    for fusion and to cancel parallel Hadamard edges between Z-spiders in id
    order.  A spider next to ``vs`` with no other neighbour may be one copy
    refused for that neighbour's sake, so it waits as the blocked ones do.
    """
    spiders, adj = g.spiders, g.adj
    members = set(vs)
    for v in vs:
        if spiders[v].kind == _X:
            _colour_change(g, v, trace)
            # every edge changed kind, at both of its ends
            wl.touch(*[u for u in adj[v] if u not in members])
        elif v in adj[v]:
            _clear_self_loops(g, v, trace)
    odd = []  # the spiders with an edge entry other than one Hadamard edge
    for v in vs:
        for row in adj[v].values():
            if row != _ONE_H:
                odd.append(v)
                break
    for v in odd:
        row_v = adj[v]
        if any(row[0] for row in row_v.values()):
            wl.plain.append(v)
        if spiders[v].kind != _Z:
            continue
        for u in [u for u, row in row_v.items() if row[1] >= 2]:
            if (u > v or u not in members) and spiders[u].kind == _Z:
                _reduce_parallel_h(g, v, u, trace)
                wl.touch(u)
    wl.touch(*vs)
    if len(members) < len(spiders):
        wl.blocked.update(u for v in vs for u in adj[v]
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
    queue = [(u, v) for u in sorted(rows) for v, row in adj[u].items() if v >= u
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
        absorbed_phase = spiders[v].phase
        g.set_edges(u, v, row[0] - 1, row[1])
        # absorb v into u: remaining u-v edges become self-loops on u
        moved = list(adj[v].items())
        row_u = adj[u]
        for x, (plain, had) in moved:
            if x != v:
                del adj[x][v]
            target = u if x == u or x == v else x
            # both ends written here, as ZxDiagram.set_edges would, whose
            # call's cost shows in this inner loop
            kept = row_u.get(target, NO_EDGES)
            row_u[target] = adj[target][u] = (kept[0] + plain, kept[1] + had)
        del adj[v], spiders[v]
        spiders[u] = spiders[u].with_phase(spiders[u].phase.add(absorbed_phase))
        if trace is not None:
            trace.record(g, RULE_FUSE, [u, v])
        if u in row_u:
            _clear_self_loops(g, u, trace)
        for x, row in list(row_u.items()):
            if row[1] >= 2 and spiders[x].kind == _Z:
                _reduce_parallel_h(g, u, x, trace)
            if row[0]:
                queue.append((u, x))
        wl.touch(*[x for x, _ in moved if x != u and x != v], u)
        applied += 1
    return applied


def _identity_at(g: ZxDiagram, wl: _Worklist, v: int, trace: Trace | None) -> bool:
    s = g.spiders[v]
    if s.kind != _Z or s.phase.fixed or s.phase.params:
        return False
    row_v = g.adj[v]
    if len(row_v) > 2:
        return False
    legs = []
    for u, row in row_v.items():
        legs += [(u, _PLAIN)] * row[0] + [(u, _HADAMARD)] * row[1]
    if len(legs) != 2:
        return False
    (x, k1), (y, k2) = legs
    g.remove_spider(v)
    kind = _PLAIN if k1 == k2 else _HADAMARD
    _add_edge_norm(g, x, y, kind, trace)
    if kind == _PLAIN:
        wl.plain.append(x)
    if trace is not None:
        trace.record(g, RULE_IDENTITY, [v, x, y])
    wl.touch(x, y)
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
        wl.blocked.add(v)
        return False
    others = []
    for t, row in adj[w].items():
        if t != v:
            if row[0] or spiders[t].kind != _Z:
                wl.blocked.add(v)
                return False
            others.append(t)
    # pushing the X-basis state through w: each neighbour gains a*pi,
    # w and the copier disappear
    if a:
        g.scalar.mul_phase8(sw.phase.fixed)
        for t in others:
            _shift_phase(spiders, t, 4)
    g.scalar.mul_sqrt2(1 - len(others))
    g.remove_spider(v)
    g.remove_spider(w)
    if trace is not None:
        trace.record(g, RULE_COPY, [v, w] + others)
    wl.touch(*others)
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
    # v goes; each neighbour's phase shifts, and the edge between each pair
    # of neighbours toggles, as in _toggle_pairs, whose call's cost shows here
    del adj[v], spiders[v]
    scalar = g.scalar
    for i, t in enumerate(nbrs):
        _shift_phase(spiders, t, shift)
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
    wl.touch(*nbrs)
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
        wl.touch(*only_u, *only_v, *common)
        return True
    return False


def _gadget_at(g: ZxDiagram, h: int) -> tuple[int, frozenset[int]] | None:
    """(carrier, connectivity set) when ``h`` is the hub of a phase gadget."""
    s = g.spiders[h]
    if s.kind != _Z or s.phase.fixed or s.phase.params:
        return None
    if not _interior(g, h):
        return None
    adj = g.adj
    carriers = [t for t in adj[h] if len(adj[t]) == 1]
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
            kept = spiders[keep_c]
            spiders[keep_c] = kept.with_phase(kept.phase.add(spiders[c].phase))
            g.remove_spider(c)
            g.remove_spider(h)
            g.scalar.mul_sqrt2(1 - len(conn))
            if trace is not None:
                trace.record(g, RULE_GADGET_FUSE, [keep_h, keep_c, h, c])
            wl.touch(keep_c)
            for t in conn:
                if t in spiders:
                    wl.touch(t)
            applied += 1
    return applied


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
    for v in wl.take(_SCALAR):
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
        # a pass runs only when the worklist handed it a spider to look at;
        # a sweep flushes its log when it ends, so only fusion's is behind here
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
        wl.flush_late()  # the rest of this round logs nothing until a rule fires
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
