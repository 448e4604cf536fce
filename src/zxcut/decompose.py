"""Recursive stabiliser decomposition of parameter-free scalar diagrams.

T-spiders are consumed two at a time by exchanging the pair for a sum of two
Clifford terms, with full Clifford simplification between steps, which never
leaves exactly one T-spider.  The pair is the two T-spiders with the most
shared neighbours that are not T-spiders, ties to the smallest symmetric
difference of their neighbourhoods, then to the lowest ids.  Like the
decompositions of Kissinger, van de Wetering & Vilmart (TQC 2022) it looks
for T-spiders that share a neighbour, but counts only the Pauli ones, which
both terms let simplification shrink (``_pick_t_pair``).  Each extra term
rewrites a copy of the node, sharing its immutable spider records.  The term
coefficients are solved numerically against the dense tensor of the T-state
pattern instead of being hard-coded, and checked to machine precision.

The tree ends early: a simplified node, which is graph-like, with at most
``DENSE_MAX_SPIDERS`` spiders is one leaf, whose value is a path sum over
its spiders (Amy, "Towards large-scale functional verification of universal
quantum circuits", QPL 2018) that ``_path_sum`` evaluates exactly, in integer
steps over tables of about 4 * 2^(n/2) numbers.  Only larger nodes branch.
``tensor.tensor_of`` stays the independent oracle: neither calls the other.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagram import EdgeKind, Phase, SpiderKind, ZxDiagram
from .scalars import ScalarC, phase8_complex
from .simplify import clifford_simplify, simplify_in_place
from .tensor import solve_identity, tensor_of

# module names cost a fraction of the enum class lookups
_Z, _X, _PLAIN = SpiderKind.Z, SpiderKind.X, EdgeKind.PLAIN
_S, _PI = Phase(2), Phase(4)


@dataclass(frozen=True)
class DecompTerm:
    name: str
    coefficient: ScalarC
    apply: Callable[[ZxDiagram, tuple[int, ...]], None]


@dataclass(frozen=True)
class Decomposition:
    """A rule consuming ``t_cost`` T-spiders for a sum of len(terms) Clifford
    replacements; efficiency alpha = log2(#terms)/t_cost."""

    t_cost: int
    terms: tuple[DecompTerm, ...]

    @property
    def alpha_nominal(self) -> float:
        return math.log2(len(self.terms)) / self.t_cost


def _shift(g: ZxDiagram, v: int, k: int) -> None:
    g.spiders[v] = g.spiders[v].with_phase(g.spiders[v].phase.add_fixed(k))


def _pair_merge(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    # both spiders lose their pi/4 and fuse through a fresh S-spider
    v1, v2 = vs
    _shift(g, v1, -1)
    _shift(g, v2, -1)
    z = g.add_spider(_Z, _S)
    g.add_edge(z, v1, _PLAIN)
    g.add_edge(z, v2, _PLAIN)


def _pair_flip(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    # both spiders lose their pi/4 and connect through an X(pi)
    v1, v2 = vs
    _shift(g, v1, -1)
    _shift(g, v2, -1)
    m = g.add_spider(_X, _PI)
    g.add_edge(m, v1, _PLAIN)
    g.add_edge(m, v2, _PLAIN)


def _template_tensor(n_legs: int, applier, coeff: complex | None) -> np.ndarray:
    """Tensor over ``n_legs`` wires of the (replaced) T-state pattern."""
    d = ZxDiagram()
    outs = [d.add_spider(SpiderKind.BOUNDARY) for _ in range(n_legs)]
    d.outputs = outs
    targets = []
    for b in outs:
        v = d.add_spider(SpiderKind.Z, Phase(1))
        d.add_edge(v, b, EdgeKind.PLAIN)
        targets.append(v)
    if applier is not None:
        applier(d, tuple(targets))
    return np.asarray(tensor_of(d)).reshape(-1)


def _solve_terms(n_legs: int, appliers: list[tuple[str, Callable]]) -> Decomposition:
    sol = solve_identity([_template_tensor(n_legs, fn, None) for _, fn in appliers],
                         _template_tensor(n_legs, None, None), "stabiliser template")
    terms = tuple(
        DecompTerm(name, ScalarC(complex(c)), fn)
        for (name, fn), c in zip(appliers, sol)
    )
    return Decomposition(n_legs, terms)


@functools.lru_cache(maxsize=1)
def derive_two_t_coefficients() -> Decomposition:
    """The 2-T -> 2-term decomposition, coefficients solved numerically."""
    return _solve_terms(2, [("mergeS", _pair_merge), ("flipX", _pair_flip)])


@functools.lru_cache(maxsize=1)
def derive_one_t_coefficients() -> Decomposition:
    """Z(pi/4) = x*Z(0) + y*Z(pi/2), which the tree never needs (module docstring)."""
    return _solve_terms(1, [("down", lambda g, vs: _shift(g, vs[0], -1)),
                            ("up", lambda g, vs: _shift(g, vs[0], +1))])


class LeafCapError(RuntimeError):
    """The next leaf would pass ``DecomposeStats.leaf_cap``."""


@dataclass
class DecomposeStats:
    """Counts of a decomposition.  ``leaves`` is summed over every call it is
    passed to; a call raises :class:`LeafCapError` instead of evaluating a
    leaf past ``leaf_cap``.  ``t_initial`` is the T-count of the last call's
    simplified diagram."""

    leaves: int = 0
    t_initial: int = 0
    leaf_cap: float = math.inf


def _pick_t_pair(g: ZxDiagram, ts: list[int]) -> tuple[int, int]:
    """The pair of T-spiders with the most shared neighbours that are not
    T-spiders, ties to the smallest symmetric difference of the two
    neighbourhoods (the pair itself left out), then to the lowest ids.

    Above the dense cutoff every simplified spider that is not a T-spider
    is a Pauli spider.  One next to both spiders of the pair loses both
    edges in the ``mergeS`` term and gains a Clifford neighbour in the
    ``flipX`` term, so simplification shrinks both children.

    The candidates come from the spiders that are not T-spiders: each adds
    one to every pair of its T neighbours, which counts the first key of
    every pair that shares one.  Only the pairs with the top count are
    compared by the symmetric difference.  Every pair of ``ts`` (ascending
    ids) is compared only when no two T-spiders share such a neighbour."""
    adj = g.adj
    tset = set(ts)
    shared = collections.Counter()
    for v, row in adj.items():
        if v not in tset:
            tn = row.keys() & tset
            if len(tn) > 1:
                shared.update(itertools.combinations(sorted(tn), 2))
    if shared:
        top = max(shared.values())
        pairs = sorted(pair for pair, n in shared.items() if n == top)
    else:
        pairs = itertools.combinations(ts, 2)
    # minus the symmetric difference of N_a and N_b without a and b themselves
    best, pair = None, None
    for a, b in pairs:
        na, nb = adj[a].keys(), adj[b].keys()
        key = 2 * len(na & nb) + 2 * (b in na) - len(na) - len(nb)
        if best is None or key > best:
            best, pair = key, (a, b)
    return pair


# A tree node with at most this many spiders is a leaf, evaluated exactly by
# ``_path_sum``; branching it would cost two simplifications and a copy per
# step.  Chosen from a sweep over 20-28 on the direct, random and compound
# benchmark workloads (BENCH_dense_leaves_26.json): random's op_s.p50 levels
# off from 24 and compound's is flat; direct's falls to 26, holds at 27 and
# falls again at 28, a step that would move the inputs of the tests sized
# to reach this cutoff's branch and cut paths once more.
DENSE_MAX_SPIDERS = 26

_W4 = np.array([phase8_complex(k) for k in range(4)])  # w^0 .. w^3, w = e^(i*pi/4)


def _rotations() -> np.ndarray:
    """[c, rho, k]: the coefficient of w^c in w^(rho + k).  An element of
    Z[w] is kept as its integer coefficients of w^0 .. w^3, since w^4 = -1."""
    e = np.arange(8)[:, None] + np.arange(4)
    table = np.zeros((4, 8, 4), np.float32)
    table[e % 4, np.arange(8)[:, None], np.arange(4)] = 1 - 2 * (e // 4 % 2)
    return table


# (_ROTATE @ F).reshape(4, -1) lists the rotations by w^0 .. w^7 of a table F
# of elements of Z[w], one per column, as 8 blocks of columns
_ROTATE = _rotations().reshape(32, 4)
_ONEHOT = np.ascontiguousarray(_rotations()[:, :, 0])  # column r: w^r
# _SUM[c, 8k + rho]: the coefficient of w^c in w^(k + rho), exact in float64
_SUM = _rotations().transpose(0, 2, 1).reshape(4, 32).astype(np.float64)
_POW2 = 1 << np.arange(32)
# The low half of the spiders is transformed in blocks of at most this many.
# Each block is one matmul per coefficient with a sign table of at most
# 64 x 64, and up to 29 spiders none does more than 2^18 multiply-adds, which
# OpenBLAS runs on one thread: a two-thread matmul of 2^20 took up to 68 ms,
# against 0.1 ms on one, in timings on a 2-core VM.  The whole half as one
# block would be a 2^(n/2)-square matmul, 37x slower at 24 spiders.  A loop
# bound, not a size switch: every leaf runs the same body.
_BLOCK = 6


@functools.cache
def _hadamard(m: int) -> np.ndarray:
    """The read-only 2^m x 2^m Walsh-Hadamard matrix, (-1)^(x.y) at [y, x]."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    signs = (1 - 2 * ((bits @ bits.T) & 1)).astype(np.float32)
    signs.flags.writeable = False
    return signs


@functools.cache
def _layout(n: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """How ``_path_sum`` groups n spiders: the low half (the first n // 2) in
    blocks of at most ``_BLOCK``, largest first, then the high half in two
    quarters.  Returns (first row, size) per group, and the read-only 0/1
    table whose 2^size rows from a group's first row are the assignments of
    its spiders (bit i of the row offset is its i-th spider), 0 in other
    columns."""
    lo = n // 2
    k = -(-lo // _BLOCK) or 1  # n = 1 has one empty block
    sizes = [lo // k + (i < lo % k) for i in range(k)] + [(n - lo) // 2, n - lo - (n - lo) // 2]
    rows = np.zeros((sum(1 << s for s in sizes), n), np.float32)
    groups = []
    at = col = 0
    for s in sizes:
        rows[at:at + (1 << s), col:col + s] = (np.arange(1 << s)[:, None] >> np.arange(s)) & 1
        groups.append((at, s))
        at += 1 << s
        col += s
    rows.flags.writeable = False
    return tuple(groups), rows


def _add_block(F: np.ndarray, p: int, b: int, r: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The transform F over the first p spiders of the low half, extended by
    the next b: for each assignment x of those, with exponent r[x] and edge
    parities m[x] into the first p, F read at z xor m[x] for every z and
    rotated by w^r[x], then transformed over the b spiders."""
    rotated = (_ROTATE @ F.reshape(4, -1)).reshape(4, -1)
    read = (r[:, None] << p) | (np.arange(1 << p) ^ (m[:, None] & ((1 << p) - 1)))
    rotated = rotated.take(read, axis=1)
    del read  # freed before the matmul allocates, to keep a leaf's peak memory low
    return _hadamard(b) @ rotated


def _path_sum(g: ZxDiagram) -> ScalarC:
    """The exact value of a graph-like scalar diagram: its scalar times
    sqrt(2)^-|E| * sum_x w^(k.x) * (-1)^(sum over edges uv of x_u*x_v).

    The exponent of x is r(x) = x.M.x mod 8, M = diag(k) + 2 * adjacency.
    The spiders, in id order, are split into a low half L and a high half
    H, and the sum is sum over x_H of w^r(x_H) * F[y(x_H)]: F is the
    Walsh-Hadamard transform of w^r over L, read at the parities y(x_H) of
    x_H's edges into L.  F is built one block of L at a time: for each
    assignment x_b of the next block, the transform over the earlier spiders
    read at z xor (x_b's edge parities into them) and rotated by w^r(x_b),
    then transformed over the block by one matmul with a sign table.  H is
    split into two quarters, whose exponents, parities and edges between
    them combine as outer sums and xors of 2^(n/4)-row tables.  So no step
    handles more than about 4 * 2^(n/2) numbers, and none multiplies
    2^(n/2)-row bit tables.

    Every number is an integer, so the value is exact and the same whatever
    the grouping: the coefficients of F (float32) are at most 2^(n/2) < 2^24
    in magnitude, and the sums over H (float64) at most 2^n.  Raises
    AssertionError on anything but Z-spiders without parameters joined by
    single Hadamard edges without self-loops.
    """
    vs = sorted(g.spiders)
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    M = np.zeros((n, n), np.float32)
    ends = 0
    spiders, adj = g.spiders, g.adj
    for i, v in enumerate(vs):
        s = spiders[v]
        if s.kind != _Z or s.phase.params:
            raise AssertionError(f"path sum needs graph-like input, got {s!r}")
        M[i, i] = s.phase.fixed
        nbrs = adj[v]
        ends += len(nbrs)
        for u, row in nbrs.items():
            if u == v or row[0] or row[1] != 1:
                raise AssertionError(f"path sum needs graph-like input, got "
                                     f"edges {row} between {v} and {u}")
            M[i, pos[u]] = 2
    lo = n // 2
    groups, rows = _layout(n)
    # per row x of each group: r(x), and its edge parities into L as bits
    xm = rows @ M
    r = (xm * rows).sum(1).astype(np.intp) & 7
    y = ((xm[:, :lo].astype(np.intp) & 2) @ _POW2[:lo]) >> 1
    (at, p), *blocks = groups[:-2]
    F = _ONEHOT.take(r[at:at + (1 << p)], axis=1) @ _hadamard(p)
    for at, b in blocks:
        x = slice(at, at + (1 << b))
        F = _add_block(F, p, b, r[x], y[x])
        p += b
    (at_c, c), (at_d, d) = groups[-2:]
    C, D = slice(at_c, at_c + (1 << c)), slice(at_d, at_d + (1 << d))
    # F read at the parities into L of each x_H, a 2^d x 2^c table of them
    F = F.reshape(4, -1).take((y[D, None] ^ y[C]).reshape(-1), axis=1)
    # r over H: each quarter's own, plus 4 per edge between them
    cols = slice(lo + c, n)
    r_h = 2 * rows[D, cols] @ xm[C, cols].T
    r_h += r[D, None]
    r_h += r[C]
    r_h = r_h.astype(np.intp).reshape(-1) & 7
    # by_rot[8k + rho]: coefficient k of F summed over the x_H with r(x_H) = rho
    by_rot = np.concatenate([np.bincount(r_h, coeffs, 8) for coeffs in F])
    total = _SUM @ by_rot
    if not total.any():
        return ScalarC.zero()
    return g.scalar.times(ScalarC(complex(total @ _W4), -(ends // 2)))


def decompose_to_scalar(
    d: ZxDiagram,
    decomposition: Decomposition | None = None,
    stats: DecomposeStats | None = None,
) -> ScalarC:
    """Reduce a parameter-free scalar diagram to its complex value.

    Depth-first over the decomposition tree, re-simplifying after every
    exchange; zero-scalar branches are pruned on the spot, and a node with at
    most ``DENSE_MAX_SPIDERS`` spiders is a leaf evaluated by ``_path_sum``.
    A term may change only the spiders it targets and those it adds, since
    simplification resumes from there.  ``stats``, if given, counts the
    leaves and caps them at ``stats.leaf_cap``.
    """
    if d.inputs or d.outputs:
        raise ValueError("decompose_to_scalar needs a scalar diagram")
    if d.params or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("decompose_to_scalar needs a parameter-free diagram")
    rule = decomposition or derive_two_t_coefficients()

    total = ScalarC.zero()
    first = clifford_simplify(d)
    if stats is not None:
        stats.t_initial = first.t_count()
    stack = [first]
    while stack:
        g = stack.pop()
        if g.scalar.is_zero or len(g.spiders) <= DENSE_MAX_SPIDERS:
            if stats is not None:
                if stats.leaves + 1 > stats.leaf_cap:
                    raise LeafCapError(f"evaluated {stats.leaves} leaves, the cap "
                                       f"of {stats.leaf_cap:.3g}; one more is due")
                stats.leaves += 1
            if not g.scalar.is_zero:
                total = total.plus(_path_sum(g))
            continue
        ts = sorted([v for v, s in g.spiders.items() if s.phase.fixed & 1])
        if len(ts) < 2:
            raise AssertionError(f"a simplified scalar diagram kept {len(ts)} "
                                 f"T-spiders above the dense cutoff")
        targets = _pick_t_pair(g, ts)
        # every term but the last rewrites its own copy; the last rewrites g
        branches = [g] + [g.copy() for _ in rule.terms[1:]]
        for term, branch in zip(reversed(rule.terms), branches):
            fresh = branch._next
            term.apply(branch, targets)
            branch.scalar.mul(term.coefficient)
            simplify_in_place(branch, [*targets, *range(fresh, branch._next)])
            stack.append(branch)
    return total


def measure_alpha(sample_diagrams) -> tuple[float, float]:
    """Measured efficiency log2(leaves)/t over a sample, as (mean, std dev).

    This is the leaf exponent of the tree as ``decompose_to_scalar`` builds
    it, dense leaves included: a diagram with at most ``DENSE_MAX_SPIDERS``
    spiders after simplification takes one leaf and adds a ratio of 0.
    Requires at least 10 diagrams of T-count >= 8 after simplification;
    Clifford-only inputs are rejected since the ratio is undefined.
    """
    ratios = []
    qualifying = 0
    for d in sample_diagrams:
        stats = DecomposeStats()
        decompose_to_scalar(d, stats=stats)
        t = stats.t_initial
        if t == 0:
            raise ValueError("Clifford-only diagram in alpha sample (t=0)")
        ratios.append(math.log2(max(stats.leaves, 1)) / t)
        if t >= 8:
            qualifying += 1
    if not ratios:
        raise ValueError("empty sample")
    if qualifying < 10:
        raise ValueError(f"need >= 10 diagrams with t >= 8, got {qualifying}")
    mean = sum(ratios) / len(ratios)
    var = sum((r - mean) ** 2 for r in ratios) / len(ratios)
    return mean, math.sqrt(var)
