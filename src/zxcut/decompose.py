"""Recursive stabiliser decomposition of parameter-free scalar diagrams.

T-spiders are consumed two at a time by exchanging the pair for a sum of two
Clifford terms, with full Clifford simplification between steps, which never
leaves exactly one T-spider.  Each extra term rewrites a copy of the node,
sharing its immutable spider records.  The term coefficients are solved
numerically against the dense tensor of the T-state pattern instead of being
hard-coded, and checked to machine precision.

The tree ends early: a simplified node, which is graph-like, with at most
``DENSE_MAX_SPIDERS`` spiders is one leaf, whose value is a path sum over
its spiders (Amy, "Towards large-scale functional verification of universal
quantum circuits", QPL 2018) that ``_path_sum`` evaluates exactly in about
2^(n/2) rows of numpy work.  Only larger nodes branch.  ``tensor.tensor_of``
stays the independent oracle: neither calls the other.
"""
from __future__ import annotations

import functools
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
    """The two T-spiders with the most shared neighbourhood, ties by id."""
    adj = g.adj
    nbrs = [adj[v].keys() for v in ts]
    best, pair = -1, None
    for i, n1 in enumerate(nbrs):
        if len(n1) <= best:
            continue  # no pair with this spider can share more
        for j in range(i + 1, len(ts)):
            n2 = nbrs[j]
            if len(n2) > best:
                shared = len(n1 & n2)
                if shared > best:
                    best, pair = shared, (ts[i], ts[j])
    return pair


# A tree node with at most this many spiders is a leaf, evaluated exactly by
# ``_path_sum`` in about 2^(n/2) rows of work; branching it would cost two
# simplifications and a copy per step.  Chosen from a sweep over 16-22 on the
# direct, random and compound benchmark workloads (BENCH_dense_leaves.json).
DENSE_MAX_SPIDERS = 20

_W4 = np.array([phase8_complex(k) for k in range(4)])  # w^0 .. w^3, w = e^(i*pi/4)
# exponent rho + r of w^rho * w^r, for the rotation by H's own exponent rho
_ROTATED = ((np.arange(8)[:, None] + np.arange(4)) % 8).ravel()


@functools.cache
def _assignments(m: int) -> np.ndarray:
    """All 2^m assignments of m bits as the 0/1 rows of a read-only float
    array; bit i of the row index is column i."""
    bits = ((np.arange(1 << m)[:, None] >> np.arange(m)) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


@functools.cache
def _hadamard(m: int) -> np.ndarray:
    """The read-only 2^m x 2^m Walsh-Hadamard matrix, (-1)^(x.y) at [y, x]."""
    bits = _assignments(m)
    signs = 1.0 - 2 * ((bits @ bits.T).astype(np.intp) & 1)
    signs.flags.writeable = False
    return signs


def _residues(bits: np.ndarray, phase: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """For each assignment x in ``bits``, the r in 0..7 with
    w^r = w^(phase.x) * (-1)^(x.upper.x), ``upper`` being the strictly
    upper-triangular Hadamard adjacency of the spiders."""
    quad = ((bits @ upper) * bits).sum(axis=1)
    return (bits @ phase + 4 * quad).astype(np.intp) & 7


def _path_sum(g: ZxDiagram) -> ScalarC:
    """The exact value of a graph-like scalar diagram: its scalar times
    sqrt(2)^-|E| * sum_x w^(k.x) * (-1)^(sum over edges uv of x_u*x_v).

    The spiders, in id order, are split into a low half L and a high half H.
    The sum over L is tabulated per assignment as integer coefficients of
    w^0 .. w^3 (w^r for r >= 4 is -w^(r-4)) and Walsh-Hadamard transformed,
    as two matrix products with the Kronecker factors of the transform, one
    over L's low bits and one over its high bits.  For each x_H the result
    is read at the parities y = C^T x_H of x_H's edges into L, then rotated
    by H's own exponent.  Every number before the final rounding is an
    integer of magnitude at most 2^(n+3), which float64 holds, adds and
    multiplies exactly in any order.  Raises AssertionError on anything but
    Z-spiders without parameters joined by single Hadamard edges without
    self-loops.
    """
    vs = sorted(g.spiders)
    n = len(vs)
    pos = {v: i for i, v in enumerate(vs)}
    phase = np.empty(n)
    upper = np.zeros((n, n))
    edges = 0
    for i, v in enumerate(vs):
        s = g.spiders[v]
        if s.kind != _Z or s.phase.params:
            raise AssertionError(f"path sum needs graph-like input, got {s!r}")
        phase[i] = s.phase.fixed
        for u, row in g.adj[v].items():
            if u == v or row[0] or row[1] != 1:
                raise AssertionError(f"path sum needs graph-like input, got "
                                     f"edges {row} between {v} and {u}")
            if u > v:
                upper[i, pos[u]] = 1
                edges += 1
    lo = n // 2
    lo_bits, hi_bits = _assignments(lo), _assignments(n - lo)
    r_lo = _residues(lo_bits, phase[:lo], upper[:lo, :lo])
    coeffs = np.zeros((1 << lo, 4))
    coeffs[np.arange(1 << lo), r_lo % 4] = 1 - 2 * (r_lo >> 2)
    # coeffs[y] = sum_x (-1)^(x.y) coeffs[x]: the high bits of x, then the low
    low = lo // 2
    coeffs = _hadamard(lo - low) @ coeffs.reshape(1 << (lo - low), -1)
    coeffs = (_hadamard(low) @ coeffs.reshape(1 << (lo - low), 1 << low, 4)).reshape(-1, 4)
    y = ((hi_bits @ upper[:lo, lo:].T).astype(np.intp) & 1) @ (1 << np.arange(lo))
    r_hi = _residues(hi_bits, phase[lo:], upper[lo:, lo:])
    # by_rot[rho, r]: coefficients of w^r summed over the x_H whose own
    # exponent is rho, then each moved to w^(rho + r)
    by_rot = (r_hi == np.arange(8)[:, None]) @ coeffs[y]
    c = np.bincount(_ROTATED, by_rot.ravel(), 8)
    d = c[:4] - c[4:]
    if not d.any():
        return ScalarC.zero()
    return g.scalar.times(ScalarC(complex(d @ _W4), -edges))


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
