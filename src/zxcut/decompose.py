"""Recursive stabiliser decomposition of parameter-free scalar diagrams.

T-spiders are consumed two at a time by exchanging the pair for a sum of two
Clifford terms, with full Clifford simplification between steps; a lone
leftover T-spider falls back to a one-spider two-term split.  The term
coefficients are solved numerically against the dense tensor of the T-state
pattern instead of being hard-coded, and checked to machine precision.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagram import EdgeKind, Phase, SpiderKind, ZxDiagram
from .scalars import ScalarC
from .simplify import clifford_simplify, simplify_in_place
from .tensor import solve_identity, tensor_of


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
    g.spiders[v].phase = g.spiders[v].phase.add_fixed(k)


def _pair_merge(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    # both spiders lose their pi/4 and fuse through a fresh S-spider
    v1, v2 = vs
    _shift(g, v1, -1)
    _shift(g, v2, -1)
    z = g.add_spider(SpiderKind.Z, Phase(2))
    g.add_edge(z, v1, EdgeKind.PLAIN)
    g.add_edge(z, v2, EdgeKind.PLAIN)


def _pair_flip(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    # both spiders lose their pi/4 and connect through an X(pi)
    v1, v2 = vs
    _shift(g, v1, -1)
    _shift(g, v2, -1)
    m = g.add_spider(SpiderKind.X, Phase(4))
    g.add_edge(m, v1, EdgeKind.PLAIN)
    g.add_edge(m, v2, EdgeKind.PLAIN)


def _single_down(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    _shift(g, vs[0], -1)


def _single_up(g: ZxDiagram, vs: tuple[int, ...]) -> None:
    _shift(g, vs[0], +1)


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
    """Fallback for an odd leftover T-spider: Z(pi/4) = x*Z(0) + y*Z(pi/2)."""
    return _solve_terms(1, [("down", _single_down), ("up", _single_up)])


class LeafCapError(RuntimeError):
    """More leaves were evaluated than ``DecomposeStats.leaf_cap`` allows."""


@dataclass
class DecomposeStats:
    """Counts of a decomposition, summed over every call it is passed to;
    the call that evaluates leaf number ``leaf_cap + 1`` raises
    :class:`LeafCapError`."""

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


def decompose_to_scalar(
    d: ZxDiagram,
    decomposition: Decomposition | None = None,
    stats: DecomposeStats | None = None,
) -> ScalarC:
    """Reduce a parameter-free scalar diagram to its complex value.

    Depth-first over the decomposition tree, re-simplifying after every
    exchange; zero-scalar branches are pruned on the spot.  A term may change
    only the spiders it targets and those it adds, since simplification
    resumes from there.  ``stats``, if given, counts the leaves and caps
    them at ``stats.leaf_cap``.
    """
    if d.inputs or d.outputs:
        raise ValueError("decompose_to_scalar needs a scalar diagram")
    if d.params or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("decompose_to_scalar needs a parameter-free diagram")
    pair_rule = decomposition or derive_two_t_coefficients()
    single_rule = derive_one_t_coefficients()

    total = ScalarC.zero()
    first = clifford_simplify(d)
    if stats is not None:
        stats.t_initial = first.t_count()
    stack = [first]
    while stack:
        g = stack.pop()
        if g.scalar.is_zero or not g.spiders:
            if stats is not None:
                stats.leaves += 1
                if stats.leaves > stats.leaf_cap:
                    raise LeafCapError(f"evaluated {stats.leaves} leaves, past the "
                                       f"cap of {stats.leaf_cap:.3g}")
            total = total.plus(g.scalar)
            continue
        ts = sorted([v for v, s in g.spiders.items() if s.phase.fixed & 1])
        if not ts:
            raise AssertionError("Clifford scalar diagram failed to fully reduce")
        if len(ts) >= pair_rule.t_cost:
            rule, targets = pair_rule, _pick_t_pair(g, ts)
        else:
            rule, targets = single_rule, (ts[0],)
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
