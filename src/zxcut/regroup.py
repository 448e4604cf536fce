"""Precomputed segment tables and cheapest-first pairwise regrouping.

A segment is the reduction of one partition part: a table of 2^c scalars
indexed by its c local cut parameters (first parameter in ascending id order
= most significant bit).  Segments are contracted pairwise, always picking
the connected pair with the fewest collective local parameters; parameters
appearing in no third segment are summed out by the step.

Every step is one ``np.einsum`` over ``(2,)*c`` arrays, one axis per
parameter in ascending id order, each array carrying one shared sqrt(2)
exponent.  After each step the result is rescaled by an exact power of two
that moves into the exponent, so a long chain of steps cannot overflow.
``local_index`` is the plain reference form of the bit extraction that the
tests pin down; ``min_pair`` is the schedule's pair choice on a hypergraph.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cutting import instantiate
from .decompose import DecomposeStats, decompose_to_scalar
from .diagram import ZxDiagram
from .scalars import ScalarC
from .simplify import param_safe_simplify

NUMPY_TABLE_THRESHOLD = 2 ** 14  # selects nothing; bench/test_bench.py imports it

# An entry this many sqrt(2) powers below its table's largest is still a
# normal double in the table's shared-exponent array; further down it would
# turn subnormal or zero.
_MAX_POW_SPREAD = 2 * 1020


@dataclass
class Segment:
    local_params: tuple[int, ...]
    scalars: list[ScalarC]

    def __post_init__(self):
        self.local_params = tuple(sorted(self.local_params))
        if len(self.scalars) != 2 ** len(self.local_params):
            raise ValueError("table length must be 2^(number of local parameters)")


# -- bit indexing (Appendix-style kernel, LSB-first shift order) --------------

def local_index(global_idx: int, mask: int, n_params: int) -> int:
    """Extract the bits of ``global_idx`` selected by ``mask``.

    Both are read as bitstrings over the same ``n_params`` positions (first
    parameter = most significant bit); the extracted bits keep their order.
    """
    out = 0
    shift = 0
    for _ in range(n_params):
        if mask & 1:
            out |= (global_idx & 1) << shift
            shift += 1
        mask >>= 1
        global_idx >>= 1
    return out


def local_index_array(global_idx: np.ndarray, mask: int, n_params: int) -> np.ndarray:
    """Vectorised :func:`local_index` over an int64 array."""
    out = np.zeros_like(global_idx)
    shift = 0
    g = global_idx.copy()
    for _ in range(n_params):
        if mask & 1:
            out |= (g & 1) << shift
            shift += 1
        mask >>= 1
        g >>= 1
    return out


# -- segment precomputation ----------------------------------------------------

def precompute_segment(seg_graph: ZxDiagram,
                       stats: DecomposeStats | None = None) -> Segment:
    """Reduce one partition part to its table of 2^c scalars, one per
    assignment of ``seg_graph.params``.

    The parameter-safe simplification runs once up front so the per-assignment
    work shares a common reduced structure; each assignment is then
    instantiated and decomposed independently.
    """
    if seg_graph.inputs or seg_graph.outputs:
        raise ValueError("segment must be a scalar diagram (no boundary wires)")
    params = tuple(sorted(seg_graph.params))
    shared = param_safe_simplify(seg_graph)
    table = []
    # the first parameter varies slowest: the table's MSB-first order
    for bits in itertools.product((0, 1), repeat=len(params)):
        inst = instantiate(shared, dict(zip(params, bits)))
        table.append(decompose_to_scalar(inst, stats=stats))
    return Segment(params, table)


# -- the segment hypergraph and regrouping ------------------------------------

class SegmentHypergraph:
    """Segments as nodes, parameters as hyperedges over the segments using
    them.  Regrouped-away segments become None; indices stay stable."""

    def __init__(self, segments):
        self.segments: list[Segment | None] = list(segments)

    def param_sets(self) -> list[set[int] | None]:
        return [None if s is None else set(s.local_params) for s in self.segments]


def _cheapest_pair(sets: list[set[int] | None]) -> tuple[int, int, int] | None:
    """(p, i, j) for the connected pair of live sets with the fewest
    collective parameters p, ties broken lexicographically; None if no pair
    shares a parameter."""
    live = [i for i, s in enumerate(sets) if s is not None]
    return min(((len(sets[i] | sets[j]), i, j)
                for a, i in enumerate(live) for j in live[a + 1:]
                if sets[i] & sets[j]), default=None)


def min_pair(h: SegmentHypergraph) -> tuple[int, int, int] | None:
    """The connected segment pair (i, j, p) with the fewest collective local
    parameters p, ties broken lexicographically; None if no pair shares a
    parameter."""
    best = _cheapest_pair(h.param_sets())
    if best is None:
        return None
    p, i, j = best
    return i, j, p


def _merged(sets: list[set[int] | None], i: int, j: int) -> set[int]:
    """Parameters left open by contracting live sets i and j: those in only
    one of the two, and shared ones that a third live set also holds."""
    elsewhere = set().union(*(s for k, s in enumerate(sets)
                              if s is not None and k not in (i, j)))
    return (sets[i] ^ sets[j]) | (sets[i] & sets[j] & elsewhere)


def _table_to_array(seg: Segment) -> tuple[np.ndarray, int]:
    """A segment's table as a ``(2,)*c`` array and one shared sqrt(2)
    exponent, taken from its largest entry."""
    coeffs = np.array([s.coeff for s in seg.scalars], dtype=complex)
    pows = np.array([s.sqrt2_pow for s in seg.scalars])
    nonzero = coeffs != 0
    base = int(pows[nonzero].max()) if nonzero.any() else 0
    shift = np.where(nonzero, pows - base, 0)
    if shift.min() < -_MAX_POW_SPREAD:
        raise ValueError("table entries span more than 2^1020 in magnitude; "
                         "a shared exponent would flush the smallest to zero")
    arr = coeffs * np.exp2(0.5 * shift)
    return arr.reshape((2,) * len(seg.local_params)), base


def _contract(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int],
              params_a: set[int], params_b: set[int], params_out: set[int]
              ) -> tuple[np.ndarray, int]:
    """One regroup step: sum the product of tables a and b over every
    parameter not in ``params_out``.  Returns the result rescaled so that its
    largest magnitude lies in [1/2, 1), with the power of two moved into the
    sqrt(2) exponent."""
    label = {p: n for n, p in enumerate(params_a | params_b)}

    def axes(params):
        return [label[p] for p in sorted(params)]

    arr = np.einsum(a[0], axes(params_a), b[0], axes(params_b), axes(params_out))
    largest = float(np.abs(arr).max())
    if largest == 0:
        return arr, 0
    # clamped so that 2^-e stays finite when ``largest`` is subnormal
    e = max(math.frexp(largest)[1], -1020)
    arr *= 2.0 ** -e
    return arr, a[1] + b[1] + 2 * e


def plan_schedule(param_sets: list[set[int]]) -> tuple[list[tuple[int, int, int]], int]:
    """The regroup order, worked out from the parameter sets only.

    Returns (steps, s_crossref) where each step is (i, j, p) and s_crossref
    is the exact sum of 2^p over steps; :func:`regroup_all` executes exactly
    these steps, so predicted and executed costs agree.
    """
    live: list[set[int] | None] = [set(s) for s in param_sets]
    steps = []
    while (best := _cheapest_pair(live)) is not None:
        p, i, j = best
        steps.append((i, j, p))
        live[i], live[j] = _merged(live, i, j), None
    return steps, sum(2 ** p for _, _, p in steps)


@dataclass
class RegroupResult:
    value: ScalarC
    s_crossref: int
    steps: list[tuple[int, int, int]]


def regroup_all(segments) -> RegroupResult:
    """Contract all segments cheapest-pair-first down to one scalar, running
    the steps of :func:`plan_schedule`; the input segments stay unchanged.

    Independent groups (sharing no parameters) multiply; a parameter held by
    a single segment is summed out in place at the end, which only happens
    for degenerate synthetic inputs.
    """
    segments = list(segments)
    sets: list[set[int] | None] = [set(s.local_params) for s in segments]
    tables = [_table_to_array(s) for s in segments]
    steps, s_crossref = plan_schedule(sets)
    for i, j, _ in steps:
        merged = _merged(sets, i, j)
        tables[i] = _contract(tables[i], tables[j], sets[i], sets[j], merged)
        sets[i], sets[j], tables[j] = merged, None, None
    value = ScalarC.one()
    for table in tables:
        if table is not None:
            value.mul(ScalarC(complex(table[0].sum()), table[1]))
    return RegroupResult(value, s_crossref, steps)
