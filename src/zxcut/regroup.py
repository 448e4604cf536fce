"""Precomputed segment tables and cheapest-first pairwise regrouping.

A segment is the reduction of one partition part: a table of 2^c scalars
indexed by its c local cut parameters (first parameter in ascending id order
= most significant bit).  Segments are contracted pairwise, always picking
the connected pair with the fewest collective local parameters; parameters
appearing in no third segment are summed out by the step.

A table is stored once, when its segment is built, as a read-only ``(2,)*c``
complex array (one axis per parameter in ascending id order) with one shared
sqrt(2) exponent.  Every step is one batched ``np.matmul``: the parameters
both tables keep are the batch, the ones the step sums out are the inner
dimension.  After each step the result is rescaled by an exact power of two
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


def shared_exponent(coeffs: list[complex], pows: list[int]
                    ) -> tuple[np.ndarray, int]:
    """The table of values ``coeffs[n] * sqrt(2)**pows[n]`` as one flat
    complex array and one shared sqrt(2) exponent: the largest exponent of a
    nonzero entry.  Refuses a table whose entries span so much that the
    smallest would turn subnormal or zero."""
    base = max(itertools.compress(pows, coeffs), default=0)
    if min(itertools.compress(pows, coeffs), default=0) - base < -_MAX_POW_SPREAD:
        raise ValueError("table entries span more than 2^1020 in magnitude; "
                         "a shared exponent would flush the smallest to zero")
    # only a zero entry can lie above the base; its factor stays finite
    shift = np.minimum(np.subtract(pows, base), 0)
    return np.array(coeffs, dtype=complex) * np.exp2(0.5 * shift), base


class Segment:
    """A table of 2^c scalars over ``local_params`` (sorted), held as the
    read-only ``(2,)*c`` array ``array`` times ``sqrt(2)**sqrt2_pow``."""

    __slots__ = ("local_params", "array", "sqrt2_pow")

    def __init__(self, local_params, scalars: list[ScalarC]):
        if len(scalars) != 2 ** len(local_params):
            raise ValueError("table length must be 2^(number of local parameters)")
        arr, pow_ = shared_exponent([s.coeff for s in scalars],
                                    [s.sqrt2_pow for s in scalars])
        self._set(local_params, arr, pow_)

    @classmethod
    def from_array(cls, local_params, array, sqrt2_pow: int) -> "Segment":
        """A segment over ``local_params`` whose table is ``array`` (2^c
        finite entries, first parameter = most significant bit) times
        ``sqrt(2)**sqrt2_pow``.  The array is not copied: the caller must not
        write to it afterwards."""
        arr = np.asarray(array, dtype=complex)
        if arr.size != 2 ** len(local_params):
            raise ValueError("table length must be 2^(number of local parameters)")
        if not np.isfinite(arr).all():
            raise ValueError("table entries must be finite")
        seg = cls.__new__(cls)
        seg._set(local_params, arr, sqrt2_pow)
        return seg

    def _set(self, local_params, arr: np.ndarray, sqrt2_pow: int) -> None:
        self.local_params = tuple(sorted(local_params))
        if len(set(self.local_params)) < len(self.local_params):
            raise ValueError("local parameters must be distinct")
        if not float(sqrt2_pow).is_integer():
            raise ValueError("the sqrt(2) exponent must be an integer")
        self.array = arr.reshape((2,) * len(self.local_params))
        self.array.flags.writeable = False
        self.sqrt2_pow = int(sqrt2_pow)

    @property
    def scalars(self) -> list[ScalarC]:
        """The table as a flat list of scalars, built on every call."""
        return [ScalarC(z, self.sqrt2_pow) for z in self.array.reshape(-1).tolist()]


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
    # the first parameter varies slowest: the table's MSB-first order
    values = [decompose_to_scalar(instantiate(shared, dict(zip(params, bits))), stats=stats)
              for bits in itertools.product((0, 1), repeat=len(params))]
    return Segment(params, values)


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


def _contract(a: tuple[np.ndarray, int], b: tuple[np.ndarray, int],
              params_a: set[int], params_b: set[int], params_out: set[int]
              ) -> tuple[np.ndarray, int]:
    """One regroup step: sum the product of tables a and b over every shared
    parameter not in ``params_out``, which holds every parameter of only one
    of the two.  Returns the result rescaled so that its largest magnitude
    lies in [1/2, 1), with the power of two moved into the sqrt(2)
    exponent."""
    shared = params_a & params_b
    kept = sorted(shared & params_out)
    summed = sorted(shared - params_out)
    free_a = sorted(params_a - params_b)
    free_b = sorted(params_b - params_a)

    def grouped(table, params, order, shape):
        axis = {p: n for n, p in enumerate(sorted(params))}
        return table.transpose([axis[p] for p in order]).reshape(shape)

    k, s = 2 ** len(kept), 2 ** len(summed)
    arr = np.matmul(grouped(a[0], params_a, kept + free_a + summed,
                            (k, 2 ** len(free_a), s)),
                    grouped(b[0], params_b, kept + summed + free_b,
                            (k, s, 2 ** len(free_b))))
    out = kept + free_a + free_b
    arr = arr.reshape((2,) * len(out)).transpose(
        [out.index(p) for p in sorted(params_out)])
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
    tables = [(s.array, s.sqrt2_pow) for s in segments]
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
