"""The cutting decomposition: replace a spider by a boolean-parameterised
pair of branches whose two assignments sum back to the original tensor.

Cutting a degree-n Z-spider detaches its legs into n degree-1 spiders that
all carry the same fresh parameter, at an overall cost of 2 terms per cut.
The per-assignment weight splits as ``nu^n * mu * e^(i*a*alpha)``; ``nu`` and
``mu`` are solved numerically once, on first use, from the cut identity on
one- and two-legged spiders rather than hard-coded.

``cut_spiders`` is the one builder of parameterised pieces and cut weights,
for one spider (``cut_spider``) and for a partition plan's cut spiders.
"""
from __future__ import annotations

import functools

import numpy as np

from .diagram import EdgeKind, Phase, SpiderKind, ZxDiagram
from .scalars import ScalarC, phase8_complex
from .simplify import _clear_self_loops, _colour_change
from .tensor import solve_identity, tensor_of


@functools.lru_cache(maxsize=1)
def cut_normalization() -> tuple[float, complex]:
    """Per-leg factor ``nu`` and global factor ``mu`` of the cut identity.

    Solved from  Z_n(0) = sum_a s_a * (pieces)  for n = 1, 2, where each
    piece is a parameter-bit spider on one leg.  The residual must be at
    machine precision or the piece templates are wrong.
    """

    def star(n: int, a: int | None) -> np.ndarray:
        d = ZxDiagram()
        outs = [d.add_spider(SpiderKind.BOUNDARY) for _ in range(n)]
        d.outputs = outs
        if a is None:
            v = d.add_spider(SpiderKind.Z)
            for b in outs:
                d.add_edge(v, b, EdgeKind.PLAIN)
        else:
            for b in outs:
                piece = d.add_spider(SpiderKind.Z, Phase(4 * a))
                d.add_edge(piece, b, EdgeKind.HADAMARD)
        t = tensor_of(d)
        return np.asarray(t).reshape(-1)

    coeffs = []
    for n in (1, 2):
        sol = solve_identity([star(n, 0), star(n, 1)], star(n, None), "cut identity")
        if abs(sol[0] - sol[1]) > 1e-12:
            raise RuntimeError("phase-0 cut weights should not depend on the bit")
        coeffs.append(complex(sol[0]))
    nu = coeffs[1] / coeffs[0]
    mu = coeffs[0] ** 2 / coeffs[1]
    return abs(nu), complex(mu)


def mul_cut_weight(scalar: ScalarC, degree: int) -> None:
    """Multiply ``scalar`` by ``nu^degree * mu``, the assignment-independent
    weight of cutting a spider with ``degree`` legs; ``nu`` goes in as an
    exact sqrt(2) power when it is one."""
    nu, mu = cut_normalization()
    half_pow = round(2 * np.log2(nu))
    if abs(nu - 2.0 ** (half_pow / 2)) < 1e-12:
        scalar.mul_sqrt2(half_pow * degree)
    else:
        scalar.mul_complex(nu ** degree)
    scalar.mul_complex(mu)


def cut_spider(d: ZxDiagram, v: int, p: int) -> ZxDiagram:
    """Cut spider ``v``, introducing fresh boolean parameter ``p``."""
    return cut_spiders(d, {v: p})


def cut_spiders(d: ZxDiagram, params: dict[int, int]) -> ZxDiagram:
    """Cut every spider ``v`` in ``params`` in id order on one copy of ``d``,
    each into one degree-1 piece per leg carrying fresh boolean parameter
    ``params[v]``; summing over both values of every parameter reproduces
    the original tensor.  X-spiders are colour-changed first; a parameterised
    phase is unfused onto a neighbour so the per-assignment weight stays a
    plain complex number."""
    out = d.copy()
    for v, p in sorted(params.items()):
        if v not in out.spiders or out.spiders[v].kind == SpiderKind.BOUNDARY:
            raise ValueError(f"{v} is not a spider that can be cut")
        if p in out.params:
            raise ValueError(f"parameter {p} already in use")
        if out.spiders[v].kind == SpiderKind.X:
            _colour_change(out, v, None)
        else:
            _clear_self_loops(out, v, None)
        s = out.spiders[v]  # after the helpers, which can change its phase
        if s.phase.params:
            w = out.add_spider(SpiderKind.Z, Phase(0, s.phase.params))
            out.add_edge(v, w, EdgeKind.PLAIN)

        legs: list[tuple[int, EdgeKind]] = []
        for u, row in sorted(out.adj[v].items()):
            legs += [(u, EdgeKind.PLAIN)] * row[0] + [(u, EdgeKind.HADAMARD)] * row[1]
        out.remove_spider(v)
        for u, kind in legs:
            piece = out.add_spider(SpiderKind.Z, Phase(0, frozenset({p})))
            out.add_edge(piece, u, EdgeKind(1 - kind))
        mul_cut_weight(out.scalar, len(legs))
        out.params.add(p)
        out.param_coeffs[p] = (1 + 0j, phase8_complex(s.phase.fixed))
    return out


def instantiate(d: ZxDiagram, assignment: dict[int, int]) -> ZxDiagram:
    """Resolve a subset of the diagram's parameters to bits, each 0 or 1.

    A bit of 1 adds pi to every spider carrying the parameter; the
    parameter's pending cut weight multiplies into the global scalar.
    """
    for p, bit in assignment.items():
        if p not in d.params:
            raise ValueError(f"unknown parameter {p}")
        if bit != 0 and bit != 1:
            raise ValueError(f"parameter {p} needs a bit 0 or 1, got {bit!r}")
    out = d.copy()
    assigned = set(assignment)
    spiders = out.spiders
    for v, s in spiders.items():
        hit = s.phase.params & assigned
        if hit:
            shift = 4 * sum(assignment[p] for p in hit)
            spiders[v] = s.with_phase(Phase(s.phase.fixed + shift, s.phase.params - assigned))
    for p, bit in assignment.items():
        coeffs = out.param_coeffs.pop(p, None)
        if coeffs is not None:
            out.scalar.mul_complex(coeffs[1] if bit else coeffs[0])
        out.params.discard(p)
    return out


def cut_cost(cut_set) -> int:
    """Number of summand terms induced by a set of cuts: 2^|cuts|."""
    return 2 ** len(cut_set)
