"""Dense tensor evaluation of small ZX-diagrams.

This is the ground truth every rewrite is checked against, so it contracts
the diagram straight from the spider definitions and knows nothing about
the simplifier.  A Z-spider of phase alpha is |0...0> + e^(i*alpha)|1...1>,
a copy tensor, so each spider is one index: weight (1, e^(i*alpha)), and an
X-spider is a Z-spider with a Hadamard on every leg.  A boundary vertex is
one open index.  An edge is the matrix H^e between its ends' indices, e =
its own Hadamard plus one per X end, mod 2; a self-loop is that matrix's
diagonal.  Contraction order is greedy (absorb the factor that grows the
open frontier least) with a hard cap of ``MAX_LEGS`` open indices; a factor
whose indices are all open already is multiplied in elementwise.
"""
from __future__ import annotations

import numpy as np

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .scalars import phase8_complex

# module names cost a fraction of the enum class lookups
_X, _BOUNDARY, _HADAMARD = SpiderKind.X, SpiderKind.BOUNDARY, EdgeKind.HADAMARD

_H = np.array([[1, 1], [1, -1]], dtype=complex) * 2.0 ** -0.5
_I = np.eye(2, dtype=complex)
_NO_WEIGHT = np.ones(2)
MAX_LEGS = 22  # open indices of a contraction frontier: 2^22 complex entries


class TensorSizeError(RuntimeError):
    pass


def tensor_of(d: ZxDiagram):
    """Contract the diagram to a dense matrix of shape (2^outputs, 2^inputs),
    or a single complex number when the boundary is empty.

    The first listed output/input wire is the most significant bit.  Rejects
    diagrams that still carry boolean parameters and diagrams whose
    contraction frontier would exceed ``MAX_LEGS`` open indices.
    """
    if d.params or d.param_coeffs or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("diagram contains unassigned parameters")
    if len(d.inputs) + len(d.outputs) > MAX_LEGS:
        raise TensorSizeError("too many boundary wires for dense evaluation")

    # factors: (tensor, index of each axis); spider v is index col[v]
    col = {v: i for i, v in enumerate(d.spiders)}
    weights = {v: np.array([1, phase8_complex(s.phase.fixed)])
               for v, s in d.spiders.items() if s.kind != _BOUNDARY}
    factors: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for u, v, kind in d.edges():
        e = (kind == _HADAMARD) + sum(d.spiders[w].kind == _X for w in (u, v))
        m = _H if e % 2 else _I
        if u == v:
            factors.append((np.diagonal(m) * weights.pop(u, _NO_WEIGHT), (col[u],)))
        else:
            m = m * weights.pop(u, _NO_WEIGHT)[:, None] * weights.pop(v, _NO_WEIGHT)
            factors.append((m, (col[u], col[v])))
    factors += [(w, (col[v],)) for v, w in weights.items()]

    # the greedy works on arrays: each factor's axes, a 1-index one padded by a blank
    blank = len(col)
    axes = np.array([ends + (blank,) * (2 - len(ends)) for _, ends in factors],
                    dtype=np.intp).reshape(-1, 2)
    keep = np.zeros(blank + 1, dtype=bool)
    keep[[col[b] for b in d.inputs + d.outputs]] = True
    pending = np.bincount(axes.ravel(), minlength=blank + 1)  # unabsorbed factors per index
    pending[blank] = 0  # the blank is never pending, kept or open
    left = np.ones(len(factors), dtype=bool)
    acc = np.ones((), dtype=complex)
    front: list[int] = []
    for _ in factors:
        # least growth (indices opened minus closed), then most shared (0-2), then first
        is_open = np.zeros(blank + 1, dtype=bool)
        is_open[front] = True
        opens = ~is_open & ((pending > 1) | keep)
        closes = is_open & (pending == 1) & ~keep
        score = 3 * (opens[axes].sum(1) - closes[axes].sum(1)) - is_open[axes].sum(1)
        pick = int(np.flatnonzero(left)[np.argmin(score[left])])
        left[pick] = False
        tensor, ends = factors[pick]
        pending[list(ends)] -= 1
        both = list(dict.fromkeys(front + list(ends)))
        out = [l for l in both if pending[l] or keep[l]]
        if len(out) > MAX_LEGS:
            raise TensorSizeError(f"contraction frontier exceeded {MAX_LEGS} indices")
        if len(both) == len(front):
            # every index of the factor is open: an elementwise product,
            # then a sum over the indices it closes, which einsum's generic
            # loop does several times slower
            where = [front.index(l) for l in ends]
            if where != sorted(where):
                tensor = tensor.T
            shape = [1] * len(front)
            for i in where:
                shape[i] = 2
            acc *= tensor.reshape(shape)
            closed = tuple(i for i, l in enumerate(front) if l not in out)
            if closed:
                acc = acc.sum(axis=closed)
        else:
            labels = {l: i for i, l in enumerate(both)}  # einsum sublists need small labels
            acc = np.einsum(acc, [labels[l] for l in front], tensor, [labels[l] for l in ends],
                            [labels[l] for l in out])
        front = out

    acc = acc * d.scalar.to_complex()
    if not d.inputs and not d.outputs:
        return complex(acc)
    acc = np.transpose(acc, [front.index(col[b]) for b in d.outputs + d.inputs])
    return acc.reshape(2 ** len(d.outputs), 2 ** len(d.inputs))


def solve_identity(terms: list[np.ndarray], target: np.ndarray, name: str) -> np.ndarray:
    """Least-squares ``x`` with ``sum_i x[i] * terms[i] == target``, to 1e-12."""
    basis = np.stack(terms, axis=1)
    sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
    resid = np.linalg.norm(basis @ sol - target)
    if resid > 1e-12:
        raise RuntimeError(f"{name} solve failed, residual {resid}")
    return sol
