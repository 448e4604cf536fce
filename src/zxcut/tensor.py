"""Dense tensor evaluation of small ZX-diagrams.

This is the ground truth every rewrite is checked against, so it contracts
spider tensors directly from their definitions and knows nothing about the
simplifier.  Contraction order is greedy (absorb the node sharing the most
legs with the frontier first) with a hard cap of ``MAX_LEGS`` open legs.
"""
from __future__ import annotations

import numpy as np

from .diagram import EdgeKind, SpiderKind, ZxDiagram
from .scalars import phase8_complex

_SQRT2_INV = 2.0 ** -0.5
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV
MAX_LEGS = 22  # open legs of a contraction frontier: 2^22 complex entries


class TensorSizeError(RuntimeError):
    pass


def _spider_tensor(kind: SpiderKind, fixed: int, degree: int) -> np.ndarray:
    ph = phase8_complex(fixed)
    if kind == SpiderKind.Z:
        t = np.zeros([2] * degree, dtype=complex) if degree else np.zeros((), dtype=complex)
        t.flat[0] += 1
        t.flat[-1] += ph
        return t
    # X(alpha) entry at bits b: 2^(-n/2) * (1 + e^(i*alpha) * (-1)^|b|)
    idx = np.arange(2 ** degree)
    parity = np.zeros(2 ** degree, dtype=np.int64)
    for k in range(degree):
        parity ^= (idx >> k) & 1
    flat = (1 + ph * np.where(parity, -1.0, 1.0)) * 2.0 ** (-degree / 2)
    return flat.reshape([2] * degree)


def tensor_of(d: ZxDiagram):
    """Contract the diagram to a dense matrix of shape (2^outputs, 2^inputs),
    or a single complex number when the boundary is empty.

    The first listed output/input wire is the most significant bit.  Rejects
    diagrams that still carry boolean parameters and diagrams whose
    contraction frontier would exceed ``MAX_LEGS`` open legs.
    """
    if d.params or d.param_coeffs or any(s.phase.params for s in d.spiders.values()):
        raise ValueError("diagram contains unassigned parameters")
    if len(d.inputs) + len(d.outputs) > MAX_LEGS:
        raise TensorSizeError("too many boundary wires for dense evaluation")

    # nodes: (tensor, leg ids); every edge instance gets one leg id, and a
    # Hadamard edge applies H to that leg's axis at its first end (H is
    # symmetric, so this holds for a Hadamard self-loop too)
    nodes: list[tuple[np.ndarray, list[int]]] = []
    spider_legs: dict[int, list[int]] = {v: [] for v in d.spiders}
    h_axes: dict[int, list[int]] = {v: [] for v in d.spiders}
    next_leg = 0
    for u, v, kind in d.edges():
        if kind == EdgeKind.HADAMARD:
            h_axes[u].append(len(spider_legs[u]))
        spider_legs[u].append(next_leg)
        spider_legs[v].append(next_leg)
        next_leg += 1

    ext_legs: dict[int, int] = {}
    for b in d.inputs + d.outputs:
        ext_legs[b] = next_leg
        next_leg += 1

    for v, s in d.spiders.items():
        legs = spider_legs[v]
        if s.kind == SpiderKind.BOUNDARY:
            t, legs = np.eye(2, dtype=complex), [legs[0], ext_legs[v]]
        else:
            t = _spider_tensor(s.kind, s.phase.fixed, len(legs))
        for axis in h_axes[v]:
            t = np.moveaxis(np.tensordot(t, _H, axes=(axis, 0)), -1, axis)
        nodes.append((t, legs))

    keep = set(ext_legs.values())
    acc = np.ones((), dtype=complex)
    acc_legs: list[int] = []
    remaining = list(range(len(nodes)))
    while remaining:
        # greedy: most shared legs first, fewest new legs as tie-break
        front = set(acc_legs)

        def _score(i: int) -> tuple[int, int, int]:
            legs = nodes[i][1]
            shared = sum(1 for l in legs if l in front)
            return (-shared, len(legs) - shared, i)

        pick = min(remaining, key=_score)
        remaining.remove(pick)
        tensor, legs = nodes[pick]
        out = [l for l in acc_legs if l not in legs or l in keep]
        out += [l for l in legs if l not in acc_legs and (legs.count(l) == 1 or l in keep)]
        if len(out) > MAX_LEGS:
            raise TensorSizeError(f"contraction frontier exceeded {MAX_LEGS} legs")
        # einsum sublist mode needs small integer labels
        labels = {l: i for i, l in enumerate(dict.fromkeys(acc_legs + legs + out))}
        acc = np.einsum(acc, [labels[l] for l in acc_legs],
                        tensor, [labels[l] for l in legs],
                        [labels[l] for l in out])
        acc_legs = out

    acc = acc * d.scalar.to_complex()
    if not d.inputs and not d.outputs:
        return complex(acc)
    order = [acc_legs.index(ext_legs[b]) for b in d.outputs + d.inputs]
    acc = np.transpose(acc, order)
    return acc.reshape(2 ** len(d.outputs), 2 ** len(d.inputs))


def solve_identity(terms: list[np.ndarray], target: np.ndarray, name: str) -> np.ndarray:
    """Least-squares ``x`` with ``sum_i x[i] * terms[i] == target``, to 1e-12."""
    basis = np.stack(terms, axis=1)
    sol, *_ = np.linalg.lstsq(basis, target, rcond=None)
    resid = np.linalg.norm(basis @ sol - target)
    if resid > 1e-12:
        raise RuntimeError(f"{name} solve failed, residual {resid}")
    return sol
