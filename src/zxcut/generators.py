"""Benchmark circuit families: uniform random Clifford+T, normal-spread CNOT
variants, and compound circuits (dense blocks linked by a few CNOTs).

All generation runs off numpy's default PCG64 generator seeded from the
spec, with a fixed draw order per gate (kind, then qubits), so a spec plus
seed pins the exact gate list.  The gate set is {T, S, HSH, CNOT} with equal
probability; HSH counts as one gate of the requested depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, default_rng

from .circuits import Circuit

GATE_KINDS = ("T", "S", "HSH", "CNOT")


@dataclass(frozen=True)
class CircuitSpec:
    qubits: int
    depth: int
    sigma: float = math.inf  # CNOT spread; 0 = nearest neighbour, inf = uniform
    seed: int = 0

    def __post_init__(self):
        if self.qubits < 1 or self.depth < 0:
            raise ValueError("need qubits >= 1 and depth >= 0")
        if not self.sigma >= 0:  # also refuses nan
            raise ValueError("sigma must be non-negative (or inf)")


@dataclass(frozen=True)
class CompoundSpec:
    blocks: int
    qubits_per_block: int
    depth_per_block: int
    external_cnots: int
    block_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.blocks < 2:
            raise ValueError("a compound circuit needs at least 2 blocks")
        if self.qubits_per_block < 1:
            raise ValueError("qubits_per_block must be at least 1")
        if self.depth_per_block < 0:
            raise ValueError("depth_per_block must be at least 0")
        if self.external_cnots < 0:
            raise ValueError("external_cnots must be at least 0")
        if not self.block_sigma >= 0:  # also refuses nan
            raise ValueError("block_sigma must be non-negative (or inf)")


def span_weights(sigma: float, max_dq: int) -> np.ndarray:
    """Relative probability of a CNOT spanning 1..max_dq qubits.

    P(dq) = exp(-(dq-1)^2 / (2 sigma^2)); the normal prefactor cancels under
    normalisation.  sigma = 0 degenerates to span 1, sigma = inf to uniform.
    """
    dq = np.arange(1, max_dq + 1, dtype=float)
    if sigma == 0:
        w = np.zeros(max_dq)
        w[0] = 1.0
        return w
    if math.isinf(sigma):
        return np.ones(max_dq)
    return np.exp(-((dq - 1) ** 2) / (2 * sigma ** 2))


def sample_span(rng: Generator, sigma: float, max_dq: int) -> int:
    """Draw a span from the truncated distribution over 1..max_dq."""
    w = span_weights(sigma, max_dq)
    total = w.sum()
    if total == 0:
        return 1
    return 1 + int(rng.choice(max_dq, p=w / total))


def _spread_pair(rng: Generator, n: int, sigma: float) -> tuple[int, int]:
    """A source drawn uniformly from 0..n-1 and a destination a span away,
    the span drawn from the sigma-truncated normal over the spans that fit
    and the direction uniformly from those that fit it."""
    c = int(rng.integers(n))
    dq = sample_span(rng, sigma, max(c, n - 1 - c))
    dirs = [d for d in (1, -1) if 0 <= c + d * dq < n]
    return c, c + dirs[int(rng.integers(len(dirs)))] * dq


def _place_cnot(rng: Generator, n: int, sigma: float) -> tuple[int, int]:
    if not math.isinf(sigma):
        return _spread_pair(rng, n, sigma)
    c, off = int(rng.integers(n)), int(rng.integers(n - 1))
    return c, off if off < c else off + 1


def _add_gates(circ: Circuit, rng: Generator, qubits: int, depth: int, sigma: float,
               base: int = 0) -> None:
    """Append ``depth`` gates drawn uniformly from {T, S, HSH, CNOT} on qubits
    ``base`` to ``base + qubits - 1``, CNOT targets spread by ``sigma``.  On a
    single qubit a drawn CNOT is redrawn until a one-qubit gate comes up."""
    for _ in range(depth):
        kind = int(rng.integers(4))
        while kind == 3 and qubits == 1:
            kind = int(rng.integers(4))
        if kind == 3:
            c, t = _place_cnot(rng, qubits, sigma)
            circ.add("CNOT", base + c, base + t)
        else:
            circ.add(GATE_KINDS[kind], base + int(rng.integers(qubits)))


def gen_clifford_t(spec: CircuitSpec) -> Circuit:
    """d gates drawn uniformly from {T, S, HSH, CNOT}; CNOT targets spread
    by the sigma-truncated normal."""
    circ = Circuit(spec.qubits)
    _add_gates(circ, default_rng(spec.seed), spec.qubits, spec.depth, spec.sigma)
    return circ


def gen_compound(spec: CompoundSpec) -> Circuit:
    """Vertically stacked sigma=inf blocks plus ``external_cnots`` CNOTs
    between blocks, block distance normal-distributed with block_sigma and
    within-block qubits uniform."""
    rng = default_rng(spec.seed)
    k, q = spec.blocks, spec.qubits_per_block
    circ = Circuit(k * q)
    for b in range(k):
        _add_gates(circ, rng, q, spec.depth_per_block, math.inf, b * q)
    for _ in range(spec.external_cnots):
        src, dst = _spread_pair(rng, k, spec.block_sigma)
        circ.add("CNOT", src * q + int(rng.integers(q)), dst * q + int(rng.integers(q)))
    return circ
