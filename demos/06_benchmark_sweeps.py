#!/usr/bin/env python3
"""Reproduce the shape of the benchmark sweeps at desk scale: projected
log2 runtimes against CNOT spread, and the qubits x depth grid.  The same
data is available from the command line:

    zxcut sweep-sigma --qubits 20 --depth 200 --sigmas 0,1,2,3,inf --samples 5
    zxcut sweep-heatmap --qubits 10..30:10 --depths 100..400:100 --sigma 2

Full-scale grids stay runnable because everything here is estimate-only.
"""
import math

from zxcut import (CircuitSpec, CostModel, choose_k, clifford_simplify,
                   diagram_from_circuit, gen_clifford_t, plug)
from zxcut.engine import method_seconds

cm = CostModel()
samples = 5


def projected(n, d, sigma, seed):
    circ = gen_clifford_t(CircuitSpec(n, d, sigma, seed))
    g = clifford_simplify(plug(diagram_from_circuit(circ), "+" * n, "+" * n))
    prices = method_seconds(choose_k(g, cm), cm)
    return prices["direct"], prices["naive"], prices["smart"]


print("log2 projected seconds at 20 qubits x 200 gates, by CNOT spread")
print(f"{'sigma':>6} {'direct':>9} {'naive':>9} {'smart':>9}")
for sigma in (0.0, 1.0, 2.0, 3.0, math.inf):
    acc = [0.0, 0.0, 0.0]
    for i in range(samples):
        vals = projected(20, 200, sigma, 900 + i)
        for j, v in enumerate(vals):
            acc[j] += math.log2(v) / samples
    label = "inf" if math.isinf(sigma) else f"{sigma:g}"
    print(f"{label:>6} {acc[0]:>9.2f} {acc[1]:>9.2f} {acc[2]:>9.2f}")

print("\nlog2 projected seconds (direct | smart) over a small grid, sigma=2")
depths = (100, 200, 400)
print(f"{'n':>4} " + " ".join(f"{f'd={d}':>15}" for d in depths))
for n in (10, 16, 22):
    cells = []
    for d in depths:
        tot_direct = tot_smart = 0.0
        for i in range(samples):
            direct, _, smart = projected(n, d, 2.0, 500 + i)
            tot_direct += math.log2(direct) / samples
            tot_smart += math.log2(smart) / samples
        cells.append(f"{tot_direct:>7.1f}|{tot_smart:<7.1f}")
    print(f"{n:>4} " + " ".join(cells))

print("\nLower is faster; the gap between the columns is the payoff of")
print("partitioned evaluation, widest at small sigma.")
