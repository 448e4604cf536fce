#!/usr/bin/env python3
"""Choosing how many parts to cut a diagram into: the planner prices
candidate k = 1, 2, 3, ... with the projected-runtime model, stops at the
first k that prices no lower than the cheapest so far, and keeps the
cheapest, so partitioning never looks worse than plain decomposition.  It
plans each connected component of the simplified diagram alone and merges
the results, so components that are already apart cost no cuts and no
search between them, and a component too small for any split to pay
(alpha*(t+1) <= 4) is not searched at all."""
import json

from zxcut import (CompoundSpec, CostModel, choose_k, clifford_simplify,
                   diagram_from_circuit, gen_compound, plug)

# five dense 6-qubit blocks joined by a handful of CNOTs: internally hard,
# mutually almost independent
spec = CompoundSpec(blocks=5, qubits_per_block=6, depth_per_block=150,
                    external_cnots=8, block_sigma=1.0, seed=11)
circ = gen_compound(spec)
n = circ.n_qubits
g = clifford_simplify(plug(diagram_from_circuit(circ), "+" * n, "+" * n))
print(f"compound circuit: {n} qubits, {circ.depth} gates; "
      f"after Clifford reduction t = {g.t_count()}, {len(g.spiders)} spiders")

cm = CostModel()
plan = choose_k(g, cm)
print(f"\nchosen k = {plan.k} with {len(plan.cut_spiders)} cut spiders")
print(f"per part (t_i, c_i): {plan.per_part}")
print(f"S_precomp  = {plan.s_precomp:,.0f} calculations")
print(f"S_crossref = {plan.s_crossref:,} calculations")
print(f"direct decomposition would project 2^(alpha*t) = {plan.s_decomp:,.0f}")
print(f"projected runtimes: smart {plan.t_smart_est:.3f}s "
      f"vs direct {plan.t_direct_est:,.1f}s")

print("\nregroup schedule (pair, collective parameter count):")
for i, j, p in plan.schedule:
    print(f"  regroup segments {i} and {j}: 2^{p} products")

print("\nfull plan as JSON:")
print(json.dumps(plan.to_json_dict(), indent=2)[:600], "...")
