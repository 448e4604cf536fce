#!/usr/bin/env python3
"""The heart of the method: precompute each segment's scalar table over its
local parameters only, then contract tables pairwise, cheapest pair first.

Worked here on a hand-built four-segment system with parameter sets
{a,b,c} / {a..f} / {d..i} / {g,h,i}: regrouping needs 2^6 + 2^6 + 2^3 = 136
products where the naive global sum grinds through 2^9 = 512."""
from numpy.random import default_rng

from zxcut import Segment, ScalarC, naive_global_sum, plan_schedule, regroup_all

rng = default_rng(0)


def random_segment(params):
    size = 2 ** len(params)
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return Segment(tuple(sorted(params), ), [ScalarC(v) for v in vals])


parts = [set(range(0, 3)), set(range(0, 6)), set(range(3, 9)), set(range(6, 9))]
segments = [random_segment(p) for p in parts]
print("segment tables:", [f"2^{len(p)}" for p in parts],
      "=", sum(2 ** len(p) for p in parts), "entries precomputed in total")

schedule, s_crossref = plan_schedule(parts)
print(f"\npredicted schedule: {schedule}")
print(f"predicted S_crossref = {s_crossref} products "
      f"(naive global sum: 2^9 = {2 ** 9})")

result = regroup_all(segments)
running = 0
for i, j, p in result.steps:
    running += 2 ** p
    print(f"  step {[i, j]}: 2^{p} = {2 ** p} products, running total {running}")
print(f"\nregrouped value: {result.value.to_complex():.6f}")

# the brute-force oracle sums the product over all 2^9 assignments;
# regrouping leaves the input tables untouched, so they can be reused
want = naive_global_sum(segments)
print(f"naive global sum: {want:.6f}")
print(f"cost: {result.s_crossref} vs {2 ** 9} products for the same number")
