import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.cutting import cut_spider, instantiate
from zxcut.decompose import DecomposeStats, decompose_to_scalar
from zxcut.diagram import SpiderKind, diagram_from_circuit, plug
from zxcut.oracle import naive_global_sum
from zxcut.regroup import (Segment, SegmentHypergraph, _contract, _merged,
                           _table_to_array, local_index, local_index_array,
                           min_pair, plan_schedule, precompute_segment,
                           regroup_all)
from zxcut.scalars import ScalarC

from helpers import random_circuit


def seg(params, values):
    return Segment(tuple(params), [ScalarC(v) for v in values])


def contract_pair(segs, i, j):
    """Segments i and j contracted by the one regroup kernel, over the
    parameters they leave open; the result as a Segment."""
    sets = [set(s.local_params) for s in segs]
    merged = _merged(sets, i, j)
    arr, pow_ = _contract(_table_to_array(segs[i]), _table_to_array(segs[j]),
                          sets[i], sets[j], merged)
    return Segment(tuple(merged), [ScalarC(z, pow_) for z in arr.reshape(-1).tolist()])


def random_system(rng, k_max=6, p_max=10):
    k = int(rng.integers(2, k_max + 1))
    n_params = int(rng.integers(1, p_max + 1))
    sets = [set() for _ in range(k)]
    for p in range(n_params):
        size = int(rng.integers(2, min(k, 3) + 1))
        for m in rng.choice(k, size=size, replace=False):
            sets[int(m)].add(p)
    out = []
    for s in sets:
        c = len(s)
        vals = rng.standard_normal(2 ** c) + 1j * rng.standard_normal(2 ** c)
        out.append(seg(sorted(s), vals))
    return out


# -- local_index goldens -------------------------------------------------------

def test_local_index_worked_values():
    assert local_index(0b101, 0b110, 3) == 0b10
    assert local_index(0b101, 0b011, 3) == 0b01


def test_local_index_full_mask_is_identity():
    for n in range(1, 8):
        for g in range(2 ** n):
            assert local_index(g, 2 ** n - 1, n) == g


def test_local_index_vectorised_matches_scalar():
    rng = default_rng(0)
    for _ in range(30):
        n = int(rng.integers(1, 11))
        mask = int(rng.integers(0, 2 ** n))
        idx = np.arange(2 ** n, dtype=np.int64)
        vec = local_index_array(idx, mask, n)
        for g in range(2 ** n):
            assert vec[g] == local_index(g, mask, n)


# -- worked regrouping examples ------------------------------------------------

def test_pair_table_worked_example():
    # A=[1,2,3,4] over (a,b), B=[5,6,7,8] over (b,c):
    # AB over (a,c) = [1*5+2*7, 1*6+2*8, 3*5+4*7, 3*6+4*8] = [19,22,43,50]
    segs = [seg((0, 1), (1, 2, 3, 4)), seg((1, 2), (5, 6, 7, 8))]
    assert plan_schedule([set(s.local_params) for s in segs]) == ([(0, 1, 3)], 8)
    ab = contract_pair(segs, 0, 1)
    got = [s.to_complex().real for s in ab.scalars]
    assert got == pytest.approx([19, 22, 43, 50])
    assert ab.local_params == (0, 2)


def test_all_params_shared_with_third():
    # A and B share everything with a third segment: pure elementwise product
    a = seg((0, 1), (1, 2, 3, 4))
    b = seg((0, 1), (10, 20, 30, 40))
    c = seg((0, 1), (1, 1, 1, 1))
    ab = contract_pair([a, b, c], 0, 1)
    got = [s.to_complex().real for s in ab.scalars]
    assert got == pytest.approx([10, 40, 90, 160])
    assert ab.local_params == (0, 1)


def test_chain_regroup_costs():
    # A{a,b,c} with B{a..f} regroups via 2^6 products into AB{d,e,f}
    a = set(range(3))
    b = set(range(6))
    c = set(range(3, 9))
    d = set(range(6, 9))
    steps, total = plan_schedule([a, b, c, d])
    assert [p for _, _, p in steps] == [6, 6, 3]
    assert total == 136


def test_min_pair_chain_tie_break():
    h = SegmentHypergraph([seg((0, 1), (1,) * 4), seg((1, 2), (1,) * 4),
                           seg((2, 3), (1,) * 4)])
    assert min_pair(h) == (0, 1, 3)


def test_min_pair_requires_shared_param():
    h = SegmentHypergraph([seg((0,), (1, 2)), seg((1,), (3, 4))])
    assert min_pair(h) is None
    result = regroup_all([seg((0,), (1, 2)), seg((1,), (3, 4))])
    # independent groups multiply (after summing their own parameters out)
    assert result.value.to_complex() == pytest.approx((1 + 2) * (3 + 4))


def test_min_pair_two_segments():
    h = SegmentHypergraph([seg((0, 4), (1,) * 4), seg((4, 7), (1,) * 4)])
    assert min_pair(h) == (0, 1, 3)


def test_min_pair_agrees_with_exhaustive():
    rng = default_rng(1)
    for _ in range(200):
        segs = random_system(rng, k_max=9, p_max=9)
        h = SegmentHypergraph(segs)
        got = min_pair(h)
        best = None
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                si = set(segs[i].local_params)
                sj = set(segs[j].local_params)
                if si & sj:
                    key = (len(si | sj), i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            assert got is None
        else:
            assert got == (best[1], best[2], best[0])


def test_regroup_equals_naive_sum():
    rng = default_rng(2)
    for _ in range(200):
        segs = random_system(rng)
        copy = [Segment(s.local_params, [x.copy() for x in s.scalars]) for s in segs]
        got = regroup_all(copy).value.to_complex()
        want = naive_global_sum(segs)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_order_insensitivity():
    rng = default_rng(3)
    for _ in range(40):
        segs = random_system(rng, k_max=4, p_max=8)
        ref = regroup_all([Segment(s.local_params, [x.copy() for x in s.scalars])
                           for s in segs]).value.to_complex()
        # force a different (valid) order: regroup the *most* expensive pair first
        worst = None
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                si = set(segs[i].local_params)
                sj = set(segs[j].local_params)
                if si & sj:
                    key = (len(si | sj), i, j)
                    if worst is None or key > worst:
                        worst = key
        if worst is None:
            continue
        _, i, j = worst
        rest_segs = [contract_pair(segs, i, j) if n == i else s
                     for n, s in enumerate(segs) if n != j]
        rest = regroup_all(rest_segs).value.to_complex()
        assert abs(rest - ref) <= 1e-10 * max(1.0, abs(ref))


def test_cost_accounting_exact():
    rng = default_rng(4)
    for _ in range(40):
        segs = random_system(rng, k_max=5, p_max=8)
        result = regroup_all(segs)
        assert result.s_crossref == sum(2 ** p for _, _, p in result.steps)
        predicted_steps, predicted = plan_schedule(
            [set(s.local_params) for s in segs])
        assert result.s_crossref == predicted


def test_large_steps_and_open_parameter_match_naive_sum():
    # 15 parameters; the first step has 2^15 products and keeps parameter 14,
    # which all three segments hold, open for the second
    rng = default_rng(5)
    sets = [list(range(7)) + [14], list(range(14)), list(range(7, 15))]
    segs = []
    for ps in sets:
        size = 2 ** len(ps)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        pows = rng.integers(-2, 3, size=size)
        segs.append(Segment(tuple(ps), [ScalarC(complex(v), int(k))
                                        for v, k in zip(vals, pows)]))
    before = [(s.local_params, [(x.coeff, x.sqrt2_pow) for x in s.scalars])
              for s in segs]
    result = regroup_all(segs)
    assert [p for _, _, p in result.steps] == [15, 8]
    want = naive_global_sum(segs)
    assert abs(result.value.to_complex() - want) <= 1e-12 * max(1.0, abs(want))
    # the input tables are left as they were
    assert before == [(s.local_params, [(x.coeff, x.sqrt2_pow) for x in s.scalars])
                      for s in segs]


def test_tiny_entry_is_not_flushed_to_zero():
    # 1 * 0 + 2^-1100 * 2^1100 = 1: a shared-exponent table that flushed
    # the tiny entry would return 0 without a word
    a = Segment((0,), [ScalarC(1, 0), ScalarC(1, -2200)])
    b = Segment((0,), [ScalarC(0), ScalarC(1, 2200)])
    try:
        got = regroup_all([a, b]).value.to_complex()
    except ValueError:
        return
    assert abs(got - 1) <= 1e-12


def test_long_chain_does_not_overflow():
    # 280 segments over parameters 3i..3i+5: each step sums 8 products of
    # 1.99s, so without rescaling the tables would reach about 2^1120
    segs = [Segment(tuple(range(3 * i, 3 * i + 6)), [ScalarC(1.99)] * 64)
            for i in range(280)]
    got = regroup_all(segs).value
    want = ScalarC(1)
    want.mul_sqrt2(2 * 3 * 281)
    for _ in range(280):
        want.mul_complex(1.99)
    assert not got.is_zero
    ratio = got.coeff / want.coeff * 2.0 ** (0.5 * (got.sqrt2_pow - want.sqrt2_pow))
    assert abs(ratio - 1) <= 1e-12


def test_sequential_reference_is_reproducible():
    rng = default_rng(6)
    segs = random_system(rng, k_max=5, p_max=10)
    vals = []
    for _ in range(2):
        copy = [Segment(s.local_params, [x.copy() for x in s.scalars]) for s in segs]
        vals.append(regroup_all(copy).value.to_complex())
    assert vals[0] == vals[1]  # bit-identical across runs


# -- segment precomputation ----------------------------------------------------

def test_precompute_parameter_free():
    rng = default_rng(7)
    c = random_circuit(3, 15, rng)
    d = plug(diagram_from_circuit(c), "+++", "+++")
    s = precompute_segment(d)
    assert s.local_params == ()
    assert len(s.scalars) == 1
    want = decompose_to_scalar(d).to_complex()
    assert abs(s.scalars[0].to_complex() - want) < 1e-9


def test_precompute_three_params_matches_per_assignment():
    rng = default_rng(8)
    c = random_circuit(4, 18, rng)
    d = plug(diagram_from_circuit(c), "+" * 4, "+" * 4)
    cands = sorted(v for v, sp in d.spiders.items() if sp.kind != SpiderKind.BOUNDARY)
    picks = [int(x) for x in rng.choice(cands, 3, replace=False)]
    for p, v in enumerate(picks):
        d = cut_spider(d, v, p)
    s = precompute_segment(d)
    assert len(s.scalars) == 8
    for idx in range(8):
        asg = {p: (idx >> (2 - pos)) & 1 for pos, p in enumerate(s.local_params)}
        want = decompose_to_scalar(instantiate(d, asg)).to_complex()
        assert abs(s.scalars[idx].to_complex() - want) < 1e-9


def test_precompute_rejects_boundary():
    c = random_circuit(2, 5, default_rng(9))
    with pytest.raises(ValueError):
        precompute_segment(diagram_from_circuit(c))


def test_worked_table_sizes_144():
    # parts with 3/6/6/3 local parameters hold 8+64+64+8 = 144 entries
    sizes = [3, 6, 6, 3]
    assert sum(2 ** c for c in sizes) == 144
