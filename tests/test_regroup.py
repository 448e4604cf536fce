import itertools

import numpy as np
import pytest
from numpy.random import default_rng

from zxcut.cutting import cut_spider, instantiate
from zxcut.decompose import DecomposeStats, decompose_to_scalar
from zxcut.diagram import SpiderKind, diagram_from_circuit, plug
from zxcut.oracle import naive_global_sum
from zxcut.regroup import (Segment, SegmentHypergraph, _contract, _merged,
                           local_index, local_index_array, min_pair,
                           plan_schedule, precompute_segment, regroup_all,
                           shared_exponent)
from zxcut.scalars import ScalarC
from zxcut.simplify import param_safe_simplify

from helpers import random_circuit


def seg(params, values):
    return Segment(tuple(params), [ScalarC(v) for v in values])


def contract_pair(segs, i, j):
    """Segments i and j contracted by the one regroup kernel, over the
    parameters they leave open; the result as a Segment."""
    sets = [set(s.local_params) for s in segs]
    merged = _merged(sets, i, j)
    arr, pow_ = _contract((segs[i].array, segs[i].sqrt2_pow),
                          (segs[j].array, segs[j].sqrt2_pow),
                          sets[i], sets[j], merged)
    return Segment.from_array(merged, arr, pow_)


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
    # the tiny entry would return 0 without a word; the spread check may
    # refuse the table when the segment is built or when it is contracted
    try:
        a = Segment((0,), [ScalarC(1, 0), ScalarC(1, -2200)])
        b = Segment((0,), [ScalarC(0), ScalarC(1, 2200)])
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


def test_result_with_an_exponent_past_2047_converts():
    # (1e308 + 0.7e308) * 1 carries a shared exponent of about 2048
    segs = [Segment((0,), [ScalarC(1e308), ScalarC(0.7e308)]),
            Segment((0,), [ScalarC(1), ScalarC(1)])]
    value = regroup_all(segs).value
    assert value.sqrt2_pow >= 2048
    assert value.to_complex() == pytest.approx(1.7e308, rel=1e-15)


def test_from_array_checks_its_table():
    for bad in (np.inf, complex(0, -np.inf), np.nan):
        with pytest.raises(ValueError):
            Segment.from_array((0,), [1, bad], 0)
    with pytest.raises(ValueError):
        Segment.from_array((0,), [1, 2, 3], 0)


def test_segment_refuses_a_fractional_exponent_and_repeated_parameters():
    with pytest.raises(ValueError, match="integer"):
        Segment.from_array((1,), [1, 2], 1.5)
    assert Segment.from_array((1,), [1, 2], 3.0).sqrt2_pow == 3
    with pytest.raises(ValueError, match="distinct"):
        Segment.from_array((1, 1), np.ones(4), 0)
    with pytest.raises(ValueError, match="distinct"):
        Segment((1, 1), [ScalarC.one()] * 4)


# -- the contraction kernel and the array tables --------------------------------

def random_table(rng, n):
    return rng.standard_normal((2,) * n) + 1j * rng.standard_normal((2,) * n)


def test_contract_matches_einsum():
    rng = default_rng(12)
    counts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
              (0, 0, 0, 1), (0, 0, 2, 2)]
    counts += [tuple(int(x) for x in rng.integers(0, 4, size=4)) for _ in range(200)]
    for n_kept, n_summed, n_free_a, n_free_b in counts:
        # ids drawn out of order, so axis order and id order differ
        ids = [int(x) for x in rng.choice(100, size=n_kept + n_summed + n_free_a
                                          + n_free_b, replace=False)]
        kept = set(ids[:n_kept])
        summed = set(ids[n_kept:n_kept + n_summed])
        free_a = set(ids[n_kept + n_summed:len(ids) - n_free_b])
        free_b = set(ids[len(ids) - n_free_b:])
        params_a, params_b = kept | summed | free_a, kept | summed | free_b
        params_out = kept | free_a | free_b
        a = random_table(rng, len(params_a))
        b = random_table(rng, len(params_b))
        got, pow_ = _contract((a, 3), (b, -6), params_a, params_b, params_out)
        label = {p: n for n, p in enumerate(ids)}
        want = np.einsum(a, [label[p] for p in sorted(params_a)],
                         b, [label[p] for p in sorted(params_b)],
                         [label[p] for p in sorted(params_out)])
        assert got.shape == (2,) * len(params_out)
        got = got * 2.0 ** (0.5 * (pow_ + 3))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_shared_exponent_matches_the_masked_reference():
    rng = default_rng(16)
    for c in range(7):
        for zeros in (0.0, 0.3, 1.0):
            coeffs = random_table(rng, c).reshape(-1)
            coeffs[rng.random(2 ** c) < zeros] = 0
            pows = rng.integers(-1100, 1100, size=2 ** c)
            pows[coeffs == 0] = rng.integers(-3000, 3000)
            nonzero = coeffs != 0
            base = int(pows[nonzero].max()) if nonzero.any() else 0
            if (pows[nonzero] - base < -2040).any():
                with pytest.raises(ValueError):
                    shared_exponent(coeffs.tolist(), pows.tolist())
                continue
            want = coeffs * np.exp2(0.5 * np.where(nonzero, pows - base, 0))
            arr, pow_ = shared_exponent(coeffs.tolist(), pows.tolist())
            assert arr.tobytes() == want.tobytes() and pow_ == base


def test_segment_rebuilt_from_its_scalars_has_the_same_array():
    rng = default_rng(13)
    for c in range(6):
        vals = random_table(rng, c).reshape(-1)
        vals[rng.random(2 ** c) < 0.25] = 0
        pows = rng.integers(-40, 41, size=2 ** c)
        ids = [int(x) for x in rng.choice(50, size=c, replace=False)]
        seg = Segment(ids, [ScalarC(complex(v), int(k)) for v, k in zip(vals, pows)])
        again = Segment(seg.local_params, seg.scalars)
        assert again.array.tobytes() == seg.array.tobytes()
        assert again.sqrt2_pow == seg.sqrt2_pow
        assert not seg.array.flags.writeable


def test_precompute_builds_the_shared_exponent_table():
    rng = default_rng(14)
    for _ in range(6):
        c = random_circuit(4, 20, rng)
        d = plug(diagram_from_circuit(c), "+" * 4, "+" * 4)
        cands = sorted(v for v, sp in d.spiders.items() if sp.kind != SpiderKind.BOUNDARY)
        n_cuts = int(rng.integers(0, 4))
        for p, v in enumerate(int(x) for x in rng.choice(cands, n_cuts, replace=False)):
            d = cut_spider(d, v, p)
        seg = precompute_segment(d)
        shared = param_safe_simplify(d)
        values = [decompose_to_scalar(instantiate(shared, dict(zip(seg.local_params, bits))))
                  for bits in itertools.product((0, 1), repeat=len(seg.local_params))]
        arr, pow_ = shared_exponent([v.coeff for v in values], [v.sqrt2_pow for v in values])
        assert seg.array.tobytes() == arr.tobytes()
        assert seg.sqrt2_pow == pow_


def network_param_sets(shape, m, w):
    """Parameter sets of a ring (segment i holds bundles i and i+1), a star
    (a hub holding every bundle, one leaf per bundle) or an open chain (every
    segment also holds one global parameter) of bundles of w parameters."""
    bundles = [list(range(b * w, (b + 1) * w)) for b in range(m)]
    if shape == "ring":
        return [bundles[i] + bundles[(i + 1) % m] for i in range(m)]
    if shape == "star":
        return [sum(bundles, [])] + bundles
    g = (m - 1) * w
    chain = [bundles[0]] + [bundles[i] + bundles[i + 1] for i in range(m - 2)]
    return [ps + [g] for ps in chain + [bundles[m - 2]]]


@pytest.mark.parametrize("shape,m", [("ring", 3), ("ring", 5), ("star", 3),
                                     ("star", 4), ("open", 3), ("open", 5)])
def test_regroup_matches_einsum_on_networks(shape, m):
    rng = default_rng([15, m])
    segs, operands = [], []
    for ps in network_param_sets(shape, m, 2):
        vals = random_table(rng, len(ps)).reshape(-1)
        pows = rng.integers(-2, 3, size=vals.size)
        seg = Segment(ps, [ScalarC(complex(v), int(k)) for v, k in zip(vals, pows)])
        segs.append(seg)
        operands += [np.array([complex(x) for x in seg.scalars]).reshape(seg.array.shape),
                     list(seg.local_params)]
    want = complex(np.einsum(*operands, []))
    got = regroup_all(segs).value.to_complex()
    assert abs(got - want) <= 1e-12 * abs(want)


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
