import cmath
import math

import pytest
from numpy.random import default_rng

from zxcut.scalars import ScalarC, phase8_complex


def test_value_roundtrip():
    s = ScalarC(0.75 + 0.25j, 3)
    assert abs(s.to_complex() - (0.75 + 0.25j) * 2 ** 1.5) < 1e-15


def test_coeff_kept_normalised():
    rng = default_rng(0)
    for _ in range(500):
        z = complex(rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8)),
                    rng.standard_normal() * 10.0 ** int(rng.integers(-8, 8)))
        if z == 0:
            continue
        s = ScalarC(z)
        assert 0.5 <= abs(s.coeff) < 2.0
        assert abs(s.to_complex() - z) <= 1e-12 * abs(z)


def test_zero_flag():
    z = ScalarC.zero()
    assert z.is_zero and z.to_complex() == 0
    s = ScalarC(3.0)
    s.mul(z)
    assert s.is_zero
    assert z.plus(ScalarC(2.0)).to_complex() == 2.0


def test_phase8_exact():
    for k in range(8):
        want = cmath.exp(1j * cmath.pi * k / 4)
        assert abs(ScalarC.from_phase8(k).to_complex() - want) < 1e-15
        assert abs(phase8_complex(k) - want) < 1e-15
    # pi multiples are exactly representable
    assert ScalarC.from_phase8(4).to_complex() == -1.0
    one = ScalarC.one()
    one.mul_phase8(4)
    assert one.plus(ScalarC.one()).is_zero


def test_mul_associative_random_triples():
    rng = default_rng(42)
    for _ in range(10_000):
        vals = [complex(rng.standard_normal(), rng.standard_normal())
                * 2.0 ** int(rng.integers(-20, 20)) for _ in range(3)]
        a, b, c = (ScalarC(v) for v in vals)
        left = a.times(b).times(c).to_complex()
        right = a.times(b.times(c)).to_complex()
        ref = vals[0] * vals[1] * vals[2]
        assert abs(left - right) <= 1e-12 * max(1.0, abs(ref))
        assert abs(left - ref) <= 1e-12 * max(1.0, abs(ref))


def test_plus_aligns_exponents():
    a = ScalarC(1.0, 40)
    b = ScalarC(1.0, 0)
    assert abs(a.plus(b).to_complex() - (2 ** 20 + 1)) < 1e-9 * 2 ** 20


def test_huge_exponents_stay_finite():
    s = ScalarC.one()
    for _ in range(300):
        s.mul_sqrt2(2)
        s.mul_complex(0.9)
    # magnitude field stays bounded even though the value is astronomically
    # large; only the final conversion may overflow
    assert 0.5 <= abs(s.coeff) < 2.0


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"),
                                   complex("nan"), complex(1.0, float("inf")),
                                   complex(float("nan"), 0.0)])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ValueError):
        ScalarC(value)
    s = ScalarC(1.5 - 0.5j, 3)
    with pytest.raises(ValueError):
        s.mul_complex(value)
    assert (s.coeff, s.sqrt2_pow) == (ScalarC(1.5 - 0.5j, 3).coeff, 3)
    with pytest.raises(ValueError):
        ScalarC.zero().mul_complex(value)


def test_finite_extremes_are_kept():
    tiny = ScalarC(5e-324)
    assert 0.5 <= abs(tiny.coeff) < 2.0
    big = ScalarC(1e300 - 1e300j)
    assert 0.5 <= abs(big.coeff) < 2.0
    big.mul_complex(1e-300)
    assert 0.5 <= abs(big.coeff) < 2.0


def test_a_finite_value_whose_modulus_overflows_is_kept():
    s = ScalarC(1.7e308 + 1.7e308j)
    part = math.ldexp(1.7e308, -1024)  # exact
    assert (s.coeff, s.sqrt2_pow) == (complex(part, part), 2048)


@pytest.mark.parametrize("start,factor", [(1.5, 1.7e308), (1.5 + 1j, 1.7e308 - 1.7e308j),
                                          (-1.9j, -1e308 + 1e300j)])
def test_a_product_that_overflows_is_kept_finite(start, factor):
    s = ScalarC(start)
    s.mul_complex(factor)
    # the same product with the factor brought into range exactly
    scaled = ScalarC(complex(factor) * 2.0 ** -1024, 2048)
    ref = ScalarC(start).times(scaled)
    assert (s.coeff, s.sqrt2_pow) == (ref.coeff, ref.sqrt2_pow)
    assert 0.5 <= abs(s.coeff) < 2.0
