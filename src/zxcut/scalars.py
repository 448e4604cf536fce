"""Global scalar bookkeeping for ZX-diagrams.

A scalar is stored as ``coeff * sqrt(2)**sqrt2_pow`` with ``coeff`` kept at
magnitude in [1/2, 2).  Rewrites on large diagrams accumulate hundreds of
sqrt(2) factors, so the exponent is tracked separately to avoid float
under/overflow.  Renormalisation only ever multiplies ``coeff`` by powers of
two, which is exact in binary floating point.
"""
from __future__ import annotations

# e^(i*k*pi/4) split into an exact Gaussian-integer part and a sqrt(2) power,
# so Clifford phase products never accumulate rounding error.
_PHASE8 = (
    (1 + 0j, 0),
    (1 + 1j, -1),
    (0 + 1j, 0),
    (-1 + 1j, -1),
    (-1 + 0j, 0),
    (-1 - 1j, -1),
    (0 - 1j, 0),
    (1 - 1j, -1),
)


def phase8_complex(k: int) -> complex:
    """e^(i*k*pi/4) as a plain complex, exact for the eight octant values."""
    c, p = _PHASE8[k % 8]
    return c * (2.0 ** (0.5 * p))


class ScalarC:
    """A complex number in the form coeff * sqrt(2)**sqrt2_pow.

    The constructor and :meth:`mul_complex`, the two entry points for an
    arbitrary complex, refuse an infinite or NaN value and keep a finite one
    finite."""

    __slots__ = ("coeff", "sqrt2_pow", "is_zero")

    def __init__(self, coeff: complex = 1.0, sqrt2_pow: int = 0):
        coeff = complex(coeff)
        # z - z is 0 when both parts are finite and NaN otherwise
        if coeff - coeff:
            raise ValueError(f"scalar factor {coeff!r} is not finite")
        self.coeff = coeff
        self.sqrt2_pow = sqrt2_pow
        self.is_zero = False
        self._normalize()

    @classmethod
    def zero(cls) -> "ScalarC":
        s = cls(0.0)
        return s

    @classmethod
    def one(cls) -> "ScalarC":
        return cls(1.0)

    @classmethod
    def from_phase8(cls, k: int) -> "ScalarC":
        """e^(i*k*pi/4) exactly."""
        c, p = _PHASE8[k % 8]
        return cls(c, p)

    def _normalize(self) -> None:
        if self.coeff == 0:
            self.is_zero = True
            self.coeff = 0j
            self.sqrt2_pow = 0
            return
        try:
            m = abs(self.coeff)
        except OverflowError:  # finite parts, but the modulus overflows
            self.coeff /= 4
            self.sqrt2_pow += 4
            m = abs(self.coeff)
        # only exact factor-2 steps
        while m >= 2.0:
            self.coeff /= 2
            self.sqrt2_pow += 2
            m = abs(self.coeff)
        while m < 0.5:
            self.coeff *= 2
            self.sqrt2_pow -= 2
            m = abs(self.coeff)

    def copy(self) -> "ScalarC":
        s = ScalarC.__new__(ScalarC)
        s.coeff = self.coeff
        s.sqrt2_pow = self.sqrt2_pow
        s.is_zero = self.is_zero
        return s

    # in-place accumulation (the common case during rewriting)

    def mul_complex(self, z: complex) -> None:
        # the constructor refuses a non-finite z and scales a finite one into
        # [1/2, 2) exactly, so the product rounds as before but cannot overflow
        self.mul(ScalarC(z))

    def mul_sqrt2(self, n: int) -> None:
        if not self.is_zero:
            self.sqrt2_pow += n

    def mul_phase8(self, k: int) -> None:
        if self.is_zero:
            return
        c, p = _PHASE8[k % 8]
        self.coeff *= c
        self.sqrt2_pow += p
        self._normalize()

    def mul(self, other: "ScalarC") -> None:
        if self.is_zero:
            return
        if other.is_zero:
            self.coeff = 0j
            self.sqrt2_pow = 0
            self.is_zero = True
            return
        self.coeff *= other.coeff
        self.sqrt2_pow += other.sqrt2_pow
        self._normalize()

    # functional forms

    def times(self, other: "ScalarC") -> "ScalarC":
        s = self.copy()
        s.mul(other)
        return s

    def plus(self, other: "ScalarC") -> "ScalarC":
        if self.is_zero:
            return other.copy()
        if other.is_zero:
            return self.copy()
        p = max(self.sqrt2_pow, other.sqrt2_pow)
        a = self.coeff * 2.0 ** (0.5 * (self.sqrt2_pow - p))
        b = other.coeff * 2.0 ** (0.5 * (other.sqrt2_pow - p))
        return ScalarC(a + b, p)

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return self.coeff * 2.0 ** (0.5 * self.sqrt2_pow)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __repr__(self) -> str:
        if self.is_zero:
            return "ScalarC(0)"
        return f"ScalarC({self.coeff!r} * sqrt2**{self.sqrt2_pow})"
