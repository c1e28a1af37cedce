"""Exact arithmetic in the quadratic field Q(phi), phi = (1+sqrt(5))/2.

Every scalar used by the geometric half of this package is an element
``a + b*phi`` with rational ``a``, ``b``.  Multiplication reduces with the
minimal polynomial ``phi**2 = phi + 1`` and comparisons agree with the real
embedding ``phi ~ 1.618``, decided without any floating point: the whole
point of this class is that the geometric predicates downstream are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]


class PhiNumber:
    """An element ``a + b*phi`` of Q(phi) with exact rational coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a: Rational = 0, b: Rational = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("PhiNumber is immutable")

    # -- coercion -----------------------------------------------------

    @staticmethod
    def _coerce(x) -> "PhiNumber":
        if isinstance(x, PhiNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return PhiNumber(x)
        raise TypeError(f"cannot coerce {x!r} to PhiNumber")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return PhiNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return PhiNumber(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return PhiNumber(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 phi)(a2 + b2 phi), with phi^2 -> phi + 1
        return PhiNumber(a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)

    __rmul__ = __mul__

    def inverse(self) -> "PhiNumber":
        """Multiplicative inverse, via the field conjugate and norm."""
        # conjugate of a + b phi is (a+b) - b phi; norm is a^2 + a b - b^2
        n = self.a * self.a + self.a * self.b - self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(phi)")
        return PhiNumber((self.a + self.b) / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.inverse()
        result = PhiNumber(1)
        for _ in range(abs(n)):
            result = result * base
        return result

    # -- order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*(1+sqrt(5))/2: -1, 0, or 1."""
        # a + b phi = (s + t sqrt(5)) / 2 with s = 2a + b, t = b
        s = 2 * self.a + self.b
        t = self.b
        if t == 0:
            return 0 if s == 0 else (1 if s > 0 else -1)
        if s == 0:
            return 1 if t > 0 else -1
        if s > 0 and t > 0:
            return 1
        if s < 0 and t < 0:
            return -1
        # opposite signs: compare s^2 with 5 t^2 (squaring is safe since the
        # larger magnitude side decides)
        d = s * s - 5 * t * t
        if s > 0:
            return 1 if d > 0 else (-1 if d < 0 else 0)
        return -1 if d > 0 else (1 if d < 0 else 0)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- integer part -------------------------------------------------

    def floor(self) -> int:
        """Largest integer <= self, by exact bracketing."""
        # write self = (n + r sqrt(5)) / m with integers n, r and m > 0
        q = self.a.denominator * self.b.denominator // math.gcd(
            self.a.denominator, self.b.denominator
        )
        p = self.a.numerator * (q // self.a.denominator)
        r = self.b.numerator * (q // self.b.denominator)
        n, m = 2 * p + r, 2 * q
        # floor(r sqrt(5)) is isqrt(5 r^2) for r >= 0; 5 r^2 is never a
        # perfect square for r != 0 so the negative case shifts by one
        if r >= 0:
            t = math.isqrt(5 * r * r)
        else:
            t = -math.isqrt(5 * r * r) - 1
        guess = (n + t) // m
        while self < guess:
            guess -= 1
        while self >= guess + 1:
            guess += 1
        return guess

    def __mod__(self, modulus) -> "PhiNumber":
        """Representative of self in [0, modulus) for positive modulus."""
        modulus = self._coerce(modulus)
        if modulus.sign() <= 0:
            raise ValueError("modulus must be positive")
        return self - modulus * (self / modulus).floor()

    # -- approximation (display / rendering only) ----------------------

    def approx(self, digits: int = 30) -> Fraction:
        """Rational approximation correct to the requested decimal digits."""
        scale = 10 ** (digits + 2)
        sqrt5 = Fraction(math.isqrt(5 * scale * scale), scale)
        return self.a + self.b * (1 + sqrt5) / 2

    def __float__(self):
        return float(self.approx(24))

    # -- text form ------------------------------------------------------

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        phi_part = "phi" if abs(self.b) == 1 else f"{abs(self.b)}*phi"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return phi_part if self.b > 0 else f"-{phi_part}"
        return f"{self.a}{sign}{phi_part}"

    def __repr__(self):
        return f"PhiNumber({self.a!r}, {self.b!r})"


_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>\d+(?:/0*[1-9]\d*)?)\s*\*?\s*)?(?P<phi>phi)?\s*"
)


def parse_phi(text: str) -> PhiNumber:
    """Parse "a+b*phi" with rational a, b; integer shorthand accepted.

    Accepts e.g. "3", "-1/2", "phi", "2*phi", "1/2-3/2*phi", "1+phi".
    """
    if not isinstance(text, str):
        raise ValueError(f"expected an a+b*phi string, got {text!r}")
    s = text.strip()
    if not s:
        raise ValueError("empty PhiNumber literal")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} as a PhiNumber")
        if m.group("sign") == "" and not first:
            raise ValueError(f"cannot parse {text!r} as a PhiNumber")
        if m.group("coef") is None and m.group("phi") is None:
            raise ValueError(f"cannot parse {text!r} as a PhiNumber")
        sign = -1 if m.group("sign") == "-" else 1
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("phi"):
            b += sign * coef
        else:
            a += sign * coef
        pos = m.end()
        first = False
    return PhiNumber(a, b)


PHI = PhiNumber(0, 1)
ONE = PhiNumber(1)
ZERO = PhiNumber(0)
