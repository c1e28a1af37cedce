import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aperiodic_kit.phifield import PHI, PhiNumber, parse_phi


def num(a, b=0):
    return PhiNumber(Fraction(a), Fraction(b))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)
elements = st.builds(PhiNumber, rationals, rationals)
# large and unequal denominators, like the orbit points a/1000003
wide_rationals = st.builds(
    Fraction,
    st.integers(min_value=-10**8, max_value=10**8),
    st.integers(min_value=1, max_value=10**7),
)
wide_elements = st.builds(PhiNumber, wide_rationals, wide_rationals)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -F(n+1)/F(n) + phi is about (-1)^(n+1) / (sqrt(5) F(n)^2): a
# near-cancelling pair of opposite signs, shifted by +-1/10^9 and scaled to
# a large denominator of its own
def _near_cancelling(n, shift, scale):
    return PhiNumber(Fraction(-_fibonacci(n + 1), _fibonacci(n)) + shift, 1) * scale


near_cancelling = st.builds(
    _near_cancelling,
    st.integers(min_value=1, max_value=60),
    st.sampled_from([Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9)]),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(7, 1000003), Fraction(-1000003, 9999991)]),
)


# 120-digit rational approximation of the golden ratio, used as an
# independent evaluation oracle for the exact sign logic.
_SCALE = 10**120
_PHI_APPROX = Fraction(_SCALE + math.isqrt(5 * _SCALE * _SCALE), 2 * _SCALE)


def oracle_value(x: PhiNumber) -> Fraction:
    return x.a + x.b * _PHI_APPROX


rational_operands = st.integers(min_value=-10**8, max_value=10**8) | wide_rationals
near_phi = st.builds(
    lambda n, shift: Fraction(_fibonacci(n + 1), _fibonacci(n)) + shift,
    st.integers(min_value=1, max_value=60),
    st.sampled_from([Fraction(0), Fraction(1, 10**9), Fraction(-1, 10**9)]),
)


def _check_order(x, y):
    """<, <=, >, >= and == of x and y (either may be an int or a Fraction)
    agree with the sign of x - y and with the 120-digit oracle."""
    exact = (x - y).sign()
    approx = (oracle_value(x) if isinstance(x, PhiNumber) else x) - (
        oracle_value(y) if isinstance(y, PhiNumber) else y
    )
    assert exact == (approx > 0) - (approx < 0)
    assert (x < y) == (exact < 0)
    assert (x <= y) == (exact <= 0)
    assert (x > y) == (exact > 0)
    assert (x >= y) == (exact >= 0)
    assert (x == y) == (exact == 0)


class TestArithmetic:
    def test_add_examples(self):
        assert PHI + num(-1, 1) == num(-1, 2)
        assert num(0, 0) + num(3, -7) == num(3, -7)
        assert num(2, -1) + num(-1, 1) == num(1, 0)

    def test_mul_examples(self):
        assert PHI * PHI == num(1, 1)
        assert num(1, 0) * num(5, -3) == num(5, -3)
        assert num(-1, 1) * PHI == num(1, 0)

    def test_inverse_examples(self):
        assert PHI.inverse() == num(-1, 1)
        assert num(1, 0).inverse() == num(1, 0)
        assert num(2, -1).inverse() == num(1, 1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            num(0, 0).inverse()

    def test_powers(self):
        assert PHI**2 == num(1, 1)
        assert PHI**-1 == num(-1, 1)
        assert PHI**-2 == num(2, -1)
        assert PHI**-3 == num(-3, 2)
        assert PHI**0 == num(1, 0)

    @given(elements, elements, elements)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(elements)
    def test_inverse_roundtrip(self, x):
        if x:
            assert x * x.inverse() == PhiNumber(1)


class TestOrder:
    def test_compare_examples(self):
        assert num(2, -1) > num(0, 0)
        assert num(-1, 1) > num(2, -1)  # phi^-1 - phi^-2 = phi^-3 > 0
        x = num(Fraction(3, 7), Fraction(-2, 5))
        assert not x < x and not x > x

    @settings(max_examples=300)
    @given(elements, elements)
    def test_compare_matches_oracle(self, x, y):
        exact = (x - y).sign()
        approx = oracle_value(x) - oracle_value(y)
        oracle = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert exact == oracle

    def test_bulk_oracle_consistency(self):
        import random

        rng = random.Random(5)
        for _ in range(10_000):
            x = PhiNumber(
                Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
                Fraction(rng.randint(-999, 999), rng.randint(1, 999)),
            )
            v = oracle_value(x)
            assert x.sign() == (0 if v == 0 else (1 if v > 0 else -1))

    @settings(max_examples=300)
    @given(wide_elements | near_cancelling, wide_elements | near_cancelling)
    def test_wide_denominators_match_oracle(self, x, y):
        for value in (x, y, x - y):
            v = oracle_value(value)
            assert value.sign() == (0 if v == 0 else (1 if v > 0 else -1))
            assert value.floor() == math.floor(v)
        # equal values: x itself and a copy built from its coefficients
        for left, right in ((x, y), (y, x), (x, x), (x, PhiNumber(x.a, x.b))):
            _check_order(left, right)

    @settings(max_examples=300)
    @given(wide_elements | near_cancelling | wide_rationals.map(PhiNumber), rational_operands)
    def test_comparisons_with_int_and_fraction_operands(self, x, r):
        # the int or Fraction on either side, and equal to a rational x
        for left, right in ((x, r), (r, x), (PhiNumber(r), r), (r, PhiNumber(r))):
            _check_order(left, right)

    @settings(max_examples=100)
    @given(near_phi)
    def test_phi_against_near_convergents(self, r):
        # phi against the Fraction F(n+1)/F(n) +- 1/10^9, on either side
        _check_order(PHI, r)
        _check_order(r, PHI)

    def test_reflected_comparisons(self):
        x = num(Fraction(1, 3))
        assert 1 < PHI and not 2 < PHI and 2 > PHI and 1 <= PHI
        assert Fraction(1, 3) >= x and Fraction(1, 3) <= x and Fraction(1, 3) == x
        assert not Fraction(1, 3) > x and Fraction(1, 2) > x and 0 < x
        with pytest.raises(TypeError):
            x < 0.5

    def test_total_order_transitivity(self):
        a, b, c = num(0, 1), num(1, 0), num(2, -1)
        assert c < a and a > b > c


class TestFloorAndMod:
    def test_floor_basics(self):
        assert PHI.floor() == 1
        assert (PHI**2).floor() == 2
        assert (-PHI).floor() == -2
        assert num(3, 0).floor() == 3
        assert num(Fraction(-7, 2), 0).floor() == -4
        assert (PHI**-1).floor() == 0

    @given(elements)
    def test_floor_brackets(self, x):
        n = x.floor()
        assert n <= x < n + 1

    @given(elements)
    def test_mod_reduction(self, x):
        for step in (PhiNumber(1), PHI**-1):
            r = x % step
            assert PhiNumber(0) <= r < step
            assert (x - r) / step == PhiNumber((x / step).floor())


class TestText:
    def test_roundtrip(self):
        for x in [
            num(0),
            num(3),
            num(Fraction(-1, 2)),
            PHI,
            -PHI,
            num(0, Fraction(5, 3)),
            num(Fraction(1, 2), Fraction(-3, 2)),
            num(-2, 7),
        ]:
            assert parse_phi(str(x)) == x

    def test_integer_shorthand(self):
        assert parse_phi("5") == num(5)
        assert parse_phi("-2/3") == num(Fraction(-2, 3))
        assert parse_phi("phi") == PHI
        assert parse_phi("1+phi") == num(1, 1)
        assert parse_phi("2*phi") == num(0, 2)

    def test_rejects_garbage(self):
        for bad in ["", "one", "1+*phi", "phi phi phi+", "++1"]:
            with pytest.raises(ValueError):
                parse_phi(bad)


class _FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize(
    "a, b",
    [
        (3, -2),
        (0, 5),
        (Fraction(1, 3), Fraction(-7, 2)),
        (Fraction(4, 6), 0),
        (_FractionSubclass(1, 3), _FractionSubclass(5)),
        ("1/3", "-7/2"),
        ("2", "0.5"),
        (_FractionSubclass(-2, 9), "3/4"),
    ],
)
def test_constructor_stores_exact_fractions(a, b):
    x = PhiNumber(a, b)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (Fraction(a), Fraction(b))
    assert x == PhiNumber(Fraction(a), Fraction(b))
    assert hash(x) == (hash(Fraction(a)) if b == 0 else hash((Fraction(a), Fraction(b))))
    assert PhiNumber(a) == Fraction(a) and hash(PhiNumber(a)) == hash(Fraction(a))


def test_immutability_and_hash():
    x = num(1, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(5)
    assert hash(num(3, 0)) == hash(Fraction(3))
    assert len({num(1, 2), num(1, 2), num(2, 1)}) == 2
