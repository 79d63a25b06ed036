from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from defring.fields import MAX_PRIME, FieldSpec, format_scalar, is_prime

F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def test_is_prime_small_range():
    primes = [n for n in range(30) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_modulus_validation():
    with pytest.raises(ValueError):
        FieldSpec.prime(4)
    with pytest.raises(ValueError):
        FieldSpec.prime(1)
    with pytest.raises(ValueError):
        FieldSpec.prime(MAX_PRIME)
    # largest prime below the cap is fine
    FieldSpec.prime(65521)


@pytest.mark.parametrize("field", [F2, F3], ids=repr)
def test_field_axioms_exhaustive(field):
    # the field operations are integer operations followed by scalar()
    p = field.p
    elems = list(field.elements())
    assert elems == list(range(p))
    zero, one = field.zero(), field.one()
    add = lambda a, b: field.scalar(a + b)  # noqa: E731
    mul = lambda a, b: field.scalar(a * b)  # noqa: E731
    for a, b, c in product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a, b in product(elems, repeat=2):
        assert add(a, b) == add(b, a) in elems
        assert mul(a, b) == mul(b, a) in elems
    for a in elems:
        assert add(a, zero) == a
        assert mul(a, one) == a
        assert add(a, field.scalar(-a)) == zero
        if a:
            assert mul(a, pow(a, -1, p)) == one


def test_prime_canonical_residues():
    assert F5.scalar(7) == 2
    assert F5.scalar(-1) == 4
    assert F5.scalar(Fraction(12, 2)) == 1
    assert type(F5.scalar(True)) is int
    assert F5.scalar(2 - 4) == 3
    assert F5.scalar(3 ** 4) == F5.one() == 1
    for bad in (2.0, Fraction(1, 2)):
        with pytest.raises((TypeError, ValueError)):
            F5.scalar(bad)


def test_rationals_are_ints_when_integral_and_fractions_otherwise():
    half = Q.parse_literal("1/2")
    third = Q.parse_literal("1/3")
    assert type(half) is Fraction and half.denominator == 2
    assert type(Q.scalar(3)) is int and type(Q.scalar(Fraction(6, 3))) is int
    assert Q.scalar(Fraction(6, 3)) == 2 and Q.scalar(True) == 1 and type(Q.scalar(True)) is int
    assert type(Q.zero()) is int and type(Q.one()) is int
    assert Q.zero() == 0 and Q.one() == 1
    assert Q.parse_literal("4/2") == 2 and type(Q.parse_literal("4/2")) is int
    assert Q.parse_literal("-3/6") == Fraction(-1, 2) and type(Q.parse_literal("-3/6")) is Fraction
    assert half + third == Fraction(5, 6)
    assert half * third == Fraction(1, 6)
    assert half * Q.inverse(third) == Fraction(3, 2)
    assert Q.inverse(half) == 2 and type(Q.inverse(half)) is int
    assert Q.inverse(-3) == Fraction(-1, 3) and Q.inverse(-1) == -1 and type(Q.inverse(-1)) is int
    assert F5.inverse(2) == 3
    assert format_scalar(half - half) == "0"
    assert format_scalar(Q.scalar(Fraction(-4, 6))) == "-2/3"
    assert format_scalar(Q.scalar(-4)) == "-4"



def test_rationals_refuse_floats_as_the_prime_fields_do():
    # a float's binary expansion is not the value its literal names
    for bad in (0.1, 0.5, 2.0, float("nan"), float("inf")):
        with pytest.raises(TypeError):
            Q.scalar(bad)

def test_parse_literal():
    assert F5.parse_literal("-1") == F5.scalar(4)
    assert F5.parse_literal(" 12 ") == 2
    assert Q.parse_literal("-3/6") == Fraction(-1, 2)
    with pytest.raises(ValueError):
        F5.parse_literal("1/2")
    with pytest.raises(ValueError):
        Q.parse_literal("x")
    with pytest.raises(ValueError):
        list(Q.elements())


def test_repr_and_equality():
    assert repr(Q) == "Q"
    assert repr(F5) == "F_5"
    assert FieldSpec.prime(5) == F5
    assert F5 != Q
    assert len({F5.scalar(1), F5.scalar(6)}) == 1


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_f5_ring_laws_random(a, b, c):
    # scalar() is a ring homomorphism from the integers
    x, y, z = F5.scalar(a), F5.scalar(b), F5.scalar(c)
    assert F5.scalar((x + y) * z) == F5.scalar(x * z + y * z) == F5.scalar((a + b) * c)
    assert F5.scalar(x - y) == F5.scalar(-(y - x)) == F5.scalar(a - b)
    assert F5.scalar(x * y) == (a * b) % 5


@given(
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
)
def test_rational_format_round_trip(a, b):
    s = Q.scalar(Q.scalar(a) * Q.scalar(b) + Q.scalar(a))
    assert Q.parse_literal(format_scalar(s)) == s
    assert type(Q.parse_literal(format_scalar(s))) is type(s)
    assert type(s) is (int if s.denominator == 1 else Fraction)
