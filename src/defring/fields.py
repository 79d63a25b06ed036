"""Exact field elements over the two supported coefficient fields.

A field is either the rationals or a prime field F_p with p < 2**16.
An element is its canonical raw value, of exactly one type: over Q an
`int` when it is integral and otherwise a reduced `Fraction` with
denominator > 1, and over F_p an `int` residue in 0..p-1.  There is no
wrapper class.  Plain `==` on canonical values is equality in the field,
and `if x:` tests for zero.  Arithmetic is Python's: whoever forms a sum
or product brings it back to canonical form, `% p` over F_p and an
integral `Fraction` to its numerator over Q (the Matrix operations in
linalg do), and `FieldSpec.scalar` turns any int or Fraction into the
canonical value.  `FieldSpec.inverse` is the one division of field
values, so no `int / int` float arises.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported modulus range."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


MAX_PRIME = 2**16


class FieldSpec:
    """The rationals (p is None) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= MAX_PRIME:
                raise ValueError(f"modulus {p} out of supported range (< {MAX_PRIME})")
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self):
        return hash(("FieldSpec", self.p))

    def __repr__(self):
        return "Q" if self.p is None else f"F_{self.p}"

    def scalar(self, value):
        """The canonical value of an int or Fraction in this field."""
        if self.p is None:
            if value.__class__ is int:
                return value
            if value.__class__ is not Fraction:
                value = Fraction(value)
            return value if value.denominator != 1 else value.numerator
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"fraction {value} is not an element of {self}")
            value = value.numerator
        # operator.index keeps floats out of F_p
        return operator.index(value) % self.p

    def inverse(self, x):
        """1/x for a nonzero canonical value x."""
        if self.p is None:
            return self.scalar(Fraction(x.denominator, x.numerator))
        return pow(x, -1, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def parse_literal(self, text: str):
        """Parse a scalar literal: an integer, or numer/denom over Q."""
        text = text.strip()
        if "/" in text:
            if self.p is not None:
                raise ValueError(f"fraction literal {text!r} not allowed over {self}")
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise ValueError(f"scalar literal {text!r} divides by zero")
            return self.scalar(Fraction(int(num), int(den)))
        return self.scalar(int(text))

    def elements(self):
        """Iterate all field elements; prime fields only."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        return iter(range(self.p))


def format_scalar(x) -> str:
    """Literal form of a canonical value that parse_literal accepts back."""
    return str(x)
