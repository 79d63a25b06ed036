"""Exact scalar arithmetic over the two supported coefficient fields.

A field is either the rationals or a prime field F_p with p < 2**16.
Scalars are kept in canonical form at all times: reduced fractions with a
positive denominator for Q (delegated to fractions.Fraction), and residues
in 0..p-1 for F_p.  Equality is structural, so two scalars compare equal
exactly when they are the same mathematical value of the same field.

A scalar's `value` is its raw field value: an `int` residue over F_p, a
`Fraction` over Q.  The linear algebra kernels compute on raw values and
turn results back into scalars through `FieldSpec.box`, which interns
them: each FieldSpec holds one shared Scalar per residue (at most p of
them, filled on first use) and, over Q, one shared zero.  Scalars are
immutable, so sharing them is safe.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class FieldError(Exception):
    pass


class FieldMismatch(FieldError):
    pass


class DivisionByZero(FieldError):
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


class _Residues(dict):
    """Residue -> the field's one Scalar for it, created on first lookup."""

    __slots__ = ("field",)

    def __init__(self, field: "FieldSpec"):
        super().__init__()
        self.field = field

    def __missing__(self, value: int) -> "Scalar":
        s = self[value] = Scalar(self.field, value)
        return s


def _rational_box(field: "FieldSpec"):
    zero = Scalar(field, Fraction(0))

    def box(value: Fraction) -> "Scalar":
        return Scalar(field, value) if value else zero

    return box


class FieldSpec:
    """The rationals (p is None) or the prime field F_p.

    `box(value)` turns a canonical raw value (a residue in 0..p-1, or a
    Fraction) into this field's Scalar without reducing or checking it.
    """

    __slots__ = ("p", "box")

    def __init__(self, p: int | None = None):
        if p is not None:
            if p >= MAX_PRIME:
                raise ValueError(f"modulus {p} out of supported range (< {MAX_PRIME})")
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.box = _rational_box(self) if p is None else _Residues(self).__getitem__

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

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar of {value.field} used in {self}")
            return value
        if self.p is None:
            return self.box(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"fraction {value} is not an element of {self}")
            value = value.numerator
        # operator.index keeps floats out of the residue table
        return self.box(operator.index(value) % self.p)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse_literal(self, text: str) -> "Scalar":
        """Parse a scalar literal: an integer, or numer/denom over Q."""
        text = text.strip()
        if "/" in text:
            if self.p is not None:
                raise ValueError(f"fraction literal {text!r} not allowed over {self}")
            num, _, den = text.partition("/")
            return self.box(Fraction(int(num), int(den)))
        return self.scalar(int(text))

    def elements(self):
        """Iterate all field elements; prime fields only."""
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        for v in range(self.p):
            yield self.box(v)


class Scalar:
    """A field element in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return self.field.box(self.value + other.value)
        return self.field.box((self.value + other.value) % self.field.p)

    __radd__ = __add__

    def __neg__(self):
        if self.field.p is None:
            return self.field.box(-self.value)
        return self.field.box((-self.value) % self.field.p)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.p is None:
            return self.field.box(self.value * other.value)
        return self.field.box((self.value * other.value) % self.field.p)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.p is None:
            return self.field.box(1 / self.value)
        return self.field.box(pow(self.value, self.field.p - 2, self.field.p))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        return (
            isinstance(other, Scalar)
            and self.field == other.field
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return format_scalar(self)


def format_scalar(s: Scalar) -> str:
    """Literal form that parse_literal accepts back."""
    if s.field.p is None and s.value.denominator != 1:
        return f"{s.value.numerator}/{s.value.denominator}"
    return str(int(s.value) if s.field.p is not None else s.value.numerator)
