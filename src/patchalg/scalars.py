"""Exact base-field arithmetic.

Two kinds of coefficient field are supported, both of characteristic 0:

* the rationals, with elements stored as a single ``Fraction``;
* the cyclotomic field of order m for m in {1, 2, 4}, with elements stored
  as residues a + b*w modulo the m-th cyclotomic polynomial (for m in {1, 2}
  this degenerates to the rationals, for m = 4 we have w**2 = -1).

Every operation is exact; equality is decidable because coordinates are
always reduced (``Fraction`` keeps itself in lowest terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .intvec import coord_mul

__all__ = [
    "FieldError",
    "FieldDescriptor",
    "Scalar",
    "QQ",
    "cyclotomic_field",
    "field_arith",
    "root_of_unity",
]

RationalLike = Union[int, str, Fraction]

_SUPPORTED_M = (1, 2, 4)


class FieldError(ValueError):
    """Unsupported field construction, descriptor mismatch or zero division."""


@dataclass(frozen=True)
class FieldDescriptor:
    """Which coefficient field scalars live in.

    kind is "rationals" or "cyclotomic"; m is the cyclotomic order and is 0
    for the rationals.
    """

    kind: str
    m: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.m != 0:
                raise FieldError("rationals take no cyclotomic order")
        elif self.kind == "cyclotomic":
            if self.m not in _SUPPORTED_M:
                raise FieldError(
                    f"cyclotomic order {self.m} not supported (need one of {_SUPPORTED_M})"
                )
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")

    @property
    def dim(self) -> int:
        """Dimension over the rationals of the stored coordinate vector."""
        return 2 if self.m == 4 else 1

    def describe(self) -> str:
        if self.kind == "rationals":
            return "Q"
        return f"Q(zeta_{self.m})"

    def has_root_of_unity(self, q: int) -> bool:
        if q in (1, 2):
            return True
        if self.kind == "cyclotomic":
            return self.m % q == 0
        return False


QQ = FieldDescriptor("rationals")


def cyclotomic_field(m: int) -> FieldDescriptor:
    return FieldDescriptor("cyclotomic", m)


def _coerce_fraction(v: RationalLike) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            pass
    raise FieldError(f"cannot interpret {v!r} as a rational number")


@dataclass(frozen=True)
class Scalar:
    """An exact element of the coefficient field.

    coords has length field.dim: (a,) for rational values, (a, b) for
    a + b*w in the order-4 cyclotomic field.
    """

    field: FieldDescriptor
    coords: tuple

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(field: FieldDescriptor, value: RationalLike, imag: RationalLike = 0) -> "Scalar":
        a = _coerce_fraction(value)
        b = _coerce_fraction(imag)
        if field.dim == 1:
            if b:
                raise FieldError(f"{field.describe()} has no imaginary coordinate")
            return Scalar(field, (a,))
        return Scalar(field, (a, b))

    @staticmethod
    def zero(field: FieldDescriptor) -> "Scalar":
        return Scalar(field, (Fraction(0),) * field.dim)

    @staticmethod
    def one(field: FieldDescriptor) -> "Scalar":
        coords = [Fraction(0)] * field.dim
        coords[0] = Fraction(1)
        return Scalar(field, tuple(coords))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and not any(self.coords[1:])

    def is_rational(self) -> bool:
        return not any(self.coords[1:])

    @property
    def rational(self) -> Fraction:
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return self.coords[0]

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Scalar") -> None:
        if self.field != other.field:
            raise FieldError(
                f"descriptor mismatch: {self.field.describe()} vs {other.field.describe()}"
            )

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return Scalar(self.field, coord_mul(self.coords, other.coords))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise FieldError("division by zero")
        if self.field.dim == 1:
            return Scalar(self.field, (1 / self.coords[0],))
        a, b = self.coords
        n = a * a + b * b
        return Scalar(self.field, (a / n, -b / n))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "Scalar":
        if e < 0:
            return self.inverse() ** (-e)
        out = Scalar.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __repr__(self) -> str:
        if self.field.dim == 1:
            return str(self.coords[0])
        a, b = self.coords
        if not b:
            return str(a)
        if not a:
            return f"{b}*w"
        return f"{a} + {b}*w"


def field_arith(op: str, x: Scalar, y: Scalar) -> Scalar:
    """Named entry point for the five field operations.

    >>> field_arith("div", Scalar.of(QQ, 1), Scalar.of(QQ, "3/5"))
    5/3
    """
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    if op == "neg":
        return -x
    raise FieldError(f"unknown field operation {op!r}")


def root_of_unity(q: int, field: FieldDescriptor) -> Scalar:
    """A primitive q-th root of unity, or a FieldError if the field lacks one.

    The failure mode is a configuration error: the caller asked for a root
    the chosen field cannot contain.
    """
    if q < 1:
        raise FieldError("order of a root of unity must be positive")
    if q == 1:
        return Scalar.one(field)
    if q == 2:
        return -Scalar.one(field)
    if q == 4 and field.kind == "cyclotomic" and field.m % 4 == 0:
        return Scalar.of(field, 0, 1)
    raise FieldError(
        f"{field.describe()} contains no primitive {q}-th root of unity"
    )
