"""Laws of the series product kernel ``series.mul_into``, through its two
entry points: ``TruncSeries.__mul__`` and ``_SeriesAcc.add_product``.

Over Q and Q(i) (real, purely imaginary and complex coefficients), with
valuations up to prec - 1, all-zero series, and unequal precisions and
denominators.  The reference is a schoolbook product over ``Scalar``
coefficients, written out here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import _SeriesAcc
from patchalg.scalars import QQ, Scalar, cyclotomic_field
from patchalg.series import TruncSeries

QI = cyclotomic_field(4)

fields = st.sampled_from([QQ, QI])


@st.composite
def series(draw, field, prec):
    """A series of precision ``prec``: zero, or of valuation up to prec - 1
    with coefficients over one denominator; over Q(i) real, purely
    imaginary or complex."""
    if draw(st.integers(0, 7)) == 0:
        return TruncSeries.zero(field, prec)
    v = draw(st.integers(0, prec - 1))
    den = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["real", "imag", "complex"])) if field == QI else "real"
    nums = st.integers(-50, 50)
    values = [0] * v
    for n in range(v, prec):
        re = Fraction(draw(nums), den) if kind != "imag" else 0
        im = Fraction(draw(nums), den) if kind != "real" else 0
        if n == v and re == 0 and im == 0:
            re, im = (0, Fraction(1, den)) if kind == "imag" else (Fraction(1, den), 0)
        values.append(Scalar.of(field, re, im))
    return TruncSeries.from_scalars(field, values, prec)


def schoolbook(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    prec = min(x.prec, y.prec)
    zero = Scalar.zero(x.field)
    out = []
    for k in range(prec):
        c = zero
        for i in range(k + 1):
            c = c + x.coeff(i) * y.coeff(k - i)
        out.append(c)
    return TruncSeries.from_scalars(x.field, out, prec)


@settings(max_examples=150)
@given(fields, st.integers(1, 16), st.integers(1, 16), st.data())
def test_product_is_schoolbook(field, px, py, data):
    x = data.draw(series(field, px))
    y = data.draw(series(field, py))
    assert x * y == schoolbook(x, y)
    assert y * x == schoolbook(x, y)


@settings(max_examples=100)
@given(fields, st.integers(1, 14), st.integers(2, 6), st.data())
def test_accumulated_products_are_the_truncated_sum(field, prec, count, data):
    """2-6 products of factors at least as precise as the accumulator, over
    different denominators, sum exactly and canonically."""
    acc = _SeriesAcc(field, prec)
    want = TruncSeries.zero(field, prec)
    for _ in range(count):
        x = data.draw(series(field, prec + data.draw(st.integers(0, 4))))
        y = data.draw(series(field, prec + data.draw(st.integers(0, 4))))
        acc.add_product(x, y)
        want = want + schoolbook(x, y).truncate(prec)
    assert acc.result() == want
    assert acc.is_zero() == want.is_zero()


def test_add_product_rejects_a_less_precise_factor():
    acc = _SeriesAcc(QQ, 6)
    x = TruncSeries.one(QQ, 6)
    with pytest.raises(ValueError):
        acc.add_product(x, TruncSeries.one(QQ, 5))
