"""Laws of the series product kernel ``series.mul_into``, through its two
entry points: ``TruncSeries.__mul__`` and ``_SeriesAcc.add_product``.

Over Q and Q(i) (real, purely imaginary and complex coefficients), with
valuations up to prec - 1, all-zero series, and unequal precisions and
denominators.  The reference is a schoolbook product over ``Scalar``
coefficients, written out here.  An op-count gate counts the term pairs
the convolution multiplies: over Q(i) a product costs one real convolution
per pair of nonzero components.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import _SeriesAcc
from patchalg.scalars import QQ, Scalar, cyclotomic_field
from patchalg.series import TruncSeries, mul_into, terms

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


def term_pairs(x: TruncSeries, y: TruncSeries) -> int:
    """Term pairs that ``mul_into`` multiplies for x * y: every coefficient
    of y counts each product it enters, and the result must be x * y."""
    count = 0

    class Counted(int):
        def __mul__(self, other):
            nonlocal count
            count += 1
            return int(self) * other

        __rmul__ = __mul__

    prec = min(x.prec, y.prec)
    out = [[0] * prec for _ in x._c]
    yt = tuple([(n, Counted(b)) for n, b in comp] for comp in terms(y._c))
    mul_into(out, terms(x._c), yt, prec)
    assert TruncSeries(x.field, prec, x.den * y.den, out) == x * y
    return count


def integer_rows(seed: int, prec: int, dense: bool) -> list:
    """Integer coefficients of a series of valuation up to 3 (dense: every
    coefficient from the valuation on nonzero)."""
    rng = random.Random(seed)
    v = 0 if dense else rng.randrange(4)
    rows = [0] * v
    for _ in range(v, prec):
        c = rng.choice([-3, -2, -1, 1, 2, 3]) if dense or rng.random() < 0.6 else 0
        rows.append(c)
    rows[v] = rows[v] or 1
    return rows


def qi_series(re: list, im: list) -> TruncSeries:
    return TruncSeries.from_scalars(QI, [Scalar.of(QI, a, b) for a, b in zip(re, im)], len(re))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dense", [False, True])
def test_qi_product_term_pairs(seed, dense):
    """Over Q(i) a real x real and a real x imaginary product multiply
    exactly the term pairs of the same product over Q, and a dense complex x
    complex product four times as many; a loop that made one complex
    product per term pair would count four for each."""
    px, py = 12, 12 - seed % 3
    xr, yr = integer_rows(2 * seed, px, dense), integer_rows(2 * seed + 1, py, dense)
    over_q = term_pairs(TruncSeries.from_scalars(QQ, xr, px), TruncSeries.from_scalars(QQ, yr, py))
    zx, zy = [0] * px, [0] * py
    assert term_pairs(qi_series(xr, zx), qi_series(yr, zy)) == over_q
    assert term_pairs(qi_series(xr, zx), qi_series(zy, yr)) == over_q
    assert term_pairs(qi_series(zx, xr), qi_series(yr, zy)) == over_q
    if dense:
        prec = min(px, py)
        assert over_q == prec * (prec + 1) // 2
        assert term_pairs(qi_series(xr, xr[::-1]), qi_series(yr, yr[::-1])) == 4 * over_q
