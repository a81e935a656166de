"""Laws of ``BivarSeries`` against a dict model {(it, iy): Scalar}.

Over Q and Q(i) (with dense complex coefficients), precision 1 to 16 and a
few cases at 32: product, sum, difference, negation, scaling by real,
imaginary, complex and zero scalars, ``truncate``, ``y_row``,
``shift_down_t``, ``coeff``, ``from_terms`` dropping the terms at total
degree >= precision, and equality.  The model is written out here: a
series is its nonzero coefficients below the total-degree cut.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.scalars import QQ, Scalar, cyclotomic_field
from patchalg.series import BivarSeries

QI = cyclotomic_field(4)

fields = st.sampled_from([QQ, QI])
values = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def scalar(field, re, im=0):
    return Scalar.of(field, re, im if field == QI else 0)


@st.composite
def models(draw, field, prec):
    """Raw terms for ``from_terms``, some past the cut: sparse, or dense
    with every coefficient below the cut nonzero (complex over Q(i))."""
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    if draw(st.booleans()):
        keys = [(it, iy) for it in range(prec) for iy in range(prec - it)]
        return {k: scalar(field, value() or Fraction(1, 2), value() or Fraction(-1, 3))
                for k in keys}
    keys = [(rng.randrange(prec + 2), rng.randrange(prec + 2)) for _ in range(rng.randrange(13))]
    return {k: scalar(field, value(), value()) for k in keys}


def cut(model: dict, prec: int) -> dict:
    """The model below the total-degree cut, without zero coefficients."""
    return {k: v for k, v in model.items() if k[0] + k[1] < prec and not v.is_zero()}


def as_model(s: BivarSeries) -> dict:
    return dict(s.terms())


def add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for k, v in y.items():
        v = v if sign > 0 else -v
        out[k] = out[k] + v if k in out else v
    return out


def mul(x: dict, y: dict, prec: int) -> dict:
    out: dict = {}
    for (a, b), u in x.items():
        for (c, d), v in y.items():
            k = (a + c, b + d)
            if k[0] + k[1] < prec:
                out[k] = out[k] + u * v if k in out else u * v
    return out


def check(s: BivarSeries, model: dict, prec: int) -> None:
    """s is the model at precision prec, coefficient by coefficient and as a
    canonical value."""
    want = cut(model, prec)
    assert s.prec == prec
    assert as_model(s) == want
    assert s == BivarSeries.from_terms(s.field, want, prec)
    assert s.is_zero() == (not want)
    zero = Scalar.zero(s.field)
    for it in range(prec):
        for iy in range(prec - it):
            assert s.coeff(it, iy) == want.get((it, iy), zero)


@settings(max_examples=120)
@given(fields, st.integers(1, 16), st.integers(1, 16), st.data())
def test_ring_operations_match_the_model(field, px, py, data):
    mx, my = data.draw(models(field, px)), data.draw(models(field, py))
    x, y = BivarSeries.from_terms(field, mx, px), BivarSeries.from_terms(field, my, py)
    check(x, mx, px)
    check(y, my, py)
    prec = min(px, py)
    mx, my = cut(mx, px), cut(my, py)
    check(x * y, mul(mx, my, prec), prec)
    check(y * x, mul(mx, my, prec), prec)
    check(x + y, add(mx, my), prec)
    check(x - y, add(mx, my, -1), prec)
    check(-x, {k: -v for k, v in mx.items()}, px)
    assert (x == y) == (px == py and mx == my)


@settings(max_examples=80)
@given(fields, st.integers(1, 16), st.sampled_from(["real", "imag", "complex", "zero"]), st.data())
def test_scale_matches_the_model(field, prec, kind, data):
    m = cut(data.draw(models(field, prec)), prec)
    re, im = data.draw(values) or 1, data.draw(values) or 1
    if kind == "zero":
        re = im = 0
    elif kind == "real" or field == QQ:
        im = 0
    elif kind == "imag":
        re = 0
    s = scalar(field, re, im)
    check(BivarSeries.from_terms(field, m, prec).scale(s), {k: v * s for k, v in m.items()}, prec)


@settings(max_examples=80)
@given(fields, st.integers(1, 16), st.data())
def test_structure_helpers_match_the_model(field, prec, data):
    m = cut(data.draw(models(field, prec)), prec)
    x = BivarSeries.from_terms(field, m, prec)
    k = data.draw(st.integers(1, prec + 2))
    check(x.truncate(k), m, min(k, prec))
    check(x.y_row(), {key: v for key, v in m.items() if key[0] == 0}, prec)
    check(x.shift_down_t(), {(it - 1, iy): v for (it, iy), v in m.items() if it}, prec)
    assert (x == x.y_row()) == all(it == 0 for it, _iy in m)
    for key in [(prec, 0), (0, prec), (-1, 0), (0, -1)]:
        with pytest.raises(IndexError):
            x.coeff(*key)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("field", [QQ, QI])
def test_operations_at_precision_32(field, seed):
    rng = random.Random(seed)
    P = 32

    def draw():
        return {(rng.randrange(P + 2), rng.randrange(P + 2)):
                scalar(field, Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                for _ in range(150)}

    mx, my = draw(), draw()
    x, y = BivarSeries.from_terms(field, mx, P), BivarSeries.from_terms(field, my, P)
    mx, my = cut(mx, P), cut(my, P)
    check(x * y, mul(mx, my, P), P)
    check(x - y, add(mx, my, -1), P)
    s = scalar(field, Fraction(2, 3), Fraction(-5, 7))
    check(x.scale(s), {k: v * s for k, v in mx.items()}, P)
    check(x.shift_down_t().truncate(20), {(it - 1, iy): v for (it, iy), v in mx.items() if it}, 20)
