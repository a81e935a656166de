import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.scalars import QQ, Scalar
from patchalg.series import INF, NonUnitError, RegularityError, TruncSeries, poly_simple_root
from test_series_kernel import fields, series


def ser(vals, prec):
    return TruncSeries.from_scalars(QQ, vals, prec)


def test_mul_example():
    one_plus = ser([1, 1], 4)
    one_minus = ser([1, -1], 4)
    assert one_plus * one_minus == ser([1, 0, -1, 0], 4)


def test_mul_truncation():
    p = TruncSeries.t_power(QQ, 2, 4) * TruncSeries.t_power(QQ, 3, 4)
    assert p.is_zero()
    assert p.prec == 4


def test_additive_inverse():
    f = ser([3, -2, 0, 7], 8)
    assert (f + (-f)).is_zero()


def test_vt_examples():
    assert ser([0, 0, 1, 1], 6).vt() == 2
    assert TruncSeries.zero(QQ, 8).vt() == math.inf
    assert ser([3, 1], 4).vt() == 0


def test_invert_geometric():
    inv = ser([1, -1], 4).invert_unit()
    assert inv == ser([1, 1, 1, 1], 4)


def test_invert_constant():
    assert TruncSeries.constant(QQ, 2, 5).invert_unit() == TruncSeries.constant(QQ, "1/2", 5)


def test_invert_nonunit():
    with pytest.raises(NonUnitError):
        TruncSeries.t_power(QQ, 1, 4).invert_unit()


def test_invert_random_units():
    rng = random.Random(11)
    one = TruncSeries.one(QQ, 16)
    for _ in range(100):
        vals = [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(15)]
        u = ser(vals, 16)
        assert u * u.invert_unit() == one


def test_vt_additive_on_products():
    rng = random.Random(12)
    for _ in range(100):
        va, vb = rng.randint(0, 5), rng.randint(0, 5)
        a = ser([0] * va + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(10 - va)], 16)
        b = ser([0] * vb + [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(10 - vb)], 16)
        if va + vb < 16:
            assert (a * b).vt() == va + vb


def test_precision_rules():
    a = ser([1, 2, 3], 8)
    b = ser([1, 1], 4)
    assert (a * b).prec == 4
    assert (a + b).prec == 4
    assert a.shift_up(2).prec == 8
    assert a.shift_up(2).vt() == 2
    down = a.shift_up(3).shift_down(3)
    assert down.prec == 5
    with pytest.raises(NonUnitError):
        ser([1, 0], 4).shift_down(1)


@settings(max_examples=100)
@given(fields, st.integers(1, 12), st.data())
def test_shift_up_keeps_the_window(field, prec, data):
    """t^e * x mod t^prec for e up to and past the window: the schoolbook
    coefficients, zero for e >= prec, and ``is_zero``, ``==`` and ``vt``
    agree on it."""
    x = data.draw(series(field, prec))
    e = data.draw(st.integers(0, prec + 4))
    y = x.shift_up(e)
    zeros = [Scalar.zero(field)] * min(e, prec)
    assert y == TruncSeries.from_scalars(field, zeros + list(x.coeffs[: max(0, prec - e)]), prec)
    v = x.vt() + e
    assert y.vt() == (v if v < prec else INF)
    assert y.is_zero() == (v >= prec) == (y == TruncSeries.zero(field, prec))
    if e >= prec:
        assert y.is_zero()


def test_scale_and_coeff():
    s = ser([1, 2], 4).scale(Scalar.of(QQ, "1/3"))
    assert s.coeff(0) == Scalar.of(QQ, "1/3")
    assert s.coeff(1) == Scalar.of(QQ, "2/3")
    assert len(s.coeffs) == 4


# -- Newton root lifting -----------------------------------------------------


def test_root_linear_t_free():
    # p = 1 + 2z has the exact root -1/2
    p = [TruncSeries.one(QQ, 8), TruncSeries.constant(QQ, 2, 8)]
    lam = poly_simple_root(p, Scalar.of(QQ, "-1/2"))
    assert lam == TruncSeries.constant(QQ, "-1/2", 8)


def test_root_newton_example():
    # p = 1 + z - t z^2 around z0 = -1; substitution p(lambda) = 0 pins the
    # expansion lambda = -1 + t - 2t^2 + ...
    N = 12
    p = [TruncSeries.one(QQ, N), TruncSeries.one(QQ, N), TruncSeries.t_power(QQ, 1, N, -1)]
    lam = poly_simple_root(p, Scalar.of(QQ, -1))
    assert lam.coeff(0) == Scalar.of(QQ, -1)
    assert lam.coeff(1) == Scalar.of(QQ, 1)
    assert lam.coeff(2) == Scalar.of(QQ, -2)
    # direct substitution check at full window
    acc = TruncSeries.zero(QQ, N)
    for c in reversed(p):
        acc = acc * lam + c
    assert acc.is_zero()


def test_root_square():
    p = [TruncSeries.constant(QQ, -1, 8), TruncSeries.zero(QQ, 8), TruncSeries.one(QQ, 8)]
    lam = poly_simple_root(p, Scalar.of(QQ, 1))
    assert lam == TruncSeries.one(QQ, 8)


def test_root_rejects_non_roots():
    p = [TruncSeries.one(QQ, 8), TruncSeries.one(QQ, 8)]
    with pytest.raises(RegularityError):
        poly_simple_root(p, Scalar.of(QQ, 5))
    # double root mod t
    p2 = [TruncSeries.one(QQ, 8), TruncSeries.constant(QQ, 2, 8), TruncSeries.one(QQ, 8)]
    with pytest.raises(RegularityError):
        poly_simple_root(p2, Scalar.of(QQ, -1))
