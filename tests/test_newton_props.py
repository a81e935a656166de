"""``series.newton_lift`` and the inversions and roots built on it.

Q and Q(i), two to five centers, precision 4 to 32: a ``TruncSeries`` unit
and a recognized ``unit_invert`` unit (a constant times 1 + t h times
chart-ratio units) are inverted exactly, u * u^-1 = 1, and the inverse
commutes with truncation of the precision window.  ``weierstrass_div``
reassembles g = q f + r for a divisor whose t-coefficient w is not 1, so
the inverse of w is a real Newton iteration.  A start that is not an
inverse mod t raises, an iteration cut short of its residual check raises
instead of returning an inexact result in every caller, an exact start
costs one product, and only the last steps run at full precision.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchalg.kummer as kummer
import patchalg.series as series
from patchalg.analytic import (
    AnalyticElement, Configuration, chart_ratio_unit, random_element, t_element, unit_invert,
)
from patchalg.patching import PatchMatrix
from patchalg.scalars import QQ, Scalar
from patchalg.series import BivarSeries, TruncSeries, newton_inverse, poly_simple_root, weierstrass_div
from test_rebase_props import QI, configurations


def random_scalar(field, rng, lo=-9, hi=9):
    return Scalar.of(field, rng.randint(lo, hi), rng.randint(lo, hi) if field == QI else 0)


@st.composite
def series_units(draw):
    """(u, m): a unit of K[[t]] mod t^N and a precision m to truncate to."""
    cfg = draw(configurations(max_prec=32))
    rng = random.Random(draw(st.integers(0, 2**32)))
    c0 = random_scalar(cfg.field, rng, 1, 9)
    u = cfg.series([c0] + [random_scalar(cfg.field, rng) for _ in range(cfg.precision - 1)])
    return u, draw(st.integers(1, cfg.precision))


@settings(max_examples=30)
@given(series_units())
def test_series_inverse_is_exact_and_commutes_with_truncation(case):
    u, m = case
    inv = u.invert_unit()
    assert u * inv == TruncSeries.one(u.field, u.prec)
    assert inv.truncate(m) == u.truncate(m).invert_unit()


@st.composite
def recognized_units(draw):
    """(f, m): a constant times 1 + t h times chart-ratio units, in a random
    chart, and a precision m to truncate to."""
    cfg = draw(configurations(max_prec=32))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = rng.choice(list(cfg.indices))
    h = random_element(cfg, rng, chart=chart, max_zdeg=2, tdeg=3)
    f = (AnalyticElement.one(cfg, chart) + h.shift_t(1)).scale(random_scalar(cfg.field, rng, 1, 9))
    for _ in range(draw(st.integers(0, 2))):
        j2, j = rng.sample(list(cfg.indices), 2)
        f = f * chart_ratio_unit(cfg, j2, j)
    return f, draw(st.integers(1, cfg.precision))


@settings(max_examples=15, deadline=None)
@given(recognized_units())
def test_unit_invert_is_exact_and_commutes_with_truncation(case):
    f, m = case
    inv = unit_invert(f)
    assert (f * inv).is_one()
    assert inv.truncate(m) == unit_invert(f.truncate(m))


def bv(terms, prec=12, field=QQ):
    return BivarSeries.from_terms(field, terms, prec)


@pytest.mark.parametrize("field", [QQ, QI])
def test_division_by_a_divisor_with_w_not_one(field):
    """f = Y^2 + t (3 + Y - 2t + 5tY): w = 3 + Y - 2t + 5tY is a unit that
    the iteration has to invert."""
    rng = random.Random(9)
    P = 12
    f = bv({(0, 2): 1, (1, 0): 3, (1, 1): 1, (2, 0): -2, (2, 1): 5}, P, field)
    for case in range(20):
        terms = {(it, iy): random_scalar(field, rng)
                 for it in range(P) for iy in range(P - it) if rng.random() < 0.3}
        g = bv(terms, P, field)
        q, r = weierstrass_div(g, f)
        assert r == r.y_row()
        assert q * f + r == g.truncate(q.prec), f"case {case}"


def test_wrong_start_raises():
    """x with u x != 1 mod t: the error never vanishes, so the iteration
    raises instead of returning x."""
    u = TruncSeries.from_scalars(QQ, [2, 1, 3], 16)
    one = TruncSeries.one(QQ, 16)
    with pytest.raises(ArithmeticError, match="did not converge"):
        newton_inverse(u, TruncSeries.constant(QQ, 1, 16), one, 16)
    w = bv({(0, 0): 3, (1, 1): 1}, 8)
    with pytest.raises(ArithmeticError, match="did not converge"):
        newton_inverse(w, bv({(0, 0): 1}, 8), bv({(0, 0): 1}, 8), 8)


def test_iterations_cut_short_raise(monkeypatch):
    """With one pass allowed, every caller of ``series.newton_lift`` fails
    its residual check and raises: the series inverse, ``unit_invert``, the
    inverse of w != 1 in ``weierstrass_div``, ``invert_near_identity``, the
    simple root and the Hensel root."""
    monkeypatch.setattr(series, "newton_passes", lambda prec: 1)
    u = TruncSeries.from_scalars(QQ, [2, 1, 3], 16)
    p = [TruncSeries.from_scalars(QQ, [1, 1], 16), TruncSeries.from_scalars(QQ, [2, 0, 1], 16),
         TruncSeries.from_scalars(QQ, [0, 1], 16)]
    cfg = Configuration(QQ, [0, 1, 2], 16)
    a = AnalyticElement.from_terms(cfg, 0, 1, {(0, 2): cfg.t_series(1)})  # 1 + t z_0^2
    g = bv({(0, 0): 1, (2, 3): 4}, 16)
    f = bv({(0, 2): 1, (1, 0): 3, (1, 1): 1, (2, 0): -2, (2, 1): 5}, 16)
    A = PatchMatrix([[a, t_element(cfg, 0)], [AnalyticElement.zero(cfg, 0), a]])
    for call in (u.invert_unit, lambda: unit_invert(a), lambda: weierstrass_div(g, f),
                 A.invert_near_identity, lambda: poly_simple_root(p, Scalar.of(QQ, "-1/2")),
                 lambda: kummer.hensel_root(a, 2)):
        with pytest.raises(ArithmeticError):
            call()
    monkeypatch.undo()
    assert u * u.invert_unit() == TruncSeries.one(QQ, 16)
    assert (a * unit_invert(a)).is_one()
    q, r = weierstrass_div(g, f)
    assert q * f + r == g.truncate(q.prec)
    assert (A * A.invert_near_identity()).equals(PatchMatrix.identity(cfg, 2, 0))
    assert poly_simple_root(p, Scalar.of(QQ, "-1/2")).vt() == 0
    assert (kummer.hensel_root(a, 2) ** 2).equals(a)


def test_series_inverse_runs_few_full_precision_products(monkeypatch):
    """Step k runs mod t^min(2^k, N): of the 12 products of an N = 32
    inverse, only the start's check, the last step and the last check are
    at full precision (11 of 11 were when every step ran at N)."""
    rng = random.Random(32)
    u = TruncSeries.from_scalars(QQ, [1] + [rng.randint(-9, 9) for _ in range(31)], 32)
    precisions = []
    real = TruncSeries.__mul__

    def counted(self, other):
        out = real(self, other)
        precisions.append(out.prec)
        return out

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    inv = u.invert_unit()
    monkeypatch.undo()
    assert len(precisions) == 12
    assert precisions.count(32) <= 4
    assert u * inv == TruncSeries.one(QQ, 32)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_division_by_t_plus_power_inverts_w_in_one_product(monkeypatch, k):
    """f = t + Y^k has w = 1, so the exact start 1 ends the iteration at its
    first check: one ``BivarSeries`` product for w^-1 (g = 0 makes no
    other)."""
    P = 16
    calls = []
    real = BivarSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(BivarSeries, "__mul__", counted)
    q, r = weierstrass_div(BivarSeries.zero(QQ, P), bv({(1, 0): 1, (0, k): 1}, P))
    monkeypatch.undo()
    assert q.is_zero() and r.is_zero()
    assert len(calls) == 1
