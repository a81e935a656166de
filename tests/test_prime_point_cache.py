"""The cache of substitution images on a ``PrimePoint``.

``prime_point_valuation`` reads the image of every z_k^n from the point,
keyed by (k, n, eps budget).  A point that has served many elements at
several budgets must give the values a fresh point gives, a repeated
valuation must make no product of eps-polynomials, and a valuation of
value v at a warm point must expand no eps-degree above v.  Over Q(i) with
two to five centers and N up to 32, the closed-form image of z_k times its
denominator D + d eps is lambda + eps within the eps budget.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import (
    AnalyticElement,
    Configuration,
    PrimePoint,
    _EpsPoly,
    _SeriesAcc,
    prime_point_valuation,
    random_element,
)
from patchalg.kummer import build_scenario
from patchalg.scalars import Scalar, cyclotomic_field
from patchalg.series import TruncSeries
from test_rebase_props import QI, configurations

CFG = Configuration(cyclotomic_field(4), [0, 1, 2], 8)
SC = build_scenario(CFG, 2, 1, 3, 2, 2)
WARM = SC.pt_r
BUDGETS = (3, None)  # the small one first, so a cache blind to the budget shows


def fresh_point() -> PrimePoint:
    return PrimePoint(CFG, WARM.chart, WARM.lam, WARM.label, WARM.ring_support)


def valuation(x, pt, budget):
    try:
        return prime_point_valuation(x, pt, budget)
    except ValueError as exc:  # order past the budget
        return str(exc)


@st.composite
def ring_elements(draw):
    """A random element of z-degree up to 4 in the point's ring, times r^w
    (w up to 3, so that some orders reach the small budget)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = random_element(CFG, rng, chart=SC.j, support=sorted(WARM.ring_support),
                       max_zdeg=draw(st.integers(1, 4)))
    return x * SC.r ** draw(st.integers(0, 3))


@settings(max_examples=40)
@given(ring_elements())
def test_warm_point_agrees_with_a_fresh_point(x):
    for budget in BUDGETS:
        assert valuation(x, WARM, budget) == valuation(x, fresh_point(), budget)


def test_cached_images_match_fresh_ones():
    """Every cached image, at either budget, is the one a fresh point builds;
    images hit only past the small budget need the budget in the key."""
    rng = random.Random(5)
    pt = fresh_point()
    for _ in range(4):
        x = random_element(CFG, rng, chart=SC.j, support=sorted(WARM.ring_support), max_zdeg=4)
        for budget in BUDGETS:
            valuation(x, pt, budget)
    assert {budget for _k, _n, budget in pt._subst} == {3, CFG.precision}
    for (k, n, budget), img in pt._subst.items():
        want = fresh_point()._image(k, n, budget)
        assert (img.budget, img.coeffs) == (want.budget, want.coeffs)


def test_repeated_valuation_makes_no_eps_product(monkeypatch):
    rng = random.Random(3)
    x = random_element(CFG, rng, chart=SC.j, support=sorted(WARM.ring_support), max_zdeg=4)
    assert x.zdegree() == 4
    pt = fresh_point()
    calls = []
    real = _EpsPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(_EpsPoly, "__mul__", counted)
    first = [valuation(x, pt, b) for b in BUDGETS]
    cold = len(calls)
    again = [valuation(x, pt, b) for b in BUDGETS]
    monkeypatch.undo()
    assert cold > 0
    assert again == first
    assert len(calls) == cold


def test_valuation_stops_at_the_first_surviving_degree(monkeypatch):
    """x r^w has valuation w at the point; at a warm point every series
    product the valuation makes is an image coefficient of eps-degree at
    most w times a term of x r^w."""
    rng = random.Random(8)
    pt = fresh_point()
    degree_of = {}
    for w in range(4):
        x = random_element(CFG, rng, chart=SC.j, support=sorted(WARM.ring_support), max_zdeg=4)
        x = x * SC.r ** w
        prime_point_valuation(x, pt)  # warm
        for (_k, _n, budget), img in pt._subst.items():
            if budget == CFG.precision:
                degree_of.update({id(c): d for d, c in enumerate(img.coeffs)})
        degrees = []
        real = _SeriesAcc.add_product

        def counted(self, a, *rest):
            degrees.append(degree_of[id(a)])
            return real(self, a, *rest)

        monkeypatch.setattr(_SeriesAcc, "add_product", counted)
        v = prime_point_valuation(x, pt)
        monkeypatch.undo()
        assert v == w
        assert max(degrees) == w


@st.composite
def points_over_qi(draw):
    """(point, element of its ring with every z_k of the ring, budgets):
    Q(i), N up to 32, lambda with three random Gaussian-integer
    coefficients."""
    cfg = draw(configurations(max_prec=32).filter(lambda c: c.field == QI))
    rng = random.Random(draw(st.integers(0, 2**32)))
    j = rng.choice(list(cfg.indices))
    vals = [Scalar.of(QI, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
    lam = cfg.series(vals + [0] * (cfg.precision - 3))
    support = [k for k in cfg.indices
               if k == j or not (Scalar.one(QI) + (cfg.centers[j] - cfg.centers[k]) * vals[0]).is_zero()]
    pt = PrimePoint(cfg, j, lam, ring_support=support)
    zdeg = draw(st.integers(1, 2))
    x = random_element(cfg, rng, chart=j, support=support, max_zdeg=zdeg, tdeg=4)
    x = x + AnalyticElement(cfg, j, cfg.zero_series(), {(k, zdeg): cfg.one_series() for k in support})
    return pt, x, (draw(st.integers(1, cfg.precision)), cfg.precision)


@settings(max_examples=10, deadline=None)
@given(points_over_qi())
def test_closed_form_images_times_their_denominator(case):
    pt, _x, budgets = case
    cfg, prec = pt.cfg, pt.lam.prec
    one = cfg.one_series(prec)
    for budget in budgets:
        want = [pt.lam, one] + [TruncSeries.zero(cfg.field, prec)] * (budget - 2)
        for k in sorted(pt.ring_support):
            img = pt._image(k, 1, budget)
            if k == pt.chart:
                assert img.coeffs == want[:min(2, budget)]
                continue
            assert len(img.coeffs) == budget
            d = cfg.centers[pt.chart] - cfg.centers[k]
            denom = _EpsPoly([one + pt.lam.scale(d), TruncSeries.constant(cfg.field, d, prec)], budget)
            assert (img * denom).coeffs == want[:budget]


@settings(max_examples=6, deadline=None)
@given(points_over_qi())
def test_cached_images_match_fresh_ones_up_to_n_32(case):
    pt, x, budgets = case
    fresh = PrimePoint(pt.cfg, pt.chart, pt.lam, pt.label, pt.ring_support)
    for budget in budgets:
        valuation(x, pt, budget)
        valuation(x, pt, budget)
    assert {k for k, _n, _b in pt._subst} == pt.ring_support
    for (k, n, budget), img in pt._subst.items():
        want = fresh._image(k, n, budget)
        assert (img.budget, img.coeffs) == (want.budget, want.coeffs)
