"""The lazy substitution images on a ``PrimePoint``.

``prime_point_valuation`` reads the image of every z_k^n from the point,
one stream of eps-coefficients per (k, n), each coefficient computed when a
valuation first asks for it.  A point that has served many elements must
give the values a fresh point gives, a repeated valuation must compute no
new coefficient, and a cold valuation of value v must compute no
coefficient above eps-degree v.  Every computed coefficient has lambda's
precision.  Over Q(i) with two to five centers and N up to 32, the image
of z_k times its denominator D + d eps is lambda + eps, and one cold
valuation at N = 32 makes a handful of series products.

The work gates: a repeated valuation lists the terms of the element's own
slots and of no image coefficient, and a degree-4 Kummer element whose
four coordinates have valuation v sums v + 1 eps-degrees for its first
coordinate and v for each other one, whose bound is v.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg import analytic
from patchalg.analytic import (
    AnalyticElement,
    Configuration,
    PrimePoint,
    _SeriesAcc,
    prime_point_valuation,
    random_element,
)
from patchalg.kummer import KummerExtension, build_scenario, random_ring_element
from patchalg.scalars import Scalar, cyclotomic_field
from patchalg.series import TruncSeries
from test_prime_point_props import eps_mul
from test_rebase_props import QI, configurations

CFG = Configuration(cyclotomic_field(4), [0, 1, 2], 8)
SC = build_scenario(CFG, 2, 1, 3, 2, 2)
WARM = SC.pt_r


def fresh(pt: PrimePoint) -> PrimePoint:
    return PrimePoint(pt.cfg, pt.chart, pt.lam, pt.label, pt.ring_support)


def valuation(x, pt):
    try:
        return prime_point_valuation(x, pt)
    except ValueError as exc:  # order past the precision
        return str(exc)


def computed(pt: PrimePoint) -> dict:
    """(k, n) -> the image coefficients computed so far."""
    return {key: [c for c, _terms in img._memo] for key, img in pt._subst.items()}


def assert_matches_a_fresh_point(pt: PrimePoint) -> None:
    """Every coefficient pt has computed is the one a fresh point computes,
    at lambda's precision."""
    other = fresh(pt)
    for (k, n), coeffs in computed(pt).items():
        assert coeffs == [other._image(k, n)[d][0] for d in range(len(coeffs))]
        assert all(c.prec == pt.lam.prec for c in coeffs)


def ring_element(rng, max_zdeg=4):
    return random_element(CFG, rng, chart=SC.j, support=sorted(WARM.ring_support),
                          max_zdeg=max_zdeg)


@st.composite
def ring_elements(draw):
    """A random element of z-degree up to 4 in the point's ring, times r^w
    (w up to 3, so that some images are asked for past degree 0)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = ring_element(rng, draw(st.integers(1, 4)))
    return x * SC.r ** draw(st.integers(0, 3))


@settings(max_examples=40)
@given(ring_elements())
def test_warm_point_agrees_with_a_fresh_point(x):
    assert valuation(x, WARM) == valuation(x, fresh(WARM))


def test_cached_images_match_fresh_ones():
    """A point that has served many elements holds the coefficients a fresh
    point computes."""
    rng = random.Random(5)
    pt = fresh(WARM)
    for w in range(4):
        valuation(ring_element(rng) * SC.r ** w, pt)
    assert_matches_a_fresh_point(pt)


def test_repeated_valuation_makes_no_eps_product():
    """A repeated valuation computes no new image coefficient."""
    rng = random.Random(3)
    x = ring_element(rng) * SC.r ** 2
    assert x.zdegree() >= 4
    pt = fresh(WARM)
    first = valuation(x, pt)
    cold = computed(pt)
    assert valuation(x, pt) == first
    assert computed(pt) == cold


def test_repeated_valuation_lists_only_its_own_slots(monkeypatch):
    """A warm valuation hands every image coefficient's kept term list to
    the product, so it lists each slot of x once and nothing else."""
    rng = random.Random(3)
    x = (ring_element(rng) * SC.r ** 2).rebase(WARM.chart)
    pt = fresh(WARM)
    assert valuation(x, pt) == 2
    listed = []
    real = analytic.terms
    monkeypatch.setattr(analytic, "terms", lambda comps: listed.append(comps) or real(comps))
    assert valuation(x, pt) == 2
    monkeypatch.undo()
    assert sorted(map(id, listed)) == sorted(id(s._c) for s in x.zc.values())


@pytest.mark.parametrize("v", [0, 1, 2, 3])
def test_kummer_valuation_sums_no_surviving_degree_twice(monkeypatch, v):
    """Four coordinates of valuation v at a warm point: the first sums the
    eps-degrees 0..v, and each other one, bounded by v, the degrees below
    v, so (v + 1) + 3v degree sums, one accumulator each."""
    ext = KummerExtension.create(CFG, SC.j, 4, SC.rp.rebase(SC.j), u2=SC.u2, radicand_u2_power=1)
    rng = random.Random(11)
    ring = frozenset(CFG.indices) - {SC.i}
    coords = [random_ring_element(CFG, rng, ring, SC.j) * SC.r ** v for _ in range(4)]
    assert WARM.chart == SC.j and [prime_point_valuation(c, WARM) for c in coords] == [v] * 4
    x = ext.element(coords)
    sums = []

    class Counted(_SeriesAcc):
        def __init__(self, *args):
            sums.append(1)
            super().__init__(*args)

    monkeypatch.setattr(analytic, "_SeriesAcc", Counted)
    assert x.valuation(WARM) == v
    monkeypatch.undo()
    assert len(sums) == (v + 1) + 3 * v


def test_valuation_stops_at_the_first_surviving_degree():
    """x r^w has valuation w at the point; at a fresh point the valuation
    computes every image stream it reads up to eps-degree w, and no
    further."""
    rng = random.Random(8)
    for w in range(4):
        x = ring_element(rng) * SC.r ** w
        pt = fresh(WARM)
        assert prime_point_valuation(x, pt) == w
        assert {len(coeffs) for coeffs in computed(pt).values()} == {w + 1}


def point_and_element(cfg, rng, zdeg):
    """A point z_j = lambda with three random Gaussian-integer coefficients
    and an element of its ring with every z_k^zdeg of the ring."""
    j = rng.choice(list(cfg.indices))
    vals = [Scalar.of(QI, rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
    lam = cfg.series(vals + [0] * (cfg.precision - 3))
    support = [k for k in cfg.indices
               if k == j or not (Scalar.one(QI) + (cfg.centers[j] - cfg.centers[k]) * vals[0]).is_zero()]
    pt = PrimePoint(cfg, j, lam, ring_support=support)
    x = random_element(cfg, rng, chart=j, support=support, max_zdeg=zdeg, tdeg=4)
    x = x + AnalyticElement(cfg, j, cfg.zero_series(), {(k, zdeg): cfg.one_series() for k in support})
    return pt, x


@st.composite
def points_over_qi(draw):
    """(point, element of its ring, eps-degree bound): Q(i), N up to 32
    (24 and 32 drawn often), z-degree 1 or 2."""
    cfg = draw(configurations(max_prec=32, at_top=True).filter(lambda c: c.field == QI))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pt, x = point_and_element(cfg, rng, draw(st.integers(1, 2)))
    return pt, x, draw(st.integers(1, cfg.precision))


@settings(max_examples=10, deadline=None)
@given(points_over_qi())
def test_closed_form_images_times_their_denominator(case):
    pt, _x, bound = case
    cfg, prec = pt.cfg, pt.lam.prec
    one = cfg.one_series(prec)
    want = [pt.lam, one] + [TruncSeries.zero(cfg.field, prec)] * (bound - 2)
    for k in sorted(pt.ring_support):
        img = [pt._image(k, 1)[d][0] for d in range(bound)]
        if k == pt.chart:
            assert img == want[:bound]
            continue
        d = cfg.centers[pt.chart] - cfg.centers[k]
        denom = [one + pt.lam.scale(d), TruncSeries.constant(cfg.field, d, prec)]
        assert eps_mul(img, denom, bound) == want[:bound]


@settings(max_examples=40, deadline=None)
@given(points_over_qi())
def test_cached_images_match_fresh_ones_up_to_n_32(case):
    pt, x, _bound = case
    v = valuation(x, pt)
    assert valuation(x, pt) == v
    assert {k for k, _n in pt._subst} == pt.ring_support
    assert_matches_a_fresh_point(pt)


COLD_PRODUCTS = 16  # at most; 12-13 on the five seeds below


def test_one_cold_valuation_at_n_32_makes_few_products(monkeypatch):
    """One cold valuation of a z-degree 2 element over Q(i), N = 32, five
    centers: one series product per term at eps-degree 0 and one per
    square's first image coefficient, not the whole eps-expansion of every
    image (over 2,000 products)."""
    cfg = Configuration(QI, [Scalar.of(QI, a, b) for a, b in ((0, 0), (1, 0), (0, 1), (2, 1), (-1, 3))], 32)
    cases = [point_and_element(cfg, random.Random(seed), 2) for seed in range(5)]
    calls = []
    real = _SeriesAcc.add_product

    def counted(self, *args):
        calls[-1] += 1
        return real(self, *args)

    monkeypatch.setattr(_SeriesAcc, "add_product", counted)
    for pt, x in cases:
        calls.append(0)
        valuation(x, pt)
    monkeypatch.undo()
    assert all(0 < c <= COLD_PRODUCTS for c in calls), calls
