"""``prime_point_valuation`` against a full eps-expansion, over random
configurations and prime points.

Q and Q(i), two to five centers, precision 4 to 24, a random point
z_j = lambda and random elements of its ring: some with f0 = 0, some times
(z_j - lambda)^m so that they vanish to high order.  The reference below
substitutes z_j = lambda + eps and z_k = (lambda + eps)/(1 + (c_j - c_k)
(lambda + eps)) into every term, expands to the full budget N in eps, and
reads off the first nonzero eps-degree.  The valuation must be that degree
when it is below N, and an error otherwise.  Over Q(i) lambda's
coefficients have nonzero imaginary parts, and an element is x + i y for
two random elements x and y.

A valuation with a bound b is min(v, b) whenever the unbounded valuation v
is defined; otherwise it is b for b up to x's precision N and an error
above it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, PrimePoint, prime_point_valuation, random_element
from patchalg.scalars import Scalar
from patchalg.series import INF
from test_rebase_props import QI, configurations


def eps_mul(a, b, budget):
    out = [None] * min(budget, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(out) - i]):
            out[i + j] = x * y if out[i + j] is None else out[i + j] + x * y
    return out


def full_expansion_order(x, pt, budget):
    """First nonzero eps-degree of x at the point, expanded to ``budget``."""
    cfg = x.cfg
    body = x.rebase(pt.chart)
    one = cfg.one_series(pt.lam.prec)
    lam_plus = [pt.lam, one]
    images = {}
    for k in body.support():
        if k == pt.chart:
            images[k] = lam_plus
            continue
        dk = cfg.centers[pt.chart] - cfg.centers[k]
        # 1/(A + dk eps) = sum_m A^-1 (-dk A^-1)^m eps^m, A = 1 + dk lambda
        a_inv = (one + pt.lam.scale(dk)).invert_unit()
        ratio = a_inv.scale(-dk)
        geo = [a_inv]
        for _ in range(budget - 1):
            geo.append(geo[-1] * ratio)
        images[k] = eps_mul(lam_plus, geo, budget)
    total = [body.f0]
    for k, n, s in body.terms():
        power = images[k]
        for _ in range(n - 1):
            power = eps_mul(power, images[k], budget)
        total += [None] * (len(power) - len(total))
        for d, c in enumerate(power):
            total[d] = c * s if total[d] is None else total[d] + c * s
    for d, c in enumerate(total[:budget]):
        if c is not None and not c.is_zero():
            return d
    return INF


@st.composite
def points_and_elements(draw):
    cfg = draw(configurations())
    rng = random.Random(draw(st.integers(0, 2**32)))
    j = draw(st.sampled_from(list(cfg.indices)))
    im = [b for b in range(-5, 6) if b] if cfg.field == QI else [0]
    vals = [Scalar.of(cfg.field, rng.randint(-5, 5), rng.choice(im)) for _ in range(3)]
    lam = cfg.series(vals + [0] * (cfg.precision - 3))
    support = [k for k in cfg.indices
               if k == j or not (Scalar.one(cfg.field)
                                 + (cfg.centers[j] - cfg.centers[k]) * vals[0]).is_zero()]
    pt = PrimePoint(cfg, j, lam, ring_support=support)
    zdeg = draw(st.integers(1, 3))
    x = random_element(cfg, rng, chart=j, support=support, max_zdeg=zdeg, tdeg=4)
    if cfg.field == QI:
        y = random_element(cfg, rng, chart=j, support=support, max_zdeg=zdeg, tdeg=4)
        x = x + y.scale(Scalar.of(QI, 0, 1))
    if draw(st.booleans()):
        x = AnalyticElement(cfg, j, cfg.zero_series(), x.zc)
    m = draw(st.integers(0, 5))
    if m:
        x = x * AnalyticElement(cfg, j, -lam, {(j, 1): cfg.one_series()}) ** m
    return pt, x


@settings(max_examples=20)
@given(points_and_elements())
def test_valuation_is_the_first_degree_of_the_full_expansion(case):
    pt, x = case
    if x.is_zero():
        return
    N = x.precision
    want = full_expansion_order(x, pt, N)
    if want < N:
        assert prime_point_valuation(x, pt) == want
    else:
        with pytest.raises(ValueError, match="exceeds the eps budget"):
            prime_point_valuation(x, pt)


@settings(max_examples=20, deadline=None)
@given(points_and_elements())
def test_bounded_valuation_is_the_minimum_with_the_bound(case):
    pt, x = case
    N = x.precision
    try:
        v = prime_point_valuation(x, pt)
    except ValueError:
        v = None
    for b in range(N + 2):
        if v is not None:
            assert prime_point_valuation(x, pt, b) == min(v, b)
        elif b <= N:
            assert prime_point_valuation(x, pt, b) == b
        else:
            with pytest.raises(ValueError):
                prime_point_valuation(x, pt, b)
