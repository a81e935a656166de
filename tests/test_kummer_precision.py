"""Kummer ``*``, ``+`` and ``norm`` claim the precision and t-shift of the
same sums written with ``LocalizedElement`` ``*`` and ``+``.

A zero coordinate known only mod t^w is a factor of every product it enters,
so it bounds each coordinate it reaches at t^w, as it bounds the sum written
out by hand.  Drawn over Q (degree 2) and Q(i) (degrees 2 and 4), two to
five centers, N <= 12, coordinates over random charts with u2 powers 0..2
and t-shifts -2..2, about a third of them zero at precision N - 3..N.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, Configuration, LocalizedElement, random_element
from patchalg.kummer import KummerExtension, _Coord
from patchalg.scalars import QQ
from test_rebase_props import configurations


def lifted(c, power, u2):
    e = c.elem
    for _ in range(power - c.u2pow):
        e = e * LocalizedElement.of(u2)
    return e


def scalar_sum(terms, u2):
    """The sum of _Coords with ``+``, over the largest u2 power."""
    power = max(c.u2pow for c in terms)
    total = None
    for c in terms:
        e = lifted(c, power, u2)
        total = e if total is None else total + e
    return _Coord(total, power)


def scalar_product(ext, x, y):
    """Every ordered coordinate pair with ``*``, wrapped pairs times the
    radicand, each coordinate summed by ``scalar_sum``."""
    q = ext.degree
    rad = ext.radicand
    groups = [[] for _ in range(q)]
    for n1, c1 in enumerate(x):
        for n2, c2 in enumerate(y):
            prod = _Coord(c1.elem * c2.elem, c1.u2pow + c2.u2pow)
            if n1 + n2 >= q:
                prod = _Coord(prod.elem * rad.elem, prod.u2pow + rad.u2pow)
            groups[(n1 + n2) % q].append(prod)
    return [scalar_sum(g, ext.u2) for g in groups]


def scalar_norm(x):
    """acc * sigma^step(acc) down the tower, each by ``scalar_product``."""
    ext = x.ext
    q = ext.degree
    z = ext.zeta_powers
    acc = list(x.coords)
    step = q // 2
    while step:
        conj = [_Coord(c.elem.scale(z[step * n % q]), c.u2pow) for n, c in enumerate(acc)]
        acc = scalar_product(ext, acc, conj)
        step //= 2
    return acc[0]


def claims(c):
    return c.elem.precision, c.elem.tshift


@st.composite
def pairs(draw):
    """Two elements of one extension, of degree 2 or (over Q(i)) 4."""
    cfg = draw(configurations(max_prec=12))
    degree = 2 if cfg.field == QQ else draw(st.sampled_from([2, 4]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = draw(st.sampled_from(list(cfg.indices)))
    shifts = st.integers(-2, 2)

    def unit(c, prec):
        f = random_element(cfg, rng, chart=c, max_zdeg=2, tdeg=3)
        one = AnalyticElement.constant(cfg, rng.randint(1, 9), c)
        return (f.shift_t(1) + one).truncate(prec)

    N = cfg.precision
    ext = KummerExtension.create(cfg, chart, degree, LocalizedElement(unit(chart, N), draw(shifts)),
                                 u2=unit(chart, N), radicand_u2_power=draw(st.integers(0, 2)))

    def element():
        coords = []
        for _ in range(degree):
            c = draw(st.sampled_from(list(cfg.indices)))
            prec = draw(st.integers(N - 3, N))
            body = AnalyticElement.zero(cfg, c, prec) if rng.random() < 0.35 else unit(c, prec)
            coords.append(_Coord(LocalizedElement(body, draw(shifts)), draw(st.integers(0, 2))))
        return ext.element(coords)

    return element(), element()


@settings(max_examples=60)
@given(pairs())
def test_kummer_arithmetic_claims_the_scalar_precision(xy):
    x, y = xy
    u2 = x.ext.u2
    for got, want in zip((x * y).coords, scalar_product(x.ext, x.coords, y.coords)):
        assert claims(got) == claims(want)
        assert got.equals(want, u2)
    for got, a, b in zip((x + y).coords, x.coords, y.coords):
        want = scalar_sum([a, b], u2)
        assert claims(got) == claims(want)
        assert got.equals(want, u2)
    got, want = x.norm(), scalar_norm(x)
    assert claims(got) == claims(want)
    assert got.equals(want, u2)


def test_zero_coordinate_bounds_the_precision():
    """N = 12 over Q in degree 2: with x = (a, 0 mod t^4) and y = (b, c),
    x * y holds mod t^4 in both coordinates, x + y in the second, and the
    norm a^2 - 0^2 * radicand mod t^4."""
    cfg = Configuration(QQ, [0, 1, 2], 12)
    rng = random.Random(12)
    a, b, c, rad = (random_element(cfg, rng, chart=0, max_zdeg=2) for _ in range(4))
    ext = KummerExtension.create(cfg, 0, 2, rad)
    x = ext.element([a, AnalyticElement.zero(cfg, 0, 4)])
    y = ext.element([b, c])
    assert [co.elem.precision for co in (x * y).coords] == [4, 4]
    assert [co.elem.precision for co in (x + y).coords] == [12, 4]
    assert x.norm().elem.precision == 4
