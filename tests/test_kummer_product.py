"""The Kummer product ``KummerElement.__mul__``, which sums the pairs of
each output coordinate per small factor rad * u2^lift and multiplies each
sum by its factor once, against the pairwise product it replaced.

Over Q (degree 2) and Q(i) (degrees 2 and 4), two to five centers, with
coordinates, radicand and unit u2 that carry u2 powers and t-shifts, some
coordinates zero and some at a lower precision.  The reference multiplies
every coordinate pair by itself, zeros included, and sums with
``_Coord.plus`` from each coordinate's first product; the two must agree
bit for bit in value, u2 power and t-shift.  A square x * x, whose diagonal
pairs (c, c) ``ae_dot`` multiplies as squares, must agree with the product
of x and an equal copy, and so must a norm with a coordinate known only
mod t^4.  A degree-2 product over Q at u2 power 0 makes 4 ``ae_dot``
calls: a coordinate whose one factor is 1 is its sum, not multiplied by 1.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import patchalg.analytic as analytic
from patchalg.analytic import AnalyticElement, Configuration, LocalizedElement, random_element
from patchalg.kummer import KummerExtension, _Coord
from patchalg.scalars import QQ, cyclotomic_field
from test_rebase_props import configurations


def pairwise_product(x, y):
    """x * y one coordinate pair at a time, zeros included, wrapped pairs
    times the radicand, summed over the larger u2 power by ``_Coord.plus``
    from each coordinate's first product."""
    ext = x.ext
    q = ext.degree
    rad = ext.radicand
    out = [None] * q
    for n1, c1 in enumerate(x.coords):
        for n2, c2 in enumerate(y.coords):
            n = n1 + n2
            prod = _Coord(c1.elem * c2.elem, c1.u2pow + c2.u2pow)
            if n >= q:
                n -= q
                prod = _Coord(prod.elem * rad.elem, prod.u2pow + rad.u2pow)
            out[n] = prod if out[n] is None else out[n].plus(prod, ext.u2)
    return out


def copy_of(x):
    """x with every coordinate another object of equal value, so that no
    product with x is a square."""
    coords = []
    for c in x.coords:
        b = c.elem.body
        body = AnalyticElement(b.cfg, b.chart, b.f0, dict(b.zc))
        coords.append(_Coord(LocalizedElement(body, c.elem.tshift), c.u2pow))
    return x.ext.element(coords)


def assert_same(got, want):
    for g, w in zip(got, want):
        assert g.u2pow == w.u2pow
        assert g.elem.tshift == w.elem.tshift
        assert g.elem.body == w.elem.body


@st.composite
def products(draw):
    """Two elements of one extension, of degree 2 or (over Q(i)) 4."""
    cfg = draw(configurations(max_prec=12))
    degree = 2 if cfg.field == QQ else draw(st.sampled_from([2, 4]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = draw(st.sampled_from(list(cfg.indices)))
    shifts = st.integers(-2, 2)

    def unit(c=chart, prec=None):
        """A random element of z-degree up to 2 with a unit constant term, so
        that no coordinate product vanishes."""
        f = random_element(cfg, rng, chart=c, max_zdeg=2, tdeg=3)
        one = AnalyticElement.constant(cfg, rng.randint(1, 9), c)
        return (f.shift_t(1) + one).truncate(prec or cfg.precision)

    u2 = unit()
    radicand = LocalizedElement(unit(), draw(shifts))
    ext = KummerExtension.create(cfg, chart, degree, radicand, u2=u2,
                                 radicand_u2_power=draw(st.integers(0, 2)))

    def element():
        coords = []
        for _ in range(degree):
            if draw(st.booleans()) and draw(st.booleans()):
                coords.append(_Coord(AnalyticElement.zero(cfg, chart)))
                continue
            c = draw(st.sampled_from(list(cfg.indices)))
            prec = draw(st.integers(cfg.precision - 2, cfg.precision))
            body = LocalizedElement(unit(c, prec), draw(shifts))
            coords.append(_Coord(body, draw(st.integers(0, 2))))
        return ext.element(coords)

    return element(), element()


@settings(max_examples=60)
@given(products())
def test_product_equals_the_pairwise_product(xy):
    x, y = xy
    assert_same((x * y).coords, pairwise_product(x, y))


@settings(max_examples=60)
@given(products())
def test_square_equals_the_product_of_copies(xy):
    """x * x with u2 powers 0-2 and t-shifts -2..2, so that diagonal pairs
    are squares in groups with a u2 lift above 0."""
    x, _y = xy
    x2 = copy_of(x)
    got = (x * x).coords
    assert_same(got, (x * x2).coords)
    assert_same(got, pairwise_product(x, x2))


def test_norm_with_a_zero_coordinate_mod_t4_claims_t4():
    """Degree 4 over Q(i) at N = 12, the radicand over u2 (power 1) and a
    coordinate that is zero mod t^4: the norm, whose tower steps multiply
    their diagonal pairs as squares, holds mod t^4, and agrees with the
    pairwise product of all conjugates of an equal copy."""
    QI = cyclotomic_field(4)
    cfg = Configuration(QI, [0, 1, 2], 12)
    rng = random.Random(4)

    def unit():
        f = random_element(cfg, rng, chart=1, max_zdeg=2, tdeg=3)
        return f.shift_t(1) + AnalyticElement.constant(cfg, rng.randint(1, 9), 1)

    ext = KummerExtension.create(cfg, 1, 4, unit(), u2=unit(), radicand_u2_power=1)
    x = ext.element([unit(), _Coord(unit(), 1), AnalyticElement.zero(cfg, 1, 4), unit()])
    got = x.norm()
    assert got.elem.precision == 4
    acc = copy_of(x)
    for l in range(1, 4):
        acc = ext.element(pairwise_product(acc, copy_of(x).galois(l)))
    assert_same([got], [acc.coords[0]])


def test_degree_two_product_over_q_makes_four_ae_dot_calls(monkeypatch):
    """Coordinate 0 of x * y sums (x0 y0) and (x1 y1) r, one ``ae_dot``
    each, and the two in a third; coordinate 1 sums x0 y1 + x1 y0 under the
    factor one, so that sum is the coordinate."""
    cfg = Configuration(QQ, [0, 1, 2], 8)
    rng = random.Random(2)

    def unit():
        f = random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3)
        return f.shift_t(1) + AnalyticElement.constant(cfg, rng.randint(1, 9), 0)

    ext = KummerExtension.create(cfg, 0, 2, unit(), u2=unit())
    x, y = ext.element([unit(), unit()]), ext.element([unit(), unit()])
    calls = []
    real = analytic.ae_dot

    def counted(pairs, weights=None):
        calls.append(1)
        return real(pairs, weights)

    monkeypatch.setattr(analytic, "ae_dot", counted)
    got = (x * y).coords
    monkeypatch.undo()
    assert len(calls) <= 4
    assert_same(got, pairwise_product(x, y))
