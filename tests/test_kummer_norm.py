"""Laws of the Kummer norm ``KummerElement.norm``, which multiplies down the
tower of fixed fields.

Over Q(i), in degrees 2 and 4, with the radicand r'/u2 (u2 power 1) of the
kummer-qi benchmark set-up and random coordinates, some of them zero: at
N = 8 with integer coordinates, and at N = 12 (the benchmark's precision)
with coordinates x + i y, some of them real or purely imaginary, so that
every component pass of the series product runs; at N = 8 also with
coordinates that carry u2 powers and t-shifts.  The reference is the
product of all q conjugates, written out here.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patchalg.analytic as analytic
from patchalg.analytic import Configuration, LocalizedElement
from patchalg.kummer import KummerExtension, _Coord, build_scenario, random_ring_element
from patchalg.scalars import Scalar, cyclotomic_field

QI = cyclotomic_field(4)
CFG = Configuration(QI, [0, 1, 2], 8)
SC = build_scenario(CFG, 2, 1, 3, 2, 2)
RING = frozenset(CFG.indices) - {SC.i}


def extension(degree: int) -> KummerExtension:
    return KummerExtension.create(CFG, SC.j, degree, SC.rp.rebase(SC.j),
                                  u2=SC.u2, radicand_u2_power=1)


EXT = {q: extension(q) for q in (2, 4)}


@st.composite
def elements(draw, count=1):
    """``count`` elements of one extension, each coordinate zero or a random
    ring element (a unit at the point, as in the kummer-qi requests)."""
    ext = EXT[draw(st.sampled_from([2, 4]))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    zero = analytic.AnalyticElement.zero(CFG, SC.j)
    out = []
    for _ in range(count):
        mask = draw(st.lists(st.booleans(), min_size=ext.degree, max_size=ext.degree))
        out.append(ext.element([random_ring_element(CFG, rng, RING, SC.j) if keep else zero
                                for keep in mask]))
    return out


def conjugate_product(x):
    """x * sigma(x) * ... * sigma^(q-1)(x), which must lie in the base."""
    acc = x
    for l in range(1, x.ext.degree):
        acc = acc * x.galois(l)
    assert all(c.is_zero() for c in acc.coords[1:])
    return acc.coords[0]


def same_value(c1, c2, u2=SC.u2) -> bool:
    p = max(c1.u2pow, c2.u2pow)
    return c1.lifted(p, u2).equals(c2.lifted(p, u2))


@settings(max_examples=30)
@given(elements())
def test_norm_is_the_product_of_all_conjugates(xs):
    (x,) = xs
    got, want = x.norm(), conjugate_product(x)
    assert got.u2pow == want.u2pow
    assert got.elem.tshift == want.elem.tshift
    assert got.elem.body == want.elem.body


@settings(max_examples=15)
@given(elements(count=2))
def test_norm_is_multiplicative(xy):
    x, y = xy
    nx, ny = x.norm(), y.norm()
    product = _Coord(nx.elem * ny.elem, nx.u2pow + ny.u2pow)
    assert same_value((x * y).norm(), product)


@settings(max_examples=15)
@given(elements())
def test_norm_is_galois_invariant(xs):
    (x,) = xs
    for l in range(1, x.ext.degree):
        assert same_value(x.galois(l).norm(), x.norm())


@st.composite
def aligned_elements(draw):
    """One element of degree 2 or 4 whose coordinates carry u2 powers 0-2
    and t-shifts -2..2, some of them zero."""
    ext = EXT[draw(st.sampled_from([2, 4]))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    zero = analytic.AnalyticElement.zero(CFG, SC.j)
    coords = []
    for _ in range(ext.degree):
        if draw(st.integers(0, 3)) == 0:
            coords.append(_Coord(zero))
            continue
        body = LocalizedElement(random_ring_element(CFG, rng, RING, SC.j), draw(st.integers(-2, 2)))
        coords.append(_Coord(body, draw(st.integers(0, 2))))
    return ext.element(coords)


@settings(max_examples=40)
@given(aligned_elements())
def test_norm_with_u2_powers_and_t_shifts_is_the_product_of_all_conjugates(x):
    """The unordered pairs of each tower step reproduce the largest u2 power
    and the smallest t-shift of the ordered conjugate product."""
    got, want = x.norm(), conjugate_product(x)
    assert got.u2pow == want.u2pow
    assert got.elem.tshift == want.elem.tshift
    assert got.elem.body == want.elem.body


CFG12 = Configuration(QI, [0, 1, 2], 12)
SC12 = build_scenario(CFG12, 2, 1, 3, 2, 2)
EXT12 = {q: KummerExtension.create(CFG12, SC12.j, q, SC12.rp.rebase(SC12.j),
                                   u2=SC12.u2, radicand_u2_power=1) for q in (2, 4)}
I = Scalar.of(QI, 0, 1)


@st.composite
def complex_elements(draw, count=1):
    """``count`` elements of one N = 12 extension, each coordinate x + i y
    for random ring elements x and y, or only x, only i y, or zero."""
    ext = EXT12[draw(st.sampled_from([2, 4]))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = frozenset(CFG12.indices) - {SC12.i}
    zero = analytic.AnalyticElement.zero(CFG12, SC12.j)
    shapes = st.sampled_from(["complex", "complex", "real", "imaginary", "zero"])
    out = []
    for _ in range(count):
        coords = []
        for _n in range(ext.degree):
            shape = draw(shapes)
            x = random_ring_element(CFG12, rng, ring, SC12.j) if shape in ("complex", "real") else zero
            if shape in ("complex", "imaginary"):
                x = x + random_ring_element(CFG12, rng, ring, SC12.j).scale(I)
            coords.append(x)
        out.append(ext.element(coords))
    return out


@settings(max_examples=30)
@given(complex_elements())
def test_complex_norm_at_n12_is_the_product_of_all_conjugates(xs):
    (x,) = xs
    got, want = x.norm(), conjugate_product(x)
    assert got.u2pow == want.u2pow
    assert got.elem.tshift == want.elem.tshift
    assert got.elem.body == want.elem.body


@settings(max_examples=15)
@given(complex_elements(count=2))
def test_complex_norm_at_n12_is_multiplicative(xy):
    x, y = xy
    nx, ny = x.norm(), y.norm()
    product = _Coord(nx.elem * ny.elem, nx.u2pow + ny.u2pow)
    assert same_value((x * y).norm(), product, SC12.u2)


@settings(max_examples=15)
@given(complex_elements())
def test_complex_norm_at_n12_is_galois_invariant(xs):
    (x,) = xs
    for l in range(1, x.ext.degree):
        assert same_value(x.galois(l).norm(), x.norm(), SC12.u2)


def test_norm_rejects_a_non_primitive_root_of_unity():
    """With zeta = -1 in degree 4, sigma^2 is the identity, so x * sigma^2(x)
    is x^2, whose odd coordinates do not vanish.  With zeta = i in degree 2
    the mixed pair of x * sigma(x) has the weight 1 + i, not an integer."""
    good = EXT[4]
    bad = KummerExtension(CFG, SC.j, 4, Scalar.of(QI, -1), good.radicand, SC.u2)
    rng = random.Random(7)
    x = bad.element([random_ring_element(CFG, rng, RING, SC.j) for _ in range(4)])
    with pytest.raises(ArithmeticError, match="fixed field of sigma\\^2"):
        x.norm()
    bad = KummerExtension(CFG, SC.j, 2, I, good.radicand, SC.u2)
    x = bad.element([random_ring_element(CFG, rng, RING, SC.j) for _ in range(2)])
    with pytest.raises(ArithmeticError, match="zeta = 1\\*w is not a primitive root of unity of order 2"):
        x.norm()


def test_dense_degree_four_norm_work(monkeypatch):
    """Two tower products over unordered coordinate pairs.  For
    x * sigma^2(x) the pairs of odd sum have weight zero, so only
    coordinates 0 ((0,0), (1,3), (2,2)) and 2 ((0,2), (1,1), (3,3)) are
    computed.  A coordinate groups its pairs by their small factor, u2 or
    the radicand: one ``ae_dot`` per group, of the pairs (c_n1, c_n2, w),
    and one of each group's sum times its factor.  Coordinate 0 takes the
    square (0,0), then (1,3) and (2,2), then the two groups; coordinate 2
    takes (0,2) and (1,1), then the square (3,3), then the two groups.
    With the two coordinates that is 6 calls; the second step, on
    coordinates 0 and 2 ((0,0) and (2,2); (0,2) cancels), takes two
    squares and their sum.  That is 9, and the calls of more than one pair
    take 2 pairs each; squares formed apart, times the small factor, with
    the shared right factors c3 * radicand and c2 * u2 built apart took 10
    calls, ordered pairs 14 calls and 20 pairs, one product per coordinate
    pair 30 calls, and x * sigma(x) * sigma^2(x) * sigma^3(x) takes 80.
    The squares, multiplied as squares with their weight in the scale,
    make 212 series products (``add_product`` calls), where the squares
    formed apart made 225 and every right factor built as c * radicand *
    u2^lift 285."""
    rng = random.Random(11)
    x = EXT[4].element([random_ring_element(CFG, rng, RING, SC.j) for _ in range(4)])
    calls = []
    products = []
    real, add_product = analytic.ae_dot, analytic._SeriesAcc.add_product

    def counted(pairs, weights=None):
        calls.append(len(pairs))
        return real(pairs, weights)

    def counted_product(*args, **kwargs):
        products.append(1)
        return add_product(*args, **kwargs)

    monkeypatch.setattr(analytic, "ae_dot", counted)
    monkeypatch.setattr(analytic._SeriesAcc, "add_product", counted_product)
    got = x.norm()
    monkeypatch.undo()
    assert len(calls) <= 9
    assert sorted(n for n in calls if n > 1) == [2, 2, 2, 2, 2]
    assert len(products) <= 212
    assert same_value(got, conjugate_product(x))
