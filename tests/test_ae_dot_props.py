"""Laws of the product ``ae_dot``, over random configurations.

Q and Q(i), two to five centers (integer or not), precision 4 to 24,
z-degree up to 8, and factors of any valuation.  The pairs may carry
integer weights.  A square (a pair whose two factors are one object) must
equal the product of two equal copies.
The last test bounds the work of one product by counting series products
and accumulator adds.
"""

import random
from functools import reduce
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, Configuration, _SeriesAcc, ae_dot, random_element
from patchalg.oracle import OracleCache, oracle_of_element
from patchalg.scalars import QQ, Scalar
from test_rebase_props import QI, configurations


@st.composite
def factors(draw, count, max_zdeg=8):
    """``count`` random canonical forms over one configuration, each in any chart."""
    cfg = draw(configurations())
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for _ in range(count):
        c = draw(st.sampled_from(list(cfg.indices)))
        zdeg = draw(st.integers(1, max_zdeg))
        f = random_element(cfg, rng, chart=c, max_zdeg=zdeg)
        if cfg.field == QI:
            g = random_element(cfg, rng, chart=c, max_zdeg=zdeg)
            f = f + g.scale(Scalar.of(QI, 0, 1))
        out.append(f.shift_t(draw(st.integers(0, 3))))
    return out


@settings(max_examples=40)
@given(factors(2, max_zdeg=6))
def test_product_agrees_with_oracle(fg):
    f, g = fg
    cache = OracleCache(f.cfg, 5, min(f.precision, 8))
    of = oracle_of_element(f, f.chart, cache)
    og = oracle_of_element(g, f.chart, cache)
    assert of * og == oracle_of_element(f * g, f.chart, cache)


@settings(max_examples=60)
@given(factors(2))
def test_product_commutes(fg):
    f, g = fg
    assert (g * f).rebase(f.chart) == f * g


@settings(max_examples=30)
@given(factors(3, max_zdeg=6))
def test_product_associates(fgh):
    f, g, h = fgh
    assert (f * g) * h == f * (g * h)


WEIGHTS = st.sampled_from([-2, -1, 1, 2])


@settings(max_examples=40)
@given(factors(6), st.lists(WEIGHTS, min_size=3, max_size=3))
def test_dot_is_sum_of_products(fs, ks):
    """Without weights and with an integer weight k for each pair (f, g),
    which adds k * f * g."""
    pairs = [(fs[0], fs[1]), (fs[2], fs[3]), (fs[4], fs[5])]
    want = pairs[0][0] * pairs[0][1]
    for f, g in pairs[1:]:
        want = want + f * g
    assert ae_dot(pairs) == want
    want = (fs[0] * fs[1]).scale(ks[0])
    for (f, g), k in zip(pairs[1:], ks[1:]):
        want = want + (f * g).scale(k)
    assert ae_dot(pairs, ks) == want


@settings(max_examples=40)
@given(factors(2), st.data())
def test_product_commutes_with_truncation(fg, data):
    f, g = fg
    m = data.draw(st.integers(1, f.precision))
    assert (f * g).truncate(m) == f.truncate(m) * g.truncate(m)


@settings(max_examples=40)
@given(factors(2))
def test_product_valuation_is_superadditive(fg):
    f, g = fg
    assert (f * g).valuation() >= f.valuation() + g.valuation()


def copy_of(f):
    """An element equal to f that is another object."""
    return AnalyticElement(f.cfg, f.chart, f.f0, dict(f.zc))


@st.composite
def squares(draw):
    """(f, g) from ``factors``: f is sometimes without its f0 slot, or a
    zero known only mod t^w; g, moved to a chart other than f's, goes first
    in a dot, so that f's square is rebased."""
    f, g = draw(factors(2, max_zdeg=6))
    cfg = f.cfg
    shape = draw(st.sampled_from(["whole", "whole", "no f0", "zero"]))
    if shape == "no f0":
        f = AnalyticElement(cfg, f.chart, cfg.zero_series(f.precision), f.zc)
    elif shape == "zero":
        f = AnalyticElement.zero(cfg, f.chart, draw(st.integers(1, cfg.precision)))
    if g.chart == f.chart:
        g = g.rebase(draw(st.sampled_from([k for k in cfg.indices if k != f.chart])))
    return f, g


@settings(max_examples=60)
@given(squares(), WEIGHTS)
def test_square_equals_the_product_of_copies(fg, k):
    """``ae_dot`` multiplies each unordered slot pair of a square once, the
    off-diagonal ones at scale 2 (2k with a weight k): the result equals
    the product of two equal copies in value, chart and precision, alone,
    with a weight, and after a pair in another chart."""
    f, g = fg
    got, want = ae_dot([(f, f)]), ae_dot([(f, copy_of(f))])
    assert got == want and got.precision == want.precision
    got, want = ae_dot([(f, f)], [k]), ae_dot([(f, copy_of(f))], [k])
    assert got == want and got.precision == want.precision
    got = ae_dot([(g, copy_of(g)), (f, f)])
    want = ae_dot([(g, copy_of(g)), (f, copy_of(f))])
    assert got == want and got.precision == want.precision
    assert ae_dot([(g, g), (f, f)]) == want


@settings(max_examples=40)
@given(squares(), st.integers(2, 5))
def test_power_equals_the_product_of_copies(fg, n):
    f, _g = fg
    want = reduce(mul, [copy_of(f) for _ in range(n)])
    got = f ** n
    assert got == want and got.precision == want.precision


def test_cross_product_work_is_quadratic(monkeypatch):
    """F(z_0) * G(z_1), both dense of degree d: d^2 series products, each
    convolved into its cell, and with the sweep at most three accumulator
    operations per cell."""
    d = 12
    cfg = Configuration(QQ, [0, 1, 2], 4)
    rng = random.Random(5)

    def dense(k):
        zc = {(k, n): cfg.series([rng.randint(1, 9) for _ in range(4)]) for n in range(1, d + 1)}
        return AnalyticElement.from_terms(cfg, 0, 0, zc)

    F, G = dense(0), dense(1)
    counts = {"product": 0, "add": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_SeriesAcc, "add_product", counted("product", _SeriesAcc.add_product))
    monkeypatch.setattr(_SeriesAcc, "add_ints", counted("add", _SeriesAcc.add_ints))
    out = ae_dot([(F, G)])
    monkeypatch.undo()
    assert counts["product"] == d * d
    assert counts["product"] + counts["add"] <= 3 * d * d + 2 * d

    want = {}
    for (_i, a), f in F.zc.items():
        for (_j, b), g in G.zc.items():
            for kn, c in cfg.rewrite(0, a, 1, b).items():
                want[kn] = want[kn] + (f * g).scale(c) if kn in want else (f * g).scale(c)
    assert out.f0.is_zero()
    assert out.zc == {kn: s for kn, s in want.items() if not s.is_zero()}
