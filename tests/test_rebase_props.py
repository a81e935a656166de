"""Laws of the chart change, over random configurations.

Q and Q(i), two to five centers (integer or not), precision 4 to 24, and
random canonical forms of any valuation.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import Configuration, random_element
from patchalg.oracle import OracleCache, oracle_of_element
from patchalg.scalars import QQ, Scalar, cyclotomic_field

QI = cyclotomic_field(4)

coords = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def configurations(draw, max_centers=5, max_prec=24):
    field = draw(st.sampled_from([QQ, QI]))
    if field == QQ:
        pairs = st.tuples(coords, st.just(Fraction(0)))
    else:
        pairs = st.tuples(coords, coords)
    centers = draw(st.lists(pairs, min_size=2, max_size=max_centers, unique=True))
    prec = draw(st.integers(4, max_prec))
    return Configuration(field, [Scalar.of(field, a, b) for a, b in centers], prec)


@st.composite
def elements(draw):
    """(element, some chart) with the element's valuation up to 3; over Q(i)
    the coefficients have imaginary parts."""
    cfg = draw(configurations())
    rng = random.Random(draw(st.integers(0, 2**32)))
    zdeg = draw(st.integers(1, 6))
    f = random_element(cfg, rng, max_zdeg=zdeg)
    if cfg.field == QI:
        g = random_element(cfg, rng, chart=f.chart, max_zdeg=zdeg)
        f = f + g.scale(Scalar.of(QI, 0, 1))
    f = f.shift_t(draw(st.integers(0, 3)))
    return f, draw(st.sampled_from(list(cfg.indices)))


@settings(max_examples=40)
@given(elements())
def test_rebase_agrees_with_oracle(fj):
    f, j = fj
    cache = OracleCache(f.cfg, 6)
    assert oracle_of_element(f, j, cache) == oracle_of_element(f.rebase(j), j, cache)


@settings(max_examples=60)
@given(elements(), st.data())
def test_rebase_cocycle_and_roundtrip(fj, data):
    f, j = fj
    l = data.draw(st.sampled_from(list(f.cfg.indices)))
    g = f.rebase(j)
    assert g.rebase(l) == f.rebase(l)
    assert g.rebase(f.chart) == f


@settings(max_examples=60)
@given(elements(), st.data())
def test_rebase_commutes_with_truncation(fj, data):
    f, j = fj
    m = data.draw(st.integers(1, f.precision))
    assert f.truncate(m).rebase(j) == f.rebase(j).truncate(m)


@settings(max_examples=60)
@given(elements())
def test_rebase_keeps_valuation(fj):
    f, j = fj
    assert f.rebase(j).valuation() == f.valuation()
