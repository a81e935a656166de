"""Laws of unit recognition, over random configurations.

Q and Q(i), two to five centers (integer or not) and precision 4 to 16.
f = c * prod (1 + (c_k - c_l) z_k) * (1 + t h), in a random chart, over up
to five drawn pairs (k, l).  Each factor is (s - c_l)/(s - c_k) mod t, so
the t^0 layer of f has c as its constant, the net poles
Counter(k) - Counter(l) and the net zeros Counter(l) - Counter(k).
``_unit_factorization`` returns c and the sorted poles zipped with the
sorted zeros, and ``unit_invert`` inverts f exactly.  A factor with its
zero away from the centers, or a zero constant, is not recognized.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import (
    AnalyticElement,
    UnitNotRecognized,
    _unit_factorization,
    chart_ratio_unit,
    random_element,
    unit_invert,
)
from patchalg.scalars import Scalar
from test_rebase_props import QI, configurations


@st.composite
def units(draw):
    """(f, c, pairs, a): the unit, its constant, the drawn pairs and a
    scalar a that is not a center."""
    cfg = draw(configurations(max_prec=16))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = rng.choice(list(cfg.indices))
    c = Scalar.of(cfg.field, rng.randint(1, 9), rng.randint(-9, 9) if cfg.field == QI else 0)
    h = random_element(cfg, rng, chart=chart, max_zdeg=2, tdeg=3)
    f = (AnalyticElement.one(cfg, chart) + h.shift_t(1)).scale(c)
    index = st.sampled_from(list(cfg.indices))
    pairs = draw(st.lists(st.tuples(index, index), max_size=5))
    for k, l in pairs:
        f = f * chart_ratio_unit(cfg, k, l)
    a = rng.choice([a for a in map(cfg.scalar, range(-9, 10)) if a not in cfg.centers])
    return f, c, pairs, a


@settings(max_examples=40)
@given(units())
def test_recognized_units_factor_and_invert(case):
    f, c, pairs, _a = case
    poles = Counter(k for k, _l in pairs)
    zeros = Counter(l for _k, l in pairs)
    expected = list(zip(sorted((poles - zeros).elements()), sorted((zeros - poles).elements())))
    assert _unit_factorization(f) == (c, expected)
    assert (f * unit_invert(f)).is_one()


@settings(max_examples=20)
@given(units(), st.data())
def test_zero_off_the_centers_or_zero_constant_is_not_recognized(case, data):
    f, c, _pairs, a = case
    cfg = f.cfg
    k = data.draw(st.sampled_from(list(cfg.indices)))
    off = AnalyticElement.from_terms(cfg, k, 1, {(k, 1): cfg.centers[k] - a})
    with pytest.raises(UnitNotRecognized, match="away from the configured centers"):
        _unit_factorization(f * off)
    with pytest.raises(UnitNotRecognized, match="no constant part"):
        _unit_factorization(f - AnalyticElement.constant(cfg, c, f.chart))
