import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import (
    AnalyticElement,
    SupportError,
    default_configuration,
    embed_xy,
    membership,
    random_element,
    split,
    t_element,
    z_generator,
)
from patchalg.scalars import Scalar
from test_rebase_props import QI, configurations

CFG = default_configuration()


def test_split_separated_support():
    z0 = z_generator(CFG, 0, 0)
    z1 = z_generator(CFG, 1, 0)
    f1, f2 = split(z0 + z1, [0], [1])
    assert f1 == z0
    assert f2.equals(z1)


def test_split_zfree_goes_left():
    t0 = t_element(CFG, 0)
    f1, f2 = split(t0, [0], [1])
    assert f1 == t0
    assert f2.is_zero()


def test_split_empty_sides():
    f = z_generator(CFG, 1, 1)
    a, b = split(f, [], [1])
    assert a.is_zero() and b.equals(f)
    a, b = split(f, [1], [])
    assert a.equals(f) and b.is_zero()


def test_split_support_error():
    f = z_generator(CFG, 0, 0) + z_generator(CFG, 2, 0)
    with pytest.raises(SupportError):
        split(f, [0], [1])


def test_split_properties_random():
    rng = random.Random(9)
    for case in range(60):
        J = frozenset(k for k in CFG.indices if rng.random() < 0.5)
        Jp = frozenset(k for k in CFG.indices if rng.random() < 0.5)
        union = J | Jp or frozenset([0])
        J = J or frozenset()
        f = random_element(
            CFG, rng, chart=rng.choice(sorted(union)),
            support=[k for k in union if rng.random() < 0.7],
        )
        f1, f2 = split(f, J, Jp)
        assert (f1 + f2.rebase(f1.chart)).equals(f), f"case {case}: sum"
        if J:
            assert membership(f1, J), f"case {case}: left membership"
        else:
            assert f1.is_zero()
        if Jp:
            assert membership(f2, Jp), f"case {case}: right membership"
        else:
            assert f2.is_zero()
        vf = f.valuation()
        assert f1.valuation() >= vf and f2.valuation() >= vf, f"case {case}: valuation"


@st.composite
def split_inputs(draw):
    """(f, J, J'): f over Q or Q(i) with 2-5 centers and N <= 32, in any
    chart, supported in the nonempty union of two random index sets."""
    cfg = draw(configurations(max_centers=5, max_prec=32))
    rng = random.Random(draw(st.integers(0, 2**32)))
    J = frozenset(k for k in cfg.indices if rng.random() < 0.5)
    Jp = frozenset(k for k in cfg.indices if rng.random() < 0.5) or frozenset([0])
    union = sorted(J | Jp)
    support = [k for k in union if rng.random() < 0.7]
    chart = rng.choice(union)
    zdeg = rng.randint(1, 4)
    f = random_element(cfg, rng, chart=chart, support=support, max_zdeg=zdeg)
    if cfg.field == QI:
        g = random_element(cfg, rng, chart=chart, support=support, max_zdeg=zdeg)
        f = f + g.scale(Scalar.of(QI, 0, 1))
    return f.shift_t(rng.randint(0, 3)), J, Jp


@settings(max_examples=40)
@given(split_inputs(), st.data())
def test_split_commutes_with_truncation(fj, data):
    f, J, Jp = fj
    m = data.draw(st.integers(1, f.precision))
    f1, f2 = split(f, J, Jp)
    g1, g2 = split(f.truncate(m), J, Jp)
    assert g1 == f1.truncate(m) and g2 == f2.truncate(m)


def test_split_positive_valuation_preserved():
    rng = random.Random(13)
    for _ in range(10):
        f = random_element(CFG, rng, chart=0, support=[0, 1, 2], tdeg=8).shift_t(2)
        f1, f2 = split(f, [0, 1], [2])
        assert (f1 + f2.rebase(f1.chart)).equals(f)
        assert membership(f1, [0, 1]) and membership(f2, [2])
        assert f1.valuation() >= 2 and f2.valuation() >= 2


def test_membership_z_not_in_plain_ring():
    assert not membership(z_generator(CFG, 0, 0), [])


def test_membership_y_in_plain_ring():
    # z_j * t_j is the embedding of Y
    el = AnalyticElement(CFG, 1, CFG.zero_series(), {(1, 1): CFG.t_series(1)})
    assert membership(el, [])
    assert el.equals(embed_xy(CFG, {(0, 1): 1}, 2))


def test_membership_degree_criterion():
    # z_j^2 t is Y^2/(X - c_j Y): not a power series in X, Y
    el = AnalyticElement(CFG, 1, CFG.zero_series(), {(1, 2): CFG.t_series(1)})
    assert not membership(el, [])
    # but z_j^2 t^2 = Y^2 is
    el2 = AnalyticElement(CFG, 1, CFG.zero_series(), {(1, 2): CFG.t_series(2)})
    assert membership(el2, [])


def test_membership_foreign_chart_rejection():
    rng = random.Random(10)
    for _ in range(20):
        g = random_element(CFG, rng, chart=0, support=[0], max_zdeg=3)
        if membership(g, []):
            continue  # degenerate draws may land in the plain ring
        assert not membership(g, [1])


def test_membership_conjunction_iff_intersection():
    rng = random.Random(11)
    for _ in range(60):
        f = random_element(CFG, rng)
        J = frozenset(k for k in CFG.indices if rng.random() < 0.5)
        Jp = frozenset(k for k in CFG.indices if rng.random() < 0.5)
        assert (membership(f, J) and membership(f, Jp)) == membership(f, J & Jp)


def test_embedded_polynomials_everywhere():
    rng = random.Random(12)
    for _ in range(10):
        poly = {}
        for a in range(4):
            for b in range(4 - a):
                if rng.random() < 0.5:
                    poly[(a, b)] = rng.randint(-9, 9)
        poly[(1, 0)] = poly.get((1, 0), 1)
        p = embed_xy(CFG, poly, rng.choice(list(CFG.indices)))
        for j in CFG.indices:
            assert membership(p, frozenset(CFG.indices) - {j})
        assert membership(p, [])
