import random

import pytest

from patchalg.analytic import (
    AnalyticElement,
    ChartError,
    Configuration,
    LocalizedElement,
    chart_ratio_unit,
    default_configuration,
    embed_xy,
    random_element,
    t_element,
    z_generator,
)
from patchalg.scalars import QQ
from patchalg.series import INF, NonUnitError

CFG = default_configuration()


def test_distinct_centers_required():
    with pytest.raises(ValueError):
        Configuration(QQ, [0, 1, 1])


def test_cross_term_rewrite():
    # centers 0 and 1: z0 z1 = z0/(0-1) + z1/(1-0)
    z0 = z_generator(CFG, 0, 0)
    z1 = z_generator(CFG, 1, 0)
    assert z0 * z1 == -z0 + z1


def test_rewrite_identity_all_pairs():
    for i in CFG.indices:
        for j in CFG.indices:
            if i == j:
                continue
            zi, zj = z_generator(CFG, i, 0), z_generator(CFG, j, 0)
            ai = (CFG.centers[i] - CFG.centers[j]).inverse()
            aj = (CFG.centers[j] - CFG.centers[i]).inverse()
            assert (zi * zj - zi.scale(ai) - zj.scale(aj)).is_zero()


def test_mul_by_one():
    rng = random.Random(0)
    f = random_element(CFG, rng)
    assert f * AnalyticElement.one(CFG, f.chart) == f


def test_unit_product_collapses():
    one = AnalyticElement.one(CFG, 0)
    f = one + z_generator(CFG, 1, 0)
    g = one - z_generator(CFG, 0, 0)
    assert (f * g).is_one()


def test_cross_term_cancellation():
    z0 = z_generator(CFG, 0, 0)
    z1 = z_generator(CFG, 1, 0)
    assert ((z0 * z1) + z0 - z1).is_zero()


def test_add_support_union_and_inverse():
    z0 = z_generator(CFG, 0, 0)
    z1 = z_generator(CFG, 1, 0)
    s = z0 + z1
    assert s.support() == {0, 1}
    assert (s + (-s)).is_zero()


def test_embed_y():
    y = embed_xy(CFG, {(0, 1): 1}, 1)
    expected = AnalyticElement(CFG, 1, CFG.zero_series(), {(1, 1): CFG.t_series(1)})
    assert y == expected


def test_embed_chart_uniformizer():
    # X - c_j Y comes out as the bare t series
    j = 2
    cj = CFG.centers[j]
    el = embed_xy(CFG, {(1, 0): 1, (0, 1): -cj.rational}, j)
    assert el == t_element(CFG, j)


def test_embed_xy_product_structure():
    # X*Y in the chart with center 0: (1 + 0*z) t * z t = z t^2
    el = embed_xy(CFG, {(1, 1): 1}, 0)
    assert el == AnalyticElement(CFG, 0, CFG.zero_series(), {(0, 1): CFG.t_series(2)})


def test_z_generator_forms():
    for chart in CFG.indices:
        for k in CFG.indices:
            g = z_generator(CFG, k, chart)
            assert g.support() == {k}
            assert g.zc[(k, 1)] == CFG.one_series()


def test_rebase_uniformizer():
    # t_0 in chart 1 with centers (0, 1): (1 + z_1) t_1
    got = t_element(CFG, 0).rebase(1)
    want = AnalyticElement(CFG, 1, CFG.t_series(1), {(1, 1): CFG.t_series(1)})
    assert got == want


def test_rebase_identity_and_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        f = random_element(CFG, rng)
        assert f.rebase(f.chart) is f
        for j2 in CFG.indices:
            assert f.rebase(j2).rebase(f.chart).equals(f)


def test_valuations():
    X = embed_xy(CFG, {(1, 0): 1}, 1)
    Y = embed_xy(CFG, {(0, 1): 1}, 1)
    assert X.valuation() == 1 and Y.valuation() == 1
    assert z_generator(CFG, 1, 0).valuation() == 0
    assert embed_xy(CFG, {(2, 0): 1, (1, 1): 1}, 0).valuation() == 2
    assert AnalyticElement.zero(CFG, 0).valuation() == INF


def test_valuation_chart_invariant():
    rng = random.Random(4)
    for _ in range(20):
        f = random_element(CFG, rng)
        vals = {f.rebase(j).valuation() for j in CFG.indices}
        assert len(vals) == 1


def test_chart_ratio_units():
    for j2 in CFG.indices:
        for j in CFG.indices:
            if j2 != j:
                u = chart_ratio_unit(CFG, j2, j)
                v = chart_ratio_unit(CFG, j, j2)
                assert (u * v).is_one()


def test_equals_across_charts():
    f = z_generator(CFG, 1, 0) + t_element(CFG, 0)
    g = f.rebase(2)
    assert f.equals(g) and g.equals(f)
    assert not f.equals(g + AnalyticElement.one(CFG, 2))


def test_mul_aligns_to_left_chart():
    f = z_generator(CFG, 1, 0)
    g = z_generator(CFG, 2, 2)
    assert (f * g).chart == 0
    assert (g * f).chart == 2
    assert (f * g).equals(g * f)


def test_configuration_mismatch():
    other = Configuration(QQ, [0, 1, 2], 8)
    with pytest.raises(ChartError):
        z_generator(CFG, 0, 0) * z_generator(other, 0, 0)


def test_shift_t():
    f = z_generator(CFG, 0, 0)
    up = f.shift_t(2)
    assert up.valuation() == 2
    assert up.shift_t(-2).equals(f.truncate(14))
    with pytest.raises(NonUnitError):
        f.shift_t(-1)


def test_shift_t_past_the_window_is_zero():
    # shift_up once kept entries past the window: at N = 3 this element read
    # zero through vt but not through is_zero, support or equals
    cfg = default_configuration(3)
    up = z_generator(cfg, 1).shift_t(4)
    assert up.is_zero()
    assert up.support() == frozenset()
    assert up.equals(AnalyticElement.zero(cfg))


def test_localized_elements():
    f = LocalizedElement(t_element(CFG, 0), -1)
    assert f.valuation() == 0
    g = f * f
    assert g.tshift == -2 and g.valuation() == 0
    s = f + LocalizedElement(AnalyticElement.one(CFG, 0), 0)
    assert s.valuation() == 0
    with pytest.raises(ValueError):
        LocalizedElement(AnalyticElement.one(CFG, 0), -1).as_element()
    assert LocalizedElement(AnalyticElement.one(CFG, 0), 2).as_element().valuation() == 2


def test_power_operator():
    f = AnalyticElement.one(CFG, 0) + z_generator(CFG, 1, 0)
    assert (f ** 3).equals(f * f * f)
    assert (f ** 0).is_one()
