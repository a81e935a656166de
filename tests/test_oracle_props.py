"""Laws of the expansion oracle's packed-integer kernels.

Q and Q(i), z-depth 1 to 12 and t-precision 1 to 24.  ``OracleSeries``
products must equal the schoolbook product below, which multiplies the
stored dicts term by term: for operands with negative t-exponents,
coefficients up to 2^200, operands whose every coefficient has the same
largest magnitude (the packed slots' worst case), unequal denominators and
zero operands.  ``oracle_of_element`` must equal the tree walk of
``oracle_expand`` over ``source_of`` in every chart, for two to five
centers and N up to 24, and for elements whose every coefficient has the
same largest magnitude.  ``embed_xy`` of a polynomial in X, Y must expand
to the polynomial itself in every chart.  A negative control perturbs one
coefficient of a product and requires the oracle to see it.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, Configuration, embed_xy, random_element
from patchalg.oracle import (
    OracleCache, OracleSeries, const, oracle_expand, oracle_of_element, source_of, xvar, yvar,
)
from patchalg.scalars import QQ, Scalar
from test_rebase_props import QI, configurations


def schoolbook(a: OracleSeries, b: OracleSeries) -> OracleSeries:
    out = {}
    for (m1, n1), v1 in a.data.items():
        for (m2, n2), v2 in b.data.items():
            m, n = m1 + m2, n1 + n2
            if m >= a.zdepth or n >= a.tprec:
                continue
            if len(v1) == 1:
                p = (v1[0] * v2[0],)
            else:
                (x, y), (u, v) = v1, v2
                p = (x * u - y * v, x * v + y * u)
            cur = out.get((m, n), (0,) * len(p))
            out[(m, n)] = tuple(c + d for c, d in zip(cur, p))
    return OracleSeries(a.field, a.zdepth, a.tprec, a.den * b.den, out)


@st.composite
def operand(draw, field, zdepth, tprec):
    """An oracle series in the window, t-exponents from as low as -6."""
    lo = draw(st.integers(-6, 0))
    keys = st.tuples(st.integers(0, zdepth - 1), st.integers(lo, tprec - 1))
    if draw(st.booleans()):
        # every coordinate of every term at one magnitude 2^b - 1, one sign
        c = draw(st.sampled_from([-1, 1])) * (2 ** draw(st.integers(1, 200)) - 1)
        values = st.just((c,) * field.dim)
    else:
        values = st.tuples(*[st.integers(-2**200, 2**200)] * field.dim)
    data = draw(st.dictionaries(keys, values, max_size=3 * zdepth + tprec))
    den = draw(st.integers(1, 10**6))
    return OracleSeries(field, zdepth, tprec, den, data)


@st.composite
def operand_pairs(draw):
    field = draw(st.sampled_from([QQ, QI]))
    zdepth, tprec = draw(st.integers(1, 12)), draw(st.integers(1, 24))
    return (draw(operand(field, zdepth, tprec)), draw(operand(field, zdepth, tprec)))


@settings(max_examples=150)
@given(operand_pairs())
@example((OracleSeries.zero(QQ, 4, 6), OracleSeries(QQ, 4, 6, 3, {(1, -2): (5,)})))
@example((OracleSeries(QI, 4, 6, 3, {(1, -2): (5, -1)}), OracleSeries.zero(QI, 4, 6)))
def test_product_equals_schoolbook(ab):
    a, b = ab
    assert a * b == schoolbook(a, b)
    assert b * a == schoolbook(a, b)


def test_product_of_dense_extreme_operands():
    # the widest slots: full windows, one magnitude and sign throughout
    for field in (QQ, QI):
        for zdepth, tprec, bits in ((1, 1, 1), (3, 7, 2), (12, 24, 64), (5, 24, 200)):
            c = 2 ** bits - 1
            full = {(m, n): (c,) * field.dim for m in range(zdepth) for n in range(-3, tprec)}
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a = OracleSeries(field, zdepth, tprec, 1,
                                 {k: tuple(sa * x for x in v) for k, v in full.items()})
                b = OracleSeries(field, zdepth, tprec, 7,
                                 {k: tuple(sb * x for x in v) for k, v in full.items()})
                assert a * b == schoolbook(a, b)


@st.composite
def elements_in_windows(draw):
    """(element, zdepth, tprec); over Q(i) the coefficients are complex."""
    cfg = draw(configurations())
    rng = random.Random(draw(st.integers(0, 2**32)))
    zdeg = draw(st.integers(1, 3))
    f = random_element(cfg, rng, max_zdeg=zdeg)
    if cfg.field == QI:
        f = f + random_element(cfg, rng, chart=f.chart, max_zdeg=zdeg).scale(Scalar.of(QI, 0, 1))
    f = f.shift_t(draw(st.integers(0, 2)))
    return f, draw(st.integers(1, 12)), draw(st.integers(1, cfg.precision))


@settings(max_examples=40)
@given(elements_in_windows())
def test_expansion_equals_tree_walk(fw):
    f, zdepth, tprec = fw
    cache = OracleCache(f.cfg, zdepth, tprec)
    for j in f.cfg.indices:
        assert oracle_of_element(f, j, cache) == oracle_expand(
            source_of(f), f.cfg, j, zdepth, tprec)


def test_expansion_of_extreme_elements():
    # the widest expansion slots: every coefficient at one magnitude and sign
    for field in (QQ, QI):
        cfg = Configuration(field, [0, 1, 3], 8)
        for bits in (1, 5, 64):
            for sign in (1, -1):
                c = sign * (2 ** bits - 1)
                val = Scalar.of(field, c, c) if field == QI else Scalar.of(field, c)
                ser = cfg.series([val] * cfg.precision)
                for zc in ({}, {(1, 2): ser, (2, 1): ser}):
                    f = AnalyticElement(cfg, 0, ser, zc)
                    cache = OracleCache(cfg, 5)
                    for j in cfg.indices:
                        assert oracle_of_element(f, j, cache) == oracle_expand(
                            source_of(f), cfg, j, 5)


@st.composite
def polynomials(draw):
    """(configuration, {(a, b): integer coefficient of X^a Y^b} of total
    degree <= 4, the chart to embed it in)."""
    cfg = draw(configurations())
    monomials = [(a, b) for a in range(5) for b in range(5 - a)]
    poly = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-9, 9)))
    return cfg, poly, draw(st.sampled_from(list(cfg.indices)))


@settings(max_examples=40)
@given(polynomials())
def test_embed_xy_expands_to_its_polynomial(cpj):
    cfg, poly, j = cpj
    f = embed_xy(cfg, poly, j)
    zdepth = 5  # a polynomial of total degree <= 4 has z-degree <= 4 in every chart
    cache = OracleCache(cfg, zdepth)
    expr = sum((const(c) * xvar() ** a * yvar() ** b for (a, b), c in poly.items()), const(0))
    for chart in cfg.indices:
        assert oracle_of_element(f, chart, cache) == oracle_expand(expr, cfg, chart, zdepth)


@st.composite
def products(draw):
    cfg = draw(configurations(max_prec=16))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fg = []
    for _ in range(2):
        f = random_element(cfg, rng, max_zdeg=3)
        if cfg.field == QI:
            f = f + random_element(cfg, rng, chart=f.chart, max_zdeg=3).scale(Scalar.of(QI, 0, 1))
        fg.append(f)
    return fg[0], fg[1].rebase(fg[0].chart), draw(st.booleans())


@settings(max_examples=30)
@given(products())
def test_negative_control_sees_one_coefficient(fgk):
    """f*g perturbed by one in the t^(N-1) coefficient of f0, or in the t^0
    coefficient of its top z-slot, no longer matches the oracle product."""
    f, g, in_f0 = fgk
    cfg, N = f.cfg, f.precision
    h = f * g
    if in_f0 or not h.zc:
        bump = AnalyticElement.from_terms(cfg, h.chart, cfg.t_series(N - 1), {})
    else:
        k, n = max(h.zc, key=lambda kn: (kn[1], kn[0]))
        bump = AnalyticElement.from_terms(cfg, h.chart, 0, {(k, n): 1})
    cache = OracleCache(cfg, h.zdegree() + 1)
    of = oracle_of_element(f, f.chart, cache)
    og = oracle_of_element(g, f.chart, cache)
    assert of * og == oracle_of_element(h, f.chart, cache)
    assert of * og != oracle_of_element(h + bump, f.chart, cache)
