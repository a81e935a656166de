"""The t-adic lift of `cartan_factor` against the classical contraction.

`contraction_factor` is the contraction that `cartan_factor` once ran,
kept here as a slow reference: split the deviation additively, peel unit
factors on both sides, repeat on the conjugated residual, whose inverses
are Neumann sums.  The law: over Q and Q(i), two to five centers, any
chart, 2x2 and 3x3 matrices and precision up to 16, the lift's factors
equal the contraction's entry by entry and its round count is the
contraction's loop count.  The Neumann sum is also the reference for
`PatchMatrix.invert_near_identity`, a Newton iteration: the two agree in
every entry's value, window and t-shift.
"""

from hypothesis import given, settings

from patchalg.analytic import AnalyticElement
from patchalg.patching import PatchMatrix, cartan_factor
from test_cartan_props import near_identity


def _neumann(x: PatchMatrix, n: PatchMatrix, left: bool) -> PatchMatrix:
    """sum_k n^k x (left) or sum_k x n^k, for v(n) >= 1, mod t^prec of x.

    Adds one term at a time, term <- n term (or term n), and stops once the
    next term would vanish to precision: its order is at least the current
    term's plus v(n).
    """
    prec, vn = x.precision, n.min_valuation()
    acc = term = x
    while term.min_valuation() + vn < prec:
        term = n * term if left else term * n
        acc = acc + term
    return acc


def contraction_factor(a: PatchMatrix, i: int) -> tuple:
    """(a1, a2, rounds) of the contraction, for v(a - 1) >= 1."""
    cfg, chart, prec = a.cfg, a.chart, a.precision
    dev = a.deviation()
    a1 = a2 = PatchMatrix.identity(cfg, a.n, chart, prec)
    rounds = 0
    while dev.min_valuation() < prec:
        rounds += 1
        m1_rows, m2_rows = [], []
        for row in dev.rows:
            r1, r2 = [], []
            for x in row:
                body = x.body
                zc1 = {kn: s for kn, s in body.zc.items() if kn[0] != i}
                zc2 = {kn: s for kn, s in body.zc.items() if kn[0] == i}
                r1.append(AnalyticElement(cfg, chart, body.f0, zc1))
                r2.append(AnalyticElement(cfg, chart, cfg.zero_series(body.precision), zc2))
            m1_rows.append(r1)
            m2_rows.append(r2)
        m1 = PatchMatrix(m1_rows, chart)
        m2 = PatchMatrix(m2_rows, chart)
        a1 = a1 + a1 * m1
        a2 = a2 + m2 * a2
        # (1 + dev) - (1+m1)(1+m2) = -m1 m2, so the conjugated residual has
        # deviation -(1+m1)^{-1} m1 m2 (1+m2)^{-1}
        #   = sum_{k,l} (-m1)^k (-m1 m2) (-m2)^l
        n1, n2 = -m1, -m2
        dev = _neumann(_neumann(n1 * m2, n1, True), n2, False)
    return a1, a2, rounds


@settings(max_examples=25)
@given(near_identity(max_prec=16))
def test_lift_equals_the_contraction(ai):
    a, i = ai
    res = cartan_factor(a, i)
    a1, a2, rounds = contraction_factor(a, i)
    assert res.rounds == rounds
    for got, want in ((res.b1, a1), (res.b2, a2)):
        assert got.chart == want.chart
        assert all(x.body == y.body for r1, r2 in zip(got.rows, want.rows) for x, y in zip(r1, r2))


@settings(max_examples=10)
@given(near_identity(max_prec=12))
def test_inverse_equals_the_neumann_sum(ai):
    a, _i = ai
    ident = PatchMatrix.identity(a.cfg, a.n, a.chart, a.precision)
    want = _neumann(ident, -a.deviation(), True)
    got = a.invert_near_identity()
    assert all(x.body == y.body and x.tshift == y.tshift
               for r1, r2 in zip(got.rows, want.rows) for x, y in zip(r1, r2))
