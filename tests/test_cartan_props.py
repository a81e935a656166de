"""Laws of the Cartan factorization (the t-adic lift of `cartan_factor`),
over random configurations.

Q and Q(i), two to five centers (integer or not), precision 4 to 32, and
2x2 or 3x3 matrices within distance 1 of the identity in any chart: the
factors reassemble the input, each lies in its side's subring, and the
factorization commutes with truncation of the precision window.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, membership, random_element
from patchalg.patching import PatchMatrix, cartan_factor
from patchalg.scalars import Scalar
from test_rebase_props import QI, configurations


@st.composite
def near_identity(draw, max_prec=32):
    """(a, i): a matrix with v(a - 1) >= 1 in any chart and a center index
    to split at; over Q(i) the entries have imaginary parts."""
    cfg = draw(configurations(max_centers=5, max_prec=max_prec))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 3))
    chart = draw(st.sampled_from(list(cfg.indices)))
    one, zero = AnalyticElement.one(cfg, chart), AnalyticElement.zero(cfg, chart)

    def entry():
        f = random_element(cfg, rng, chart=chart, max_zdeg=2, tdeg=3)
        if cfg.field == QI:
            f = f + random_element(cfg, rng, chart=chart, max_zdeg=2, tdeg=3).scale(Scalar.of(QI, 0, 1))
        return f.shift_t(1)

    a = PatchMatrix([[(one if r == c else zero) + entry() for c in range(n)] for r in range(n)], chart)
    return a, draw(st.sampled_from(list(cfg.indices)))


def _truncate(mat: PatchMatrix, prec: int) -> PatchMatrix:
    return PatchMatrix([[x.body.truncate(prec) for x in row] for row in mat.rows], mat.chart)


@settings(max_examples=30)
@given(near_identity(), st.data())
def test_cartan_factor_laws(ai, data):
    a, i = ai
    res = cartan_factor(a, i)
    assert (res.b1 * res.b2).equals(a)
    J = frozenset(a.cfg.indices) - {i}
    assert all(membership(x.body, J) for row in res.b1.rows for x in row)
    assert all(membership(x.body, {i}) for row in res.b2.rows for x in row)

    m = data.draw(st.integers(1, a.precision - 1))
    low = cartan_factor(_truncate(a, m), i)
    for got, want in ((_truncate(res.b1, m), low.b1), (_truncate(res.b2, m), low.b2)):
        assert all(x.body == y.body for r1, r2 in zip(got.rows, want.rows) for x, y in zip(r1, r2))
