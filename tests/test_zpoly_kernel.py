"""The Cartan step's integer z-polynomial kernel against ``ae_dot``.

`patching._combine` computes base - sum L * R for t-coefficients of whole
matrices, each held as one integer z-polynomial (one denominator, a
numerator per entry, slot and coordinate).  The law: on the same
precision-1 elements it equals base - sum ae_dot, entry by entry.  Drawn over Q and Q(i), two to five
centers (integer or not), any chart, z-degree up to 6, so that the
products hit the f0 slot, equal indices and cross indices, with unequal
denominators and zero entries, bases and products.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import AnalyticElement, ae_dot, random_element
from patchalg.patching import PatchMatrix, _coefficient, _combine
from patchalg.scalars import Scalar
from patchalg.series import TruncSeries
from test_rebase_props import QI, configurations


def _element(cfg, chart, x, r, c) -> AnalyticElement:
    """Entry (r, c) of a coefficient (den, comps) as a precision-1 element."""
    if x is None:
        return AnalyticElement.zero(cfg, chart, 1)
    den, comps = x
    comps = [{s: v for (i, j, s), v in comp.items() if (i, j) == (r, c)} for comp in comps]
    slots = {s for comp in comps for s in comp}

    def series(slot):
        return TruncSeries(cfg.field, 1, den, [[comp.get(slot, 0)] for comp in comps])

    return AnalyticElement(cfg, chart, series(None),
                           {s: series(s) for s in slots if s is not None})


@st.composite
def kernel_inputs(draw):
    """(cfg, chart, base, products): n x n matrices (n = 1 or 2) of
    precision-1 elements; the base may be None, and any entry may be zero."""
    cfg = draw(configurations(max_centers=5, max_prec=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = draw(st.sampled_from(list(cfg.indices)))
    n = draw(st.integers(1, 2))

    def entry():
        if rng.random() < 0.15:
            return AnalyticElement.zero(cfg, chart, 1)
        zdeg = rng.randint(1, 6)
        f = random_element(cfg, rng, chart=chart, max_zdeg=zdeg, prec=1)
        if cfg.field == QI:
            f = f + random_element(cfg, rng, chart=chart, max_zdeg=zdeg, prec=1).scale(
                Scalar.of(QI, 0, 1))
        return f.scale(Fraction(rng.randint(1, 9), rng.randint(1, 12)))

    def matrix():
        return [[entry() for _ in range(n)] for _ in range(n)]

    base = matrix() if draw(st.booleans()) else None
    products = [(matrix(), matrix()) for _ in range(draw(st.integers(1, 3)))]
    return cfg, chart, base, products


def _coefficient0(chart, mat):
    """The t^0 coefficient of mat; None, the zero matrix, if it is zero."""
    return _coefficient(PatchMatrix(mat, chart), 0)


@settings(max_examples=80)
@given(kernel_inputs())
def test_kernel_equals_ae_dot(inp):
    cfg, chart, base, products = inp
    n = len(products[0][0])
    cells = [(r, c) for r in range(n) for c in range(n)]
    pairs = []
    for L, R in products:
        x, y = _coefficient0(chart, L), _coefficient0(chart, R)
        for M, z in ((L, x), (R, y)):
            assert all(_element(cfg, chart, z, r, c) == M[r][c] for r, c in cells)
        if x is not None and y is not None:
            pairs.append((x, y))
    got = _combine(cfg, None if base is None else _coefficient0(chart, base), pairs)
    for r, c in cells:
        want = ae_dot([(L[r][k], R[k][c]) for L, R in products for k in range(n)])
        want = -want if base is None else base[r][c] - want
        assert _element(cfg, chart, got, r, c) == want
