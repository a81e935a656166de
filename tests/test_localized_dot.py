"""Matrix products and determinants against the same sums written with
``LocalizedElement`` ``*`` and ``+``, zero factors included.

Every sum of localized products in ``patching`` is one ``localized_dot``.
The scalar path is the reference: each entry of A * B must equal it bit
for bit (chart, precision, series and t-shift), and ``det`` must have its
precision and be equal to it.  A zero entry known only mod t^w bounds
every sum it enters at t^w, as it bounds the scalar sum.  Drawn over Q and
Q(i), two to four centers, N <= 8, 2 x 2 and 3 x 3 matrices, t-shifts
-2..2, windows N - 3..N and about 30 % zero entries.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg import analytic
from patchalg.analytic import AnalyticElement, Configuration, LocalizedElement, random_element
from patchalg.patching import PatchMatrix
from patchalg.scalars import QQ, Scalar
from test_rebase_props import QI, configurations


def scalar_sum(terms):
    total = None
    for term in terms:
        total = term if total is None else total + term
    return total


def scalar_det(rows):
    """Cofactor expansion along the first row with ``*``, ``+`` and ``-``,
    zero pivots included."""
    if len(rows) == 1:
        return rows[0][0]
    terms = []
    for c, pivot in enumerate(rows[0]):
        term = pivot * scalar_det([r[:c] + r[c + 1 :] for r in rows[1:]])
        terms.append(-term if c % 2 else term)
    return scalar_sum(terms)


def entry(cfg, rng, draw):
    window = draw(st.integers(cfg.precision - 3, cfg.precision))
    chart = rng.choice(list(cfg.indices))
    if rng.random() < 0.3:
        body = AnalyticElement.zero(cfg, chart, window)
    else:
        body = random_element(cfg, rng, chart=chart, max_zdeg=2, prec=window)
        if cfg.field == QI:
            im = random_element(cfg, rng, chart=chart, max_zdeg=2, prec=window)
            body = body + im.scale(Scalar.of(QI, 0, 1))
    return LocalizedElement(body, draw(st.integers(-2, 2)))


@st.composite
def matrix_pairs(draw):
    cfg = draw(configurations(max_centers=4, max_prec=8))
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    a, b = ([[entry(cfg, rng, draw) for _ in range(n)] for _ in range(n)] for _ in range(2))
    return PatchMatrix(a), PatchMatrix(b)


def same(x: LocalizedElement, y: LocalizedElement) -> bool:
    return (x.tshift == y.tshift and x.precision == y.precision
            and x.chart == y.chart and x.body == y.body)


@settings(max_examples=150)
@given(matrix_pairs())
def test_matrix_product_is_the_scalar_sum(ab):
    A, B = ab
    B = B.rebase(A.chart)
    AB = A * B
    for i in range(A.n):
        for j in range(A.n):
            want = scalar_sum(A.rows[i][k] * B.rows[k][j] for k in range(A.n))
            assert same(AB.rows[i][j], want), (i, j)


@settings(max_examples=150)
@given(matrix_pairs())
def test_det_is_the_scalar_expansion(ab):
    for M in ab:
        got, want = M.det(), scalar_det([list(row) for row in M.rows])
        assert got.precision == want.precision
        assert got.equals(want)


def test_zero_entry_bounds_the_precision():
    """N = 12 with one zero entry known only mod t^4: entry (0, 0) of A * B
    and det A hold mod t^4, not mod t^12."""
    cfg = Configuration(QQ, [0, 1, 2], 12)
    rng = random.Random(4)
    x, y, w = (LocalizedElement(random_element(cfg, rng, chart=0, max_zdeg=2)) for _ in range(3))
    zero4 = LocalizedElement(AnalyticElement.zero(cfg, 0, 4))
    A = PatchMatrix([[x, zero4], [y, w]])
    assert (A * A).rows[0][0].precision == 4
    assert (A * PatchMatrix.identity(cfg, 2)).rows[0][0].precision == 4
    d = A.det()
    assert d.precision == 4
    assert same(d, x * w - zero4 * y)


def test_det_is_one_expansion(monkeypatch):
    """``det`` expands along the first row with one ``localized_dot`` per
    minor: 1 + 3 calls for a dense 3 x 3 matrix and 1 + 4 * (1 + 3) for a
    4 x 4 one, where reading it off the adjugate took 10 and 65."""
    cfg = Configuration(QQ, [0, 1, 2], 8)
    rng = random.Random(7)
    for n, bound in ((3, 4), (4, 17)):
        M = PatchMatrix([[LocalizedElement(random_element(cfg, rng, chart=0, max_zdeg=2))
                          for _ in range(n)] for _ in range(n)])
        calls = []
        real = analytic.ae_dot

        def counted(pairs, weights=None):
            calls.append(1)
            return real(pairs, weights)

        monkeypatch.setattr(analytic, "ae_dot", counted)
        d = M.det()
        monkeypatch.undo()
        assert len(calls) <= bound, n
        assert same(d, M.det_by(M.adjugate()))
        assert d.equals(scalar_det([list(row) for row in M.rows]))
