import random
from fractions import Fraction

import pytest

from patchalg import analytic
from patchalg.analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    _SeriesAcc,
    membership,
    random_element,
    t_element,
    z_generator,
)
from patchalg.patching import FactorizationError, PatchMatrix, cartan_factor, gl_factor
from patchalg.scalars import QQ, Scalar, cyclotomic_field
from test_localized_dot import scalar_det

QI = cyclotomic_field(4)

CFG = Configuration(QQ, [0, 1, 2], 12)
ONE = AnalyticElement.one(CFG, 0)
ZERO = AnalyticElement.zero(CFG, 0)


def tz(k, e=1):
    return z_generator(CFG, k, 0).scale_series(CFG.t_series(e))


def test_identity_is_neutral():
    A = PatchMatrix([[ONE, tz(1)], [ZERO, ONE + tz(2)]], 0)
    assert (A * PatchMatrix.identity(CFG, 2, 0)).equals(A)
    assert (PatchMatrix.identity(CFG, 2, 0) * A).equals(A)


def test_nilpotent_square():
    E = PatchMatrix([[ONE, t_element(CFG, 0)], [ZERO, ONE]], 0)
    expected = PatchMatrix([[ONE, t_element(CFG, 0).scale(2)], [ZERO, ONE]], 0)
    assert (E * E).equals(expected)


def test_matrix_associativity():
    rng = random.Random(31)
    for _ in range(5):
        mats = [
            PatchMatrix(
                [[random_element(CFG, rng, chart=0, max_zdeg=2, tdeg=3) for _ in range(2)]
                 for _ in range(2)], 0)
            for _ in range(3)
        ]
        a, b, c = mats
        assert ((a * b) * c).equals(a * (b * c))


def test_det_multiplicative():
    rng = random.Random(32)
    for n in (2, 3):
        a = PatchMatrix(
            [[random_element(CFG, rng, chart=0, max_zdeg=1, tdeg=2) for _ in range(n)]
             for _ in range(n)], 0)
        b = PatchMatrix(
            [[random_element(CFG, rng, chart=0, max_zdeg=1, tdeg=2) for _ in range(n)]
             for _ in range(n)], 0)
        assert (a * b).det().equals(a.det() * b.det())


def test_invert_near_identity():
    ident = PatchMatrix.identity(CFG, 2, 0)
    assert ident.invert_near_identity().equals(ident)
    E = PatchMatrix([[ONE, t_element(CFG, 0)], [ZERO, ONE]], 0)
    inv = E.invert_near_identity()
    assert inv.equals(PatchMatrix([[ONE, -t_element(CFG, 0)], [ZERO, ONE]], 0))
    rng = random.Random(33)
    A = PatchMatrix(
        [[(ONE if i == j else ZERO) + random_element(CFG, rng, chart=0, max_zdeg=2, tdeg=3).shift_t(1)
          for j in range(3)] for i in range(3)], 0)
    assert (A * A.invert_near_identity()).equals(PatchMatrix.identity(CFG, 3, 0))


def test_invert_precondition():
    A = PatchMatrix([[ONE + z_generator(CFG, 1, 0), ZERO], [ZERO, ONE]], 0)
    with pytest.raises(FactorizationError):
        A.invert_near_identity()


def test_cartan_identity():
    res = cartan_factor(PatchMatrix.identity(CFG, 2, 0), 2)
    ident = PatchMatrix.identity(CFG, 2, 0)
    assert res.b1.equals(ident) and res.b2.equals(ident)
    assert res.rounds == 0


def test_cartan_one_sided():
    A = PatchMatrix([[ONE, tz(1)], [ZERO, ONE]], 0)
    res = cartan_factor(A, 2)
    assert res.b1.equals(A)
    assert res.b2.equals(PatchMatrix.identity(CFG, 2, 0))


def test_cartan_nilpotent_split():
    m = tz(1) + tz(2)
    A = PatchMatrix([[ONE, m], [ZERO, ONE]], 0)
    res = cartan_factor(A, 2)
    assert res.b1.equals(PatchMatrix([[ONE, tz(1)], [ZERO, ONE]], 0))
    assert res.b2.equals(PatchMatrix([[ONE, tz(2)], [ZERO, ONE]], 0))
    assert (res.b1 * res.b2).equals(A)


def test_cartan_random_properties():
    rng = random.Random(34)
    for case in range(8):
        n = rng.choice([2, 3])
        i = rng.choice(list(CFG.indices))
        rows = [
            [(ONE if r == c else ZERO)
             + random_element(CFG, rng, chart=0, max_zdeg=2, tdeg=3,
                              support=[k for k in CFG.indices if rng.random() < 0.5]).shift_t(1)
             for c in range(n)]
            for r in range(n)
        ]
        A = PatchMatrix(rows, 0)
        v0 = A.deviation().min_valuation()
        res = cartan_factor(A, i)
        assert (res.b1 * res.b2).equals(A), f"case {case}"
        assert all(res.side_memberships)
        assert res.b1.deviation().min_valuation() >= v0
        assert res.b2.deviation().min_valuation() >= v0
        J = frozenset(CFG.indices) - {i}
        assert all(membership(x.body, J) for row in res.b1.rows for x in row)
        assert all(membership(x.body, {i}) for row in res.b2.rows for x in row)


def test_cartan_preconditions():
    bad = PatchMatrix([[ONE + z_generator(CFG, 1, 0), ZERO], [ZERO, ONE]], 0)
    with pytest.raises(FactorizationError):
        cartan_factor(bad, 2)
    shifted = PatchMatrix([[LocalizedElement(ONE, -1), LocalizedElement(ZERO, 0)],
                           [LocalizedElement(ZERO, 0), LocalizedElement(ONE, 0)]], 0)
    with pytest.raises(FactorizationError):
        cartan_factor(shifted, 2)


def _one_sided_factors(cfg, n, i, rng, max_zdeg=2):
    """(B1, B2), n x n with B1 - 1 supported away from index i and B2 - 1
    on it, both of t-order >= 1, as in the cartan suite's gl-one-sided
    cases."""
    one, zero = AnalyticElement.one(cfg, 0), AnalyticElement.zero(cfg, 0)
    J = [k for k in cfg.indices if k != i]

    def side(support):
        return PatchMatrix([[(one if r == c else zero)
                             + random_element(cfg, rng, chart=0, support=support(),
                                              max_zdeg=max_zdeg, tdeg=3).shift_t(1)
                             for c in range(n)] for r in range(n)], 0)

    return side(lambda: [k for k in J if rng.random() < 0.7]), side(lambda: [i])


def test_gl_one_sided_at_n32_with_five_centers(monkeypatch):
    """The size cliff of the nested Cartan step at N = 32 over five centers,
    with a work gate on the series products ``gl_factor`` makes
    (``_SeriesAcc.add_product`` calls): 53,665 while the density step
    inverted the determinant's unit and multiplied the adjugate at full
    precision, 178 since it runs mod t^(e+1).  The gate is <= 1,000."""
    cfg = Configuration(QQ, [0, 1, 2, 3, 4], 32)
    i = 2
    J = [k for k in cfg.indices if k != i]
    B1, B2 = _one_sided_factors(cfg, 2, i, random.Random(5))
    B = B1 * B2
    calls = []
    add_product = _SeriesAcc.add_product

    def counted(*args, **kwargs):
        calls.append(1)
        return add_product(*args, **kwargs)

    monkeypatch.setattr(_SeriesAcc, "add_product", counted)
    res = gl_factor(B, i)
    monkeypatch.undo()
    assert len(calls) <= 1_000, f"{len(calls)} add_product calls in gl_factor"
    assert (res.b1 * res.b2).equals(B)
    assert all(res.side_memberships)
    assert all(membership(x.body, J) for row in res.b1.rows for x in row)
    assert all(membership(x.body, {i}) for row in res.b2.rows for x in row)


def test_gl_3x3_at_n48_with_five_centers():
    """A 3 x 3 one-sided product at N = 48 over five centers: 20.9 s while
    the density step ran at full precision, about 0.2 s since."""
    cfg = Configuration(QQ, [0, 1, 2, 3, 4], 48)
    i = 2
    J = [k for k in cfg.indices if k != i]
    B1, B2 = _one_sided_factors(cfg, 3, i, random.Random(5))
    B = B1 * B2
    res = gl_factor(B, i)
    assert (res.b1 * res.b2).equals(B)
    assert res.rounds == 6
    assert all(res.side_memberships)
    assert all(membership(x.body, J) for row in res.b1.rows for x in row)
    assert all(membership(x.body, {i}) for row in res.b2.rows for x in row)


def test_gl_reads_determinants_off_the_adjugate(monkeypatch):
    """B1 * diag(t, 1, 1) * B2, 3 x 3 over five centers: both determinants,
    of b and of the cut a0, are read off the adjugates the step builds,
    three products each instead of the cofactor expansion's nine.  Every
    minor and determinant is one ``localized_dot``, so on this input
    gl_factor makes 62 ``ae_dot`` calls (77 with one call per product of a
    minor, 86 with the expansion for the determinants)."""
    cfg = Configuration(QQ, [0, 1, 2, 3, 4], 12)
    one, zero = AnalyticElement.one(cfg, 0), AnalyticElement.zero(cfg, 0)
    i = 2
    B1, B2 = _one_sided_factors(cfg, 3, i, random.Random(5), max_zdeg=1)
    D = PatchMatrix([[t_element(cfg, 0), zero, zero], [zero, one, zero], [zero, zero, one]], 0)
    B = B1 * D * B2
    assert B.det().equals(scalar_det([list(row) for row in B.rows]))
    calls = []
    real = analytic.ae_dot

    def counted(pairs, weights=None):
        calls.append(1)
        return real(pairs, weights)

    monkeypatch.setattr(analytic, "ae_dot", counted)
    res = gl_factor(B, i)
    monkeypatch.undo()
    assert len(calls) <= 62
    assert res.notes == {"cleared_shift": 0, "det_order": 1, "cut_det_order": 2, "rounds": 4}
    assert (res.b1 * res.b2).equals(B)


def test_gl_det_order_one_over_qi_at_n32():
    """B1 * diag(t, 1) * B2 over Q(i) with five centers at N = 32: the
    determinant has t-order 1, so the density step keeps t-degrees <= 1.
    The input is outside the one-sided class, so only reassembly and the
    notes are asserted, not the side memberships; z-degree 1 keeps its
    full-precision second inversion and membership tests small."""
    cfg = Configuration(QI, [Scalar.of(QI, a, b) for a, b in
                             [(0, 0), (1, 0), (0, 1), (2, -1), (Fraction(1, 2), 1)]], 32)
    one, zero = AnalyticElement.one(cfg, 0), AnalyticElement.zero(cfg, 0)
    i = 2
    B1, B2 = _one_sided_factors(cfg, 2, i, random.Random(7), max_zdeg=1)
    B = B1 * PatchMatrix([[t_element(cfg, 0), zero], [zero, one]], 0) * B2
    res = gl_factor(B, i)
    assert (res.b1 * res.b2).equals(B)
    assert res.notes == {"cleared_shift": 0, "det_order": 1, "cut_det_order": 1, "rounds": 1}


def test_gl_t_monomial():
    tl = LocalizedElement(t_element(CFG, 0), 0)
    zl = LocalizedElement(ZERO, 0)
    B = PatchMatrix([[tl, zl], [zl, tl]], 0)
    res = gl_factor(B, 2)
    expected_b1 = PatchMatrix([[LocalizedElement(ONE, 1), zl], [zl, LocalizedElement(ONE, 1)]], 0)
    assert res.b1.equals(expected_b1)
    assert res.b2.equals(PatchMatrix.identity(CFG, 2, 0))
    assert (res.b1 * res.b2).equals(B)


def test_gl_recovers_diagonal_factors():
    d1 = ONE + tz(1)
    d2 = ONE + tz(2)
    B = PatchMatrix([[d1, ZERO], [ZERO, d2]], 0)
    res = gl_factor(B, 2)
    assert (res.b1 * res.b2).equals(B)
    assert res.b1.equals(PatchMatrix([[d1, ZERO], [ZERO, ONE]], 0))
    assert res.b2.equals(PatchMatrix([[ONE, ZERO], [ZERO, d2]], 0))


def test_gl_one_sided_products():
    rng = random.Random(35)
    i = 2
    J = sorted(frozenset(CFG.indices) - {i})
    for _ in range(3):
        n = rng.choice([2, 3])
        B1 = PatchMatrix(
            [[(ONE if r == c else ZERO)
              + random_element(CFG, rng, chart=0, support=J, max_zdeg=2, tdeg=2).shift_t(1)
              for c in range(n)] for r in range(n)], 0)
        B2 = PatchMatrix(
            [[(ONE if r == c else ZERO)
              + random_element(CFG, rng, chart=0, support=[i], max_zdeg=2, tdeg=2).shift_t(1)
              for c in range(n)] for r in range(n)], 0)
        B = B1 * B2
        res = gl_factor(B, i)
        assert (res.b1 * res.b2).equals(B)
        assert all(res.side_memberships)


def test_gl_restricted_pipeline_error():
    B = PatchMatrix([[ONE + z_generator(CFG, 0, 0), ZERO], [ZERO, ONE]], 0)
    with pytest.raises(FactorizationError):
        gl_factor(B, 2)


def test_gl_out_of_class_inputs_stay_honest():
    # determinants with t-order concentrated in one entry, or with z-content
    # at t^0, are outside the structured one-sided class: the product must
    # still reassemble exactly, and the support-level side memberships must
    # report the defect instead of claiming success
    t0 = t_element(CFG, 0)
    d1 = ONE + tz(1)
    d2 = ONE + tz(2)
    B = PatchMatrix([[t0 * d1, ZERO], [ZERO, d2]], 0)
    res = gl_factor(B, 2)
    assert (res.b1 * res.b2).equals(B)
    assert res.side_memberships[0] and not res.side_memberships[1]

    B2 = PatchMatrix([[ONE + z_generator(CFG, 1, 0), ZERO], [ZERO, ONE]], 0)
    res2 = gl_factor(B2, 2)
    assert (res2.b1 * res2.b2).equals(B2)
    assert not all(res2.side_memberships)


def test_gl_coupled_one_sided_product():
    L = PatchMatrix([[ONE, ZERO], [tz(1), ONE]], 0)
    R = PatchMatrix([[ONE, tz(2, 2)], [ZERO, ONE + tz(2)]], 0)
    B = L * R
    res = gl_factor(B, 2)
    assert (res.b1 * res.b2).equals(B)
    assert all(res.side_memberships)


def test_gl_localized_shift_clearing():
    tl = LocalizedElement(ONE + tz(1), -2)
    zl = LocalizedElement(ZERO, 0)
    ol = LocalizedElement(ONE, 0)
    B = PatchMatrix([[tl, zl], [zl, ol]], 0)
    res = gl_factor(B, 2)
    assert (res.b1 * res.b2).equals(B)
