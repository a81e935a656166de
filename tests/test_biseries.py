import random

import pytest

from patchalg.scalars import QQ
from patchalg.series import BivarSeries, RegularityError, prime_valuation, weierstrass_div


def bv(terms, prec=8):
    return BivarSeries.from_terms(QQ, terms, prec)


def f_tk(k, prec=8):
    return bv({(1, 0): 1, (0, k): 1}, prec)


def test_divide_t_by_f():
    f = f_tk(3)
    q, r = weierstrass_div(bv({(1, 0): 1}), f)
    assert q == bv({(0, 0): 1}, 7)
    assert r == bv({(0, 3): -1})
    assert q * f + r == bv({(1, 0): 1}, 7)


def test_divide_self():
    f = f_tk(2)
    q, r = weierstrass_div(f, f)
    assert q == bv({(0, 0): 1}, 7)
    assert r.is_zero()


def test_divide_y_only():
    f = f_tk(3)
    q, r = weierstrass_div(bv({(0, 2): 1}), f)
    assert q.is_zero()
    assert r == bv({(0, 2): 1})


def test_regularity_rejected():
    with pytest.raises(RegularityError):
        weierstrass_div(bv({(1, 0): 1}), bv({(0, 2): 1}))  # no t part
    with pytest.raises(RegularityError):
        weierstrass_div(bv({(1, 0): 1}), bv({(0, 0): 1, (1, 0): 1}))  # unit


def test_random_reassembly():
    rng = random.Random(5)
    for case in range(100):
        k = rng.choice((2, 3, 4))
        P = 10
        f = f_tk(k, P)
        terms = {}
        for it in range(P):
            for iy in range(P - it):
                if rng.random() < 0.3:
                    terms[(it, iy)] = rng.randint(-9, 9)
        g = bv(terms, P)
        q, r = weierstrass_div(g, f)
        assert r == r.y_row()
        assert q * f + r == g.truncate(q.prec), f"case {case}"


def test_prime_valuation_values():
    f = f_tk(3, 10)
    t = bv({(1, 0): 1}, 10)
    y = bv({(0, 1): 1}, 10)
    assert prime_valuation(t, f) == 0
    assert prime_valuation(f, f) == 1
    assert prime_valuation(f * f * y, f) == 2


def test_prime_valuation_additive():
    rng = random.Random(6)
    P = 12
    f = f_tk(2, P)

    def small():
        terms = {(0, 0): rng.randint(1, 5)}
        for _ in range(3):
            terms[(rng.randrange(2), rng.randrange(3))] = rng.randint(-9, 9)
        return bv(terms, P)

    for _ in range(20):
        g = small() * f if rng.random() < 0.5 else small()
        h = small()
        vg, vh = prime_valuation(g, f), prime_valuation(h, f)
        assert prime_valuation(g * h, f) == vg + vh


def test_zero_input_rejected():
    f = f_tk(2)
    with pytest.raises(ValueError):
        prime_valuation(BivarSeries.zero(QQ, 8), f)


def test_cyclotomic_component_mixing():
    from patchalg.scalars import Scalar, cyclotomic_field

    C4 = cyclotomic_field(4)
    w = Scalar.of(C4, 0, 1)
    # (w t + Y)(w t - Y) = -t^2 - Y^2
    a = BivarSeries.from_terms(C4, {(1, 0): w, (0, 1): 1}, 6)
    b = BivarSeries.from_terms(C4, {(1, 0): w, (0, 1): -1}, 6)
    want = BivarSeries.from_terms(C4, {(2, 0): -1, (0, 2): -1}, 6)
    assert a * b == want
    # division still reassembles over the extension
    f = BivarSeries.from_terms(C4, {(1, 0): 1, (0, 2): w}, 6)
    g = BivarSeries.from_terms(C4, {(1, 1): w, (0, 3): 1}, 6)
    q, r = weierstrass_div(g, f)
    assert q * f + r == g.truncate(q.prec)
    assert r == r.y_row()
