"""The table of monomial products, ``Configuration.rewrite_ints``, against
the two-term recurrence, with f0 and same-index products."""

from fractions import Fraction
from math import gcd

import pytest

from patchalg.analytic import Configuration
from patchalg.scalars import QQ, Scalar, cyclotomic_field

QI = cyclotomic_field(4)
CONFIGS = [
    Configuration(QQ, [0, Fraction(1, 2), -3], 8),
    Configuration(QI, [0, 1, Scalar.of(QI, Fraction(1, 2), -1)], 8),
]


def scalar_view(cfg, s1, s2) -> dict:
    """``cfg.rewrite_ints(s1, s2)`` as {slot: Scalar}."""
    den, weights = cfg.rewrite_ints(s1, s2)
    return {slot: Scalar(cfg.field, tuple(Fraction(v, den) for v in nums)) for slot, nums in weights}


def slot(k, n):
    """The slot of z_k^n: None (f0) for n = 0."""
    return (k, n) if n else None


def recurrence(cfg, i, a, j, b, memo) -> dict:
    """z_i^a z_j^b (i != j) reduced by
    z_i^a z_j^b = alpha z_i^a z_j^(b-1) + beta z_i^(a-1) z_j^b,
    where z_i z_j = alpha z_i + beta z_j."""
    key = (a, b)
    if key in memo:
        return memo[key]
    one = Scalar.one(cfg.field)
    if a == 0 or b == 0:
        out = {slot(i, a) if a else slot(j, b): one}
    else:
        alpha = (cfg.centers[i] - cfg.centers[j]).inverse()
        out = {}
        for w, part in ((alpha, recurrence(cfg, i, a, j, b - 1, memo)),
                        (-alpha, recurrence(cfg, i, a - 1, j, b, memo))):
            for kn, c in part.items():
                out[kn] = out.get(kn, Scalar.zero(cfg.field)) + w * c
        out = {kn: c for kn, c in out.items() if not c.is_zero()}
    memo[key] = out
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=["Q", "Q(i)"])
def test_closed_form_matches_recurrence(cfg):
    for i in cfg.indices:
        for j in cfg.indices:
            if i == j:
                continue
            memo: dict = {}
            for a in range(8):
                for b in range(8):
                    assert scalar_view(cfg, slot(i, a), slot(j, b)) == recurrence(
                        cfg, i, a, j, b, memo), (i, a, j, b)


@pytest.mark.parametrize("cfg", CONFIGS, ids=["Q", "Q(i)"])
def test_f0_and_same_index_products_add_exponents(cfg):
    one = Scalar.one(cfg.field)
    for k in cfg.indices:
        for a in range(8):
            for b in range(8):
                assert scalar_view(cfg, slot(k, a), slot(k, b)) == {slot(k, a + b): one}


@pytest.mark.parametrize("cfg", CONFIGS, ids=["Q", "Q(i)"])
def test_one_least_denominator(cfg):
    """Every entry is over one denominator in lowest terms."""
    for i in cfg.indices:
        for j in cfg.indices:
            for a in range(4):
                for b in range(4):
                    den, weights = cfg.rewrite_ints(slot(i, a), slot(j, b))
                    assert gcd(den, *(v for _slot, nums in weights for v in nums)) == 1


def test_high_exponents_need_no_recursion():
    cfg = Configuration(QQ, [0, 1, 2], 8)
    assert len(cfg.rewrite_ints((0, 600), (1, 600))[1]) == 1200
