"""The closed-form cross-term rewrite against the two-term recurrence."""

from fractions import Fraction

import pytest

from patchalg.analytic import Configuration
from patchalg.scalars import QQ, Scalar, cyclotomic_field

QI = cyclotomic_field(4)
CONFIGS = [
    Configuration(QQ, [0, Fraction(1, 2), -3], 8),
    Configuration(QI, [0, 1, Scalar.of(QI, Fraction(1, 2), -1)], 8),
]


def recurrence(cfg, i, a, j, b, memo) -> dict:
    """z_i^a z_j^b reduced by z_i^a z_j^b = alpha z_i^a z_j^(b-1) + beta z_i^(a-1) z_j^b,
    where z_i z_j = alpha z_i + beta z_j."""
    key = (a, b)
    if key in memo:
        return memo[key]
    one = Scalar.one(cfg.field)
    if a == 0:
        out = {(j, b): one} if b else {}
    elif b == 0:
        out = {(i, a): one}
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
                    assert cfg.rewrite(i, a, j, b) == recurrence(cfg, i, a, j, b, memo), (
                        i, a, j, b)


def test_high_exponents_need_no_recursion():
    cfg = Configuration(QQ, [0, 1, 2], 8)
    assert len(cfg.rewrite(0, 600, 1, 600)) == 1200
