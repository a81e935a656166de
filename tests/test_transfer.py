"""The chart-change transfer tables against the reduction rule, read
from their packed columns."""

from fractions import Fraction
from math import comb

import pytest

from patchalg.analytic import Configuration
from patchalg.intvec import unpack
from patchalg.scalars import QQ, Scalar, cyclotomic_field

QI = cyclotomic_field(4)
CONFIGS = [
    Configuration(QQ, [0, Fraction(1, 2), -3], 8),
    Configuration(QI, [0, 1, Scalar.of(QI, Fraction(1, 2), -1)], 8),
]
SOURCES = [(None, 0)] + [(k, n) for k in range(3) for n in range(1, 5)]


def table_column(cfg, table, m) -> dict:
    """Column m of a packed transfer table as {target slot: weight}: block
    A holds f0 at slot 0 and (j2, p) at slot p, block B (k, p) at slot
    p - 1; an empty component is all zero."""
    slots = [None] + [(table.j2, p) for p in range(1, table.a_len(m))]
    counts = [table.a_len(m)]
    if table.bn is not None:
        slots += [(table.k, p) for p in range(1, table.n + 1)]
        counts.append(table.n)
    comps = []
    for comp in table.cols:
        comps.append([x for block, count in zip(comp, counts) for x in unpack(block[m], table.w, count)]
                     if comp else [0] * len(slots))
    out = {}
    for slot, *nums in zip(slots, *comps):
        w = Scalar(cfg.field, tuple(Fraction(x, table.den) for x in nums))
        if not w.is_zero():
            out[slot] = w
    return out


def reduced_column(cfg, j, j2, k, n, m) -> dict:
    """Canonical form of z_k^n (1 + delta z_j2)^m, summed binomially with
    each z_j2^l z_k^n reduced by Configuration.rewrite."""
    delta = cfg.centers[j2] - cfg.centers[j]
    one = Scalar.one(cfg.field)
    out = {}
    for l in range(m + 1):
        if k is None:
            spread = {None if l == 0 else (j2, l): one}
        elif k == j2:
            spread = {(j2, n + l): one}
        else:
            spread = cfg.rewrite(j2, l, k, n)
        c = Scalar.of(cfg.field, comb(m, l)) * delta ** l
        for slot, w in spread.items():
            out[slot] = out.get(slot, Scalar.zero(cfg.field)) + c * w
    return {slot: w for slot, w in out.items() if not w.is_zero()}


@pytest.mark.parametrize("cfg", CONFIGS, ids=["Q", "Q(i)"])
def test_columns_match_rewrite_rule(cfg):
    for j in cfg.indices:
        for j2 in cfg.indices:
            if j2 == j:
                continue
            for k, n in SOURCES:
                table = cfg.transfer(j, j2, k, n, 8)
                for m in range(8):
                    assert table_column(cfg, table, m) == reduced_column(cfg, j, j2, k, n, m), (
                        j, j2, k, n, m)


@pytest.mark.parametrize("field, centers", [
    (QQ, [0, Fraction(1, 2), -3]),
    (QI, [0, 1, Scalar.of(QI, Fraction(1, 2), -1)]),
], ids=["Q", "Q(i)"])
def test_tables_extend_by_prefix(field, centers):
    cfg = Configuration(field, centers, 16)
    for k, n in SOURCES:
        short = cfg.transfer(0, 2, k, n, 8)
        want = [table_column(cfg, short, m) for m in range(8)]
        long = cfg.transfer(0, 2, k, n, 16)
        assert [table_column(cfg, long, m) for m in range(8)] == want
        fresh = Configuration(field, centers, 16).transfer(0, 2, k, n, 16)
        assert all(table_column(cfg, fresh, m) == table_column(cfg, long, m)
                   for m in range(16))
    assert len(cfg._transfer_cache) == len(SOURCES)
