"""The chart-change transfer tables against the table of monomial
products, read from their packed columns."""

from fractions import Fraction
from math import comb

import pytest

from patchalg.analytic import Configuration, _TransferTable
from patchalg.intvec import unpack
from patchalg.scalars import QQ, Scalar, cyclotomic_field
from test_rewrite import scalar_view, slot

QI = cyclotomic_field(4)
CONFIGS = [
    Configuration(QQ, [0, Fraction(1, 2), -3], 8),
    Configuration(QI, [0, 1, Scalar.of(QI, Fraction(1, 2), -1)], 8),
]
SOURCES = [(None, 0)] + [(k, n) for k in range(3) for n in range(1, 5)]


def transfer_tables(cfg) -> list:
    """The transfer tables kept in the configuration's memo."""
    return [t for t in cfg._memo.values() if isinstance(t, _TransferTable)]


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
    each z_j2^l z_k^n read from the table of monomial products."""
    delta = cfg.centers[j2] - cfg.centers[j]
    out = {}
    for l in range(m + 1):
        spread = scalar_view(cfg, slot(j2, l), slot(k, n))
        c = Scalar.of(cfg.field, comb(m, l)) * delta ** l
        for target, w in spread.items():
            out[target] = out.get(target, Scalar.zero(cfg.field)) + c * w
    return {target: w for target, w in out.items() if not w.is_zero()}


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
    assert len(transfer_tables(cfg)) == len(SOURCES)
