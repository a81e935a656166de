"""The packed chart change against the form it replaced.

`rebase_by_rows` is the chart change that `rebase` once ran: per source
slot and target slot one coefficientwise product of the source series with
the target's row of weights over m, read from a `RowTable`, the transfer
table in row form.

The laws: over Q and Q(i) (imaginary parts nonzero), two to five centers
(integer or not) and precision up to 32, with numerators up to 2^64 over
denominators up to 2^31, the packed rebase returns exactly what the row
form returns, on random forms, products and t-shifts past the window.  A
fixed set of inputs puts the tables' slot width at 64, 128 and 192 bits.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import (
    AnalyticElement, ChartError, Configuration, _SeriesAcc, ae_dot, random_element,
)
from patchalg.intvec import content, coord_mul, scalar_ints
from patchalg.scalars import QQ, Scalar
from test_rebase_props import QI, configurations
from test_transfer import transfer_tables


# -- the row-form chart change ---------------------------------------------------


class RowTable:
    """The transfer table of the chart change j -> j2 on the source slot
    z_k^n in row form: per target slot (slot, lo, den, comps), the weight
    of t^m being comps[d][m] / den.  Column m + 1 is column m times
    1 + delta z_j2, as in ``analytic._TransferTable``."""

    def __init__(self, cfg: Configuration, j: int, j2: int, k, n: int):
        self.j2, self.k, self.n = j2, k, n
        self.dn, self.dd = scalar_ints((cfg.centers[j2] - cfg.centers[j]).coords)
        if k is None or k == j2:
            self.bn, self.bd_pow = None, [1]
        else:
            beta = (cfg.centers[j2] - cfg.centers[k]).inverse()
            self.bn, bd = scalar_ints(beta.coords)
            self.bd_pow = [bd ** e for e in range(n + 1)]
        self.den = 1
        self.col = {None if k is None else (k, n): [1] + [0] * (cfg.field.dim - 1)}
        self.length = 0
        self.rows: dict = {}

    def _step(self) -> None:
        j2, k, n, col = self.j2, self.k, self.n, self.col
        zero = [0] * len(self.dn)
        B = self.bd_pow[-1]
        z = {}
        for slot, v in col.items():
            if slot is None:
                z[(j2, 1)] = [x * B for x in v]
            elif slot[0] == j2:
                z[(j2, slot[1] + 1)] = [x * B for x in v]
        if self.bn is not None:
            u = zero
            for r in range(n, 0, -1):
                e = col.get((k, r), zero)
                u = coord_mul(self.bn, [x * self.bd_pow[n - r] + y for x, y in zip(e, u)])
                z[(k, r)] = [-x * self.bd_pow[r - 1] for x in u]
            z[(j2, 1)] = [x + y for x, y in zip(z.get((j2, 1), zero), u)]
        f = self.dd * B
        new = {slot: [x * f for x in v] for slot, v in col.items()}
        for slot, v in z.items():
            dv = coord_mul(self.dn, v)
            old = new.get(slot)
            new[slot] = dv if old is None else [x + y for x, y in zip(old, dv)]
        den = self.den * f
        g = content(den, new.values())
        self.den = den // g
        self.col = {slot: [x // g for x in v] for slot, v in new.items() if any(v)}

    def extend(self, length: int) -> None:
        rows, dim = self.rows, len(self.dn)
        while self.length < length:
            m = self.length
            if m:
                self._step()
            E, col = self.den, self.col
            for slot in col:
                if slot not in rows:
                    rows[slot] = [m, E, [[0] * m for _ in range(dim)]]
            for slot, row in rows.items():
                v = col.get(slot)
                if v is None:
                    for c in row[2]:
                        c.append(0)
                    continue
                _lo, den, comps = row
                if den % E:
                    s = E // gcd(den, E)
                    row[1] = den = den * s
                    row[2] = comps = [[x * s for x in c] for c in comps]
                for c, x in zip(comps, v):
                    c.append(x * (den // E))
            self.length += 1


def rebase_by_rows(f: AnalyticElement, to_chart: int) -> AnalyticElement:
    """f written over t' = X - c_{j'} Y, one coefficientwise product per
    source slot and target slot."""
    if to_chart == f.chart:
        return f
    cfg = f.cfg
    if to_chart not in cfg.indices:
        raise ChartError(f"chart {to_chart} outside the configured index set")
    prec = f.precision
    acc: dict = {}
    for k, n, s in f._term_list():
        table = RowTable(cfg, f.chart, to_chart, k, n)
        table.extend(prec)
        v = s.vt()
        for slot, (lo, den, comps) in table.rows.items():
            start = max(lo, v)
            if start >= prec:
                continue
            a = acc.get(slot)
            if a is None:
                a = acc[slot] = _SeriesAcc(cfg.field, prec)
            scale = a._merge_den(s.den * den)
            for m in range(start, prec):
                x = coord_mul([c[m] for c in s._c], [c[m] for c in comps])
                for out, y in zip(a._c, x):
                    out[m] += scale * y
    f0 = acc.pop(None, None)
    zc = {kn: a.result() for kn, a in acc.items() if not a.is_zero()}
    return AnalyticElement(cfg, to_chart, f0.result() if f0 else cfg.zero_series(prec), zc)


# -- the laws ----------------------------------------------------------------------


@st.composite
def operands(draw, count):
    """``count`` random forms over one configuration, each in any chart:
    numerators up to 9, 2^40 or 2^64 over denominators 1, 3 or 2^31 - 1,
    dense series or series of one to three terms, imaginary parts over
    Q(i), then a t-shift by 0 to 3 or past the window."""
    cfg = draw(configurations(max_prec=32, at_top=True))
    rng = random.Random(draw(st.integers(0, 2**32)))
    bound = draw(st.sampled_from([9, 2**40, 2**64]))
    tdeg = draw(st.sampled_from([None, 1, 3]))
    out = []
    for _ in range(count):
        c = draw(st.sampled_from(list(cfg.indices)))
        zdeg = draw(st.integers(1, 4))
        f = random_element(cfg, rng, chart=c, max_zdeg=zdeg, coeff_bound=bound, tdeg=tdeg)
        if cfg.field == QI:
            g = random_element(cfg, rng, chart=c, max_zdeg=zdeg, coeff_bound=bound, tdeg=tdeg)
            f = f + g.scale(Scalar.of(QI, 0, 1))
        f = f.scale(Scalar.of(cfg.field, Fraction(1, draw(st.sampled_from([1, 3, 2**31 - 1])))))
        out.append(f.shift_t(draw(st.sampled_from([0, 1, 3, cfg.precision + 1]))))
    return out


def data(f: AnalyticElement):
    return f.chart, f.precision, f.f0, sorted(f.zc.items())


@settings(max_examples=60)
@given(operands(2), st.data())
def test_packed_rebase_equals_the_row_form(fg, draw):
    f, g = fg
    j = draw.draw(st.sampled_from(list(f.cfg.indices)))
    assert data(f.rebase(j)) == data(rebase_by_rows(f, j))
    h = ae_dot([(f, g)])
    assert data(h.rebase(j)) == data(rebase_by_rows(h, j))


def width_operands(field, bits: int):
    """Two forms in chart 0 over 0, 1/2, 2 at N = 16, with numerators up to
    2^bits."""
    cfg = Configuration(field, [0, Fraction(1, 2), 2], 16)
    rng = random.Random(bits)
    f, g = (random_element(cfg, rng, chart=0, support=[0, 1, 2], max_zdeg=2,
                           coeff_bound=2**bits) for _ in range(2))
    if field == QI:
        f = f + g.scale(Scalar.of(QI, 1, 1))
    return f, g


@pytest.mark.parametrize("field", [QQ, QI], ids=["Q", "Q(i)"])
@pytest.mark.parametrize("bits, w", [(3, 64), (40, 128), (110, 192)], ids=["w64", "w128", "w192"])
def test_rebase_at_slot_widths(field, bits, w):
    """Chart changes whose outputs need 64, 128 and 192-bit slots: every
    transfer table the rebase reads is packed at that width, and the
    rebase equals the row form."""
    f, _g = width_operands(field, bits)
    moved = f.rebase(2)
    assert {t.w for t in transfer_tables(f.cfg)} == {w}
    assert data(moved) == data(rebase_by_rows(f, 2))
