"""``hensel_root`` over random configurations.

Q and Q(i), two to five centers, precision 4 to 32, root orders 2 to 4 and
radicands a = 1 + t h in a chart's own subring: the root commutes with
truncation of the precision window (both sides pass the final check
s^q = a), a root makes exactly one full unit inversion, the one that
seeds the inverse the iteration carries, and with the precision doubled
step by step few of its products run at full precision.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import patchalg.kummer as kummer
from patchalg import analytic
from patchalg.analytic import AnalyticElement, Configuration, random_element
from patchalg.kummer import hensel_root
from test_rebase_props import QI, configurations


@st.composite
def radicands(draw):
    """(a, q, m): a = 1 mod t supported on its chart, a root order, and a
    precision m to truncate to."""
    cfg = draw(configurations(max_prec=32))
    rng = random.Random(draw(st.integers(0, 2**32)))
    c = draw(st.sampled_from(list(cfg.indices)))
    h = random_element(cfg, rng, chart=c, support=[c], max_zdeg=draw(st.integers(1, 2)), tdeg=3)
    a = AnalyticElement.one(cfg, c) + h.shift_t(draw(st.integers(1, 2)))
    return a, draw(st.sampled_from([2, 3, 4])), draw(st.integers(1, cfg.precision))


@settings(max_examples=20)
@given(radicands())
def test_root_commutes_with_truncation(case):
    a, q, m = case
    assert hensel_root(a, q).truncate(m) == hensel_root(a.truncate(m), q)


def test_root_makes_one_unit_inversion(monkeypatch):
    cfg = Configuration(QI, [0, 1, 2], 32)
    h = random_element(cfg, random.Random(4), chart=1, support=[1], max_zdeg=2, tdeg=3)
    a = AnalyticElement.one(cfg, 1) + h.shift_t(1)
    calls = []
    real = kummer.unit_invert

    def counted(f):
        calls.append(1)
        return real(f)

    monkeypatch.setattr(kummer, "unit_invert", counted)
    s = hensel_root(a, 4)
    monkeypatch.undo()
    assert len(calls) == 1
    assert (s ** 4).equals(a)


def test_root_makes_few_full_precision_products(monkeypatch):
    """Step k runs mod t^min(2^k, N): of the 29 products of one N = 32,
    q = 4 root, 9 are at full precision (all 29 were when every step ran at
    N), the root is the same, and it passes the full-precision check."""
    cfg = Configuration(QI, [0, 1, 2], 32)
    h = random_element(cfg, random.Random(4), chart=1, support=[1], max_zdeg=2, tdeg=3)
    a = AnalyticElement.one(cfg, 1) + h.shift_t(1)
    precisions = []
    real = analytic.ae_dot

    def counted(pairs):
        out = real(pairs)
        precisions.append(out.precision)
        return out

    monkeypatch.setattr(analytic, "ae_dot", counted)
    s = hensel_root(a, 4)
    monkeypatch.undo()
    assert len(precisions) == 29
    assert precisions.count(32) <= 9
    assert (s ** 4).equals(a)
