"""The Cartan step's packed-row kernel against ``ae_dot``.

`patching._Kernel.combine` computes base - sum L * R for t-coefficients of
whole matrices, each held as one integer z-polynomial (one denominator, a
numerator per entry, slot and coordinate).  The law: on the same
precision-1 elements it equals base - sum ae_dot, entry by entry.  Drawn
over Q and Q(i), two to five centers (integer or not), any chart, 1 x 1 to
3 x 3 matrices, z-degree up to 6, numerators up to 9, 2^64 or 2^200 and
unequal denominators, zero entries, bases and products.  One test draws
both factors on any support; another draws right factors on the side of
one index i (as in the lift and in the contraction's e1 e2 and f2 m2) or
away from it (as in the contraction's m1 f1), left factors away from i.

Negative controls: on inputs whose outputs reach the kernel's bound, a
copy that takes its slot width from a bound one bit shorter, and a copy
whose bound drops the factor for the terms of one sum over k and s2, both
read wrong results.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg import patching
from patchalg.analytic import AnalyticElement, Configuration, ae_dot, random_element
from patchalg.patching import PatchMatrix, _coefficients, _Kernel
from patchalg.scalars import QQ, Scalar
from patchalg.series import TruncSeries
from test_rebase_props import QI, configurations


def _element(cfg, chart, x, r, c) -> AnalyticElement:
    """Entry (r, c) of a coefficient as a precision-1 element."""
    if x is None:
        return AnalyticElement.zero(cfg, chart, 1)
    comps = [{s: v for (i, j, s), v in comp.items() if (i, j) == (r, c)} for comp in x.comps]
    slots = {s for comp in comps for s in comp}

    def series(slot):
        return TruncSeries(cfg.field, 1, x.den, [[comp.get(slot, 0)] for comp in comps])

    return AnalyticElement(cfg, chart, series(None),
                           {s: series(s) for s in slots if s is not None})


def _coefficient0(chart, mat):
    """The t^0 coefficient of mat; None, the zero matrix, if it is zero."""
    return _coefficients(PatchMatrix(mat, chart))[0]


@st.composite
def kernel_inputs(draw, sides):
    """(cfg, chart, base, products): n x n matrices (n = 1 to 3) of
    precision-1 elements; the base may be None, and any entry may be zero.
    The right factors lie on one of the sides: "i", "J" or "both"; left
    factors lie away from i when the right ones lie on one side."""
    cfg = draw(configurations(max_centers=5, max_prec=4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = draw(st.sampled_from(list(cfg.indices)))
    i = draw(st.sampled_from(list(cfg.indices)))
    side = draw(st.sampled_from(sides))
    bound = draw(st.sampled_from([9, 2**64, 2**200]))
    n = draw(st.integers(1, 3))
    J = [k for k in cfg.indices if k != i]

    def entry(support, with_f0):
        if rng.random() < 0.15:
            return AnalyticElement.zero(cfg, chart, 1)
        zdeg = rng.randint(1, 6)

        def draw_one():
            f = random_element(cfg, rng, chart=chart, support=support, max_zdeg=zdeg,
                               coeff_bound=bound, prec=1)
            return f if with_f0 else AnalyticElement(cfg, chart, cfg.zero_series(1), f.zc)

        f = draw_one()
        if cfg.field == QI:
            f = f + draw_one().scale(Scalar.of(QI, 0, 1))
        return f.scale(Fraction(rng.randint(1, 9), rng.randint(1, 12)))

    def matrix(support, with_f0):
        return [[entry(support, with_f0) for _ in range(n)] for _ in range(n)]

    left, right = {"i": ((J, True), ([i], False)), "J": ((J, True), (J, True)),
                   "both": ((None, True), (None, True))}[side]
    base = matrix(None, True) if draw(st.booleans()) else None
    products = [(matrix(*left), matrix(*right)) for _ in range(draw(st.integers(1, 3)))]
    return cfg, chart, base, products


def _check(cfg, chart, base, products) -> None:
    """combine on the t^0 coefficients equals base - sum ae_dot per entry;
    so does each product alone, combined again from the same coefficients,
    whose packed rows the first call kept at its own slot width."""
    n = len(products[0][0])
    cells = [(r, c) for r in range(n) for c in range(n)]
    kernel, pairs = _Kernel(cfg, n), []
    for L, R in products:
        x, y = _coefficient0(chart, L), _coefficient0(chart, R)
        for M, z in ((L, x), (R, y)):
            assert all(_element(cfg, chart, z, r, c) == M[r][c] for r, c in cells)
        pairs.append((x, y))
    nonzero = [(x, y) for x, y in pairs if x is not None and y is not None]
    got = kernel.combine(None if base is None else _coefficient0(chart, base), nonzero)
    for r, c in cells:
        want = ae_dot([(L[r][k], R[k][c]) for L, R in products for k in range(n)])
        want = -want if base is None else base[r][c] - want
        assert _element(cfg, chart, got, r, c) == want
    for (L, R), pair in zip(products, pairs):
        if pair in nonzero:
            got = kernel.combine(None, [pair])
            for r, c in cells:
                want = -ae_dot([(L[r][k], R[k][c]) for k in range(n)])
                assert _element(cfg, chart, got, r, c) == want


@settings(max_examples=80)
@given(kernel_inputs(["both"]))
def test_kernel_equals_ae_dot(inp):
    _check(*inp)


@settings(max_examples=80)
@given(kernel_inputs(["i", "J"]))
def test_kernel_one_sided_equals_ae_dot(inp):
    _check(*inp)


def _at_the_bound(right_slot):
    """2 x 2 inputs over Q whose output slots all equal the kernel's bound,
    2^63: f0 entries -2^31 on the left, entries 2^31 at right_slot on the
    right, so each output, minus a sum of two equal products, is 2^63."""
    cfg = Configuration(QQ, [0, 1, 2], 4)

    def entry(slot, u):
        if slot is None:
            return AnalyticElement.from_terms(cfg, 0, u, {}, 1)
        return AnalyticElement.from_terms(cfg, 0, 0, {slot: u}, 1)

    L = [[entry(None, -2**31)] * 2] * 2
    R = [[entry(right_slot, 2**31)] * 2] * 2
    return cfg, 0, None, [(L, R)]


def _short_bound(monkeypatch):
    width = patching.width
    monkeypatch.setattr(patching, "width", lambda bound: width(bound >> 1))


def _no_sum_factor(monkeypatch):
    right = _Kernel.right

    def dropped(self, y):
        slots, ymag, _terms = right(self, y)
        y.right = slots, ymag, 1
        return y.right

    monkeypatch.setattr(_Kernel, "right", dropped)


@pytest.mark.parametrize("right_slot", [(2, 1), None], ids=["i-side", "J-side"])
@pytest.mark.parametrize("narrow", [_short_bound, _no_sum_factor],
                         ids=["bound-one-bit-short", "no-sum-factor"])
def test_narrower_slots_fail(monkeypatch, right_slot, narrow):
    """Outputs of 2^63 need 128-bit slots: the kernel reads them exactly,
    and both narrowed copies take 64-bit slots and read them wrong."""
    inputs = _at_the_bound(right_slot)
    _check(*inputs)
    narrow(monkeypatch)
    with pytest.raises(AssertionError):
        _check(*inputs)
