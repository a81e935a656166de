"""`gl_factor`'s density step against its full-precision formula.

The step cuts a0 = u^-1 adj at t-degree e, for the unit part u of the
determinant, and ``patching._density_step`` computes it mod t^(e+1) alone.
The law: it equals, under ``==`` and with each entry's precision window,
the full-precision formula kept below as the reference (invert u at full
precision, multiply every adjugate entry, drop the t-degrees above e).
Drawn over Q and Q(i), two to five centers (integer or not), any chart,
N <= 32 and e from 0 to 3, with units that carry a constant, chart-ratio
factors and z-slots at t^>=1, and entries of unequal windows, some zero.
Most ``gl_factor`` cases have e = 0, so this is the check on e >= 1.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg.analytic import (
    AnalyticElement,
    LocalizedElement,
    chart_ratio_unit,
    random_element,
    unit_invert,
)
from patchalg.patching import PatchMatrix, _density_step
from patchalg.scalars import Scalar
from patchalg.series import TruncSeries
from test_rebase_props import QI, configurations


def _tdeg_cut(f: AnalyticElement, d: int) -> AnalyticElement:
    """Drop all t-degrees >= d while keeping the precision window."""

    def cut(s: TruncSeries) -> TruncSeries:
        comps = [list(c[:d]) + [0] * (s.prec - d) if d < s.prec else list(c) for c in s._c]
        return TruncSeries(s.field, s.prec, s.den, comps)

    return AnalyticElement(f.cfg, f.chart, cut(f.f0), {kn: cut(s) for kn, s in f.zc.items()})


def reference_a0(adj: PatchMatrix, u_body: AnalyticElement, e: int, chart: int) -> PatchMatrix:
    """The density step at full precision, as ``gl_factor`` once made it."""
    u_inv = unit_invert(u_body)
    b_prime = PatchMatrix(
        [[LocalizedElement(u_inv * x.body, x.tshift) for x in row] for row in adj.rows],
        chart,
    )
    return PatchMatrix(
        [[LocalizedElement(_tdeg_cut(x.body, e + 1), 0) for x in row] for row in b_prime.rows],
        chart,
    )


@st.composite
def density_inputs(draw):
    """(adj, u_body, e, chart): an n x n matrix (n <= 3) of elements with
    their own windows, and a recognized unit c * prod ratio * (1 + t g)."""
    cfg = draw(configurations(max_centers=5, max_prec=32))
    rng = random.Random(draw(st.integers(0, 2**32)))
    chart = draw(st.sampled_from(list(cfg.indices)))
    e = draw(st.integers(0, 3))
    N = cfg.precision

    def element(prec, **kw):
        f = random_element(cfg, rng, chart=chart, prec=prec, **kw)
        if cfg.field == QI:
            f = f + random_element(cfg, rng, chart=chart, prec=prec, **kw).scale(
                Scalar.of(QI, 0, 1))
        return f

    u_prec = draw(st.integers(1, N))
    u = AnalyticElement.constant(cfg, rng.randint(1, 9), chart, u_prec)
    for _ in range(draw(st.integers(0, 2))):
        j2, j = rng.sample(list(cfg.indices), 2)
        u = u * chart_ratio_unit(cfg, j2, j, u_prec).rebase(chart)
    small = element(u_prec, max_zdeg=2, tdeg=3, support=rng.sample(list(cfg.indices), 2))
    u = u * (AnalyticElement.one(cfg, chart, u_prec) + small.shift_t(1))

    def entry():
        prec = rng.randint(1, N)
        if rng.random() < 0.15:
            return AnalyticElement.zero(cfg, chart, prec)
        return element(prec, max_zdeg=3, tdeg=rng.randint(1, 6))

    n = draw(st.integers(1, 3))
    adj = PatchMatrix([[entry() for _ in range(n)] for _ in range(n)], chart)
    return adj, u, e, chart


@settings(max_examples=40)
@given(density_inputs())
def test_density_step_equals_full_precision_cut(inp):
    adj, u, e, chart = inp
    got = _density_step(adj, u, e)
    want = reference_a0(adj, u, e, chart)
    assert got.chart == want.chart == chart
    for grow, wrow in zip(got.rows, want.rows):
        for g, w in zip(grow, wrow):
            assert g.tshift == w.tshift == 0
            assert g.body.precision == w.body.precision
            assert g.body == w.body
