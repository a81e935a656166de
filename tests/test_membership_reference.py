"""Membership by support against membership through a chart change.

`membership_by_rebase` is the test that `membership` once ran, kept here
as a slow reference: rebase f into a J-chart (f's own chart when it lies
in J) and read the support; for J = ∅, the chart generator alone with
each slot (c, n) of t-valuation >= n.  The law: over Q and Q(i), two to
five centers (integer or not) and precision up to 32, for every index set
J (∅ and sets without the chart index among them), the two agree on random
forms, products, rebased elements and t-shifts up to and past the window,
with chart slots (c, n) forced to t-valuation n - 1 and n.

The count gate: `membership` makes no chart change, so the side
memberships that `cartan_factor` and `gl_factor` compute rebase nothing.
"""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from patchalg import patching
from patchalg.analytic import AnalyticElement, default_configuration, membership, random_element
from patchalg.patching import cartan_factor, gl_factor
from patchalg.scalars import Scalar
from test_patching import _one_sided_factors
from test_rebase_props import QI, configurations


def membership_by_rebase(f: AnalyticElement, J) -> bool:
    """Does f lie in A_J?  Through a rebase into a J-chart."""
    J = frozenset(J)
    if J:
        g = f.rebase(f.chart if f.chart in J else min(J))
        return g.support() <= J
    if not f.support() <= {f.chart}:
        return False
    return all(s.vt() >= n for (_k, n), s in f.zc.items())


def subsets(indices) -> list:
    return [frozenset(c) for r in range(len(indices) + 1) for c in combinations(indices, r)]


@st.composite
def membership_inputs(draw):
    """f over Q or Q(i) with 2-5 centers and N <= 32: a random form of
    random support, a product of two, or a form rebased to another chart;
    then a t-shift by 0 to N + 3 and, on demand, one chart slot (c, n) of
    t-valuation n - 1 or n added in f's chart c."""
    cfg = draw(configurations(max_centers=5, max_prec=32, at_top=True))
    rng = random.Random(draw(st.integers(0, 2**32)))
    idx = list(cfg.indices)
    zdeg = draw(st.integers(1, 3))

    def form(chart):
        support = [k for k in idx if rng.random() < 0.5]
        f = random_element(cfg, rng, chart=chart, support=support, max_zdeg=zdeg, tdeg=4)
        if cfg.field == QI:
            g = random_element(cfg, rng, chart=chart, support=support, max_zdeg=zdeg, tdeg=4)
            f = f + g.scale(Scalar.of(QI, 0, 1))
        return f

    kind = draw(st.sampled_from(["form", "product", "rebased"]))
    f = form(draw(st.sampled_from(idx)))
    if kind == "product":
        f = f * form(draw(st.sampled_from(idx)))
    elif kind == "rebased":
        f = f.rebase(draw(st.sampled_from(idx)))
    f = f.shift_t(draw(st.integers(0, cfg.precision + 3)))
    if draw(st.booleans()):
        c, n = f.chart, draw(st.integers(1, zdeg))
        v = n - draw(st.integers(0, 1))
        slot = cfg.t_series(v, coeff=draw(st.integers(1, 9)))
        f = f + AnalyticElement(cfg, c, cfg.zero_series(f.precision), {(c, n): slot})
    return f


@settings(max_examples=100)
@given(membership_inputs())
def test_membership_agrees_with_the_rebase_form(f):
    for J in subsets(f.cfg.indices):
        assert membership(f, J) == membership_by_rebase(f, J), sorted(J)


def _side_check_chart_changes(monkeypatch, factor, a, i, member) -> tuple:
    """(side memberships, chart-changing rebases inside them) of
    factor(a, i), with ``member`` as the membership test."""
    changes, inside = [], [False]
    rebase, entry_memberships = AnalyticElement.rebase, patching._entry_memberships

    def watched_rebase(self, to_chart):
        if inside[0] and to_chart != self.chart:
            changes.append((self.chart, to_chart))
        return rebase(self, to_chart)

    def watched_memberships(mat, J):
        inside[0] = True
        try:
            return entry_memberships(mat, J)
        finally:
            inside[0] = False

    monkeypatch.setattr(AnalyticElement, "rebase", watched_rebase)
    monkeypatch.setattr(patching, "_entry_memberships", watched_memberships)
    monkeypatch.setattr(patching, "membership", member)
    res = factor(a, i)
    monkeypatch.undo()
    return res.side_memberships, len(changes)


def test_side_memberships_change_no_chart(monkeypatch):
    """Count gate: a 3x3 `cartan_factor` and a 2x2 `gl_factor` of one-sided
    products in chart 0, split at index 2, compute their side memberships
    with no chart-changing rebase.  The rebase form makes some on the same
    inputs (the index-2 side is checked outside chart 0), which shows the
    watcher sees them."""
    cfg = default_configuration(12)
    rng = random.Random(16)
    for factor, n in ((cartan_factor, 3), (gl_factor, 2)):
        b1, b2 = _one_sided_factors(cfg, n, 2, rng)
        mat = b1 * b2
        mem, changes = _side_check_chart_changes(monkeypatch, factor, mat, 2, membership)
        ref_mem, ref_changes = _side_check_chart_changes(
            monkeypatch, factor, mat, 2, membership_by_rebase)
        assert changes == 0, f"{factor.__name__}: {changes} chart changes"
        assert ref_changes > 0 and mem == ref_mem == (True, True)
