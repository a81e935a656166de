"""Matrix factorization over the analytic rings.

`cartan_factor` splits a matrix close to the identity into a product of a
factor supported away from one index and a factor supported on it, by the
classical contraction: split the deviation additively, peel unit factors on
both sides, repeat on the conjugated residual.  Each round at least doubles
the order of the residual, so the loop ends within the precision budget.
The inverses of the peeled factors are Neumann series, summed one term at a
time: the k-th term has order v + k v(m), so the product kernel's valuation
skips drop more of each later product.

`gl_factor` reduces the general (localized, invertible) case to the Cartan
step: clear t-denominators, normalize the adjugate by the unit part of the
determinant, cut the normalized adjugate at the determinant's t-order (the
cut is itself an exact member of the dense polynomial subring, so no
approximation search is needed), and reassemble with the central scalar
corrections.  Determinants whose unit part the recognizer does not know are
rejected with a "restricted pipeline" diagnostic rather than guessed at.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    UnitNotRecognized,
    ae_dot,
    membership,
    unit_invert,
)
from .series import INF, NonUnitError

__all__ = [
    "FactorizationError",
    "PatchMatrix",
    "FactorizationResult",
    "cartan_factor",
    "gl_factor",
]


class FactorizationError(ArithmeticError):
    """Input outside the implemented (restricted) factorization pipeline."""


class PatchMatrix:
    """Square matrix of localized analytic elements over one chart."""

    __slots__ = ("cfg", "chart", "n", "rows")

    def __init__(self, entries: Sequence[Sequence], chart: Optional[int] = None):
        rows = [[LocalizedElement.of(x) for x in row] for row in entries]
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("need a non-empty square matrix")
        cfg = rows[0][0].cfg
        chart = rows[0][0].chart if chart is None else chart
        self.rows = tuple(
            tuple(x.rebase(chart) if x.chart != chart else x for x in row) for row in rows
        )
        self.cfg = cfg
        self.chart = chart
        self.n = n

    @staticmethod
    def identity(cfg: Configuration, n: int, chart: int = 0, prec: Optional[int] = None) -> "PatchMatrix":
        one = AnalyticElement.one(cfg, chart, prec)
        zero = AnalyticElement.zero(cfg, chart, prec)
        return PatchMatrix([[one if i == j else zero for j in range(n)] for i in range(n)], chart)

    # -- views ---------------------------------------------------------------

    @property
    def entries(self) -> tuple:
        return self.rows

    def entry(self, i: int, j: int) -> LocalizedElement:
        return self.rows[i][j]

    @property
    def precision(self) -> int:
        return min(x.precision for row in self.rows for x in row)

    def min_valuation(self):
        return min(x.valuation() for row in self.rows for x in row)

    def deviation(self) -> "PatchMatrix":
        """self - identity, at the matrix's precision: one comes off the
        diagonal f0 only."""
        cfg, prec = self.cfg, self.precision
        rows = []
        for i, row in enumerate(self.rows):
            out = []
            for j, x in enumerate(row):
                e = min(x.tshift, 0)
                body = x.body.shift_t(x.tshift - e)
                f0 = body.f0 - cfg.t_series(-e, prec) if i == j else body.f0.truncate(prec)
                out.append(LocalizedElement(AnalyticElement(cfg, self.chart, f0, body.zc), e))
            rows.append(out)
        return PatchMatrix(rows, self.chart)

    def equals(self, other: "PatchMatrix") -> bool:
        if self.n != other.n:
            return False
        o = other.rebase(self.chart)
        return all(
            self.rows[i][j].equals(o.rows[i][j]) for i in range(self.n) for j in range(self.n)
        )

    def rebase(self, chart: int) -> "PatchMatrix":
        if chart == self.chart:
            return self
        return PatchMatrix(self.rows, chart)

    def __repr__(self) -> str:
        return f"PatchMatrix({self.n}x{self.n}, chart {self.chart})"

    # -- arithmetic ------------------------------------------------------------

    def _check(self, other: "PatchMatrix"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.cfg != other.cfg:
            raise ValueError("configuration mismatch")

    def _entrywise(self, other: "PatchMatrix", op) -> "PatchMatrix":
        self._check(other)
        o = other.rebase(self.chart)
        return PatchMatrix(
            [[op(x, y) for x, y in zip(r, s)] for r, s in zip(self.rows, o.rows)], self.chart
        )

    def __add__(self, other: "PatchMatrix") -> "PatchMatrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "PatchMatrix") -> "PatchMatrix":
        return self._entrywise(other, operator.sub)

    def __neg__(self) -> "PatchMatrix":
        return PatchMatrix([[-x for x in row] for row in self.rows], self.chart)

    def __mul__(self, other: "PatchMatrix") -> "PatchMatrix":
        self._check(other)
        o = other.rebase(self.chart)
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                terms = [
                    (self.rows[i][k], o.rows[k][j])
                    for k in range(self.n)
                    if not (self.rows[i][k].is_zero() or o.rows[k][j].is_zero())
                ]
                if not terms:
                    row.append(
                        LocalizedElement(AnalyticElement.zero(self.cfg, self.chart, self.precision), 0)
                    )
                    continue
                smin = min(a.tshift + b.tshift for a, b in terms)
                pairs = []
                for a, b in terms:
                    d = a.tshift + b.tshift - smin
                    pairs.append((a.body.shift_t(d) if d else a.body, b.body))
                row.append(LocalizedElement(ae_dot(pairs), smin))
            out.append(row)
        return PatchMatrix(out, self.chart)

    def scale(self, s) -> "PatchMatrix":
        return PatchMatrix([[x.scale(s) for x in row] for row in self.rows], self.chart)

    def shift_t(self, e: int) -> "PatchMatrix":
        return PatchMatrix(
            [[LocalizedElement(x.body, x.tshift + e) for x in row] for row in self.rows],
            self.chart,
        )

    def det(self) -> LocalizedElement:
        """Exact determinant by cofactor expansion (desk-scale dimensions)."""
        idx = list(range(self.n))
        return self._det(idx, idx)

    def _det(self, rows: list, cols: list) -> LocalizedElement:
        if len(rows) == 1:
            return self.rows[rows[0]][cols[0]]
        total = None
        for pos, c in enumerate(cols):
            pivot = self.rows[rows[0]][c]
            if pivot.is_zero():
                continue
            sub = self._det(rows[1:], cols[:pos] + cols[pos + 1 :])
            term = pivot * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        if total is None:
            total = LocalizedElement(AnalyticElement.zero(self.cfg, self.chart, self.precision), 0)
        return total

    def adjugate(self) -> "PatchMatrix":
        idx = list(range(self.n))
        out = [[None] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(self.n):
                rows = idx[:i] + idx[i + 1 :]
                cols = idx[:j] + idx[j + 1 :]
                m = self._det(rows, cols) if self.n > 1 else LocalizedElement(
                    AnalyticElement.one(self.cfg, self.chart, self.precision), 0
                )
                if (i + j) % 2:
                    m = -m
                out[j][i] = m  # transpose of cofactors
        return PatchMatrix(out, self.chart)

    def invert_near_identity(self) -> "PatchMatrix":
        """Inverse when v(self - 1) >= 1: the alternating t-adic sum of powers
        of the deviation, summed term by term (exact within the window)."""
        m = self.deviation()
        if m.min_valuation() < 1:
            raise FactorizationError("matrix is not within distance 1 of the identity")
        return _neumann(PatchMatrix.identity(self.cfg, self.n, self.chart, self.precision), -m, True)


def _neumann(x: PatchMatrix, n: PatchMatrix, left: bool) -> PatchMatrix:
    """sum_k n^k x (left) or sum_k x n^k, for v(n) >= 1, mod t^prec of x.

    Adds one term at a time, term <- n term (or term n), and stops once the
    next term would vanish to precision: its order is at least the current
    term's plus v(n).
    """
    prec, vn = x.precision, n.min_valuation()
    acc = term = x
    while term.min_valuation() + vn < prec:
        term = n * term if left else term * n
        acc = acc + term
    return acc


@dataclass
class FactorizationResult:
    b1: PatchMatrix
    b2: PatchMatrix
    residual_precision: int
    side_memberships: tuple
    rounds: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.side_memberships)


def _entry_memberships(mat: PatchMatrix, J: Iterable[int]) -> bool:
    J = frozenset(J)
    return all(membership(x.body, J) for row in mat.rows for x in row)


def cartan_factor(a: PatchMatrix, i: int, max_rounds: Optional[int] = None) -> FactorizationResult:
    """Split a = a1 * a2 with a1 supported away from index i and a2 on it.

    Requires entries in the unlocalized ring (no t-shifts) and
    v(a - 1) >= 1.  The residual contracts at least geometrically, so the
    loop is bounded by the precision; hitting the round cap means a bug and
    raises rather than truncating silently.
    """
    cfg = a.cfg
    if i not in cfg.indices:
        raise ValueError(f"no center with index {i}")
    if any(x.tshift != 0 for row in a.rows for x in row):
        raise FactorizationError("cartan_factor wants unlocalized entries (tshift 0)")
    J = frozenset(cfg.indices) - {i}
    if not J:
        raise FactorizationError("need at least two centers to patch")
    prec = a.precision
    dev = a.deviation()
    if dev.min_valuation() < 1:
        raise FactorizationError("v(a - 1) >= 1 required")

    chart = a.chart
    a1 = a2 = PatchMatrix.identity(cfg, a.n, chart, prec)
    rounds = 0
    cap = max_rounds or (prec + 2)
    while dev.min_valuation() < prec:
        rounds += 1
        if rounds > cap:
            raise ArithmeticError("Cartan iteration failed to contract (internal bug)")
        # slot partition in the working chart: rebasing into a side's chart
        # only ever adds that side's own generator, so each part already
        # lies in its target subring (the public split also moves charts,
        # which the matrix loop does not need)
        m1_rows, m2_rows = [], []
        for row in dev.rows:
            r1, r2 = [], []
            for x in row:
                body = x.body
                zc1 = {kn: s for kn, s in body.zc.items() if kn[0] != i}
                zc2 = {kn: s for kn, s in body.zc.items() if kn[0] == i}
                r1.append(AnalyticElement(cfg, chart, body.f0, zc1))
                r2.append(AnalyticElement(cfg, chart, cfg.zero_series(body.precision), zc2))
            m1_rows.append(r1)
            m2_rows.append(r2)
        m1 = PatchMatrix(m1_rows, chart)
        m2 = PatchMatrix(m2_rows, chart)
        a1 = a1 + a1 * m1
        a2 = a2 + m2 * a2
        # (1 + dev) - (1+m1)(1+m2) = -m1 m2, so the conjugated residual has
        # deviation -(1+m1)^{-1} m1 m2 (1+m2)^{-1}
        #   = sum_{k,l} (-m1)^k (-m1 m2) (-m2)^l,
        # of at least doubled order; the Neumann sums stay within the window
        n1, n2 = -m1, -m2
        dev = _neumann(_neumann(n1 * m2, n1, True), n2, False)
    mem = (_entry_memberships(a1, J), _entry_memberships(a2, {i}))
    return FactorizationResult(a1, a2, prec, mem, rounds)


def _scalar_monomial(mat: PatchMatrix):
    """(m, unit_body) if mat == t^m * u * Id for a scalar u with v(u) = 0."""
    n = mat.n
    diag = mat.rows[0][0]
    for i in range(n):
        for j in range(n):
            x = mat.rows[i][j]
            if i == j:
                if not x.equals(diag):
                    return None
            elif not x.is_zero():
                return None
    v = diag.valuation()
    if v == INF:
        return None
    body = diag.body
    m = v - diag.tshift
    try:
        unit = body.shift_t(-m)
    except NonUnitError:
        return None
    return v, unit


def gl_factor(b: PatchMatrix, i: int) -> FactorizationResult:
    """Factor an invertible localized matrix through the Cartan step.

    The determinant must come out as t^e * (recognized unit); otherwise the
    restricted pipeline refuses (multi-chart Weierstrass clearing beyond the
    recognized unit classes is not implemented).
    """
    cfg = b.cfg
    chart = b.chart
    J = frozenset(cfg.indices) - {i}
    if not J:
        raise FactorizationError("need at least two centers to patch")

    # clear t-denominators: b_hat = t^{e0} b has plain ring entries
    e0 = max(0, -min(x.tshift for row in b.rows for x in row))
    b_hat = PatchMatrix(
        [[LocalizedElement(x.body.shift_t(x.tshift + e0), 0) for x in row] for row in b.rows],
        chart,
    )

    d = b_hat.det()
    dv = d.valuation()
    if dv == INF:
        raise FactorizationError("determinant vanishes at this precision")
    e = dv - d.tshift
    u_body = d.body.shift_t(-e)
    try:
        u_inv = unit_invert(u_body)
    except UnitNotRecognized as exc:
        raise FactorizationError(
            "restricted pipeline: the unit part of det(b) is outside the recognized "
            f"classes ({exc}); the general clearing step is not implemented"
        ) from exc

    adj = b_hat.adjugate()
    b_prime = PatchMatrix(
        [[LocalizedElement(u_inv * x.body, x.tshift) for x in row] for row in adj.rows],
        chart,
    )
    # density step at finite precision: cut at the determinant's t-order
    a0 = PatchMatrix(
        [[LocalizedElement(_tdeg_cut(x.body, e + 1), 0) for x in row] for row in b_prime.rows],
        chart,
    )
    prod = b_hat * a0
    try:
        ba = PatchMatrix(
            [[LocalizedElement(x.body.shift_t(x.tshift - e), 0) for x in row] for row in prod.rows],
            chart,
        )
    except NonUnitError as exc:
        raise FactorizationError(f"normalized product not divisible by t^{e}: {exc}") from exc
    if ba.deviation().min_valuation() < 1:
        raise FactorizationError("pipeline produced a residual too far from the identity")

    cart = cartan_factor(ba, i)

    # a^{-1} = t^{e - e'} * W with W = u0^{-1} adj(a0)
    d0 = a0.det()
    d0v = d0.valuation()
    if d0v == INF:
        raise FactorizationError("cut matrix is singular at this precision")
    e_p = d0v - d0.tshift
    u0_body = d0.body.shift_t(-e_p)
    try:
        u0_inv = unit_invert(u0_body)
    except UnitNotRecognized as exc:
        raise FactorizationError(
            f"restricted pipeline: cut determinant outside recognized classes ({exc})"
        ) from exc
    W = PatchMatrix(
        [[LocalizedElement(u0_inv * x.body, x.tshift) for x in row] for row in a0.adjugate().rows],
        chart,
    )

    central = -e0 + e - e_p
    sm = _scalar_monomial(W)
    if sm is not None:
        # W is a central t-monomial times a unit: the monomial goes left
        w_shift, w_unit = sm
        central += w_shift
        b2 = PatchMatrix(
            [[x * LocalizedElement(w_unit, 0) for x in row] for row in cart.b2.rows], chart
        )
    else:
        b2 = cart.b2 * W
    b1 = cart.b1.shift_t(central)

    mem = (_entry_memberships(b1, J), _entry_memberships(b2, {i}))
    res_prec = min(b1.precision, b2.precision)
    notes = {"cleared_shift": e0, "det_order": e, "cut_det_order": e_p, "rounds": cart.rounds}
    return FactorizationResult(b1, b2, res_prec, mem, cart.rounds, notes)


def _tdeg_cut(f: AnalyticElement, d: int) -> AnalyticElement:
    """Drop all t-degrees >= d while keeping the precision window."""
    from .series import TruncSeries

    def cut(s: TruncSeries) -> TruncSeries:
        comps = [list(c[:d]) + [0] * (s.prec - d) if d < s.prec else list(c) for c in s._c]
        return TruncSeries(s.field, s.prec, s.den, comps)

    return AnalyticElement(f.cfg, f.chart, cut(f.f0), {kn: cut(s) for kn, s in f.zc.items()})
