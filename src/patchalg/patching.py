"""Matrix factorization over the analytic rings.

Every sum of localized products here, an entry of a matrix product, a
minor or a determinant, is one ``localized_dot``, zero entries included,
so a zero known only mod t^w bounds each sum it enters at t^w.

`cartan_factor` splits a matrix a with v(a - 1) >= 1 into a product
b1 * b2 of a factor supported away from one index i and a factor supported
on it, by a t-adic lift.  Each t-coefficient of a - 1 is a z-polynomial,
and the t^m coefficient of a = b1 * b2 determines those of b1 - 1 and
b2 - 1 from the lower ones, split by support: f0 and z_k (k != i) go to
b1, z_i to b2.  Every product the lift makes is a cross-index one, so the
z-degree of the factors never exceeds that of a.  The factorization is
unique, because 1 + z_i K[z_i][[t]] is a group that meets the t-series
only in 1.  So these are exactly the factors of the classical contraction
(split the deviation additively, peel unit factors on both sides, repeat
on the conjugated residual).  The reported round count is that
contraction's, read off its error recursion, which is evaluated lazily,
one t-coefficient at a time and only as deep as each valuation needs.

The lift and the round count hold the t^m coefficient of a whole matrix as
one integer z-polynomial, one denominator and a numerator per entry, slot
and coordinate.  Their kernel, ``_combine``, holds each left factor L, per
right slot s2, as the rows of sum_s1 L[r, k, s1] z^s1 z^s2 already reduced
to canonical slots by the configuration's table of monomial products
(``Configuration.rewrite_ints``), Kronecker-packed with all rows r of one k
in one integer at a slot width taken from a bound, and kept on L for the
whole factorization.  A product with a right factor R is then one integer
multiply-add per numerator of R, no cross cell is ever formed, and each
output column is unpacked once per t-coefficient.  Over Q(i) the same
kernel runs on coordinates.  The factors' series are built once, at the
end.  The targets and packed weights of each slot product and the place
keys of each packed layout live in the configuration's memo.

`gl_factor` reduces the general (localized, invertible) case to the Cartan
step: clear t-denominators, normalize the adjugate by the unit part of the
determinant, cut the normalized adjugate at the determinant's t-order e (the
cut is itself an exact member of the dense polynomial subring, so no
approximation search is needed, and it is computed mod t^(e+1) alone), and
reassemble with the central scalar corrections.  Determinants whose unit
part the recognizer does not know are rejected with a "restricted
pipeline" diagnostic rather than guessed at.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import lcm
from typing import Iterable, Optional, Sequence

from .analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    UnitNotRecognized,
    _per_configuration,
    _Stream,
    localized_dot,
    membership,
    unit_invert,
)
from .intvec import apply_rule, content, coord_mul, mag, pack, unpack, width
from .series import INF, NonUnitError, TruncSeries, newton_inverse

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

    def _map(self, fn) -> "PatchMatrix":
        """The matrix of fn applied to every entry, in this chart."""
        return PatchMatrix([[fn(x) for x in row] for row in self.rows], self.chart)

    def __neg__(self) -> "PatchMatrix":
        return self._map(operator.neg)

    def truncate(self, prec: int) -> "PatchMatrix":
        return self._map(lambda x: LocalizedElement(x.body.truncate(prec), x.tshift))

    def widen(self, prec: int) -> "PatchMatrix":
        return self._map(lambda x: LocalizedElement(x.body.widen(prec), x.tshift))

    def __mul__(self, other: "PatchMatrix") -> "PatchMatrix":
        """Each entry is one ``localized_dot`` over k, zero entries included,
        so the window of an entry is the smallest of its n products'."""
        self._check(other)
        o = other.rebase(self.chart)
        r = range(self.n)
        return PatchMatrix(
            [[localized_dot([(row[k], o.rows[k][j]) for k in r]) for j in r] for row in self.rows],
            self.chart,
        )

    def scale(self, s) -> "PatchMatrix":
        return self._map(lambda x: x.scale(s))

    def shift_t(self, e: int) -> "PatchMatrix":
        return self._map(lambda x: LocalizedElement(x.body, x.tshift + e))

    def det(self) -> LocalizedElement:
        """Exact determinant (desk-scale dimensions), one expansion ``_det``."""
        idx = list(range(self.n))
        return self._det(idx, idx)

    def _det(self, rows: list, cols: list) -> LocalizedElement:
        """The minor on rows x cols, expanded along its first row: one
        ``localized_dot``, the sign on the pivot and zero pivots kept."""
        if len(rows) == 1:
            return self.rows[rows[0]][cols[0]]
        top = self.rows[rows[0]]
        return localized_dot([
            (-top[c] if pos % 2 else top[c], self._det(rows[1:], cols[:pos] + cols[pos + 1 :]))
            for pos, c in enumerate(cols)
        ])

    def det_by(self, adj: "PatchMatrix") -> LocalizedElement:
        """The determinant read off the adjugate adj (``gl_factor`` has it):
        one ``localized_dot`` of the first row against the cofactors
        adj[c][0], zero entries kept, as the sum with ``*`` and ``+``."""
        return localized_dot([(self.rows[0][c], adj.rows[c][0]) for c in range(self.n)])

    def adjugate(self) -> "PatchMatrix":
        """The transpose of the cofactor matrix; the identity for n = 1."""
        if self.n == 1:
            return PatchMatrix.identity(self.cfg, 1, self.chart, self.precision)
        idx = range(self.n)

        def cofactor(i: int, j: int) -> LocalizedElement:
            m = self._det([r for r in idx if r != i], [c for c in idx if c != j])
            return -m if (i + j) % 2 else m

        return PatchMatrix([[cofactor(j, i) for j in idx] for i in idx], self.chart)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def invert_near_identity(self) -> "PatchMatrix":
        """Inverse when v(self - 1) >= 1, by ``newton_inverse`` from the
        identity (exact within the window)."""
        if self.deviation().min_valuation() < 1:
            raise FactorizationError("matrix is not within distance 1 of the identity")
        one = PatchMatrix.identity(self.cfg, self.n, self.chart, self.precision)
        return newton_inverse(self, one, one, self.precision)


@dataclass
class FactorizationResult:
    b1: PatchMatrix
    b2: PatchMatrix
    residual_precision: int
    side_memberships: tuple
    rounds: int = 0
    notes: dict = field(default_factory=dict)


def _entry_memberships(mat: PatchMatrix, J: Iterable[int]) -> bool:
    J = frozenset(J)
    return all(membership(x.body, J) for row in mat.rows for x in row)


# ---------------------------------------------------------------------------
# the Cartan step, one t-coefficient at a time
#
# The t^m coefficient of a matrix is one z-polynomial over K in integer form,
# a ``_Coef``: one denominator and, per coordinate (one over Q, re and im
# over Q(i)), a map from (row, col, slot) to a nonzero numerator, the slot
# None for f0 and (k, n) for z_k^n.  None is the zero matrix.
# ---------------------------------------------------------------------------


class _Coef:
    """The coefficient comps / den, with the caches that the kernel's
    functions of the same names fill: ``left``, its summary as a left
    factor, ``shapes``, the shape of its rows per right slot, ``packed``,
    its packed rows per slot width and stride, and ``right``, its summary
    as a right factor.  They live as long as the coefficient: one
    factorization."""

    __slots__ = ("den", "comps", "left", "shapes", "packed", "right")

    def __init__(self, den: int, comps: tuple):
        self.den, self.comps = den, comps
        self.left, self.shapes, self.packed, self.right = None, {}, {}, None


def _normal(den: int, comps) -> Optional[_Coef]:
    """The coefficient comps / den in lowest terms, without zero
    numerators; None if nothing is left."""
    comps = tuple({s: v for s, v in c.items() if v} for c in comps)
    if not any(comps):
        return None
    g = content(den, [c.values() for c in comps])
    if g > 1:
        den //= g
        comps = tuple({s: v // g for s, v in c.items()} for c in comps)
    return _Coef(den, comps)


def _coefficients(a: PatchMatrix) -> list:
    """The t^m coefficients, m below a's precision, of the matrix of a's
    bodies."""
    prec = a.precision
    series = [((r, c, slot), s) for r, row in enumerate(a.rows) for c, x in enumerate(row)
              for slot, s in ((None, x.body.f0), *x.body.zc.items())]
    den = lcm(*(s.den for _key, s in series))
    coeffs = [tuple({} for _ in range(a.cfg.field.dim)) for _ in range(prec)]
    for key, s in series:
        f = den // s.den
        for d, c in enumerate(s._c):
            for m in range(prec):
                if c[m]:
                    coeffs[m][d][key] = c[m] * f
    return [_normal(den, comps) for comps in coeffs]


def _difference(x, y):
    """x - y for coefficients."""
    if y is None:
        return x
    if x is None:
        return _Coef(y.den, tuple({s: -v for s, v in c.items()} for c in y.comps))
    den = lcm(x.den, y.den)
    fx, fy = den // x.den, den // y.den
    comps = []
    for cx, cy in zip(x.comps, y.comps):
        c = {s: v * fx for s, v in cx.items()}
        for s, v in cy.items():
            c[s] = c.get(s, 0) - v * fy
        comps.append(c)
    return _normal(den, comps)


def _valuation(s, limit: int) -> int:
    """The index of the first nonzero coefficient of s below limit, else
    limit; computes no coefficient past it."""
    for d in range(limit):
        if s[d] is not None:
            return d
    return limit


def _products(left, right, d: int) -> list:
    """The pairs (left[p], right[d - p]), both nonzero, whose sum is the t^d
    coefficient of left * right when both vanish at t^0.  The valuations
    bound p, so neither side is computed deeper than the product needs."""
    p0 = _valuation(left, d)
    if p0 >= d:
        return []
    q0 = _valuation(right, d - p0 + 1)
    out = []
    for p in range(p0, d - q0 + 1):
        x = left[p]
        if x is not None:
            y = right[d - p]
            if y is not None:
                out.append((x, y))
    return out


def _column_products(out, xs, ys, fac, scale: int) -> None:
    """out[c] += scale * fac[s2] * v * P for every numerator v of y at
    (k, c, s2), P the packed rows of x at (k, s2): one integer multiply-add
    each, a real kernel for ``intvec.apply_rule``."""
    (out,), (xs,), (ys,) = out, xs, ys
    for (k, c, s2), v in ys.items():
        packed = xs.get((k, s2))
        if packed:
            out[c] += packed * (v * scale * fac[s2])


# The kernel: sums of products of t-coefficients of n x n matrices over a
# configuration (``_combine``).  A packed column holds one integer per place
# of all rows r: row r from place r * stride on, each place w bits wide, the
# places of a row ordered f0 first, then z_k^1 for every index k, then z_k^2,
# and so on.


@_per_configuration
def _targets(cfg: Configuration, s1, s2) -> tuple:
    """z^s1 z^s2 (``Configuration.rewrite_ints``) on packed places, as
    (den, last place, largest weight numerator, ((place, nums), ...)), each
    weight nums / den."""
    den, weights = cfg.rewrite_ints(s1, s2)
    nc = len(cfg.centers)
    places = [(0 if kn is None else 1 + (kn[1] - 1) * nc + kn[0], nums) for kn, nums in weights]
    return (den, max(p for p, _nums in places),
            max(abs(v) for _p, nums in places for v in nums), places)


@_per_configuration
def _weights(cfg: Configuration, s1, s2, w: int, f: int) -> tuple:
    """The targets of z^s1 z^s2 times f, packed at width w: per coordinate
    c of a left numerator u i^c, the pairs (coordinate o of the product,
    packed weights)."""
    dim = cfg.field.dim
    _den, last, _wmax, places = _targets(cfg, s1, s2)
    out = []
    for c in range(dim):
        unit = tuple(int(o == c) for o in range(dim))
        rows = [[0] * (last + 1) for _ in range(dim)]
        for p, nums in places:
            for row, v in zip(rows, coord_mul(unit, nums)):
                row[p] = v * f
        out.append(tuple((o, pack(row, w)) for o, row in enumerate(rows) if any(row)))
    return tuple(out)


@_per_configuration
def _keys(cfg: Configuration, n: int, stride: int) -> list:
    """Per column c, the key (r, c, slot) of every place of a packed column
    of n rows at the stride."""
    nc = len(cfg.centers)
    slots = [None, *(((p - 1) % nc, (p - 1) // nc + 1) for p in range(1, stride))]
    return [[(r, c, slot) for r in range(n) for slot in slots] for c in range(n)]


def _left(x: _Coef) -> dict:
    """x's summary as a left factor, kept on x: its largest numerator per
    slot s1, over all entries and coordinates."""
    if x.left is None:
        x.left = {}
        for comp in x.comps:
            for (_r, _k, s1), u in comp.items():
                x.left[s1] = max(x.left.get(s1, 0), abs(u))
    return x.left


def _right(y: _Coef) -> tuple:
    """(slots, mag, terms) of y as a right factor, kept on y: its distinct
    slots, its largest numerator and the most numerators, over all
    coordinates, in one column."""
    if y.right is None:
        cols = Counter(c for comp in y.comps for _k, c, _s in comp)
        y.right = (tuple(dict.fromkeys(s for comp in y.comps for _k, _c, s in comp)),
                   mag([c.values() for c in y.comps if c]), max(cols.values()))
    return y.right


def _shape(cfg: Configuration, x: _Coef, s2) -> tuple:
    """(wden, length, mag) of x's rows against the right slot s2, kept on x:
    the rows sum_s1 x[r, k, s1] z^s1 z^s2 have numerators over x.den * wden,
    ``length`` places and no numerator above mag, a sum over s1 of x's
    largest numerator there times the largest weight (twice that over Q(i),
    where a coordinate of a product is a sum of two)."""
    hit = x.shapes.get(s2)
    if hit is None:
        targets = [(_targets(cfg, s1, s2), xmag) for s1, xmag in _left(x).items()]
        wden = lcm(*(t[0] for t, _xmag in targets))
        hit = x.shapes[s2] = (
            wden, 1 + max(t[1] for t, _xmag in targets),
            len(x.comps) * sum(xmag * t[2] * (wden // t[0]) for t, xmag in targets))
    return hit


def _packed(cfg: Configuration, x: _Coef, slots, w: int, stride: int) -> tuple:
    """x's rows against the right slots in packed columns, kept on x: per
    coordinate, a map from (k, s2) to the rows of every r.  Each is a sum
    over s1 of one product: the column of x[r, k, s1] over r, packed at the
    stride, times the packed weights of z^s1 z^s2 (``_weights``)."""
    hit = x.packed.get((w, stride))
    if hit is None:
        cols = tuple({} for _ in x.comps)
        shift = w * stride
        for col, comp in zip(cols, x.comps):
            for (r, k, s1), u in comp.items():
                col[k, s1] = col.get((k, s1), 0) + (u << shift * r)
        hit = x.packed[w, stride] = (cols, tuple({} for _ in x.comps), set())
    cols, comps, done = hit
    for s2 in slots:
        if s2 in done:
            continue
        done.add(s2)
        wden = _shape(cfg, x, s2)[0]
        weights = {s1: _weights(cfg, s1, s2, w, wden // _targets(cfg, s1, s2)[0])
                   for s1 in _left(x)}
        rows = [{} for _ in comps]
        for c, col in enumerate(cols):
            for (k, s1), column in col.items():
                for o, packed in weights[s1][c]:
                    rows[o][k] = rows[o].get(k, 0) + column * packed
        for comp, row in zip(comps, rows):
            for k, packed in row.items():
                comp[k, s2] = packed
    return comps


def _combine(cfg: Configuration, n: int, base, products: list):
    """base - sum of L * R over the coefficients (L, R) in products, n x n
    matrices over cfg; base may be None (zero), the factors may not.

    Each left factor L is held, per right slot s2, as its rows already
    reduced to canonical slots and packed, all rows of one k in one integer
    (``_packed``), so no cross cell is ever formed.  All products are summed
    over one common denominator into one packed integer per output column c
    and coordinate, one integer multiply-add per numerator of R
    (``_column_products``), and each column is unpacked once.  The slot
    width comes from a bound on every output slot: per product, the largest
    scaled row numerator of L (``_shape``) times the largest numerator of R
    times the most terms of one sum over k and s2 (``_right``), summed over
    the products.
    """
    if not products:
        return base
    den = 1 if base is None else base.den
    plan = []
    for x, y in products:
        slots, ymag, terms = _right(y)
        shapes = [_shape(cfg, x, s2) for s2 in slots]
        dens = [x.den * y.den * wden for wden, _length, _mag in shapes]
        den = lcm(den, *dens)
        plan.append((x, y, slots, shapes, dens, ymag * terms))
    bound = stride = 0
    for p, (x, y, slots, shapes, dens, ybound) in enumerate(plan):
        fac, top = {}, 0
        for s2, (_wden, length, xmag), d in zip(slots, shapes, dens):
            f = fac[s2] = den // d
            top = max(top, f * xmag)
            stride = max(stride, length)
        bound += top * ybound
        plan[p] = x, y, slots, fac
    w = width(bound)
    accs = tuple([0] * n for _ in products[0][0].comps)
    for x, y, slots, fac in plan:
        apply_rule(_column_products, accs, _packed(cfg, x, slots, w, stride), y.comps, fac, -1)
    keys, out = _keys(cfg, n, stride), []
    for acc in accs:
        comp = {}
        for c, v in enumerate(acc):
            if v:
                comp.update((key, u) for key, u in zip(keys[c], unpack(v, w, n * stride)) if u)
        out.append(comp)
    if base is not None:
        f = den // base.den
        for comp, b in zip(out, base.comps):
            get = comp.get
            for key, v in b.items():
                comp[key] = get(key, 0) + v * f
    return _normal(den, out)


def _split(x, i: int) -> tuple:
    """(the part on f0 and z_k, k != i; the part on z_i) of a coefficient.
    In the working chart this slot partition puts each part in its side's
    subring: rebasing into a side's chart only ever adds that side's own
    generator."""
    if x is None:
        return None, None

    def part(on: bool):
        comps = tuple({key: v for key, v in c.items()
                       if (key[2] is not None and key[2][0] == i) == on} for c in x.comps)
        return _Coef(x.den, comps) if any(comps) else None

    return part(False), part(True)


def _lift(a: PatchMatrix, i: int, combine) -> tuple:
    """The t-coefficients X_m, Y_m (m < N, X_0 = Y_0 = None) of b1 - 1 and
    b2 - 1 for a = b1 * b2, as integer z-polynomials.

    The t^m coefficient of that equation reads
    X_m + Y_m = A_m - sum_{0<p<m} X_p Y_{m-p}, with A_m that of a - 1, and
    the support split of the right side gives X_m and Y_m.  Each X_p Y_q
    multiplies z_k (k != i) or 1 by z_i, so the z-degree never grows.
    """
    A, X, Y = _coefficients(a), [None], [None]
    for m in range(1, a.precision):
        x, y = _split(combine(A[m], _products(X, Y, m)), i)
        X.append(x)
        Y.append(y)
    return X, Y


def _next_errors(e1: _Stream, e2: _Stream, combine, i: int) -> tuple:
    """One round of the contraction, on its errors against the lifted
    factors.

    After r rounds the contraction holds a1, a2 with a = a1 (1 + e1)(1 + e2) a2,
    where 1 + e1 = a1^{-1} b1 and 1 + e2 = b2 a2^{-1}.  The round splits the
    deviation e1 + e2 - Q, Q = -e1 e2, into m1 = e1 - [Q]_J and
    m2 = e2 - [Q]_i and peels 1 + m1 and 1 + m2, which leaves
    e1' = (1 + m1)^{-1} [Q]_J and e2' = [Q]_i (1 + m2)^{-1}.  Each is solved
    one coefficient at a time from (1 + m1) e1' = [Q]_J and
    e2' (1 + m2) = [Q]_i.
    """
    Q = _Stream(lambda d: _split(combine(None, _products(e1, e2, d)), i))
    m1 = _Stream(lambda d: _difference(e1[d], Q[d][0]))
    m2 = _Stream(lambda d: _difference(e2[d], Q[d][1]))
    f1 = _Stream(lambda d: combine(Q[d][0], _products(m1, f1, d)))
    f2 = _Stream(lambda d: combine(Q[d][1], _products(f2, m2, d)))
    return f1, f2


def _contraction_rounds(X: list, Y: list, combine, i: int, prec: int, cap: int) -> int:
    """The number of rounds the classical contraction takes to reach the
    lifted factors 1 + X, 1 + Y mod t^prec; more than cap raises.

    The contraction splits the deviation additively, peels unit factors on
    both sides and repeats.  Its deviation after r rounds has the order
    min(v(e1), v(e2)) (see ``_next_errors``), because e1 and e2 lie on
    complementary supports and e1 e2 has the higher order.  So the count
    is the first r at which both errors vanish.  The errors are computed
    lazily, each coefficient once and only as deep as a valuation asks.
    """
    e1, e2 = _Stream(X.__getitem__), _Stream(Y.__getitem__)
    rounds = 0
    while _valuation(e1, prec) < prec or _valuation(e2, prec) < prec:
        rounds += 1
        if rounds > cap:
            raise ArithmeticError(f"Cartan iteration failed to contract in {cap} rounds")
        e1, e2 = _next_errors(e1, e2, combine, i)
    return rounds


def _assemble(a: PatchMatrix, coeffs: list) -> PatchMatrix:
    """1 + sum_m t^m coeffs[m] in a's chart and at a's precision: each
    entry's series are built once, over the lcm of the coefficients'
    denominators."""
    cfg, prec = a.cfg, a.precision
    dim = cfg.field.dim
    den = lcm(1, *(x.den for x in coeffs if x is not None))
    cells = [[{None: [[0] * prec for _ in range(dim)]} for _c in a.rows] for _r in a.rows]
    for r, row in enumerate(cells):
        row[r][None][0][0] = den
    for m, x in enumerate(coeffs):
        if x is None:
            continue
        f = den // x.den
        for d, comp in enumerate(x.comps):
            for (r, c, slot), v in comp.items():
                s = cells[r][c].get(slot)
                if s is None:
                    s = cells[r][c][slot] = [[0] * prec for _ in range(dim)]
                s[d][m] = v * f

    def entry(slots: dict) -> AnalyticElement:
        f0 = TruncSeries(cfg.field, prec, den, slots.pop(None))
        zc = {kn: TruncSeries(cfg.field, prec, den, s) for kn, s in slots.items()}
        return AnalyticElement(cfg, a.chart, f0, zc)

    return PatchMatrix([[entry(slots) for slots in row] for row in cells], a.chart)


def cartan_factor(a: PatchMatrix, i: int, max_rounds: Optional[int] = None) -> FactorizationResult:
    """Split a = b1 * b2 with b1 supported away from index i and b2 on it.

    Requires entries in the unlocalized ring (no t-shifts) and
    v(a - 1) >= 1.  The factors come from the t-adic lift (``_lift``); the
    round count is that of the classical contraction, read off its error
    recursion (``_contraction_rounds``).  The count is bounded by the
    precision, the default cap being the precision plus two; a count over
    the cap raises rather than returning unfinished factors, and a negative
    cap is refused.
    """
    cfg = a.cfg
    if max_rounds is None:
        cap = a.precision + 2
    elif max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")
    else:
        cap = max_rounds
    if i not in cfg.indices:
        raise ValueError(f"no center with index {i}")
    if any(x.tshift != 0 for row in a.rows for x in row):
        raise FactorizationError("cartan_factor wants unlocalized entries (tshift 0)")
    J = frozenset(cfg.indices) - {i}
    if not J:
        raise FactorizationError("need at least two centers to patch")
    prec = a.precision
    if a.deviation().min_valuation() < 1:
        raise FactorizationError("v(a - 1) >= 1 required")

    combine = partial(_combine, cfg, a.n)
    X, Y = _lift(a, i, combine)
    rounds = _contraction_rounds(X, Y, combine, i, prec, cap)
    b1, b2 = _assemble(a, X), _assemble(a, Y)
    mem = (_entry_memberships(b1, J), _entry_memberships(b2, {i}))
    return FactorizationResult(b1, b2, prec, mem, rounds)


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


def _density_step(adj: PatchMatrix, u_body: AnalyticElement, e: int) -> PatchMatrix:
    """The cut a0 of u^-1 adj at t-degree e, for the unit part u of det.

    Only t-degrees <= e survive the cut, and a t-adic inverse or product
    mod t^(e+1) reads its inputs only mod t^(e+1), so u is inverted and
    each entry multiplied at precision e + 1.  The exact result is
    zero-extended to the window the full product would have,
    min(u, entry precision).  Raises UnitNotRecognized as ``unit_invert``
    does; its recognizer reads only the t^0 layer.
    """
    q = e + 1
    u_inv = unit_invert(u_body.truncate(q))

    def entry(x: LocalizedElement) -> LocalizedElement:
        f = u_inv * x.body.truncate(q)
        return LocalizedElement(f.widen(min(u_body.precision, x.body.precision)), 0)

    return adj._map(entry)


def gl_factor(b: PatchMatrix, i: int) -> FactorizationResult:
    """Factor an invertible localized matrix through the Cartan step.

    The determinant must come out as t^e * (recognized unit); otherwise the
    restricted pipeline refuses (multi-chart Weierstrass clearing beyond the
    recognized unit classes is not implemented).  The density step, the cut
    a0 of u^-1 adj at t-degree e, runs mod t^(e+1) and is zero-extended to
    each entry's window (``_density_step``); the determinant, the adjugate
    and the inverse of a0's determinant unit, which fix e, those windows
    and W, stay at full precision.  Each determinant, of b and of a0, is
    read off the adjugate that the step builds anyway (``det_by``).
    """
    cfg = b.cfg
    J = frozenset(cfg.indices) - {i}
    if not J:
        raise FactorizationError("need at least two centers to patch")

    # clear t-denominators: b_hat = t^{e0} b has plain ring entries
    e0 = max(0, -min(x.tshift for row in b.rows for x in row))
    b_hat = b._map(lambda x: LocalizedElement(x.body.shift_t(x.tshift + e0), 0))

    adj = b_hat.adjugate()
    d = b_hat.det_by(adj)
    dv = d.valuation()
    if dv == INF:
        raise FactorizationError("determinant vanishes at this precision")
    e = dv - d.tshift
    u_body = d.body.shift_t(-e)
    try:
        a0 = _density_step(adj, u_body, e)
    except UnitNotRecognized as exc:
        raise FactorizationError(
            "restricted pipeline: the unit part of det(b) is outside the recognized "
            f"classes ({exc}); the general clearing step is not implemented"
        ) from exc
    prod = b_hat * a0
    try:
        ba = prod._map(lambda x: LocalizedElement(x.body.shift_t(x.tshift - e), 0))
    except NonUnitError as exc:
        raise FactorizationError(f"normalized product not divisible by t^{e}: {exc}") from exc
    if ba.deviation().min_valuation() < 1:
        raise FactorizationError("pipeline produced a residual too far from the identity")

    cart = cartan_factor(ba, i)

    # a^{-1} = t^{e - e'} * W with W = u0^{-1} adj(a0)
    adj0 = a0.adjugate()
    d0 = a0.det_by(adj0)
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
    W = adj0._map(lambda x: LocalizedElement(u0_inv * x.body, x.tshift))

    central = -e0 + e - e_p
    sm = _scalar_monomial(W)
    if sm is not None:
        # W is a central t-monomial times a unit: the monomial goes left
        w_shift, w_unit = sm
        central += w_shift
        b2 = cart.b2._map(lambda x: x * LocalizedElement(w_unit, 0))
    else:
        b2 = cart.b2 * W
    b1 = cart.b1.shift_t(central)

    mem = (_entry_memberships(b1, J), _entry_memberships(b2, {i}))
    res_prec = min(b1.precision, b2.precision)
    notes = {"cleared_shift": e0, "det_order": e, "cut_det_order": e_p, "rounds": cart.rounds}
    return FactorizationResult(b1, b2, res_prec, mem, cart.rounds, notes)
