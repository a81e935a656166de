"""Independent expansion oracle.

Everything in `analytic` reduces products through the partial-fraction
rewrite rule.  This module checks those results by a completely different
route: expand symbolic expressions in X, Y and the generators z_k as
honest bivariate series in (z_j, t) for a chosen chart j, using nothing but
geometric series.  The two paths share only the exact-rational plumbing, so
agreement is meaningful evidence.

Expressions are tiny ASTs built with operator syntax:

    src = (const(1) + zvar(2)) * (const(1) - zvar(1))
    oracle_expand(src, cfg, chart=0, zdepth=8)

Division is supported only when the denominator, after peeling its t-power,
has an invertible constant term; that covers products of chart uniformizers
and chart-ratio units, which is all the constructions here ever divide by.

Canonical forms expand through ``oracle_of_element`` without an expression
tree.  In chart j, t_src = (1 + gamma z) t with gamma = c_j - c_src, and z_k
is the geometric series Z_k = z/(1 + (c_j - c_k) z), so

    f = sum_m t^m (1 + gamma z)^m [a_{0,m} + sum_{k,n} a_{k,n,m} Z_k^n]

and each t-degree m is one z-row: a combination of the rows Z_k^n times the
row (1 + gamma z)^m, both written down in closed form and kept in an
``OracleCache``.

Rows are integer lists over one denominator, and products of rows are
Kronecker substitutions (``intvec.pack``): a row packs into the single
integer sum c_i 2^(w i), so one integer product multiplies two rows, and
the product's slots are read back as signed w-bit digits.  The width w
holds a bound on every slot: the number of products summed into one slot
times the operands' largest magnitudes (``intvec.width``).  So no slot can
overflow, and every result is exact.  ``OracleSeries`` products pack each
z-row in t; expansions pack each t-degree's z-row and stack the t-degrees
in one integer per slot series.  Over Q(i) the real and imaginary parts
pack separately and multiply as four integer products, on the same code
path.

Independence: the oracle reads only the stored integer data of an element
(its series' numerators and denominators, its chart and the centers), and
shares with ``analytic`` only the integer plumbing of ``intvec``.  It
never calls the rewrite rule, the chart-change transfer tables, ``ae_dot``
or the series accumulators of ``analytic``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from math import comb, gcd
from typing import Optional

from .intvec import content, coord_mul, mag, pack, scalar_ints, to_ints, unpack, width
from .scalars import FieldDescriptor, Scalar
from .series import TruncSeries

__all__ = [
    "OracleError",
    "Expr",
    "const",
    "xvar",
    "yvar",
    "zvar",
    "OracleSeries",
    "OracleCache",
    "oracle_expand",
    "oracle_of_element",
    "source_of",
    "lin_indep_check",
]


class OracleError(ArithmeticError):
    """Expression not expandable (non-unit denominator or bad shape)."""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    def __add__(self, other):
        return _Add(self, _wrap(other))

    def __radd__(self, other):
        return _Add(_wrap(other), self)

    def __sub__(self, other):
        return _Add(self, _Neg(_wrap(other)))

    def __rsub__(self, other):
        return _Add(_wrap(other), _Neg(self))

    def __mul__(self, other):
        return _Mul(self, _wrap(other))

    def __rmul__(self, other):
        return _Mul(_wrap(other), self)

    def __neg__(self):
        return _Neg(self)

    def __pow__(self, e: int):
        return _Pow(self, e)

    def __truediv__(self, other):
        return _Div(self, _wrap(other))


class _Const(Expr):
    def __init__(self, value):
        self.value = value


class _Var(Expr):
    def __init__(self, name: str):
        self.name = name


class _ZVar(Expr):
    def __init__(self, k: int):
        self.k = k


class _Add(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b


class _Mul(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b


class _Neg(Expr):
    def __init__(self, a):
        self.a = a


class _Pow(Expr):
    def __init__(self, a, e: int):
        if e < 0:
            raise ValueError("negative powers: spell them as divisions")
        self.a, self.e = a, e


class _Div(Expr):
    def __init__(self, a, b):
        self.a, self.b = a, b


def _wrap(v) -> Expr:
    return v if isinstance(v, Expr) else _Const(v)


def const(v) -> Expr:
    return _Const(v)


def xvar() -> Expr:
    return _Var("X")


def yvar() -> Expr:
    return _Var("Y")


def zvar(k: int) -> Expr:
    return _ZVar(k)


# ---------------------------------------------------------------------------
# windowed bivariate series in (z_j, t)
# ---------------------------------------------------------------------------


class OracleSeries:
    """Exact expansion window: z-exponent < zdepth, t-exponent < tprec.

    t-exponents may be negative (the uniformizers get inverted); the window
    only cuts above.  Entries carry one common denominator.
    """

    __slots__ = ("field", "zdepth", "tprec", "den", "data")

    def __init__(self, field: FieldDescriptor, zdepth: int, tprec: int, den: int, data: dict):
        self.field = field
        self.zdepth = zdepth
        self.tprec = tprec
        g = content(den, data.values())
        if g > 1:
            data = {k: tuple(x // g for x in v) for k, v in data.items()}
            den //= g
        self.den = den
        self.data = {k: v for k, v in data.items() if any(v)}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(field, zdepth, tprec) -> "OracleSeries":
        return OracleSeries(field, zdepth, tprec, 1, {})

    @staticmethod
    def from_scalar_terms(field, zdepth, tprec, terms: dict) -> "OracleSeries":
        scal = [v if isinstance(v, Scalar) else Scalar.of(field, v) for v in terms.values()]
        nums, den = to_ints(s.coords for s in scal)
        data = {}
        for (m, n), v in zip(terms, nums):
            if m < 0:
                raise ValueError("negative z-exponents cannot appear")
            if m < zdepth and n < tprec:
                data[(m, n)] = v
        return OracleSeries(field, zdepth, tprec, den, data)

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.data

    def coeff(self, m: int, n: int) -> Scalar:
        v = self.data.get((m, n))
        if v is None:
            return Scalar.zero(self.field)
        return Scalar(self.field, tuple(Fraction(x, self.den) for x in v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OracleSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.zdepth == other.zdepth
            and self.tprec == other.tprec
            and self.den == other.den
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.zdepth, self.tprec, self.den, tuple(sorted(self.data.items()))))

    def __repr__(self):
        parts = [f"({self.coeff(m, n)})*z^{m}*t^{n}" for (m, n) in sorted(self.data)]
        if len(parts) > 8:
            parts = parts[:8] + ["..."]
        return f"O<{' + '.join(parts) if parts else '0'}>"

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "OracleSeries"):
        if (self.field, self.zdepth, self.tprec) != (other.field, other.zdepth, other.tprec):
            raise ValueError("oracle series with different windows")

    def __add__(self, other: "OracleSeries") -> "OracleSeries":
        self._check(other)
        g = gcd(self.den, other.den)
        den = self.den // g * other.den
        f1, f2 = other.den // g, self.den // g
        dim = self.field.dim
        data = {}
        for k in self.data.keys() | other.data.keys():
            a = self.data.get(k, (0,) * dim)
            b = other.data.get(k, (0,) * dim)
            data[k] = tuple(f1 * x + f2 * y for x, y in zip(a, b))
        return OracleSeries(self.field, self.zdepth, self.tprec, den, data)

    def __neg__(self) -> "OracleSeries":
        return OracleSeries(
            self.field, self.zdepth, self.tprec, self.den,
            {k: tuple(-x for x in v) for k, v in self.data.items()},
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "OracleSeries") -> "OracleSeries":
        self._check(other)
        M, N = self.zdepth, self.tprec
        if self.is_zero() or other.is_zero():
            return OracleSeries.zero(self.field, M, N)
        # an output slot sums, for each term of one operand, at most one
        # term product of the other, dim coordinate products each
        count = self.field.dim * min(len(self.data), len(other.data))
        w = width(count * mag(zip(*self.data.values())) * mag(zip(*other.data.values())))
        lo_a, rows_a = self._t_rows(w)
        lo_b, rows_b = other._t_rows(w)
        acc: dict = {}
        for m1, a in rows_a.items():
            for m2, b in rows_b.items():
                m = m1 + m2
                if m < M:
                    p = coord_mul(a, b)
                    cur = acc.get(m)
                    acc[m] = p if cur is None else tuple(map(operator.add, cur, p))
        lo = lo_a + lo_b
        out = {}
        for m, row in acc.items():
            for i, v in enumerate(zip(*(unpack(x, w, N - lo) for x in row))):
                out[(m, lo + i)] = v
        return OracleSeries(self.field, M, N, self.den * other.den, out)

    def _t_rows(self, w: int) -> tuple:
        """(lowest t-exponent lo, {z-exponent: packed row per coordinate}):
        row m holds the t^n coefficient in slot n - lo."""
        lo = min(n for (_m, n) in self.data)
        rows: dict = {}
        for (m, n), v in self.data.items():
            row = rows.get(m)
            if row is None:
                row = rows[m] = [[0] * (self.tprec - lo) for _ in v]
            for c, x in zip(row, v):
                c[n - lo] = x
        return lo, {m: tuple(pack(c, w) for c in row) for m, row in rows.items()}

    def scale(self, s: Scalar) -> "OracleSeries":
        unit = OracleSeries.from_scalar_terms(self.field, self.zdepth, self.tprec, {(0, 0): s})
        return self * unit

    def shift_t(self, e: int) -> "OracleSeries":
        data = {(m, n + e): v for (m, n), v in self.data.items() if n + e < self.tprec}
        return OracleSeries(self.field, self.zdepth, self.tprec, self.den, data)

    def pow(self, e: int) -> "OracleSeries":
        out = OracleSeries.from_scalar_terms(self.field, self.zdepth, self.tprec, {(0, 0): 1})
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def invert(self) -> "OracleSeries":
        """Inverse of t^v * (unit of K[z][[z, t]]); error otherwise."""
        if self.is_zero():
            raise OracleError("cannot invert 0 (to the window)")
        v = min(n for (_m, n) in self.data)
        u = self.shift_t(-v) if v else self
        c0 = u.coeff(0, 0)
        if c0.is_zero():
            raise OracleError(
                "denominator not expandable: constant term is not a unit after peeling t"
            )
        x = OracleSeries.from_scalar_terms(self.field, self.zdepth, self.tprec, {(0, 0): c0.inverse()})
        two = OracleSeries.from_scalar_terms(self.field, self.zdepth, self.tprec, {(0, 0): 2})
        steps = max(1, math.ceil(math.log2(self.zdepth + self.tprec)))
        for _ in range(steps):
            x = x * (two - u * x)
        return x.shift_t(-v)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def oracle_expand(expr: Expr, cfg, chart: int, zdepth: int,
                  tprec: Optional[int] = None) -> OracleSeries:
    """Expand expr in (z_chart, t_chart) inside the window (zdepth, tprec).

    X maps to (1 + c_j z) t, Y to z t, and foreign generators z_k expand by
    the geometric series z/(1 + (c_j - c_k) z).  The computation never goes
    through canonical-form arithmetic.
    """
    field = cfg.field
    N = tprec or cfg.precision
    M = zdepth

    def leaf_z(k: int) -> OracleSeries:
        if k == chart:
            return OracleSeries.from_scalar_terms(field, M, N, {(1, 0): 1})
        delta = cfg.centers[chart] - cfg.centers[k]
        terms = {}
        c = Scalar.one(field)
        for l in range(1, M):
            terms[(l, 0)] = c
            c = c * (-delta)
        return OracleSeries.from_scalar_terms(field, M, N, terms)

    def walk(e: Expr) -> OracleSeries:
        if isinstance(e, _Const):
            return OracleSeries.from_scalar_terms(field, M, N, {(0, 0): cfg.scalar(e.value)})
        if isinstance(e, _Var):
            if e.name == "X":
                return OracleSeries.from_scalar_terms(
                    field, M, N, {(0, 1): 1, (1, 1): cfg.centers[chart]}
                )
            if e.name == "Y":
                return OracleSeries.from_scalar_terms(field, M, N, {(1, 1): 1})
            raise ValueError(f"unknown variable {e.name}")
        if isinstance(e, _ZVar):
            if e.k not in cfg.indices:
                raise ValueError(f"no center with index {e.k}")
            return leaf_z(e.k)
        if isinstance(e, _Add):
            return walk(e.a) + walk(e.b)
        if isinstance(e, _Mul):
            return walk(e.a) * walk(e.b)
        if isinstance(e, _Neg):
            return -walk(e.a)
        if isinstance(e, _Pow):
            return walk(e.a).pow(e.e)
        if isinstance(e, _Div):
            return walk(e.a) * walk(e.b).invert()
        raise TypeError(f"not an expression: {e!r}")

    return walk(expr)


def _int_powers(delta: Scalar, count: int) -> tuple:
    """(q, [x^0, ..., x^(count-1)]) for delta = x/q, x integer coordinates."""
    x, q = scalar_ints(delta.coords)
    pw = [(1,) + (0,) * (len(x) - 1)]
    for _ in range(count - 1):
        pw.append(coord_mul(pw[-1], x))
    return q, pw


def _row(den: int, coeffs: list) -> tuple:
    """(den, mag, coordinates) of the z-row whose z^l numerators are
    coeffs[l], mag the largest magnitude among them."""
    comps = tuple(map(list, zip(*coeffs)))
    return den, mag(comps), comps


class OracleCache:
    """Integer z-rows shared by many expansions in one window.

    For chart j it holds, below z^zdepth, the rows Z_k^n with Z_k = z/(1 +
    (c_j - c_k) z), the expansion of z_k^n, and the rows (1 + gamma z)^m
    with gamma = c_j - c_src for m < tprec, the expansion of (t_src/t)^m.
    A row is (den, mag, coordinates): one integer list per coordinate over
    the denominator den, and the largest magnitude among them.
    """

    def __init__(self, cfg, zdepth: int, tprec: Optional[int] = None):
        self.cfg = cfg
        self.zdepth = zdepth
        self.tprec = tprec or cfg.precision
        self._rows: dict = {}

    def z_row(self, chart: int, k: int, n: int) -> tuple:
        """Z_k^n in chart ``chart``; n = 0 gives the row 1."""
        key = ("z", chart, k, n)
        hit = self._rows.get(key)
        if hit is None:
            M, dim = self.zdepth, self.cfg.field.dim
            zero = (0,) * dim
            if n == 0:
                hit = _row(1, [(1,) + zero[1:]] + [zero] * (M - 1))
            else:
                # z^(n+i) coefficient C(n+i-1, i) (-delta)^i, over q^(M-1)
                cfg = self.cfg
                q, pw = _int_powers(cfg.centers[k] - cfg.centers[chart], M)
                top = M - 1
                coeffs = [zero] * min(n, M)
                coeffs += [tuple(comb(n + i - 1, i) * q ** (top - i) * x for x in pw[i])
                           for i in range(M - n)]
                hit = _row(q ** top, coeffs)
            self._rows[key] = hit
        return hit

    def stretch_rows(self, chart: int, src: int) -> tuple:
        """(den, mag, terms, [coordinates of (1 + gamma z)^m for m < tprec])
        over one denominator, gamma = c_chart - c_src; mag is the largest
        magnitude and terms the most nonzero coefficients in one row."""
        key = ("t", chart, src)
        hit = self._rows.get(key)
        if hit is None:
            M, cfg = self.zdepth, self.cfg
            q, pw = _int_powers(cfg.centers[chart] - cfg.centers[src], M)
            top = M - 1
            rows, terms = [], 0
            for m in range(self.tprec):
                # z^i coefficient C(m, i) gamma^i, over q^(M-1)
                coeffs = [tuple(comb(m, i) * q ** (top - i) * x for x in pw[i])
                          for i in range(M)]
                rows.append(_row(q ** top, coeffs))
                terms = max(terms, sum(1 for c in coeffs if any(c)))
            hit = (q ** top, max(r[1] for r in rows), terms, [r[2] for r in rows])
            self._rows[key] = hit
        return hit


def oracle_of_element(f, chart: int, cache: OracleCache) -> OracleSeries:
    """Expansion of a canonical form's defining expression in chart ``chart``.

    Reads only the stored integer data of f.  In the chart, t_src = (1 +
    gamma z) t and z_k = Z_k(z), so

        f = sum_m t^m (1 + gamma z)^m [a_{0,m} + sum_{k,n} a_{k,n,m} Z_k^n]

    and each t-degree m is one z-row: the bracket, a combination of the
    cached rows Z_k^n, times the cached row (1 + gamma z)^m.  Each slot's
    t-series packs with stride w * zdepth and its row with stride w, so one
    integer product per slot adds that slot to every t-degree's packed
    z-row at once; the stretch is then one integer product per t-degree.
    """
    M, N = cache.zdepth, cache.tprec
    dim = f.cfg.field.dim
    gden, gmag, gterms, stretch = cache.stretch_rows(chart, f.chart)
    slots = [(f.f0, cache.z_row(chart, None, 0))]
    slots += [(s, cache.z_row(chart, k, n)) for k, n, s in f.terms()]
    slots = [(s, row) for s, row in slots if row[1] and not s.is_zero()]
    if not slots:
        return OracleSeries.zero(f.cfg.field, M, N)
    den = math.lcm(*(s.den * rden for s, (rden, _m, _r) in slots))
    slots = [(s, den // (s.den * rden), rmag, row) for s, (rden, rmag, row) in slots]
    # a coordinate of a t-degree's z-row sums dim products per slot, and
    # one of its stretch sums dim products per stretch term
    rowmag = dim * sum(mag(s._c) * mult * rmag for s, mult, rmag, _r in slots)
    w = width(dim * gterms * gmag * rowmag)
    # t-stride: a t-degree's z-row has zdepth slots below 2^(w-1), so the
    # packed row lies below 2^(W-1) and unpacks as one signed W-bit slot
    W = w * M
    acc = (0,) * dim
    for s, mult, _m, row in slots:
        series = tuple(pack(c[:N], W) for c in s._c)
        zrow = tuple(mult * pack(r, w) for r in row)
        acc = tuple(map(operator.add, acc, coord_mul(series, zrow)))
    out = {}
    for m, row in enumerate(zip(*(unpack(x, W, N) for x in acc))):
        if any(row):
            g = tuple(pack(r, w) for r in stretch[m])
            for i, v in enumerate(zip(*(unpack(x, w, M) for x in coord_mul(row, g)))):
                out[(i, m)] = v
    return OracleSeries(f.cfg.field, M, N, den * gden, out)


def source_of(f) -> Expr:
    """The defining expression of a canonical form, spelled in X, Y, z_k.

    The chart uniformizer is written out as X - c_j Y, so the result is a
    chart-free symbolic object and can be expanded in any chart.
    """
    cfg = f.cfg
    cj = cfg.centers[f.chart]
    tex = xvar() - const(cj) * yvar()

    def series_expr(s: TruncSeries) -> Expr:
        out: Expr = const(0)
        for m in range(s.prec):
            c = s.coeff(m)
            if not c.is_zero():
                out = out + const(c) * tex ** m
        return out

    total = series_expr(f.f0)
    for k, n, s in f.terms():
        total = total + series_expr(s) * zvar(k) ** n
    return total


def lin_indep_check(cfg, coeffs: dict, chart: int = 0, zdepth: Optional[int] = None) -> bool:
    """Is the combination a_0 + sum a_{i,n} z_i^n zero exactly when all
    coefficients are zero?

    coeffs maps None (the constant slot) or (i, n) to scalars.  The verdict
    is computed both on the canonical form and through the oracle; they must
    agree, and the returned value is "combination == 0".
    """
    from .analytic import AnalyticElement

    a0 = cfg.scalar(coeffs.get(None, 0))
    zc = {}
    expr: Expr = const(a0)
    maxdeg = 1
    for key, v in coeffs.items():
        if key is None:
            continue
        i, n = key
        s = cfg.scalar(v)
        maxdeg = max(maxdeg, n)
        if not s.is_zero():
            zc[(i, n)] = TruncSeries.constant(cfg.field, s, cfg.precision)
            expr = expr + const(s) * zvar(i) ** n
    elem = AnalyticElement(
        cfg, chart, TruncSeries.constant(cfg.field, a0, cfg.precision), zc
    )
    canonical_zero = elem.is_zero()
    M = zdepth or (maxdeg + 2)
    oracle_zero = oracle_expand(expr, cfg, chart, M).is_zero()
    if canonical_zero != oracle_zero:
        raise OracleError("canonical form and oracle disagree on vanishing (internal bug)")
    return canonical_zero
