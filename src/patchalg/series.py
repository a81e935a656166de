"""Truncated power series with exact coefficients.

Two containers live here:

* ``TruncSeries``: an element of K[[t]] mod t^N.  The precision N travels
  with the value: an all-zero series of precision N means "zero mod t^N",
  never "exactly zero".
* ``BivarSeries``: an element of K[[t, Y]] truncated at total degree N,
  together with Weierstrass division by elements that are t-regular of
  degree 1, and the induced prime-power order function.

Internally a series keeps one common integer denominator and integer
coefficient vectors in the component layout of ``intvec`` (one vector over
Q, re and im over Q(i)), whose kernels do all the integer arithmetic: the
lcm and gcd passes, sums, scaling and products.  The ``Scalar`` view is
materialized on demand and is exact either way.

A ``TruncSeries`` holds one vector per component.  Every product goes
through one kernel, ``intvec.mul_into``: ``TruncSeries.__mul__`` runs it on
fresh zero lists, and the accumulators of ``analytic`` run it straight into
their own lists, so a sum of products builds no intermediate series.  A
``BivarSeries`` holds one row per t-degree it, the Y-coefficients below the
cut, and multiplies by the same kernel, one call per pair of nonempty rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .intvec import combine, mul_into, normalize, scalar_ints, scaled, terms, to_ints
from .scalars import FieldDescriptor, FieldError, Scalar

__all__ = [
    "NonUnitError",
    "RegularityError",
    "TruncSeries",
    "BivarSeries",
    "newton_inverse",
    "poly_simple_root",
    "weierstrass_div",
    "prime_valuation",
]

INF = math.inf


class NonUnitError(ArithmeticError):
    """Attempt to invert something without an invertible constant term."""


class RegularityError(ArithmeticError):
    """Divisor violates the required regularity shape."""


class TruncSeries:
    """K[[t]] mod t^prec with exact coefficients.

    >>> from patchalg.scalars import QQ
    >>> s = TruncSeries.from_scalars(QQ, [1, -1], 4)   # 1 - t
    >>> s.invert_unit().coeffs   # 1 + t + t^2 + t^3
    (1, 1, 1, 1)
    """

    __slots__ = ("field", "prec", "den", "_c", "_z", "_vt")

    def __init__(self, field: FieldDescriptor, prec: int, den: int, comps):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.den, self._c = normalize(den, comps)
        self._z = None
        self._vt = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: FieldDescriptor, prec: int) -> "TruncSeries":
        return TruncSeries(field, prec, 1, [[0] * prec for _ in range(field.dim)])

    @staticmethod
    def from_scalars(field: FieldDescriptor, values: Iterable, prec: int) -> "TruncSeries":
        scalars = [_as_scalar(field, v) for v in values]
        if len(scalars) > prec:
            raise ValueError("more coefficients than precision allows")
        nums, den = to_ints(s.coords for s in scalars)
        nums += [(0,) * field.dim] * (prec - len(nums))
        return TruncSeries(field, prec, den, list(zip(*nums)))

    @staticmethod
    def constant(field: FieldDescriptor, value, prec: int) -> "TruncSeries":
        return TruncSeries.from_scalars(field, [value], prec)

    @staticmethod
    def one(field: FieldDescriptor, prec: int) -> "TruncSeries":
        return TruncSeries.constant(field, 1, prec)

    @staticmethod
    def t_power(field: FieldDescriptor, e: int, prec: int, coeff=1) -> "TruncSeries":
        if e < 0:
            raise ValueError("t_power wants a non-negative exponent")
        vals = [0] * min(e, prec) + ([coeff] if e < prec else [])
        return TruncSeries.from_scalars(field, vals, prec)

    # -- views -------------------------------------------------------------

    @property
    def precision(self) -> int:
        return self.prec

    def coeff(self, n: int) -> Scalar:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} outside precision window {self.prec}")
        return Scalar(self.field, tuple(Fraction(c[n], self.den) for c in self._c))

    @property
    def coeffs(self) -> tuple:
        return tuple(self.coeff(n) for n in range(self.prec))

    def is_zero(self) -> bool:
        z = self._z
        if z is None:
            z = self._z = not any(any(c) for c in self._c)
        return z

    def vt(self):
        """t-adic order; math.inf means "vanishes to precision" (>= prec)."""
        v = self._vt
        if v is None:
            best = self.prec
            for comp in self._c:  # each component up to the best order so far
                for n in range(best):
                    if comp[n]:
                        best = n
                        break
            v = self._vt = best if best < self.prec else INF
        return v

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.prec == other.prec
            and self.den == other.den
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.field, self.prec, self.den, self._c))

    def __repr__(self) -> str:
        parts = []
        for n in range(self.prec):
            s = self.coeff(n)
            if not s.is_zero():
                parts.append(f"({s})*t^{n}" if n else f"({s})")
            if len(parts) >= 6:
                parts.append("...")
                break
        body = " + ".join(parts) if parts else "0"
        return f"<{body} mod t^{self.prec}>"

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "TruncSeries") -> int:
        if self.field is not other.field and self.field != other.field:
            raise FieldError("series over different fields")
        return self.prec if self.prec <= other.prec else other.prec

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, -1)

    def _combine(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        """self + sign * other in one pass over the common window."""
        prec = self._common(other)
        return TruncSeries(self.field, prec, *combine(self.den, self._c, other.den, other._c, sign))

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.field, self.prec, self.den, [[-x for x in c] for c in self._c])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        prec = self._common(other)
        comps = [[0] * prec for _ in self._c]
        mul_into(comps, terms(self._c), terms(other._c), prec)
        return TruncSeries(self.field, prec, self.den * other.den, comps)

    def scale(self, s: Scalar) -> "TruncSeries":
        if s.field != self.field:
            raise FieldError("scalar over a different field")
        return self.scale_ints(*scalar_ints(s.coords))

    def scale_ints(self, nums, sden: int) -> "TruncSeries":
        """self * nums/sden, a scalar in ``intvec.scalar_ints`` form."""
        return TruncSeries(self.field, self.prec, self.den * sden, scaled(nums, self._c))

    def shift_up(self, e: int) -> "TruncSeries":
        """Multiply by t^e (e >= 0); precision window unchanged, so the
        result is zero for e >= prec."""
        if e < 0:
            raise ValueError("shift_up wants e >= 0")
        if e == 0:
            return self
        prec = self.prec
        comps = [[0] * min(e, prec) + list(c[: max(0, prec - e)]) for c in self._c]
        return TruncSeries(self.field, prec, self.den, comps)

    def shift_down(self, e: int) -> "TruncSeries":
        """Exact division by t^e; needs vt >= e and costs e precision."""
        if e < 0:
            raise ValueError("shift_down wants e >= 0")
        if e == 0:
            return self
        if self.prec - e < 1:
            raise ValueError("shift_down would exhaust the precision window")
        if any(any(c[:e]) for c in self._c):
            raise NonUnitError(f"series not divisible by t^{e} (vt = {self.vt()})")
        comps = [list(c[e:]) for c in self._c]
        return TruncSeries(self.field, self.prec - e, self.den, comps)

    def truncate(self, prec: int) -> "TruncSeries":
        if prec >= self.prec:
            return self
        return TruncSeries(self.field, prec, self.den, [c[:prec] for c in self._c])

    def widen(self, prec: int) -> "TruncSeries":
        """The same coefficients read mod t^prec, prec >= self.prec: zero-extended."""
        if prec <= self.prec:
            return self
        return TruncSeries(self.field, prec, self.den, [c + (0,) * (prec - self.prec) for c in self._c])

    def invert_unit(self) -> "TruncSeries":
        """Inverse mod t^prec of a series with invertible constant term, by
        ``newton_inverse`` from the inverse of the constant term."""
        c0 = self.coeff(0)
        if c0.is_zero():
            raise NonUnitError("no inverse: constant coefficient is zero")
        return newton_inverse(
            self, TruncSeries.constant(self.field, c0.inverse(), self.prec),
            TruncSeries.one(self.field, self.prec), self.prec,
        )


def newton_passes(prec: int) -> int:
    """Pass cap of a Newton loop to precision prec, one residual check per
    pass and one step after each failing check: each step squares the
    error, so ceil(log2 prec) steps reach t^prec from an error of order
    one, and one more step is slack."""
    return max(1, math.ceil(math.log2(prec))) + 2


def newton_lift(residual, update, state: tuple, prec: int) -> tuple:
    """Newton lift to precision prec of the iterates in state, elements of
    ``TruncSeries``, ``BivarSeries``, ``AnalyticElement`` or ``PatchMatrix``.
    residual(*state) returns (r, ...), r zero exactly when state solves the
    caller's equation at the iterates' precision, at which the caller reads
    its own data, and update(*state, r, ...) returns the next iterates.

    A start that passes the check at prec is returned at once, so an exact
    start costs one residual.  Otherwise step k runs on the iterates cut or
    zero-extended (``widen``) to t^min(2^k, prec): a root is then right mod
    t^(2^k) and a carried inverse mod t^(2^(k-1)), all the next step reads
    (Brent and Kung, JACM 1978; Bernstein, "Removing redundancy in
    high-precision Newton iteration").  It returns only once r vanishes at
    prec, and raises ArithmeticError after ``newton_passes(prec)`` steps.
    """
    res = residual(*state)
    if res[0].is_zero():
        return state
    p = 1
    for _ in range(newton_passes(prec)):
        p = min(2 * p, prec)
        state = tuple(x.truncate(p).widen(p) for x in state)
        res = residual(*state)
        if p == prec and res[0].is_zero():
            return state
        state = update(*state, *res)
    raise ArithmeticError("Newton iteration did not converge: the start is no solution mod t")


def newton_inverse(u, x, one, prec: int):
    """u^-1 from x with u*x = 1 mod t, by ``newton_lift`` on e = u*x - 1 and
    x <- x - x*e: a right inverse, which is the inverse for square matrices."""
    return newton_lift(lambda x: (u.truncate(x.precision) * x - one.truncate(x.precision),),
                       lambda x, e: (x - x * e,), (x,), prec)[0]


def _as_scalar(field: FieldDescriptor, v) -> Scalar:
    if isinstance(v, Scalar):
        if v.field != field:
            raise FieldError("scalar over a different field")
        return v
    return Scalar.of(field, v)


def poly_eval(coeffs: Sequence[TruncSeries], x: TruncSeries) -> TruncSeries:
    """Horner evaluation of a polynomial with TruncSeries coefficients."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_simple_root(coeffs: Sequence[TruncSeries], z0: Scalar) -> TruncSeries:
    """Newton lift of a simple mod-t root z0 of a polynomial over K[[t]].

    coeffs lists p_0, ..., p_d.  Requires p(z0) = 0 mod t and p'(z0)
    invertible mod t.  Newton iteration lambda <- lambda - p(lambda) w,
    where w ~ p'(lambda)^-1 is carried from step to step and refined by one
    step of ``newton_inverse``'s iteration, w <- w - w (p'(lambda) w - 1),
    instead of being inverted anew, by ``newton_lift`` on the residual
    p(lambda).  The correction stays in the ideal, so lambda = z0 mod t.
    """
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree >= 1")
    field = coeffs[0].field
    prec = min(c.prec for c in coeffs)
    coeffs = [c.truncate(prec) for c in coeffs]
    p0 = sum((c.coeff(0) * z0 ** n for n, c in enumerate(coeffs)), Scalar.zero(field))
    if not p0.is_zero():
        raise RegularityError(f"{z0} is not a root of the reduction mod t")
    dp0 = sum(
        (Scalar.of(field, n) * c.coeff(0) * z0 ** (n - 1) for n, c in enumerate(coeffs) if n),
        Scalar.zero(field),
    )
    if dp0.is_zero():
        raise RegularityError(f"{z0} is not a simple root mod t")
    deriv = [c.scale(Scalar.of(field, n)) for n, c in enumerate(coeffs) if n]
    one = TruncSeries.one(field, prec)

    def residual(lam, w):
        return (poly_eval([c.truncate(lam.prec) for c in coeffs], lam),)

    def update(lam, w, r):
        p = lam.prec
        w = w - w * (poly_eval([c.truncate(p) for c in deriv], lam) * w - one.truncate(p))
        return lam - r * w, w

    start = (TruncSeries.constant(field, z0, prec), TruncSeries.constant(field, dp0.inverse(), prec))
    return newton_lift(residual, update, start, prec)[0]


# ---------------------------------------------------------------------------
# bivariate layer
# ---------------------------------------------------------------------------


class BivarSeries:
    """K[[t, Y]] truncated at total degree prec.

    Row it holds the Y-coefficients of t^it below Y^(prec - it): one
    integer vector per component, over the series' one denominator, so
    everything at or beyond the cut is identically dropped.  A product is
    one ``mul_into`` call per pair of nonempty rows below the cut.
    """

    __slots__ = ("field", "prec", "den", "_r")

    def __init__(self, field: FieldDescriptor, prec: int, den: int, vectors):
        """vectors lists the rows' components in order: row 0's, then row 1's, ..."""
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.den, c = normalize(den, vectors)
        dim = field.dim
        self._r = tuple(c[i:i + dim] for i in range(0, len(c), dim))

    @staticmethod
    def zero(field: FieldDescriptor, prec: int) -> "BivarSeries":
        zeros = [[0] * (prec - it) for it in range(prec) for _ in range(field.dim)]
        return BivarSeries(field, prec, 1, zeros)

    @staticmethod
    def from_terms(field: FieldDescriptor, terms: dict, prec: int) -> "BivarSeries":
        """terms maps (t-exp, Y-exp) -> coefficient; entries past the cut are dropped."""
        nums, den = to_ints(_as_scalar(field, v).coords for v in terms.values())
        rows = [[[0] * (prec - it) for _ in range(field.dim)] for it in range(prec)]
        for (it, iy), v in zip(terms, nums):
            if it < 0 or iy < 0:
                raise ValueError("negative exponents are not representable here")
            if it + iy < prec:
                for comp, x in zip(rows[it], v):
                    comp[iy] = x
        return BivarSeries(field, prec, den, [c for row in rows for c in row])

    # -- views -------------------------------------------------------------

    @property
    def precision(self) -> int:
        return self.prec

    def _vectors(self) -> list:
        return [c for row in self._r for c in row]

    def coeff(self, it: int, iy: int) -> Scalar:
        if it + iy >= self.prec or it < 0 or iy < 0:
            raise IndexError("exponent pair outside the truncation window")
        return Scalar(self.field, tuple(Fraction(c[iy], self.den) for c in self._r[it]))

    def terms(self):
        for it, row in enumerate(self._r):
            for iy in range(self.prec - it):
                if any(c[iy] for c in row):
                    yield (it, iy), self.coeff(it, iy)

    def is_zero(self) -> bool:
        return not any(map(any, self._vectors()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarSeries):
            return NotImplemented
        return (
            self.field == other.field
            and self.prec == other.prec
            and self.den == other.den
            and self._r == other._r
        )

    def __hash__(self):
        return hash((self.field, self.prec, self.den, self._r))

    def __repr__(self) -> str:
        parts = [f"({s})*t^{it}*Y^{iy}" for (it, iy), s in self.terms()]
        if len(parts) > 8:
            parts = parts[:8] + ["..."]
        return f"<{' + '.join(parts) if parts else '0'} | deg<{self.prec}>"

    # -- arithmetic --------------------------------------------------------

    def _common(self, other: "BivarSeries") -> int:
        if self.field != other.field:
            raise FieldError("series over different fields")
        return min(self.prec, other.prec)

    def truncate(self, prec: int) -> "BivarSeries":
        if prec >= self.prec:
            return self
        vectors = [c[:prec - it] for it, row in enumerate(self._r[:prec]) for c in row]
        return BivarSeries(self.field, prec, self.den, vectors)

    def widen(self, prec: int) -> "BivarSeries":
        """The same coefficients below total degree prec >= self.prec: zero-extended."""
        if prec <= self.prec:
            return self
        vectors = [c + (0,) * (prec - self.prec) for c in self._vectors()]
        vectors += [(0,) * (prec - it) for it in range(self.prec, prec) for _ in range(self.field.dim)]
        return BivarSeries(self.field, prec, self.den, vectors)

    def _combine(self, other: "BivarSeries", sign: int) -> "BivarSeries":
        """self + sign * other; the shorter rows and vectors set the cut."""
        prec = self._common(other)
        den, vectors = combine(self.den, self._vectors(), other.den, other._vectors(), sign)
        return BivarSeries(self.field, prec, den, vectors)

    def __add__(self, other: "BivarSeries") -> "BivarSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "BivarSeries") -> "BivarSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "BivarSeries":
        vectors = [[-x for x in c] for c in self._vectors()]
        return BivarSeries(self.field, self.prec, self.den, vectors)

    def __mul__(self, other: "BivarSeries") -> "BivarSeries":
        """Row it1 times row it2 goes to row it1 + it2 at precision
        prec - it1 - it2: exactly the total-degree cut."""
        prec = self._common(other)
        xt = [terms(row) for row in self._r[:prec]]
        yt = [terms(row) for row in other._r[:prec]]
        out = [[[0] * (prec - it) for _ in range(self.field.dim)] for it in range(prec)]
        for it1, x in enumerate(xt):
            if any(x):
                for it2, y in enumerate(yt[:prec - it1]):
                    if any(y):
                        mul_into(out[it1 + it2], x, y, prec - it1 - it2)
        return BivarSeries(self.field, prec, self.den * other.den, [c for row in out for c in row])

    def scale(self, s: Scalar) -> "BivarSeries":
        nums, sden = scalar_ints(_as_scalar(self.field, s).coords)
        vectors = [c for row in self._r for c in scaled(nums, row)]
        return BivarSeries(self.field, self.prec, self.den * sden, vectors)

    # -- structure helpers used by the division loop ------------------------

    def y_row(self) -> "BivarSeries":
        """The t-free part (a series in Y alone)."""
        P = self.prec
        zeros = [[0] * (P - it) for it in range(1, P) for _ in range(self.field.dim)]
        return BivarSeries(self.field, P, self.den, [*self._r[0], *zeros])

    def shift_down_t(self) -> "BivarSeries":
        """(self - y_row)/t as a representative; window size kept."""
        shifted = [[*c, 0] for row in self._r[1:] for c in row]
        return BivarSeries(self.field, self.prec, self.den, shifted + [[0]] * self.field.dim)


def weierstrass_div(g: BivarSeries, f: BivarSeries) -> tuple[BivarSeries, BivarSeries]:
    """Divide g by a t-regular degree-1 element: g = q*f + r with r in K[[Y]].

    f must split as rho(Y) + t*w(t, Y) with rho(0) = 0 and w a unit.  The
    returned pair satisfies the identity exactly within the truncation
    window; q is canonical one total degree lower than the window, so it is
    returned with precision reduced by one.
    """
    prec = min(g.prec, f.prec)
    g = g.truncate(prec)
    f = f.truncate(prec)
    if prec < 2:
        raise ValueError("window too small for a division")
    if not f.coeff(0, 0).is_zero():
        raise RegularityError("divisor has a unit constant term: not t-regular of degree 1")
    rho = f.y_row()
    w = f.shift_down_t()
    c0 = w.coeff(0, 0)
    if c0.is_zero():
        raise RegularityError("divisor is not t-regular of degree 1 (t-coefficient not a unit)")
    winv = newton_inverse(
        w, BivarSeries.from_terms(f.field, {(0, 0): c0.inverse()}, prec),
        BivarSeries.from_terms(f.field, {(0, 0): 1}, prec), prec,
    )

    q = BivarSeries.zero(f.field, prec)
    r = BivarSeries.zero(f.field, prec)
    cur = g
    # weighted order (t weight 1, Y weight 2) grows every round, so 2*prec+4
    # rounds are already past any surviving monomial
    for _ in range(2 * prec + 4):
        if cur.is_zero():
            break
        r = r + cur.y_row()
        g1 = cur.shift_down_t()
        if g1.is_zero():
            cur = BivarSeries.zero(f.field, prec)
            break
        m = winv * g1
        q = q + m
        cur = -(rho * m)
    else:
        raise ArithmeticError("Weierstrass division did not terminate (internal bug)")
    return q.truncate(prec - 1), r


def prime_valuation(g: BivarSeries, f: BivarSeries) -> int:
    """Largest e with f^e dividing g, by repeated Weierstrass division.

    Each division step costs one total degree of certainty, so the usable
    range of e shrinks with the window; g vanishing to precision is an error
    (its order is indistinguishable from the cut).
    """
    if g.is_zero():
        raise ValueError("element is indistinguishable from 0 at this precision")
    e = 0
    cur = g
    while True:
        if cur.prec < 2:
            raise ValueError("precision exhausted while peeling prime factors")
        q, r = weierstrass_div(cur, f)
        if not r.is_zero():
            return e
        e += 1
        if q.is_zero():
            raise ValueError("element is indistinguishable from 0 at this precision")
        cur = q
