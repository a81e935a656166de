"""Truncated power series with exact coefficients.

Two containers live here:

* ``TruncSeries``: an element of K[[t]] mod t^N.  The precision N travels
  with the value: an all-zero series of precision N means "zero mod t^N",
  never "exactly zero".
* ``BivarSeries``: an element of K[[t, Y]] truncated at total degree N,
  together with Weierstrass division by elements that are t-regular of
  degree 1, and the induced prime-power order function.

Internally a series keeps one common integer denominator and per-component
integer coefficient vectors (two components for the order-4 cyclotomic
field, one otherwise).  That keeps the inner loops in machine integers; the
``Scalar`` view is materialized on demand and is exact either way.

Every product of ``TruncSeries`` goes through one kernel, ``mul_into``,
which adds scale * x * y into per-component integer lists: one real
convolution per pair of nonempty components of the factors' ``terms``, so
over Q(i) a real factor costs what it costs over Q.  ``TruncSeries.__mul__``
runs it on fresh zero lists; the accumulators of ``analytic`` run it
straight into their own lists, so a sum of products builds no intermediate
series, and a caller that multiplies one series by many lists its terms once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .scalars import FieldDescriptor, FieldError, Scalar

__all__ = [
    "NonUnitError",
    "RegularityError",
    "TruncSeries",
    "BivarSeries",
    "vt",
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


def _coords_to_ints(coords) -> tuple[list[int], int]:
    """Common-denominator integer form of a tuple of Fractions."""
    den = 1
    for c in coords:
        den = den * c.denominator // gcd(den, c.denominator)
    return [int(c * den) for c in coords], den


def _normalize(den: int, comps: list[list[int]]) -> tuple[int, tuple]:
    if den == 1:
        return 1, tuple(tuple(comp) for comp in comps)
    g = den
    for comp in comps:
        for x in comp:
            if x:
                g = gcd(g, x)
                if g == 1:
                    break
        if g == 1:
            break
    if g > 1:
        den //= g
        comps = [[x // g for x in comp] for comp in comps]
    return den, tuple(tuple(comp) for comp in comps)


def terms(comps) -> tuple:
    """The nonzero terms (n, a) of each component of a ``_c`` layout, in
    order of t-degree: one list over Q, (re, im) over Q(i)."""
    if len(comps) == 1:
        return [(n, a) for n, a in enumerate(comps[0]) if a],
    re, im = comps
    return ([(n, a) for n, a in enumerate(re) if a],
            [(n, a) for n, a in enumerate(im) if a])


def mul_into(out: list[list[int]], xt: tuple, yt: tuple, prec: int, scale: int = 1) -> None:
    """out += scale * x * y mod t^prec, in per-component integer lists.

    out uses the ``_c`` layout of ``TruncSeries``: one integer list per
    component, one over Q and (re, im) over Q(i).  x and y come as their
    ``terms``, scaled to their own denominators, which the caller accounts
    for in ``scale``.  One real loop multiplies every pair of terms below
    t^prec; over Q(i) it runs per pair of nonempty components, re += xr yr
    - xi yi and im += xr yi + xi yr.
    """
    if len(out) == 2:
        (re, im), (xr, xi), (yr, yi) = out, xt, yt
        if xr:
            if yr:
                mul_into((re,), (xr,), (yr,), prec, scale)
            if yi:
                mul_into((im,), (xr,), (yi,), prec, scale)
        if xi:
            if yr:
                mul_into((im,), (xi,), (yr,), prec, scale)
            if yi:
                mul_into((re,), (xi,), (yi,), prec, -scale)
        return
    comp = out[0]
    yt = yt[0]
    for i, a in xt[0]:
        lim = prec - i
        if lim <= 0:
            break
        a *= scale
        for j, b in yt:
            if j >= lim:
                break
            comp[i + j] += a * b


class TruncSeries:
    """K[[t]] mod t^prec with exact coefficients.

    >>> s = TruncSeries.from_scalars(QQ_like, [1, -1], 4)   # 1 - t
    >>> s.invert_unit().coeffs   # 1 + t + t^2 + t^3
    """

    __slots__ = ("field", "prec", "den", "_c", "_z", "_vt")

    def __init__(self, field: FieldDescriptor, prec: int, den: int, comps):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.den, self._c = _normalize(den, [list(c) for c in comps])
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
        den = 1
        for s in scalars:
            for c in s.coords:
                den = den * c.denominator // gcd(den, c.denominator)
        comps = [[0] * prec for _ in range(field.dim)]
        for n, s in enumerate(scalars):
            for d, c in enumerate(s.coords):
                comps[d][n] = int(c * den)
        return TruncSeries(field, prec, den, comps)

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
        g = gcd(self.den, other.den)
        den = self.den // g * other.den
        f1, f2 = other.den // g, sign * (self.den // g)
        comps = [
            [f1 * a + f2 * b for a, b in zip(ca[:prec], cb[:prec])]
            for ca, cb in zip(self._c, other._c)
        ]
        return TruncSeries(self.field, prec, den, comps)

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
        return self.scale_ints(*_coords_to_ints(s.coords))

    def scale_ints(self, nums, sden: int) -> "TruncSeries":
        """self * nums/sden, a scalar in ``_coords_to_ints`` form.  Over Q(i)
        a real or purely imaginary scalar multiplies by its nonzero
        component only."""
        if len(nums) == 1:
            a = nums[0]
            comps = [[a * x for x in self._c[0]]]
        else:
            a, b = nums
            re, im = self._c
            if not b:
                comps = [[a * x for x in re], [a * y for y in im]]
            elif not a:
                comps = [[-b * y for y in im], [b * x for x in re]]
            else:
                comps = [
                    [a * x - b * y for x, y in zip(re, im)],
                    [a * y + b * x for x, y in zip(re, im)],
                ]
        return TruncSeries(self.field, self.prec, self.den * sden, comps)

    def shift_up(self, e: int) -> "TruncSeries":
        """Multiply by t^e (e >= 0); precision window unchanged."""
        if e < 0:
            raise ValueError("shift_up wants e >= 0")
        if e == 0:
            return self
        comps = [[0] * e + list(c[: self.prec - e]) for c in self._c]
        return TruncSeries(self.field, self.prec, self.den, comps)

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

    def invert_unit(self) -> "TruncSeries":
        """Inverse mod t^prec of a series with invertible constant term, by
        ``newton_inverse`` from the inverse of the constant term: it stops
        as soon as u*x = 1 mod t^prec, and raises ArithmeticError if that
        takes more than ceil(log2 prec) + 1 steps."""
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


def newton_inverse(u, x, one, prec: int):
    """u^-1 from x with u*x = 1 mod t, in any commutative ring of truncated
    series (``TruncSeries``, ``BivarSeries``, ``AnalyticElement``).

    Repeats e = u*x - 1, x <- x - x*e (Bernstein, "Removing redundancy in
    high-precision Newton iteration") and returns x as soon as e vanishes
    to precision, so the result is checked exact and an exact start costs
    one product.  If e has not vanished after ceil(log2 prec) + 1 steps
    (``newton_passes``), which happens when u*x != 1 mod t, it raises
    ArithmeticError.
    """
    for _ in range(newton_passes(prec)):
        e = u * x - one
        if e.is_zero():
            return x
        x = x - x * e
    raise ArithmeticError("Newton inverse did not converge: the start is not an inverse mod t")


def _as_scalar(field: FieldDescriptor, v) -> Scalar:
    if isinstance(v, Scalar):
        if v.field != field:
            raise FieldError("scalar over a different field")
        return v
    return Scalar.of(field, v)


def vt(a: TruncSeries):
    return a.vt()


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
    instead of being inverted anew.  The loop returns as soon as the
    residual p(lambda) vanishes mod t^prec, and raises ArithmeticError if
    it has not after ceil(log2 prec) + 1 steps.  The correction stays in
    the ideal, so lambda = z0 mod t.
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
    lam = TruncSeries.constant(field, z0, prec)
    w = TruncSeries.constant(field, dp0.inverse(), prec)
    for _ in range(newton_passes(prec)):
        residue = poly_eval(coeffs, lam)
        if residue.is_zero():
            return lam
        w = w - w * (poly_eval(deriv, lam) * w - one)
        lam = lam - residue * w
    raise ArithmeticError("Newton iteration failed to converge (internal bug)")


# ---------------------------------------------------------------------------
# bivariate layer
# ---------------------------------------------------------------------------


class BivarSeries:
    """K[[t, Y]] truncated at total degree prec.

    Stored entries are indexed by (t-exponent, Y-exponent) with exponent sum
    below prec; everything at or beyond the cut is identically dropped.
    """

    __slots__ = ("field", "prec", "den", "_c")

    def __init__(self, field: FieldDescriptor, prec: int, den: int, comps):
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.field = field
        self.prec = prec
        self.den, self._c = _normalize(den, [list(c) for c in comps])

    @staticmethod
    def zero(field: FieldDescriptor, prec: int) -> "BivarSeries":
        size = prec * prec
        return BivarSeries(field, prec, 1, [[0] * size for _ in range(field.dim)])

    @staticmethod
    def from_terms(field: FieldDescriptor, terms: dict, prec: int) -> "BivarSeries":
        """terms maps (t-exp, Y-exp) -> coefficient; entries past the cut are dropped."""
        scalars = {k: _as_scalar(field, v) for k, v in terms.items()}
        den = 1
        for s in scalars.values():
            for c in s.coords:
                den = den * c.denominator // gcd(den, c.denominator)
        comps = [[0] * (prec * prec) for _ in range(field.dim)]
        for (it, iy), s in scalars.items():
            if it < 0 or iy < 0:
                raise ValueError("negative exponents are not representable here")
            if it + iy >= prec:
                continue
            for d, c in enumerate(s.coords):
                comps[d][it * prec + iy] = int(c * den)
        return BivarSeries(field, prec, den, comps)

    # -- views -------------------------------------------------------------

    @property
    def precision(self) -> int:
        return self.prec

    def coeff(self, it: int, iy: int) -> Scalar:
        if it + iy >= self.prec or it < 0 or iy < 0:
            raise IndexError("exponent pair outside the truncation window")
        idx = it * self.prec + iy
        return Scalar(self.field, tuple(Fraction(c[idx], self.den) for c in self._c))

    def terms(self):
        P = self.prec
        for it in range(P):
            for iy in range(P - it):
                idx = it * P + iy
                if any(c[idx] for c in self._c):
                    yield (it, iy), self.coeff(it, iy)

    def is_zero(self) -> bool:
        return all(not any(c) for c in self._c)

    def order(self):
        """Total-degree order; math.inf when zero to precision."""
        best = INF
        for (it, iy), _ in self.terms():
            best = min(best, it + iy)
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarSeries):
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
        comps = []
        for c in self._c:
            comps.append(
                [c[it * self.prec + iy] if it + iy < prec else 0
                 for it in range(prec) for iy in range(prec)]
            )
        return BivarSeries(self.field, prec, self.den, comps)

    def __add__(self, other: "BivarSeries") -> "BivarSeries":
        prec = self._common(other)
        a, b = self.truncate(prec), other.truncate(prec)
        g = gcd(a.den, b.den)
        den = a.den // g * b.den
        f1, f2 = b.den // g, a.den // g
        comps = [[f1 * x + f2 * y for x, y in zip(ca, cb)] for ca, cb in zip(a._c, b._c)]
        return BivarSeries(self.field, prec, den, comps)

    def __sub__(self, other: "BivarSeries") -> "BivarSeries":
        return self + (-other)

    def __neg__(self) -> "BivarSeries":
        return BivarSeries(self.field, self.prec, self.den, [[-x for x in c] for c in self._c])

    def _nonzero(self, prec: int) -> list:
        """The nonzero terms (it, iy, v) of each component below total
        degree prec, in order of total degree."""
        P = self.prec
        return [
            [(it, d - it, comp[it * P + d - it])
             for d in range(prec) for it in range(d + 1) if comp[it * P + d - it]]
            for comp in self._c
        ]

    def __mul__(self, other: "BivarSeries") -> "BivarSeries":
        """One real convolution per pair of nonempty components, each
        factor's terms listed once, as in ``mul_into``."""
        prec = self._common(other)
        xt, yt = self._nonzero(prec), other._nonzero(prec)
        out = [[0] * (prec * prec) for _ in xt]
        if len(out) == 1:
            passes = ((0, 0, 1, 0),)
        else:  # re += xr yr - xi yi, im += xr yi + xi yr
            passes = ((0, 0, 1, 0), (1, 1, -1, 0), (0, 1, 1, 1), (1, 0, 1, 1))
        for ix, iy, sign, io in passes:
            xs, ys, target = xt[ix], yt[iy], out[io]
            if not ys:
                continue
            for it1, iy1, v1 in xs:
                lim = prec - it1 - iy1
                v1 *= sign
                for it2, iy2, v2 in ys:
                    if it2 + iy2 >= lim:
                        break
                    target[(it1 + it2) * prec + iy1 + iy2] += v1 * v2
        return BivarSeries(self.field, prec, self.den * other.den, out)

    def scale(self, s: Scalar) -> "BivarSeries":
        nums, sden = _coords_to_ints(_as_scalar(self.field, s).coords)
        den = self.den * sden
        if self.field.dim == 1:
            comps = [[nums[0] * x for x in self._c[0]]]
        else:
            a, b = nums
            re, im = self._c
            comps = [
                [a * x - b * y for x, y in zip(re, im)],
                [a * y + b * x for x, y in zip(re, im)],
            ]
        return BivarSeries(self.field, self.prec, den, comps)

    # -- structure helpers used by the division loop ------------------------

    def y_row(self) -> "BivarSeries":
        """The t-free part (a series in Y alone)."""
        P = self.prec
        comps = []
        for c in self._c:
            out = [0] * (P * P)
            out[:P] = c[:P]
            comps.append(out)
        return BivarSeries(self.field, P, self.den, comps)

    def shift_down_t(self) -> "BivarSeries":
        """(self - y_row)/t as a representative; window size kept."""
        P = self.prec
        comps = []
        for c in self._c:
            out = [0] * (P * P)
            out[: P * (P - 1)] = c[P:]
            comps.append(out)
        return BivarSeries(self.field, P, self.den, comps)

    def is_y_only(self) -> bool:
        P = self.prec
        return all(not any(c[P:]) for c in self._c)


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
