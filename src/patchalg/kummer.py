"""Radical extensions over the analytic layer and the division-algebra
valuation certificate.

The pivotal scenario fixes two indices i != j and an exponent k >= 2 and
builds, writing t_i = X - c_i Y and t_j = X - c_j Y:

    a  = (X - c_i Y + Y^k)/(X - c_i Y) = 1 + z_i^k t_i^{k-1}
    b  = (X + c_i Y - Y^k)/(X - c_i Y) = 1 + 2 c_i z_i - z_i^k t_i^{k-1}
    r  = 1 + (c_j + c_i) z_j - t_j^{k-1} z_j^k
    r' = 1 + (c_j - c_i) z_j + t_j^{k-1} z_j^k
    u2 = 1 + (c_j - c_i) z_j

and verifies the chart-j identities b*u2 = r and a*u2 = r' before anything
else runs; every later valuation of a and b is computed through those
verified presentations.

Kummer coordinates carry an explicit exponent of the unit u2 (an element
together with "divide by u2^e"), because the radicand a itself is r'/u2
and materializing 1/u2 would leave the subring where the prime-point
substitution makes sense.  The prime valuations of u2 at both points are
checked to be 0 when the scenario is built, so the exponent never shifts a
valuation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    PrimePoint,
    SupportError,
    localized_dot,
    prime_point_valuation,
    unit_invert,
    weierstrass_prepare_linear,
)
from .scalars import FieldError, Scalar, cyclotomic_field, root_of_unity
from .series import INF, BivarSeries, newton_lift, prime_valuation as bivar_prime_valuation

__all__ = [
    "ScenarioError",
    "ExtensionError",
    "hensel_root",
    "Scenario",
    "build_scenario",
    "check_scenario",
    "lift_configuration",
    "norm_law_samples",
    "KummerExtension",
    "KummerElement",
    "DivisionAlgebraCertificate",
    "certify_division_algebra",
    "BiRadicalGrid",
    "grid_norm_identity",
    "quaternion_mul",
    "quaternion_norm",
]


class ScenarioError(ValueError):
    """Scenario parameters violate the construction's constraints."""


class ExtensionError(ValueError):
    """Kummer-extension misuse (mismatched extensions, missing roots)."""


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def hensel_root(a: AnalyticElement, q: int) -> AnalyticElement:
    """The q-th root of a congruent to 1, for a = 1 mod t.

    Newton iteration s <- s - (s^q - a) w, where w ~ (q s^{q-1})^{-1} is
    carried from step to step and refined by one step of
    ``series.newton_inverse``'s iteration, w <- w - w (q s^{q-1} w - 1),
    instead of being inverted anew, by ``series.newton_lift`` from s = 1 on
    the residual s^{q-1} s - a, whose s^{q-1} the step reuses.  The
    correction stays in the ideal, so s = 1 mod t throughout; a root = 1
    mod t is unique, so it is the one exact Newton would give.
    """
    if q < 1:
        raise ValueError("root order must be positive")
    cfg = a.cfg
    if not a.support() <= {a.chart}:
        raise SupportError("Hensel input must live in the chart's own subring")
    N = a.precision
    one = AnalyticElement.one(cfg, a.chart, N)
    if (a - one).valuation() < 1:
        raise ValueError("Hensel root needs a = 1 mod t")
    if q == 1:
        return a
    qs = Scalar.of(cfg.field, q)

    def residual(s, w):
        sq_1 = s ** (q - 1)
        return sq_1 * s - a.truncate(s.precision), sq_1

    def update(s, w, r, sq_1):
        w = w - w * (sq_1.scale(qs) * w - one.truncate(s.precision))
        return s - r * w, w

    return newton_lift(residual, update, (one, unit_invert(one.truncate(1).scale(qs))), N)[0]


# ---------------------------------------------------------------------------
# the scenario
# ---------------------------------------------------------------------------


_SUPPORTED_DEGREES = (1, 2, 4)


@dataclass
class Scenario:
    cfg: Configuration
    i: int
    j: int
    k: int
    q: int
    qprime: int
    a: AnalyticElement
    b: AnalyticElement
    r: AnalyticElement
    rp: AnalyticElement
    u2: AnalyticElement
    f_bv: BivarSeries
    g_bv: BivarSeries
    t_bv: BivarSeries
    pt_r: PrimePoint
    pt_rp: PrimePoint

    @property
    def full_degree(self) -> int:
        return self.q * self.qprime

    @cached_property
    def bivar_valuations(self) -> dict:
        """v_f and v_g of a = f/t and b = g/t by the quotient rule, on the
        fixed X,Y pictures; computed on first use, then kept."""
        out = {}
        for name, fdiv in (("f", self.f_bv), ("g", self.g_bv)):
            va = bivar_prime_valuation(self.f_bv, fdiv)
            vt = bivar_prime_valuation(self.t_bv, fdiv)
            out[f"v_{name}(a)"] = va - vt
            out[f"v_{name}(b)"] = bivar_prime_valuation(self.g_bv, fdiv) - vt
        return out

    def params(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "k": self.k,
            "q": self.q,
            "qprime": self.qprime,
            "config": self.cfg.to_dict(),
        }


def check_scenario(cfg: Configuration, i: int, j: int, k: int, q: int, qprime: int) -> None:
    """Raise ScenarioError unless the parameters give a scenario over cfg:
    integers, two distinct configured indices with c_j != -c_i, an exponent
    2 <= k < precision and supported degrees q, q' and q*q'."""
    if not all(type(v) is int for v in (i, j, k, q, qprime)):
        raise ScenarioError("scenario parameters i, j, k, q, qprime must be integers")
    if i == j or i not in cfg.indices or j not in cfg.indices:
        raise ScenarioError("need two distinct configured indices")
    if k < 2:
        raise ScenarioError("exponent k must be at least 2")
    if q not in _SUPPORTED_DEGREES or qprime not in _SUPPORTED_DEGREES:
        raise ScenarioError(f"degrees limited to {_SUPPORTED_DEGREES}")
    if q * qprime not in _SUPPORTED_DEGREES:
        raise ScenarioError("combined degree q*q' beyond the supported symbol algebras")
    if (cfg.centers[j] + cfg.centers[i]).is_zero():
        raise ScenarioError("centers with c_j = -c_i break the leading unit of r")
    if cfg.precision <= k:
        raise ScenarioError("precision too small to see the t^{k-1} terms")


def build_scenario(cfg: Configuration, i: int, j: int, k: int, q: int, qprime: int) -> Scenario:
    """Construct and cross-validate the scenario elements.

    Rejects the parameters ``check_scenario`` rejects.  The chart-j
    presentations of a and b are verified against their definitions as
    X,Y-fractions before the scenario is handed out.
    """
    check_scenario(cfg, i, j, k, q, qprime)
    ci, cj = cfg.centers[i], cfg.centers[j]
    N = cfg.precision
    two_ci = ci + ci
    a_el = AnalyticElement.from_terms(cfg, i, 1, {(i, k): cfg.t_series(k - 1)})
    b_el = AnalyticElement.from_terms(
        cfg, i, 1, {(i, 1): two_ci, (i, k): cfg.t_series(k - 1, coeff=-1)}
    )
    r_el = AnalyticElement.from_terms(
        cfg, j, 1, {(j, 1): cj + ci, (j, k): cfg.t_series(k - 1, coeff=-1)}
    )
    rp_el = AnalyticElement.from_terms(
        cfg, j, 1, {(j, 1): cj - ci, (j, k): cfg.t_series(k - 1)}
    )
    u2_el = AnalyticElement.from_terms(cfg, j, 1, {(j, 1): cj - ci})

    if not (b_el.rebase(j) * u2_el).equals(r_el):
        raise ScenarioError("internal identity b*u2 = r failed (bug)")
    if not (a_el.rebase(j) * u2_el).equals(rp_el):
        raise ScenarioError("internal identity a*u2 = r' failed (bug)")

    ring = frozenset(cfg.indices) - {i}
    pt_r, _ = weierstrass_prepare_linear(r_el, "r", ring_support=ring)
    pt_rp, _ = weierstrass_prepare_linear(rp_el, "r'", ring_support=ring)
    for pt, name in ((pt_r, "r"), (pt_rp, "r'")):
        if prime_point_valuation(u2_el, pt) != 0:
            raise ScenarioError(f"u2 is not a unit along {name} (degenerate centers)")

    # X,Y pictures in the chart-i coordinates (t = X - c_i Y, Y)
    f_bv = BivarSeries.from_terms(cfg.field, {(1, 0): 1, (0, k): 1}, N)
    g_bv = BivarSeries.from_terms(cfg.field, {(1, 0): 1, (0, 1): two_ci, (0, k): -1}, N)
    t_bv = BivarSeries.from_terms(cfg.field, {(1, 0): 1}, N)

    return Scenario(
        cfg, i, j, k, q, qprime,
        a_el, b_el, r_el, rp_el, u2_el, f_bv, g_bv, t_bv,
        pt_r, pt_rp,
    )


# ---------------------------------------------------------------------------
# scalar lifting (rationals -> order-4 cyclotomic), used when the norm layer
# needs a root of unity the base field lacks
# ---------------------------------------------------------------------------


def lift_configuration(cfg: Configuration) -> Configuration:
    if cfg.field.dim != 1:
        return cfg
    F2 = cyclotomic_field(4)
    centers = [Scalar.of(F2, c.coords[0]) for c in cfg.centers]
    return Configuration(F2, centers, cfg.precision)


# ---------------------------------------------------------------------------
# Kummer extensions with u2-localized coordinates
# ---------------------------------------------------------------------------


class _Coord:
    """numerator * u2^{-power}: a localized element presented against the
    verified unit u2 (power 0 when no unit is involved)."""

    __slots__ = ("elem", "u2pow")

    def __init__(self, elem, u2pow: int = 0):
        self.elem = LocalizedElement.of(elem)
        self.u2pow = u2pow

    def is_zero(self) -> bool:
        return self.elem.is_zero()

    def lifted(self, power: int, u2) -> LocalizedElement:
        """The numerator over u2^power (power >= self.u2pow)."""
        e = self.elem
        for _ in range(power - self.u2pow):
            e = e * LocalizedElement.of(u2)
        return e

    def plus(self, other: "_Coord", u2) -> "_Coord":
        """The sum, over the larger of the two u2 powers, zeros included."""
        p = max(self.u2pow, other.u2pow)
        return _Coord(self.lifted(p, u2) + other.lifted(p, u2), p)

    def equals(self, other: "_Coord", u2) -> bool:
        """Equality of values, over the larger of the two u2 powers."""
        p = max(self.u2pow, other.u2pow)
        return self.lifted(p, u2).equals(other.lifted(p, u2))


@dataclass
class KummerExtension:
    """base(alpha) with alpha^degree = radicand, Galois group generated by
    alpha -> zeta * alpha."""

    cfg: Configuration
    chart: int
    degree: int
    zeta: Scalar
    radicand: _Coord
    u2: Optional[AnalyticElement] = None
    zeta_powers: tuple = field(init=False, repr=False, compare=False)
    zero: _Coord = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """zeta_powers[l] = zeta^l for 0 <= l < degree, read by ``galois`` and
        by the weights of ``KummerElement.norm``; zero is the coordinate 0
        at the configured precision."""
        powers = [Scalar.one(self.cfg.field)]
        for _ in range(1, self.degree):
            powers.append(powers[-1] * self.zeta)
        self.zeta_powers = tuple(powers)
        self.zero = _Coord(AnalyticElement.zero(self.cfg, self.chart))

    @staticmethod
    def create(cfg: Configuration, chart: int, degree: int, radicand,
               u2: Optional[AnalyticElement] = None, radicand_u2_power: int = 0
               ) -> "KummerExtension":
        if degree not in _SUPPORTED_DEGREES:
            raise ExtensionError(f"extension degree limited to {_SUPPORTED_DEGREES}")
        try:
            zeta = root_of_unity(degree, cfg.field)
        except FieldError as exc:
            raise ExtensionError(
                f"base field lacks a primitive {degree}-th root of unity: {exc}"
            ) from exc
        if radicand_u2_power and u2 is None:
            raise ExtensionError("a u2 power needs the unit itself")
        return KummerExtension(
            cfg, chart, degree, zeta, _Coord(radicand, radicand_u2_power), u2
        )

    def element(self, coords: Sequence) -> "KummerElement":
        cs = []
        for c in coords:
            cs.append(c if isinstance(c, _Coord) else _Coord(c))
        if len(cs) != self.degree:
            raise ExtensionError(f"need exactly {self.degree} coordinates")
        return KummerElement(self, tuple(cs))

    def generator(self) -> "KummerElement":
        """alpha: coordinate 1 is one, or in degree 1, where alpha lies in
        the base, coordinate 0 is the radicand."""
        if self.degree == 1:
            return KummerElement(self, (self.radicand,))
        coords = [self.zero] * self.degree
        coords[1] = _Coord(AnalyticElement.one(self.cfg, self.chart))
        return KummerElement(self, tuple(coords))

    def scalar_embed(self, x) -> "KummerElement":
        return KummerElement(self, (_Coord(x),) + (self.zero,) * (self.degree - 1))


class KummerElement:
    """Coordinates b_0, ..., b_{q-1} against the basis 1, alpha, ..., alpha^{q-1}."""

    __slots__ = ("ext", "coords")

    def __init__(self, ext: KummerExtension, coords: tuple):
        self.ext = ext
        self.coords = coords

    def _check(self, other: "KummerElement"):
        """Both elements must belong to one extension object: two extensions
        of one degree and configuration may still differ in radicand."""
        if self.ext is not other.ext:
            raise ExtensionError("elements of different extensions")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "KummerElement") -> "KummerElement":
        self._check(other)
        return KummerElement(
            self.ext,
            tuple(a.plus(b, self.ext.u2) for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> "KummerElement":
        return KummerElement(self.ext, tuple(_Coord(-c.elem, c.u2pow) for c in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "KummerElement") -> "KummerElement":
        """The product: every ordered pair of coordinates, zeros included, with
        weight 1 and the radicand on the pairs that wrap past alpha^q, summed
        per output coordinate by ``_coordinate_products``."""
        self._check(other)
        ext = self.ext
        q = ext.degree
        groups = [[] for _ in range(q)]
        for n1 in range(q):
            for n2 in range(q):
                groups[(n1 + n2) % q].append((n1, n2, 1, ext.radicand if n1 + n2 >= q else None))
        return KummerElement(ext, _coordinate_products(ext, self.coords, other.coords, groups))

    def scale(self, s) -> "KummerElement":
        return KummerElement(
            self.ext, tuple(_Coord(c.elem.scale(s), c.u2pow) for c in self.coords)
        )

    def mul_base(self, x) -> "KummerElement":
        """Multiply by a base-ring element (no wrap-around)."""
        xl = LocalizedElement.of(x)
        return KummerElement(
            self.ext, tuple(_Coord(c.elem * xl, c.u2pow) for c in self.coords)
        )

    def galois(self, l: int = 1) -> "KummerElement":
        """The action alpha -> zeta^l alpha: coordinate n picks up zeta^{ln}."""
        z = self.ext.zeta_powers
        q = self.ext.degree
        return KummerElement(self.ext, tuple(
            _Coord(c.elem.scale(z[l * n % q]), c.u2pow) if n else c
            for n, c in enumerate(self.coords)
        ))

    def norm(self) -> _Coord:
        """Product of all Galois conjugates; lands in the base (verified).

        Computed down the tower of fixed fields: for step = q/2, q/4, ..., 1,
        acc <- acc * sigma^step(acc).  After a step acc is the norm from the
        extension down to the fixed field of sigma^step, which is spanned by
        the powers alpha^n with q/step | n (after the last step, alpha^0
        alone); every other coordinate must vanish exactly, or
        ArithmeticError is raised.  For q = 4 that is two products, the
        second on coordinates 0 and 2 only, against three generic ones for
        x * sigma(x) * sigma^2(x) * sigma^3(x).

        Each step multiplies every unordered pair n1 <= n2 of the
        coordinates of the fixed field reached so far once, zeros included:
        all of them at the first step, then those of the last step's fixed
        field, since the others are exact zeros (below).  The ordered pairs
        (n1, n2) and (n2, n1) of x * sigma^s(x) are x_n1 x_n2 times
        zeta^(s n2) and zeta^(s n1), so the pair enters with the weight
        w = zeta^(s n1) + zeta^(s n2), or zeta^(s n1) when n1 = n2.  A pair of
        weight exactly zero cancels and is dropped; for a primitive zeta
        those pairs fill exactly the output coordinates that must vanish,
        which come out as the extension's zero.  The weights are read from
        the extension's own zeta, so a zeta that is not primitive still
        trips the check: with zeta = -1 in degree 4, sigma^2 is the
        identity, the mixed pairs of the first step get weight 2 and the odd
        coordinates do not vanish.  Each tower step is quadratic, so for a
        primitive zeta every weight is the rational integer 1, -1, 2 or -2;
        a weight that is not an integer (zeta = i in degree 2) raises
        ArithmeticError.

        Each step is mostly a sum of squares c_n^2: a diagonal pair enters
        ``_coordinate_products`` as (c_n, c_n) with its weight w, and
        ``ae_dot`` multiplies it as a square, each slot pair once.  A dense degree-4 norm
        takes 9 ``ae_dot`` calls and 212 series products.
        """
        ext = self.ext
        q = ext.degree
        z = ext.zeta_powers
        rad = ext.radicand
        acc = self
        step = q // 2
        fixed = range(q)
        while step:
            groups = [[] for _ in range(q)]
            for i, n1 in enumerate(fixed):
                w1 = z[step * n1 % q]
                for n2 in fixed[i:]:
                    w = w1 if n1 == n2 else w1 + z[step * n2 % q]
                    if w.is_zero():
                        continue
                    if not w.is_rational() or w.rational.denominator != 1:
                        raise ArithmeticError(f"norm weight {w} is not an integer: zeta = {ext.zeta}"
                                              f" is not a primitive root of unity of order {q}")
                    k = int(w.rational)
                    groups[(n1 + n2) % q].append((n1, n2, k, rad if n1 + n2 >= q else None))
            acc = KummerElement(ext, _coordinate_products(ext, acc.coords, acc.coords, groups))
            fixed = range(0, q, q // step)
            for n in range(q):
                if n not in fixed and not acc.coords[n].is_zero():
                    raise ArithmeticError(
                        f"norm to the fixed field of sigma^{step} has a nonzero "
                        f"coordinate {n} (internal inconsistency)"
                    )
            step //= 2
        return acc.coords[0]

    def valuation(self, pt: PrimePoint) -> int:
        """min over coordinates of the prime valuation (unramified formula).

        u2 powers contribute nothing: the scenario validates v(u2) = 0 at
        its points before elements like this exist.  Each nonzero coordinate
        is valued with the least valuation found so far as its bound, so
        after the first one no surviving eps-degree is summed again.  A
        coordinate that vanishes through its own precision P only shows
        v >= P: the minimum is undetermined, and this raises, when no
        coordinate's valuation is known or some such P lies below the least
        known one.  The result, value or error, does not depend on the
        order of the coordinates.
        """
        best = vanishing = INF
        for c in self.coords:
            if c.is_zero():
                continue
            P = c.elem.precision
            v = prime_point_valuation(c.elem, pt, min(best, P))
            if v < P:
                best = v
            else:
                vanishing = min(vanishing, P)
        if vanishing < best:
            raise ValueError(
                "order exceeds the eps budget: a coordinate vanishes through "
                f"eps-degree {vanishing}, below every known coordinate valuation"
            )
        if best == INF:
            raise ValueError("element is zero at this precision")
        return best


def _coordinate_products(ext, left: Sequence, right: Sequence, groups: list) -> tuple:
    """Coordinate n is the sum over the entries (n1, n2, w, rad) of groups[n]
    of w * left[n1] * right[n2] * rad, where w is an integer and rad a
    radicand ``_Coord`` or None; an empty group is ext's zero.  ext is the
    extension or grid the coordinates live in, for its ``u2`` and ``zero``.

    Zero coordinates are kept, so a zero known only mod t^w bounds every
    coordinate it enters at t^w, as it bounds the sum with ``*`` and ``+``.
    The entries of a coordinate are brought to the largest u2 power among
    them: an entry below it is lifted by u2 to the difference, its lift.
    The entries are grouped by their small factor F = rad * u2^lift (1 to
    5 slots): each group is one ``localized_dot`` of the pairs (left[n1],
    right[n2]) with the weights w, and the coordinate is one more, of each
    group's sum times its F.  So a diagonal entry of a square (left is
    right, n1 = n2) is the pair (c, c), which ``ae_dot`` multiplies as a
    square.  Each F is built once per call; for rad None and lift 0 it is
    a one as precise as every coordinate, so it cuts no window, and a
    coordinate whose one group has that F is the group's sum.
    """
    elems = [c.elem for c in (*left, *right)]
    one = LocalizedElement(AnalyticElement.one(
        elems[0].cfg, elems[0].chart, max(e.precision for e in elems)))
    factors: dict = {}  # (rad, lift) -> rad * u2^lift
    out = []
    for group in groups:
        if not group:
            out.append(ext.zero)
            continue
        powers = [left[n1].u2pow + right[n2].u2pow + (rad.u2pow if rad else 0)
                  for n1, n2, _w, rad in group]
        top = max(powers)
        by_factor: dict = {}  # (rad, lift) -> ([(left[n1], right[n2])], [w])
        for (n1, n2, w, rad), p in zip(group, powers):
            pairs, weights = by_factor.setdefault((rad, top - p), ([], []))
            pairs.append((left[n1].elem, right[n2].elem))
            weights.append(w)
        sums = []
        for (rad, lift), (pairs, weights) in by_factor.items():
            F = factors.get((rad, lift))
            if F is None:
                F = factors[rad, lift] = _Coord(one if rad is None else rad.elem).lifted(lift, ext.u2)
            sums.append((localized_dot(pairs, weights), F))
        lone = list(by_factor) == [(None, 0)]  # a lone F = one: the sum is the coordinate
        out.append(_Coord(sums[0][0] if lone else localized_dot(sums), top))
    return tuple(out)


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


@dataclass
class DivisionAlgebraCertificate:
    scenario: dict
    table: dict
    norm_law: dict
    excluded_powers: list
    assumptions: list
    verdict: str
    tampered: bool = False

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "valuation_table": self.table,
            "norm_law": self.norm_law,
            "excluded_powers": self.excluded_powers,
            "assumptions": self.assumptions,
            "verdict": self.verdict,
            "tampered": self.tampered,
        }


_EXPECTED_TABLE = {
    "v_f(a)": 1, "v_f(b)": 0, "v_g(a)": 0, "v_g(b)": 1,
    "v_r(a)": 0, "v_r(b)": 1, "v_r'(a)": 1, "v_r'(b)": 0,
}


def certify_division_algebra(sc: Scenario, tamper_b: bool = False,
                             norm_samples: int = 8, seed: int = 42,
                             norm_precision: Optional[int] = None
                             ) -> DivisionAlgebraCertificate:
    """Compute the full valuation table and norm-law evidence.

    With tamper_b the element b is replaced by b^2 throughout the table (a
    deliberate negative control: the table rows for b double and the
    verdict must come out refuted).
    """
    bexp = 2 if tamper_b else 1

    # the rows for b scale by its exponent; the valuations are the scenario's
    table = {name: (bexp if name.endswith("(b)") else 1) * v
             for name, v in sc.bivar_valuations.items()}

    def vpt(num: AnalyticElement, e: int, pt: PrimePoint) -> int:
        return e * (prime_point_valuation(num, pt) - prime_point_valuation(sc.u2, pt))

    table["v_r(a)"] = vpt(sc.rp, 1, sc.pt_r)
    table["v_r(b)"] = vpt(sc.r, bexp, sc.pt_r)
    table["v_r'(a)"] = vpt(sc.rp, 1, sc.pt_rp)
    table["v_r'(b)"] = vpt(sc.r, bexp, sc.pt_rp)

    rows = {
        name: {"computed": got, "expected": _EXPECTED_TABLE[name], "ok": got == _EXPECTED_TABLE[name]}
        for name, got in table.items()
    }

    # norm-valuation law over the full-degree extension of radicand a
    Q = sc.full_degree
    law = {"degree": Q, "samples": 0, "failures": []}
    if Q > 1:
        law.update(norm_law_samples(sc, norm_samples, random.Random(seed), norm_precision))
    law["ok"] = not law["failures"]

    v_r_b = table["v_r(b)"]
    excluded = [m for m in range(1, Q) if (m * v_r_b) % Q != 0]
    all_excluded = len(excluded) == Q - 1

    assumptions = [
        "Eisenstein input recorded from the computed row v_r'(a) = 1",
        "residue separability recorded from v_r(a) = 0 with the root order invertible in K",
        "unramifiedness of the radical extension along r is an inference from those "
        "two facts, not re-proved here",
        "base extension restricted to the trivial case E' = E; the growth of k for "
        "general E' is a configuration knob",
    ]

    ok = all(row["ok"] for row in rows.values()) and law["ok"] and all_excluded
    return DivisionAlgebraCertificate(
        scenario=sc.params(),
        table=rows,
        norm_law=law,
        excluded_powers=excluded,
        assumptions=assumptions,
        verdict="certified" if ok else "refuted",
        tampered=tamper_b,
    )


def random_ring_element(cfg: Configuration, rng, ring: Iterable[int], chart: int,
                        max_zdeg: int = 1, tslots: int = 3) -> AnalyticElement:
    """Small random element supported inside the given index set."""
    ring = sorted(ring)
    zc = {}
    prec = cfg.precision
    for k in ring:
        for n in range(1, max_zdeg + 1):
            if rng.random() < 0.5:
                vals = [0] * prec
                for _ in range(tslots):
                    vals[rng.randrange(min(4, prec))] = rng.randint(-9, 9)
                zc[(k, n)] = cfg.series(vals)
    vals = [0] * prec
    vals[0] = rng.randint(1, 9)  # keep the sample a unit at the point
    for _ in range(tslots - 1):
        vals[rng.randrange(min(4, prec))] = rng.randint(-9, 9)
    return AnalyticElement.from_terms(cfg, chart, cfg.series(vals), zc)


def norm_law_samples(sc: Scenario, count: int, rng,
                     norm_precision: Optional[int] = None) -> dict:
    """The norm-valuation law on ``count`` random elements x of the
    full-degree extension of radicand a = r'/u2 (u2 power 1): v(x r^w) =
    v(x) + w, every Galois conjugate has the valuation of x r^w, and its
    norm has Q times it.

    The law runs over the scenario lifted to the order-4 cyclotomic field
    when the base field lacks the Q-th roots of unity, and rebuilt at
    ``norm_precision`` when that is below the scenario's precision.
    """
    Q = sc.full_degree
    cfg = sc.cfg
    if not cfg.field.has_root_of_unity(Q):
        cfg = lift_configuration(cfg)
    if norm_precision and norm_precision < cfg.precision:
        cfg = Configuration(cfg.field, cfg.centers, norm_precision)
    if cfg is not sc.cfg:
        sc = build_scenario(cfg, sc.i, sc.j, sc.k, sc.q, sc.qprime)
    ext = KummerExtension.create(cfg, sc.j, Q, sc.rp.rebase(sc.j), u2=sc.u2, radicand_u2_power=1)
    ring = frozenset(cfg.indices) - {sc.i}
    failures = []
    r_pows = [AnalyticElement.one(sc.cfg, sc.j, sc.cfg.precision)]
    for _ in range(2):
        r_pows.append(r_pows[-1] * sc.r)
    for case in range(count):
        coords = [
            random_ring_element(sc.cfg, rng, ring, sc.j)
            for _ in range(Q)
        ]
        x = ext.element(coords)
        w = rng.choice([0, 1, 2])
        xw = x.mul_base(r_pows[w]) if w else x
        try:
            v0 = x.valuation(sc.pt_r)
            vw = xw.valuation(sc.pt_r)
            if vw != v0 + w:
                failures.append({"case": case, "check": "power shift", "got": vw, "want": v0 + w})
            for l in range(1, Q):
                vl = xw.galois(l).valuation(sc.pt_r)
                if vl != vw:
                    failures.append({"case": case, "check": f"galois^{l}", "got": vl, "want": vw})
            nx = xw.norm()
            vn = prime_point_valuation(nx.elem, sc.pt_r)
            if vn != Q * vw:
                failures.append({"case": case, "check": "norm law", "got": vn, "want": Q * vw})
        except ValueError as exc:
            failures.append({"case": case, "check": "evaluation", "error": str(exc)})
    return {"samples": count, "failures": failures}


# ---------------------------------------------------------------------------
# the composite-extension grid (only what the norm identity needs)
# ---------------------------------------------------------------------------


class BiRadicalGrid:
    """The algebra base[U, V]/(U^q - a, V^q' - b) on the q x q' basis grid.

    Only enough structure to state the norm identity: the q'-th power of the
    second generator lands back in the base and equals b, and likewise
    U^q = a.  Coordinates reuse the u2-localized presentation.  A product is
    one ``_coordinate_products`` over every pair of cells, zeros included:
    a pair that wraps past U^q, V^q' or both names a, b or a*b (built once
    per grid) as its radicand.
    """

    def __init__(self, sc: Scenario):
        q, qp = sc.q, sc.qprime
        self.u2 = sc.u2
        self.rad_u = _Coord(sc.rp.rebase(sc.j), 1)   # a as r'/u2
        self.rad_v = _Coord(sc.r, 1)                 # b as r/u2
        self.zero = _Coord(AnalyticElement.zero(sc.cfg, sc.j, sc.cfg.precision))
        self.one = _Coord(AnalyticElement.one(sc.cfg, sc.j, sc.cfg.precision))
        self.cells = [(u, v) for u in range(q) for v in range(qp)]
        rads = {(False, False): None, (True, False): self.rad_u, (False, True): self.rad_v,
                (True, True): _Coord(self.rad_u.elem * self.rad_v.elem, 2)}
        self.groups = [[] for _ in self.cells]
        for n1, (u1, v1) in enumerate(self.cells):
            for n2, (u2, v2) in enumerate(self.cells):
                u, v = u1 + u2, v1 + v2
                self.groups[u % q * qp + v % qp].append((n1, n2, 1, rads[u >= q, v >= qp]))

    def element(self, entries: dict) -> dict:
        out = {cell: self.zero for cell in self.cells}
        for key, val in entries.items():
            out[key] = val if isinstance(val, _Coord) else _Coord(val)
        return out

    def mul(self, x: dict, y: dict) -> dict:
        left = [x[cell] for cell in self.cells]
        right = [y[cell] for cell in self.cells]
        return dict(zip(self.cells, _coordinate_products(self, left, right, self.groups)))

    def power(self, x: dict, e: int) -> dict:
        out = self.element({(0, 0): self.one})
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def is_base_constant(self, x: dict, value: _Coord) -> bool:
        for key, c in x.items():
            if key == (0, 0):
                if not c.equals(value, self.u2):
                    return False
            elif not c.is_zero():
                return False
        return True


def grid_norm_identity(sc: Scenario) -> dict:
    """The composite-grid checks behind "b is a norm from the tower".

    s' (the second radical generator) has s'^{q'} = b, which is exactly its
    norm from the top of the tower down to the grid base since the Galois
    action fixes it there; same for the first generator and a.
    """
    grid = BiRadicalGrid(sc)
    s_prime = grid.element({(0, 1): grid.one})
    s_gen = grid.element({(1, 0): grid.one})
    got_b = grid.power(s_prime, sc.qprime)
    got_a = grid.power(s_gen, sc.q)
    return {
        "s_prime_power_is_b": grid.is_base_constant(got_b, grid.rad_v),
        "s_power_is_a": grid.is_base_constant(got_a, grid.rad_u),
    }


# ---------------------------------------------------------------------------
# quaternions (the q = q' = 2 symbol algebra, sanity layer)
# ---------------------------------------------------------------------------


def quaternion_mul(x: Sequence, y: Sequence, a, b) -> tuple:
    """Product in the quaternion algebra with i^2 = a, j^2 = b, ji = -ij.

    Coordinates are over any commutative ring with +, *, unary -; the
    basis is (1, i, j, ij).
    """
    if len(x) != 4 or len(y) != 4:
        raise ValueError("quaternions have four coordinates")
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    ab = a * b
    return (
        x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3),
        x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2),
        x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1),
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def quaternion_norm(x: Sequence, a, b):
    """Reduced norm x0^2 - a x1^2 - b x2^2 + ab x3^2."""
    x0, x1, x2, x3 = x
    return x0 * x0 - a * (x1 * x1) - b * (x2 * x2) + (a * b) * (x3 * x3)
