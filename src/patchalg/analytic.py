"""Canonical forms for the analytic subrings of K((X,Y)) attached to a
family of distinct centers.

Fix distinct scalars c_0, ..., c_{r-1} and put z_i = Y/(X - c_i Y).  Working
in the chart j means writing everything over the uniformizer t = X - c_j Y.
An element is stored as

    f = f0(t) + sum_{k, n >= 1} f_{k,n}(t) * z_k^n

with all coefficient series truncated at the same t-precision.  This
presentation is unique, so equality of elements is equality of stored data
(after aligning charts), and the order valuation of f is the minimum of the
t-orders of the stored series.

The multiplication kernel rests on the partial-fraction identity

    z_i * z_j = z_i/(c_i - c_j) + z_j/(c_j - c_i)        (i != j)

which keeps products of canonical forms canonical.  A product collects its
cross terms z_i^a z_j^b per index pair in a grid and reduces each grid once,
by one sweep from the highest a + b down that applies the identity to every
cell (see ``ae_dot``).

Chart changes use t_j = (1 + (c_{j'} - c_j) z_{j'}) * t_{j'}.  The
substitution keeps the t-degree, so the t'^m coefficient of a rebased
element depends only on the t^m coefficients of the input: for each source
slot z_k^n a transfer table holds, per m, the canonical form of
z_k^n (1 + delta z_{j'})^m (see ``rebase``).

The transfer tables are Kronecker-packed (``intvec.pack``): a column over
its target slots is one integer whose w-bit slots hold the weights, so a
chart change is one integer multiply-add per source coefficient, and each
target is unpacked once.  The slot width comes from a bound on the outputs
taken before the arithmetic, so every result is exact.

Everything here is immutable and pure; configurations carry memo tables for
the rewrite coefficients and the transfer tables, but those are write-once
caches (a transfer table only grows, by appending columns or widening its
slots).
"""

from __future__ import annotations

from itertools import repeat
from math import comb, gcd, lcm
from typing import Iterable, Optional, Sequence

from .intvec import (
    add_columns_into, add_scaled_into, content, coord_mul, mag, mul_into, pack, scalar_ints,
    terms, unpack, width,
)
from .scalars import FieldDescriptor, FieldError, Scalar
from .series import (
    INF, NonUnitError, RegularityError, TruncSeries, newton_inverse, poly_simple_root,
)

__all__ = [
    "ChartError",
    "SupportError",
    "UnitNotRecognized",
    "PrimePointError",
    "Configuration",
    "default_configuration",
    "AnalyticElement",
    "LocalizedElement",
    "PrimePoint",
    "z_generator",
    "embed_xy",
    "t_element",
    "chart_ratio_unit",
    "split",
    "membership",
    "unit_invert",
    "weierstrass_prepare_linear",
    "prime_point_valuation",
    "random_element",
]


class ChartError(ValueError):
    """Operands disagree about chart or configuration."""


class SupportError(ValueError):
    """Element supported outside the set an operation requires."""


class UnitNotRecognized(ArithmeticError):
    """Input is outside the recognized unit classes.

    This is *not* a certificate of non-invertibility; it only says the
    recognizer does not know the element's inverse.
    """


class PrimePointError(ValueError):
    """Prime-point construction rejected (non-unit substitution denominator)."""


class Configuration:
    """The ambient data: coefficient field, centers, working precision."""

    def __init__(self, field: FieldDescriptor, centers: Sequence, precision: int = 16):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.field = field
        self.centers = tuple(
            c if isinstance(c, Scalar) else Scalar.of(field, c) for c in centers
        )
        for c in self.centers:
            if c.field != field:
                raise FieldError("center over a different field")
        for a in range(len(self.centers)):
            for b in range(a + 1, len(self.centers)):
                if self.centers[a] == self.centers[b]:
                    raise ValueError("centers must be distinct")
        self.precision = precision
        self._rwi_cache: dict = {}
        self._transfer_cache: dict = {}

    @property
    def indices(self) -> range:
        return range(len(self.centers))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self.field == other.field
            and self.centers == other.centers
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.field, self.centers, self.precision))

    def __repr__(self) -> str:
        cs = ", ".join(str(c) for c in self.centers)
        return f"Configuration({self.field.describe()}, centers=[{cs}], N={self.precision})"

    def to_dict(self) -> dict:
        return {
            "field": {"kind": self.field.kind, "m": self.field.m},
            "centers": [str(c) for c in self.centers],
            "precision": self.precision,
        }

    # -- series factories ---------------------------------------------------

    def zero_series(self, prec: Optional[int] = None) -> TruncSeries:
        return TruncSeries.zero(self.field, prec or self.precision)

    def one_series(self, prec: Optional[int] = None) -> TruncSeries:
        return TruncSeries.one(self.field, prec or self.precision)

    def series(self, values: Iterable, prec: Optional[int] = None) -> TruncSeries:
        return TruncSeries.from_scalars(self.field, values, prec or self.precision)

    def t_series(self, e: int = 1, prec: Optional[int] = None, coeff=1) -> TruncSeries:
        return TruncSeries.t_power(self.field, e, prec or self.precision, coeff)

    def scalar(self, v) -> Scalar:
        return v if isinstance(v, Scalar) else Scalar.of(self.field, v)

    # -- the cross-term rewrite ----------------------------------------------

    def rewrite(self, i: int, a: int, j: int, b: int) -> dict:
        """Reduction of z_i^a * z_j^b (i != j) to pure powers.

        Returns a map (index, exponent) -> Scalar.  In s = X/Y, z_k is
        1/(s - c_k), so this is the partial-fraction decomposition of
        1/((s - c_i)^a (s - c_j)^b): with delta = c_i - c_j, the coefficient
        of z_i^r (1 <= r <= a) is (-1)^(a-r) C(a+b-r-1, a-r) delta^-(a+b-r),
        and that of z_j^r is the same with a, b swapped and -delta for delta.
        """
        if i == j:
            raise ValueError("rewrite is only for distinct indices")
        one = Scalar.one(self.field)
        if a == 0:
            return {(j, b): one} if b else {}
        if b == 0:
            return {(i, a): one}
        out: dict = {}
        delta = self.centers[i] - self.centers[j]
        for k, x, y, d in ((i, a, b, delta), (j, b, a, -delta)):
            inv = d.inverse()
            p = inv ** y  # delta^-(x+y-r) at r = x
            for r in range(x, 0, -1):
                c = comb(x + y - r - 1, x - r)
                out[(k, r)] = Scalar.of(self.field, c if (x - r) % 2 == 0 else -c) * p
                p = p * inv
        return out

    def rewrite_ints(self, i: int, a: int, j: int, b: int) -> tuple:
        """rewrite() with coefficients pre-converted to (nums, den) integers."""
        key = (i, a, j, b)
        hit = self._rwi_cache.get(key)
        if hit is None:
            hit = tuple(
                (kn, *scalar_ints(c.coords)) for kn, c in self.rewrite(i, a, j, b).items()
            )
            self._rwi_cache[key] = hit
        return hit

    # -- chart-change transfer tables ------------------------------------------

    def transfer(self, j: int, j2: int, k: Optional[int], n: int, length: int) -> "_TransferTable":
        """The packed weights of the chart change j -> j2 on the source slot
        z_k^n (the f0 slot is k None, n 0), with at least ``length``
        columns.  Weights do not depend on the precision, so one table per
        (j, j2, k, n) is cached and extended."""
        key = (j, j2, k, n)
        table = self._transfer_cache.get(key)
        if table is None:
            table = self._transfer_cache[key] = _TransferTable(self, j, j2, k, n)
        table.extend(length)
        return table


def default_configuration(precision: int = 16) -> Configuration:
    from .scalars import QQ

    return Configuration(QQ, [0, 1, 2], precision)


class _TransferTable:
    """Weights of the chart change j -> j2 on one source slot z_k^n.

    Column m is the canonical form of z_k^n (1 + delta z_j2)^m, delta =
    c_j2 - c_j (for the f0 slot, k None, of (1 + delta z_j2)^m).  Column
    m + 1 is column m times 1 + delta z_j2, where multiplying by z_j2

    * moves the f0 slot to (j2, 1) and each (j2, p) to (j2, p + 1);
    * takes the z_k-part through one suffix sweep with
      z_k^p z_j2 = beta^p z_j2 - sum_{r=1..p} beta^(p-r+1) z_k^r,
      beta = 1 / (c_j2 - c_k).

    Only f0, (k, 1..n) and (j2, 1..n+m) occur, so a table of length P costs
    O(P (P + n)) integer operations.  Only the column being stepped is kept
    as a dict (``col`` over ``cden``).  Every column is stored packed
    (``intvec.pack``), as numerators over the table's one denominator
    ``den`` at the table's slot width ``w``: per component, ``cols`` holds
    block A, f0 at slot 0 and (j2, p) at slot p, and, for k not in {None,
    j2}, block B, (k, p) at slot p - 1, each a list over m.  An all-zero
    imaginary component is the empty tuple.  ``mag`` bounds every stored
    numerator; ``den`` and ``w`` grow in place as columns are appended or
    a rebase asks for wider slots.
    """

    __slots__ = ("j2", "k", "n", "dn", "dd", "bn", "bd_pow", "cden", "col",
                 "den", "mag", "w", "cols", "length")

    def __init__(self, cfg: Configuration, j: int, j2: int, k: Optional[int], n: int):
        self.j2, self.k, self.n = j2, k, n
        self.dn, self.dd = scalar_ints((cfg.centers[j2] - cfg.centers[j]).coords)
        if k is None or k == j2:
            self.bn, self.bd_pow = None, [1]
        else:
            beta = (cfg.centers[j2] - cfg.centers[k]).inverse()
            self.bn, bd = scalar_ints(beta.coords)
            self.bd_pow = [bd ** e for e in range(n + 1)]
        self.cden = 1
        self.col = {None if k is None else (k, n): [1] + [0] * (cfg.field.dim - 1)}
        self.den, self.mag, self.w, self.length = 1, 0, 64, 0
        blocks = 1 if self.bn is None else 2
        self.cols = [tuple([] for _ in range(blocks))] + [()] * (cfg.field.dim - 1)

    def a_len(self, m: int) -> int:
        """The slots of column m's block A: f0 and (j2, 1..)."""
        return m + 1 + (self.n if self.k == self.j2 else 0)

    def _step(self) -> None:
        """Replace column m by column m + 1."""
        j2, k, n, col = self.j2, self.k, self.n, self.col
        zero = [0] * len(self.dn)
        B = self.bd_pow[-1]
        # z_j2 * column m, over the denominator cden * B
        z = {}
        for slot, v in col.items():
            if slot is None:
                z[(j2, 1)] = [x * B for x in v]
            elif slot[0] == j2:
                z[(j2, slot[1] + 1)] = [x * B for x in v]
        if self.bn is not None:
            # u holds sum_{p >= r} e_p beta^(p-r+1) over cden * bd^(n-r+1)
            u = zero
            for r in range(n, 0, -1):
                e = col.get((k, r), zero)
                u = coord_mul(self.bn, [x * self.bd_pow[n - r] + y for x, y in zip(e, u)])
                z[(k, r)] = [-x * self.bd_pow[r - 1] for x in u]
            z[(j2, 1)] = [x + y for x, y in zip(z.get((j2, 1), zero), u)]
        f = self.dd * B
        new = {slot: [x * f for x in v] for slot, v in col.items()}
        for slot, v in z.items():
            dv = coord_mul(self.dn, v)
            old = new.get(slot)
            new[slot] = dv if old is None else [x + y for x, y in zip(old, dv)]
        den = self.cden * f
        g = content(den, new.values())
        self.cden = den // g
        self.col = {slot: [x // g for x in v] for slot, v in new.items() if any(v)}

    def _store(self) -> None:
        """Append the current column, packed over the table's denominator;
        the stored columns are widened before they are rescaled to it."""
        m, col, dim = self.length, self.col, len(self.cols)
        den = lcm(self.den, self.cden)
        r, f = den // self.den, den // self.cden
        a = [[0] * self.a_len(m) for _ in range(dim)]
        b = [[0] * self.n for _ in range(dim)]
        for slot, v in col.items():
            row, i = (a, 0) if slot is None else (a, slot[1]) if slot[0] == self.j2 else (b, slot[1] - 1)
            for d in range(dim):
                row[d][i] = v[d] * f
        blocks = (a, b)[:len(self.cols[0])]
        top = max(self.mag * r, *(mag(block) for block in blocks if block[0]))
        self.widen(width(top))
        if r != 1:
            for comp in self.cols:
                for block in comp:
                    block[:] = [x * r for x in block]
        self.den, self.mag = den, top
        for d in range(dim):
            if not self.cols[d]:
                if not any(any(block[d]) for block in blocks):
                    continue
                self.cols[d] = tuple([0] * m for _ in blocks)
            for stored, block in zip(self.cols[d], blocks):
                stored.append(pack(block[d], self.w))

    def extend(self, length: int) -> None:
        """Append columns until the table covers m < length."""
        while self.length < length:
            if self.length:
                self._step()
            self._store()
            self.length += 1

    def widen(self, w: int) -> None:
        """Repack every stored column at slot width w, if that is wider."""
        if w <= self.w:
            return
        old, self.w = self.w, w
        for comp in self.cols:
            for i, block in enumerate(comp):
                block[:] = [pack(unpack(x, old, self.n if i else self.a_len(m)), w)
                            for m, x in enumerate(block)]


# ---------------------------------------------------------------------------
# series accumulator and lazy streams (the product kernel and prime points)
# ---------------------------------------------------------------------------


class _SeriesAcc:
    """Mutable common-denominator accumulator for one coefficient series.

    It keeps the layout of ``TruncSeries`` (``den``, ``_c``, ``prec``), so
    one accumulator can be added into another like a series, and products
    are convolved into it by ``intvec.mul_into``.  Its denominator may grow
    past the lowest one mid-sum; ``result`` normalizes.
    """

    __slots__ = ("field", "prec", "den", "_c")

    def __init__(self, field: FieldDescriptor, prec: int):
        self.field = field
        self.prec = prec
        self.den = 1
        self._c = [[0] * prec for _ in range(field.dim)]

    def _merge_den(self, tden: int) -> int:
        if tden == self.den:
            return 1
        g = gcd(self.den, tden)
        new_den = self.den // g * tden
        f_self = new_den // self.den
        if f_self != 1:
            for comp in self._c:
                for n in range(self.prec):
                    if comp[n]:
                        comp[n] *= f_self
        self.den = new_den
        return new_den // tden

    def add_product(self, x: TruncSeries, y: TruncSeries,
                    xt: Optional[tuple] = None, yt: Optional[tuple] = None,
                    scale: int = 1) -> None:
        """self += scale*x*y mod t^prec; both factors must be at least as
        precise.

        xt and yt are the factors' ``intvec.terms`` (the nonzero terms of
        each component, listed separately), for a caller that multiplies
        one series by many and lists its terms once.  The integer scale is
        a pair's weight k in ``ae_dot``, or 2k on the off-diagonal slot
        pairs of a square.
        """
        if x.prec < self.prec or y.prec < self.prec:
            raise ValueError("factor less precise than the accumulator")
        mul_into(
            self._c,
            terms(x._c) if xt is None else xt,
            terms(y._c) if yt is None else yt,
            self.prec,
            self._merge_den(x.den * y.den) * scale,
        )

    def add_ints(self, ts, nums, sden: int) -> None:
        """self += ts * nums/sden for a TruncSeries or _SeriesAcc ts."""
        f = self._merge_den(ts.den * sden)
        add_scaled_into(self._c, ts._c, nums, min(self.prec, ts.prec), f)

    def is_zero(self) -> bool:
        return all(not any(c) for c in self._c)

    def result(self) -> TruncSeries:
        return TruncSeries(self.field, self.prec, self.den, self._c)


class _Stream:
    """A series whose coefficients are computed on demand, in order, and
    kept.  The coefficient function may read the stream's own lower
    coefficients."""

    __slots__ = ("_coeff", "_memo")

    def __init__(self, coeff):
        self._coeff = coeff
        self._memo = []

    def __getitem__(self, d: int):
        memo = self._memo
        while len(memo) <= d:
            memo.append(self._coeff(len(memo)))
        return memo[d]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class AnalyticElement:
    """A canonical form f0 + sum f_{k,n} z_k^n over a fixed chart."""

    __slots__ = ("cfg", "chart", "f0", "zc")

    def __init__(self, cfg: Configuration, chart: int, f0: TruncSeries, zc: dict):
        if chart not in cfg.indices:
            raise ChartError(f"chart {chart} outside the configured index set")
        prec = f0.prec
        for s in zc.values():
            prec = min(prec, s.prec)
        clean = {}
        for (k, n), s in zc.items():
            if k not in cfg.indices or n < 1:
                raise ValueError(f"bad canonical slot ({k}, {n})")
            s = s.truncate(prec)
            if not s.is_zero():
                clean[(k, n)] = s
        self.cfg = cfg
        self.chart = chart
        self.f0 = f0.truncate(prec)
        self.zc = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(cfg: Configuration, chart: int = 0, prec: Optional[int] = None) -> "AnalyticElement":
        return AnalyticElement(cfg, chart, cfg.zero_series(prec), {})

    @staticmethod
    def one(cfg: Configuration, chart: int = 0, prec: Optional[int] = None) -> "AnalyticElement":
        return AnalyticElement(cfg, chart, cfg.one_series(prec), {})

    @staticmethod
    def constant(cfg: Configuration, value, chart: int = 0, prec: Optional[int] = None):
        return AnalyticElement(
            cfg, chart, TruncSeries.constant(cfg.field, value, prec or cfg.precision), {}
        )

    @staticmethod
    def from_terms(cfg: Configuration, chart: int, f0, zc: dict, prec: Optional[int] = None):
        """Build from a t-series (or scalar) f0 and {(k, n): series-or-scalar}."""
        P = prec or cfg.precision
        if not isinstance(f0, TruncSeries):
            f0 = TruncSeries.constant(cfg.field, f0, P)
        zs = {}
        for kn, v in zc.items():
            zs[kn] = v if isinstance(v, TruncSeries) else TruncSeries.constant(cfg.field, v, P)
        return AnalyticElement(cfg, chart, f0, zs)

    # -- views ---------------------------------------------------------------

    @property
    def precision(self) -> int:
        return self.f0.prec

    def support(self) -> frozenset:
        return frozenset(k for (k, _n) in self.zc)

    def terms(self):
        for (k, n) in sorted(self.zc):
            yield k, n, self.zc[(k, n)]

    def is_zero(self) -> bool:
        return self.f0.is_zero() and not self.zc

    def is_one(self) -> bool:
        return not self.zc and self.f0 == self.cfg.one_series(self.precision)

    def valuation(self):
        """Order valuation: min t-order over stored series (inf when 0 mod t^N)."""
        v = self.f0.vt()
        for s in self.zc.values():
            v = min(v, s.vt())
            if v == 0:
                return 0
        return v

    def zdegree(self) -> int:
        return max((n for (_k, n) in self.zc), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnalyticElement):
            return NotImplemented
        return (
            self.cfg == other.cfg
            and self.chart == other.chart
            and self.f0 == other.f0
            and self.zc == other.zc
        )

    def __hash__(self):
        return hash((self.chart, self.f0, tuple(sorted(self.zc.items()))))

    def equals(self, other: "AnalyticElement") -> bool:
        """Chart-insensitive equality at the common precision."""
        if self.cfg != other.cfg:
            return False
        g = other.rebase(self.chart)
        prec = min(self.precision, g.precision)
        return self.truncate(prec) == g.truncate(prec)

    def _map(self, fn) -> "AnalyticElement":
        """The element with fn applied to every stored series, in this chart."""
        return AnalyticElement(self.cfg, self.chart, fn(self.f0), {kn: fn(s) for kn, s in self.zc.items()})

    def truncate(self, prec: int) -> "AnalyticElement":
        if prec >= self.precision:
            return self
        return self._map(lambda s: s.truncate(prec))

    def widen(self, prec: int) -> "AnalyticElement":
        """The same data read mod t^prec, prec >= precision: every series is
        zero-extended.  This is not the element mod t^prec; it serves
        internal steps whose result is checked or cut at the precision the
        data holds."""
        if prec <= self.precision:
            return self
        return self._map(lambda s: s.widen(prec))

    def __repr__(self) -> str:
        bits = []
        if not self.f0.is_zero():
            bits.append(repr(self.f0))
        for k, n, s in self.terms():
            bits.append(f"{s!r}*z{k}^{n}" if n > 1 else f"{s!r}*z{k}")
        body = " + ".join(bits) if bits else "0"
        return f"AE[chart {self.chart}]({body})"

    # -- ring operations ------------------------------------------------------

    def _aligned(self, other: "AnalyticElement") -> "AnalyticElement":
        if self.cfg != other.cfg:
            raise ChartError("elements from different configurations")
        return other.rebase(self.chart)

    def __add__(self, other: "AnalyticElement") -> "AnalyticElement":
        other = self._aligned(other)
        zc = dict(self.zc)
        for kn, s in other.zc.items():
            zc[kn] = zc[kn] + s if kn in zc else s
        return AnalyticElement(self.cfg, self.chart, self.f0 + other.f0, zc)

    def __sub__(self, other: "AnalyticElement") -> "AnalyticElement":
        other = self._aligned(other)
        zc = dict(self.zc)
        for kn, s in other.zc.items():
            zc[kn] = zc[kn] - s if kn in zc else -s
        return AnalyticElement(self.cfg, self.chart, self.f0 - other.f0, zc)

    def __neg__(self) -> "AnalyticElement":
        return self._map(TruncSeries.__neg__)

    def scale(self, s) -> "AnalyticElement":
        s = self.cfg.scalar(s)
        if s.field != self.cfg.field:
            raise FieldError("scalar over a different field")
        nums, sden = scalar_ints(s.coords)
        return self._map(lambda c: c.scale_ints(nums, sden))

    def scale_series(self, s: TruncSeries) -> "AnalyticElement":
        return self._map(lambda c: c * s)

    def __mul__(self, other: "AnalyticElement") -> "AnalyticElement":
        other = self._aligned(other)
        if self.is_zero() or other.is_zero():
            return AnalyticElement.zero(self.cfg, self.chart, min(self.precision, other.precision))
        if self.is_one():
            return other.truncate(self.precision)
        if other.is_one():
            return self.truncate(other.precision)
        return ae_dot([(self, other)])

    def __pow__(self, e: int) -> "AnalyticElement":
        if e < 0:
            raise ValueError("use unit_invert for negative powers")
        out = AnalyticElement.one(self.cfg, self.chart, self.precision)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def _term_list(self):
        terms = [(None, 0, self.f0)] if not self.f0.is_zero() else []
        terms += [(k, n, s) for (k, n), s in self.zc.items()]
        return terms

    # -- chart change ----------------------------------------------------------

    def rebase(self, to_chart: int) -> "AnalyticElement":
        """The same ring element written over t' = X - c_{j'} Y.

        Substitutes t = (1 + (c_{j'} - c_j) z_{j'}) t'.  That keeps the
        t-degree, so the t'^m coefficient of every target slot is a sum of
        the sources' t^m coefficients times their transfer tables' column m
        (``Configuration.transfer``).  The columns are packed over target
        slots, so each (source slot, t-degree) is one integer multiply-add
        per block: block A (f0 and the z_{j'} slots) is shared by every
        source, block B (the slots z_k^p) by the sources of index k.  All
        sources share one denominator and one slot width, from a bound on
        the sum; each target block is then unpacked once, with the
        t-degrees stacked at a fixed stride, and each slot's series is one
        slice of it.
        """
        if to_chart == self.chart:
            return self
        cfg = self.cfg
        if to_chart not in cfg.indices:
            raise ChartError(f"chart {to_chart} outside the configured index set")
        prec = self.precision
        src = [(k, s, cfg.transfer(self.chart, to_chart, k, n, prec)) for k, n, s in self._term_list()]
        if not src:
            return AnalyticElement.zero(cfg, to_chart, prec)
        den = lcm(*(s.den * t.den for _k, s, t in src))
        dim = cfg.field.dim
        bound = dim * sum(mag(s._c) * (den // (s.den * t.den)) * t.mag for _k, s, t in src)
        w = max(width(bound), *(t.w for _k, _s, t in src))
        blocks: dict = {None: [[0] * prec for _ in range(dim)]}  # None: block A; k: block B of k
        strides = {None: prec + max((t.n for k, _s, t in src if k == to_chart), default=0)}
        for k, s, t in src:
            t.widen(w)
            out = [blocks[None]]
            if len(t.cols[0]) == 2:
                out.append(blocks.setdefault(k, [[0] * prec for _ in range(dim)]))
                strides[k] = max(strides.get(k, 0), t.n)
            add_columns_into(tuple(zip(*out)), s._c, t.cols, range(s.vt(), prec), den // (s.den * t.den))
        f0 = None
        zc = {}
        for k, acc in blocks.items():
            stride = strides[k]
            vals = [unpack(pack(c, w * stride), w, stride * prec) if any(c) else [0] * (stride * prec)
                    for c in acc]
            for i in range(stride):
                comps = [v[i::stride] for v in vals]
                if any(map(any, comps)):
                    series = TruncSeries(cfg.field, prec, den, comps)
                    if k is not None:
                        zc[(k, i + 1)] = series
                    elif i:
                        zc[(to_chart, i)] = series
                    else:
                        f0 = series
        return AnalyticElement(cfg, to_chart, f0 or cfg.zero_series(prec), zc)

    # -- t-power shifts ----------------------------------------------------------

    def shift_t(self, e: int) -> "AnalyticElement":
        """Multiply by t^e.  Negative e needs valuation >= -e and costs precision."""
        if e == 0:
            return self
        if e > 0:
            return self._map(lambda s: s.shift_up(e))
        d = -e
        if self.valuation() < d:
            raise NonUnitError(f"element not divisible by t^{d}")
        return self._map(lambda s: s.shift_down(d))


# ---------------------------------------------------------------------------
# basic element factories
# ---------------------------------------------------------------------------


def ae_dot(pairs, weights=None) -> AnalyticElement:
    """Sum of products f*g over pairs in one accumulation pass, in the chart
    of the first factor.

    The workhorse behind element and matrix products: every series product
    is convolved straight into a shared accumulator (``add_product``), so no
    product is built as a series of its own and nothing is re-canonicalized
    between summands.  Each pair lists the ``intvec.terms`` (per component)
    of its factors' slots once, so a factor that enters several pairs is
    listed once in each.  A product on f0 or on a single index goes to its
    slot.  A cross product z_i^a z_j^b (i < j) goes to cell (a, b) of a
    grid kept per index pair, and after the last product each grid is
    reduced once, from the highest a + b down: by

        z_i^a z_j^b = alpha z_i^a z_j^(b-1) + beta z_i^(a-1) z_j^b,

    with z_i z_j = alpha z_i + beta z_j, cell (a, b) adds alpha times itself
    to (a, b - 1) and beta times itself to (a - 1, b), where (a, 0) is the
    slot z_i^a and (0, b) the slot z_j^b.  That is two accumulator adds per
    cell, where reducing each product by itself would take a + b.

    weights, when given, holds an integer weight k for each pair: the pair
    adds k*f*g.  The weight enters ``add_product``'s integer scale, so no
    factor is scaled as a series.

    A pair whose two factors are one object is a square: its terms are
    listed once, and each unordered slot pair is multiplied once, the
    off-diagonal ones at scale 2k, so a factor of m slots costs m(m+1)/2
    slot products instead of m^2 (Brent and Zimmermann, "Modern Computer
    Arithmetic", 2010, 1.3.6).  The routing is symmetric in the two slots,
    so a pair and its mirror land in one accumulator.  Identity is taken
    before the chart alignment, since ``rebase`` returns a fresh object,
    and a square is rebased once.
    """
    cfg = pairs[0][0].cfg
    chart = pairs[0][0].chart

    def align(h: AnalyticElement) -> AnalyticElement:
        return h if h.chart == chart else h.rebase(chart)

    pairs = [((align(f),) * 2 if f is g else (align(f), align(g))) + (k,)
             for (f, g), k in zip(pairs, repeat(1) if weights is None else weights)]
    prec = min(min(f.precision, g.precision) for f, g, _k in pairs)
    acc0 = _SeriesAcc(cfg.field, prec)
    acc: dict = {}
    grids: dict = {}  # (i, j), i < j -> {(a, b): accumulator of z_i^a z_j^b}

    def get(d: dict, key) -> _SeriesAcc:
        a = d.get(key)
        if a is None:
            a = d[key] = _SeriesAcc(cfg.field, prec)
        return a

    for f, g, k in pairs:
        terms_g = [(k2, n2, s2, s2.vt(), terms(s2._c)) for k2, n2, s2 in g._term_list()]
        square = f is g
        off = 2 * k if square else k
        for i, (k1, n1, s1) in enumerate(f._term_list()):
            v1, t1 = terms_g[i][3:] if square else (s1.vt(), terms(s1._c))
            for d, (k2, n2, s2, v2, t2) in enumerate(terms_g[i:] if square else terms_g):
                if v1 + v2 >= prec:
                    continue
                if k1 is None and k2 is None:
                    a = acc0
                elif k1 is None:
                    a = get(acc, (k2, n2))
                elif k2 is None or k1 == k2:
                    a = get(acc, (k1, n1 + n2))
                elif k1 < k2:
                    a = get(grids.setdefault((k1, k2), {}), (n1, n2))
                else:
                    a = get(grids.setdefault((k2, k1), {}), (n2, n1))
                a.add_product(s1, s2, t1, t2, off if d else k)
    for (i, j), grid in grids.items():
        w = {kn: (nums, den) for kn, nums, den in cfg.rewrite_ints(i, 1, j, 1)}
        alpha, beta = w[(i, 1)], w[(j, 1)]

        def cell(a: int, b: int) -> _SeriesAcc:
            return get(acc, (j, b)) if a == 0 else get(acc, (i, a)) if b == 0 else get(grid, (a, b))

        top_a = max(a for a, _b in grid)
        top_b = max(b for _a, b in grid)
        for s in range(top_a + top_b, 1, -1):
            for a in range(max(1, s - top_b), min(s - 1, top_a) + 1):
                q = grid.get((a, s - a))
                if q is not None:
                    cell(a, s - a - 1).add_ints(q, *alpha)
                    cell(a - 1, s - a).add_ints(q, *beta)
    zc = {kn: a.result() for kn, a in acc.items() if not a.is_zero()}
    return AnalyticElement(cfg, chart, acc0.result(), zc)


def localized_dot(pairs, weights=None) -> "LocalizedElement":
    """Sum of products x*y of localized elements as one ``ae_dot`` over the
    first x's chart, every factor rebased to it as a localized element and
    each x shifted up to the smallest t-shift s = min(x.tshift + y.tshift).
    weights are ``ae_dot``'s integer weights, one per pair; a pair (x, x)
    that needs no shift stays a square.  Zero factors add no term but are
    kept: ``ae_dot``'s window is the minimum over all pairs, so the sum
    claims the precision it has written with ``*`` and ``+``."""
    c = pairs[0][0].chart
    s = min(x.tshift + y.tshift for x, y in pairs)
    return LocalizedElement(
        ae_dot([(x.rebase(c).body.shift_t(x.tshift + y.tshift - s), y.rebase(c).body)
                for x, y in pairs], weights), s
    )


def z_generator(cfg: Configuration, k: int, chart: int = 0, prec: Optional[int] = None) -> AnalyticElement:
    """The generator z_k as a canonical form (chart-independent data)."""
    if k not in cfg.indices:
        raise ValueError(f"no center with index {k}")
    P = prec or cfg.precision
    return AnalyticElement(cfg, chart, cfg.zero_series(P), {(k, 1): cfg.one_series(P)})


def t_element(cfg: Configuration, chart: int, prec: Optional[int] = None) -> AnalyticElement:
    """The chart uniformizer t = X - c_j Y as an element of the chart."""
    return AnalyticElement(cfg, chart, cfg.t_series(1, prec), {})


def embed_xy(cfg: Configuration, poly: dict, chart: int, prec: Optional[int] = None) -> AnalyticElement:
    """Canonical form of a polynomial in X, Y.

    poly maps (a, b) -> coefficient for the monomial X^a Y^b, and the sum
    of the monomials is taken with the ring's own product, from
    Y = z_j t and X = (1 + c_j z_j) t = t + c_j Y.
    """
    P = prec or cfg.precision
    t = t_element(cfg, chart, P)
    Y = z_generator(cfg, chart, chart, P) * t
    X = t + Y.scale(cfg.centers[chart])
    out = AnalyticElement.zero(cfg, chart, P)
    for (a, b), coef in poly.items():
        if a < 0 or b < 0:
            raise ValueError("monomial exponents must be non-negative")
        out = out + (X ** a * Y ** b).scale(coef)
    return out


def chart_ratio_unit(cfg: Configuration, j2: int, j: int, prec: Optional[int] = None) -> AnalyticElement:
    """The unit 1 + (c_{j2} - c_j) z_{j2}; its inverse is 1 + (c_j - c_{j2}) z_j."""
    P = prec or cfg.precision
    delta = cfg.centers[j2] - cfg.centers[j]
    one = cfg.one_series(P)
    if delta.is_zero():
        return AnalyticElement(cfg, j2, one, {})
    return AnalyticElement(
        cfg, j2, one, {(j2, 1): TruncSeries.constant(cfg.field, delta, P)}
    )


# ---------------------------------------------------------------------------
# localized elements (t-shifted)
# ---------------------------------------------------------------------------


class LocalizedElement:
    """t^e * body with e possibly negative (an element after inverting t)."""

    __slots__ = ("body", "tshift")

    def __init__(self, body: AnalyticElement, tshift: int = 0):
        self.body = body
        self.tshift = tshift

    @staticmethod
    def of(x) -> "LocalizedElement":
        return x if isinstance(x, LocalizedElement) else LocalizedElement(x, 0)

    @property
    def cfg(self) -> Configuration:
        return self.body.cfg

    @property
    def chart(self) -> int:
        return self.body.chart

    @property
    def precision(self) -> int:
        return self.body.precision

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def valuation(self):
        v = self.body.valuation()
        return v if v == INF else v + self.tshift

    def support(self) -> frozenset:
        return self.body.support()

    def rebase(self, chart: int) -> "LocalizedElement":
        """The same element over chart c.  The shift e counts powers of the
        chart's own t, and t_j = (1 + (c_c - c_j) z_c) t_c, so the body picks
        up that polynomial unit to the power e, or its inverse
        (1 + (c_j - c_c) z_j)^(-e) for e < 0 (``chart_ratio_unit``)."""
        j, e = self.chart, self.tshift
        if chart == j:
            return self
        body = self.body
        if e < 0:
            body = body * chart_ratio_unit(self.cfg, j, chart, body.precision) ** -e
        body = body.rebase(chart)
        if e > 0:
            body = body * chart_ratio_unit(self.cfg, chart, j, body.precision) ** e
        return LocalizedElement(body, e)

    def __neg__(self) -> "LocalizedElement":
        return LocalizedElement(-self.body, self.tshift)

    def __mul__(self, other) -> "LocalizedElement":
        other = LocalizedElement.of(other).rebase(self.chart)
        return LocalizedElement(self.body * other.body, self.tshift + other.tshift)

    def _common_shift(self, other):
        """(b1, b2, e) with self = t^e b1 and other = t^e b2, over self's chart."""
        other = LocalizedElement.of(other).rebase(self.chart)
        e = min(self.tshift, other.tshift)
        return self.body.shift_t(self.tshift - e), other.body.shift_t(other.tshift - e), e

    def __add__(self, other) -> "LocalizedElement":
        b1, b2, e = self._common_shift(other)
        return LocalizedElement(b1 + b2, e)

    def __sub__(self, other) -> "LocalizedElement":
        b1, b2, e = self._common_shift(other)
        return LocalizedElement(b1 - b2, e)

    def scale(self, s) -> "LocalizedElement":
        return LocalizedElement(self.body.scale(s), self.tshift)

    def as_element(self) -> AnalyticElement:
        """Forget the localization; only legal for non-negative shifts."""
        if self.tshift < 0:
            raise ValueError("negative t-shift: not an element of the unlocalized ring")
        return self.body.shift_t(self.tshift)

    def equals(self, other) -> bool:
        diff = self - LocalizedElement.of(other)
        return diff.is_zero()

    def __repr__(self) -> str:
        return f"t^{self.tshift} * {self.body!r}"


# ---------------------------------------------------------------------------
# support splitting and membership
# ---------------------------------------------------------------------------


def split(f: AnalyticElement, J: Iterable[int], Jp: Iterable[int]) -> tuple[AnalyticElement, AnalyticElement]:
    """Write f = f1 + f2 with f1 supported in J and f2 in J'.

    f must be supported in J ∪ J' (checked as ring membership).  The z-free
    part goes with f1, so the output is deterministic.  Both parts keep
    valuation >= valuation(f); f2 comes back over a J'-chart.
    """
    cfg = f.cfg
    J = frozenset(J)
    Jp = frozenset(Jp)
    if not membership(f, J | Jp):
        raise SupportError("element not supported in the union of the two sides")
    if not J:
        g = f.rebase(min(Jp)) if Jp else f
        return AnalyticElement.zero(cfg, g.chart, f.precision), g
    if not Jp:
        return f.rebase(f.chart if f.chart in J else min(J)), AnalyticElement.zero(
            cfg, f.chart, f.precision
        )
    g = f.rebase(f.chart if f.chart in J else min(J))
    zc1 = {}
    zc2 = {}
    for (k, n), s in g.zc.items():
        (zc1 if k in J else zc2)[(k, n)] = s
    f1 = AnalyticElement(cfg, g.chart, g.f0, zc1)
    f2 = AnalyticElement(cfg, g.chart, cfg.zero_series(g.precision), zc2)
    j2 = g.chart if g.chart in Jp else min(Jp)
    return f1, f2.rebase(j2)


def membership(f: AnalyticElement, J: Iterable[int]) -> bool:
    """Does f lie in the subring A_J generated by {z_k : k in J} (mod t^N)?

    Read off f's own chart c, with no chart change: f lies in A_J exactly
    when every stored slot (k, n) with k != c has k in J, and either c is
    in J or every chart slot (c, n) has t-valuation >= n.  For J = ∅ (the
    plain power-series ring in X, Y) that asks for chart slots alone, each
    of t-valuation >= n.

    The chart's own slots are the exception because z_c^n t^m with m >= n
    is the polynomial Y^n (X - c_c Y)^{m-n}, while below that t-degree the
    slot keeps a pole along X - c_c Y.  Every other slot can be read in
    place: under a chart change c -> c', every target slot of a source
    slot (k, n) lies in {f0, k, c'} (and f0 goes to {f0, c'}), and the
    chart change is invertible, so for k not in {c, c'} the k-part of f is
    zero exactly when the k-part of its image in a J-chart c' is.
    """
    J = frozenset(J)
    c = f.chart
    free = c in J
    for (k, n), s in f.zc.items():
        if k == c:
            if not free and s.vt() < n:
                return False
        elif k not in J:
            return False
    return True


# ---------------------------------------------------------------------------
# unit recognition and inversion
# ---------------------------------------------------------------------------


def _unit_factorization(f: AnalyticElement):
    """Recognize f mod t as c * prod (s - c_l)/(s - c_k) over the centers.

    Returns (c, [(k, l), ...]) with each pair standing for a factor
    1 + (c_k - c_l) z_k whose inverse is 1 + (c_l - c_k) z_l.  Raises
    UnitNotRecognized otherwise.

    The t^0 layer g is a rational function of s with poles only at the
    centers and a numerator of the same degree, so c is its constant term.
    Each step takes the smallest pole index k and multiplies g, mod t, by
    (s - c_k)/(s - c_l) = 1 + (c_l - c_k) z_l (``chart_ratio_unit``) for the
    smallest l that lowers g's pole order, the sum of its top z-powers.  The
    order drops exactly when g vanishes at c_l, so the pairs are the sorted
    poles zipped with the sorted zeros; when no l drops it, g has a zero
    away from the centers.
    """
    cfg = f.cfg
    g = f.truncate(1)
    const = g.f0.coeff(0)
    if const.is_zero():
        raise UnitNotRecognized(
            "reduction mod t has no constant part; not in the recognized unit classes"
        )

    def pole_order(g: AnalyticElement) -> int:
        top: dict = {}
        for k, n in g.zc:
            top[k] = max(top.get(k, 0), n)
        return sum(top.values())

    order = pole_order(g)
    pairs = []
    for _ in range(order):
        k = min(g.support())
        for l in cfg.indices:
            h = g * chart_ratio_unit(cfg, l, k, 1)
            if pole_order(h) < order:
                break
        else:
            raise UnitNotRecognized(
                "t^0 part has a zero or pole away from the configured centers"
            )
        pairs.append((k, l))
        g, order = h, order - 1
    return const, pairs


def unit_invert(f):
    """Invert a recognized unit; AnalyticElement in, AnalyticElement out
    (same for LocalizedElement).

    Recognized classes: constant-times-(1 + t-small) units, chart-ratio
    units (s - c_l)/(s - c_k) against the configured centers, and products
    of those with t-powers (localized input).  Anything else raises
    UnitNotRecognized, which deliberately does not claim non-invertibility.
    The recognized factors leave a unit g = 1 mod t, inverted by
    ``series.newton_inverse`` from 1.
    """
    if isinstance(f, LocalizedElement):
        body = f.body
        shift = f.tshift
        v = body.valuation()
        if v == INF:
            raise UnitNotRecognized("zero to precision")
        if v > 0:
            body = body.shift_t(-v)
            shift += v
        inv = unit_invert(body)
        return LocalizedElement(inv, -shift)
    if not isinstance(f, AnalyticElement):
        raise TypeError("unit_invert wants an analytic or localized element")
    v = f.valuation()
    if v != 0:
        raise UnitNotRecognized(
            "positive t-order at this precision; invert as a localized element"
        )
    const, pairs = _unit_factorization(f)
    g = f
    inv_parts = []
    for k, l in pairs:
        invf = chart_ratio_unit(f.cfg, l, k, f.precision)  # 1 + (c_l - c_k) z_l
        g = g * invf
        inv_parts.append(invf)
    g = g.scale(const.inverse())
    if not g.truncate(1).is_one():
        raise UnitNotRecognized("recognizer postcondition failed: residual not 1 mod t")
    one = AnalyticElement.one(f.cfg, f.chart, f.precision)
    out = newton_inverse(g, one, one, f.precision).scale(const.inverse())
    for p in inv_parts:
        out = out * p
    return out


# ---------------------------------------------------------------------------
# linear Weierstrass preparation and prime points
# ---------------------------------------------------------------------------


class PrimePoint:
    """A height-one prime z_j - lambda with its substitution data.

    The substitution sends z_j to lambda + eps and, for other indices k in
    the ring support, z_k to (lambda+eps)/(1 + (c_j - c_k)(lambda+eps));
    construction fails if any of those denominators is a non-unit.  The
    image of each power z_k^n is a lazy stream of eps-coefficients, kept on
    the point and extended only as far as a valuation asks, so a valuation
    of value v computes no image coefficient above eps-degree v and a
    repeated one computes none (``prime_point_valuation``).  Beside it a
    second stream keeps each coefficient's ``intvec.terms``, listed the
    first time a valuation reads it, so a repeated valuation lists only its
    own slots.  Every image coefficient has lambda's precision.
    """

    __slots__ = ("cfg", "chart", "lam", "label", "ring_support", "_subst", "_listed")

    def __init__(self, cfg: Configuration, chart: int, lam: TruncSeries, label: str = "custom",
                 ring_support: Optional[Iterable[int]] = None):
        self.cfg = cfg
        self.chart = chart
        self.lam = lam
        self.label = label
        support = frozenset(ring_support) if ring_support is not None else frozenset(cfg.indices)
        if chart not in support:
            raise PrimePointError("chart index must belong to the ring support")
        for k in sorted(support):
            if k == chart:
                continue
            d = cfg.one_series(lam.prec) + lam.scale(cfg.centers[chart] - cfg.centers[k])
            if d.coeff(0).is_zero():
                raise PrimePointError(
                    f"substitution denominator for z_{k} is not a unit "
                    f"(1 + (c_{chart} - c_{k})*lambda vanishes mod t); "
                    "shrink the ring support or move the centers"
                )
        self.ring_support = support
        self._subst: dict = {}
        self._listed: dict = {}

    def __repr__(self) -> str:
        return f"PrimePoint({self.label}: z{self.chart} - lambda, support={sorted(self.ring_support)})"

    def _image(self, k: int, n: int) -> _Stream:
        """The eps-coefficients of the image of z_k^n, keyed (k, n)."""
        out = self._subst.get((k, n))
        if out is None:
            out = self._subst[(k, n)] = self._power(k, n) if n > 1 else self._generator(k)
        return out

    def _image_terms(self, k: int, n: int) -> _Stream:
        """The ``intvec.terms`` of each eps-coefficient of ``_image(k, n)``."""
        out = self._listed.get((k, n))
        if out is None:
            img = self._image(k, n)
            out = self._listed[(k, n)] = _Stream(lambda d: terms(img[d]._c))
        return out

    def _generator(self, k: int) -> _Stream:
        prec = self.lam.prec
        one = self.cfg.one_series(prec)
        if k == self.chart:
            head = (self.lam, one)
            zero = TruncSeries.zero(self.cfg.field, prec)
            return _Stream(lambda m: head[m] if m < 2 else zero)
        # (lambda + eps)/(D + d eps) with D = 1 + d lambda: eps^0 has
        # lambda D^-1, eps^1 has D^-2, and each later degree is the one
        # before times -d D^-1
        d = self.cfg.centers[self.chart] - self.cfg.centers[k]
        dinv = (one + self.lam.scale(d)).invert_unit()
        ratio = dinv.scale(-d)

        def coeff(m: int) -> TruncSeries:
            if m == 0:
                return self.lam * dinv
            if m == 1:
                return dinv * dinv
            return out[m - 1] * ratio

        out = _Stream(coeff)
        return out

    def _power(self, k: int, n: int) -> _Stream:
        """Degree m of z_k^n is sum_{p <= m} z_k^(n-1)[p] z_k[m-p]."""
        low, base = self._image(k, n - 1), self._image(k, 1)
        field, prec = self.cfg.field, self.lam.prec

        def coeff(m: int) -> TruncSeries:
            acc = _SeriesAcc(field, prec)
            for p in range(m + 1):
                a, b = low[p], base[m - p]
                if not (a.is_zero() or b.is_zero()):
                    acc.add_product(a, b)
            return acc.result()

        return _Stream(coeff)


def weierstrass_prepare_linear(p: AnalyticElement, label: str = "custom",
                               ring_support: Optional[Iterable[int]] = None
                               ) -> tuple[PrimePoint, LocalizedElement]:
    """Factor p = (z_j - lambda) * u for p regular of pseudo-degree one.

    p must be a polynomial in its chart generator with unit linear
    coefficient, higher coefficients of positive t-order, and a unit
    constant term (the degenerate vanishing-constant case is rejected
    rather than silently reduced).
    """
    cfg = p.cfg
    j = p.chart
    if not p.support() <= {j}:
        raise SupportError("preparation input must be supported on its own chart")
    d = p.zdegree()
    if d < 1:
        raise RegularityError("input has no z-term")
    prec = p.precision
    coeffs = [p.f0] + [
        p.zc.get((j, n), cfg.zero_series(prec)) for n in range(1, d + 1)
    ]
    if coeffs[0].coeff(0).is_zero():
        raise RegularityError(
            "constant term vanishes mod t; this degenerate case is rejected"
        )
    if coeffs[1].coeff(0).is_zero():
        raise RegularityError("linear coefficient is not a unit mod t")
    for n in range(2, d + 1):
        if coeffs[n].vt() == 0:
            raise RegularityError(
                f"coefficient of degree {n} must have positive t-order"
            )
    z0 = -(coeffs[0].coeff(0) / coeffs[1].coeff(0))
    lam = poly_simple_root(coeffs, z0)
    # synthetic division by (z - lambda)
    u = [None] * d
    u[d - 1] = coeffs[d]
    for n in range(d - 1, 0, -1):
        u[n - 1] = coeffs[n] + lam * u[n]
    rem = coeffs[0] + lam * u[0]
    if not rem.is_zero():
        raise ArithmeticError("synthetic division left a remainder (internal bug)")
    body = AnalyticElement(
        cfg, j, u[0], {(j, n): u[n] for n in range(1, d)}
    )
    b0 = body.truncate(1)
    if b0.zc or b0.f0.is_zero():
        raise ArithmeticError("cofactor failed its unit check (internal bug)")
    pt = PrimePoint(cfg, j, lam, label, ring_support)
    return pt, LocalizedElement(body, 0)


def prime_point_valuation(x, pt: PrimePoint, bound: Optional[int] = None) -> int:
    """Order of vanishing of x along z_j = lambda, or its minimum with bound.

    Accepts analytic or localized elements supported inside the prime's
    ring; t-power shifts contribute nothing (t stays a unit at the point).
    Substituting the point writes x as a polynomial in eps; its eps-degrees
    d = 0, 1, ... below x's precision are summed one at a time, each in one
    accumulator fed by every term's image coefficient of degree d times the
    term's series, and the first degree that survives is returned.  The
    images and their term lists extend only to that degree.  Every degree
    is taken at the lower of f0's precision and lambda's, the precision of
    every image coefficient (f0's alone when x has no z-term).

    With a bound b no larger than x's precision, only the degrees below b
    are summed and min(v, b) is returned: degrees below b that all vanish
    prove v >= b.  A larger bound is no bound.
    """
    x = LocalizedElement.of(x)
    proven = bound is not None and bound <= x.precision
    if x.is_zero():
        if proven:
            return bound
        raise ValueError("element is indistinguishable from 0 at this precision")
    body = x.body.rebase(pt.chart)
    if not body.support() <= pt.ring_support:
        raise SupportError(
            f"element supported on {sorted(body.support())} but the prime only "
            f"substitutes {sorted(pt.ring_support)}"
        )
    top = bound if proven else body.precision
    images = [(pt._image(k, n), pt._image_terms(k, n), s, terms(s._c))
              for k, n, s in body.terms()] if top else []
    prec = min(body.f0.prec, pt.lam.prec) if images else body.f0.prec
    field = body.cfg.field
    for d in range(top):
        acc = _SeriesAcc(field, prec)
        if d == 0:
            acc.add_ints(body.f0, (1,) + (0,) * (field.dim - 1), 1)
        for img, listed, s, ts in images:
            c = img[d]
            if not c.is_zero():
                acc.add_product(c, s, listed[d], ts)
        if not acc.is_zero():
            return d
    if proven:
        return bound
    raise ValueError(
        "order exceeds the eps budget (or the element vanishes at this precision)"
    )


# ---------------------------------------------------------------------------
# seeded random elements (shared by the verification suites)
# ---------------------------------------------------------------------------


def random_element(cfg: Configuration, rng, chart: Optional[int] = None,
                   support: Optional[Iterable[int]] = None, max_zdeg: int = 4,
                   coeff_bound: int = 9, prec: Optional[int] = None,
                   tdeg: Optional[int] = None) -> AnalyticElement:
    """A seeded random canonical form (coefficients uniform in [-bound, bound])."""
    P = prec or cfg.precision
    if chart is None:
        chart = rng.choice(list(cfg.indices))
    if support is None:
        support = [k for k in cfg.indices if rng.random() < 0.6]
    T = P if tdeg is None else min(tdeg, P)

    def rand_series():
        vals = [rng.randint(-coeff_bound, coeff_bound) for _ in range(T)]
        return cfg.series(vals + [0] * (P - T), P)

    zc = {}
    for k in support:
        for n in range(1, max_zdeg + 1):
            if rng.random() < 0.5:
                zc[(k, n)] = rand_series()
    return AnalyticElement(cfg, chart, rand_series(), zc)
