"""Integer vectors over Z and Z[i]: the arithmetic every exact container
shares.

A value over K = Q or Q(i) is held as integer numerators over one positive
denominator, split into components: one integer vector over Q, and a pair
(re, im) over Q(i), where i^2 = -1.  This module is the only code that knows
that layout and the product rule of Z[i],

    re += xr yr - xi yi,    im += xr yi + xi yr.

``coord_mul`` applies it to single coordinate vectors.  ``apply_rule``
applies it to component vectors through a real kernel, run once per pair of
nonempty components, so a real factor over Q(i) costs what it costs over Q.
A kernel takes (out, x, y, arg, scale) and adds scale * x * y into the
components out.  Every kernel here runs its real loop directly over Q and
hands itself to ``apply_rule`` over Q(i).

The packed form (Kronecker substitution) turns an integer vector into the
single integer sum c_i 2^(w i), so one integer product of two packed
t-series is their whole convolution, and one integer multiply-add scales a
whole vector.  The slot width w is a multiple of 64 with every slot of a
result below 2^(w-1) in magnitude (``width``).  Sums and products are
exact modulo 2^(w count), so a packed value may be kept as any integer
congruent to it; ``unpack`` reads its lowest ``count`` signed slots back
exactly.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence


def coord_mul(x: Sequence, y: Sequence) -> tuple:
    """Product of coordinate vectors: one entry over Q, (a, b) for a + b i
    over Q(i).  The entries may be Fractions, integers or packed integer
    rows."""
    if len(x) == 1:
        return (x[0] * y[0],)
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def apply_rule(kernel, out, x, y, arg, scale) -> None:
    """out += scale * x * y through a real kernel(out, x, y, arg, scale),
    where arg is the kernel's own parameter (a precision, a bound or a
    range): over Q one call, over Q(i) the Z[i] rule, one call per pair of
    nonempty components of x and y, each on one component of out, x and y,
    with the scale negated for xi yi."""
    if len(out) == 1:
        return kernel(out, x, y, arg, scale)
    (re, im), (xr, xi), (yr, yi) = out, x, y
    if xr:
        if yr:
            kernel((re,), (xr,), (yr,), arg, scale)
        if yi:
            kernel((im,), (xr,), (yi,), arg, scale)
    if xi:
        if yr:
            kernel((im,), (xi,), (yr,), arg, scale)
        if yi:
            kernel((re,), (xi,), (yi,), arg, -scale)


def _nonzero(comps) -> list:
    """Dense components for ``apply_rule``, each all-zero one replaced by ()."""
    return [c if any(c) else () for c in comps]


# -- integer form ------------------------------------------------------------


def to_ints(vectors: Iterable) -> tuple[list, int]:
    """Integer form of Fraction coordinate vectors over one denominator:
    (numerator tuples, the lcm of all denominators)."""
    vectors = list(vectors)
    den = lcm(1, *(c.denominator for v in vectors for c in v))
    return [tuple(c.numerator * (den // c.denominator) for c in v) for v in vectors], den


def scalar_ints(coords) -> tuple[tuple, int]:
    """(numerators, denominator) of one scalar's coordinates."""
    (nums,), den = to_ints([coords])
    return nums, den


def content(den: int, vectors: Iterable) -> int:
    """gcd of den and every entry of the integer vectors."""
    g = den
    for v in vectors:
        if g == 1:
            break
        g = gcd(g, *v)
    return g


def normalize(den: int, comps) -> tuple[int, tuple]:
    """(den, comps) in lowest terms, as tuples."""
    g = content(den, comps)
    if g > 1:
        return den // g, tuple(tuple(x // g for x in c) for c in comps)
    return den, tuple(map(tuple, comps))


def combine(xden: int, x, yden: int, y, sign: int = 1) -> tuple[int, list]:
    """x/xden + sign * y/yden as (den, comps) over den = lcm(xden, yden);
    each component is cut to the shorter of the two."""
    g = gcd(xden, yden)
    a, b = yden // g, sign * (xden // g)
    return xden // g * yden, [[a * u + b * v for u, v in zip(cx, cy)] for cx, cy in zip(x, y)]


# -- kernels -----------------------------------------------------------------


def scaled(nums, comps) -> list:
    """comps times the scalar nums, as fresh lists.  Over Q(i) a real or
    purely imaginary scalar multiplies by its nonzero component only."""
    if len(comps) == 1:
        a = nums[0]
        return [[a * x for x in comps[0]]]
    out = [[0] * len(c) for c in comps]
    add_scaled_into(out, comps, nums, len(out[0]), 1)
    return out


def add_scaled_into(out, x, nums, lim: int, scale: int) -> None:
    """out += scale * nums * x on the first lim entries, nums a scalar."""
    if len(out) == 2:
        return apply_rule(add_scaled_into, out, _nonzero(x), nums, lim, scale)
    a = nums[0] * scale
    comp, src = out[0], x[0]
    for n in range(lim):
        v = src[n]
        if v:
            comp[n] += a * v


def add_columns_into(out, x, cols, span: range, scale: int) -> None:
    """out[b][m] += scale * x[m] * cols[b][m] for every block b of packed
    columns and every m in span: one integer multiply-add per entry of x
    and block.  A component of out or cols is a tuple of blocks, one list
    over m each; an empty tuple is an all-zero component."""
    if len(out) == 2:
        return apply_rule(add_columns_into, out, _nonzero(x), cols, span, scale)
    blocks, src = tuple(zip(out[0], cols[0])), x[0]
    for m in span:
        v = src[m]
        if v:
            v *= scale
            for acc, col in blocks:
                acc[m] += v * col[m]


def terms(comps) -> tuple:
    """The nonzero terms (n, a) of each component, in order of degree."""
    if len(comps) == 1:
        return [(n, a) for n, a in enumerate(comps[0]) if a],
    re, im = comps
    return ([(n, a) for n, a in enumerate(re) if a],
            [(n, a) for n, a in enumerate(im) if a])


def mul_into(out, xt: tuple, yt: tuple, prec: int, scale: int = 1) -> None:
    """out += scale * x * y mod t^prec, a truncated convolution.

    x and y come as their ``terms``, scaled to their own denominators,
    which the caller accounts for in ``scale``.  One real loop multiplies
    every pair of terms below t^prec.
    """
    if len(out) == 2:
        return apply_rule(mul_into, out, xt, yt, prec, scale)
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


# -- packed form -------------------------------------------------------------


def mag(comps) -> int:
    """The largest magnitude in nonempty integer vectors."""
    m = 0
    for c in comps:
        m = max(m, max(c), -min(c))
    return m


def width(bound: int) -> int:
    """Slot width for packed vectors whose slots have magnitude at most
    ``bound``: the least multiple of 64 above its bit length, so every slot
    lies in [-2^(w-1), 2^(w-1)) and ``unpack`` reads it exactly."""
    return (bound.bit_length() // 64 + 1) * 64


def pack(row, w: int) -> int:
    """The integer sum row[i] * 2^(w i); entries may be negative."""
    v = 0
    for c in reversed(row):
        v = (v << w) + c
    return v


@lru_cache(maxsize=512)
def _bias(w: int, count: int) -> tuple:
    """(sum of 2^(w-1) 2^(w i) for i < count, 2^(w count) - 1)."""
    half = b"\x00" * (w // 8 - 1) + b"\x80"
    return int.from_bytes(half * count, "little"), (1 << w * count) - 1


def unpack(v: int, w: int, count: int) -> list:
    """The lowest ``count`` signed w-bit slots of a packed integer, w a
    multiple of 64; none for count <= 0."""
    if count <= 0:
        return []
    bias, mask = _bias(w, count)
    return _slots((v + bias) & mask, w, count)


def _slots(u: int, w: int, count: int) -> list:
    """The slots of a packed integer whose slots were all biased by
    2^(w-1): each is then a nonnegative w-bit number with no borrow from
    the slot below, read from the 64-bit limbs of u."""
    limbs = array("Q", u.to_bytes(w * count // 8, "little"))
    half = 1 << (w - 1)
    if w == 64:
        return [x - half for x in limbs]
    if w == 128:
        return [(lo | hi << 64) - half for lo, hi in zip(limbs[::2], limbs[1::2])]
    raw, step = limbs.tobytes(), w // 8
    return [int.from_bytes(raw[i:i + step], "little") - half for i in range(0, len(raw), step)]
