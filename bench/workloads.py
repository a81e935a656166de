"""The benchmark's three request streams and their exact checks.

Every request kind has four parts:

- ``make(ctx, rng, shape)`` draws the request's inputs from the workload
  RNG with patchalg's public constructors (set-up time, untimed);
- ``compute(ctx, inp)`` is the work the program does for the request;
- ``check(ctx, inp, out)`` verifies ``out`` exactly through an identity that
  does not trust ``out`` (timed together with ``compute``);
- ``corrupt(ctx, inp, out)`` returns a deliberately wrong ``out`` that
  ``check`` must reject; the self-test feeds it to every checker.

Requests come in blocks of 20.  A block is a design: a list of
``(kind, shape)`` slots that holds the workload's mix exactly, in an order
set by a constant RNG.  A slot's shape fixes what drives its cost (the
charts and z-slots of ring-ops elements, the r-power, root order and
z-slots of kummer-qi requests, the matrix size, index and z-slots of cartan
matrices); the workload seed draws everything else: the coefficients, and
the chart of a hensel input and the seed of a certificate.  Each block of a
stream has its own design, drawn from the same constant RNG, so a stream
holds many shapes, and every seed runs the same shapes on different
coefficients.  Without the design, one run's mean request cost moved with
the seed by more than the bound the benchmark may set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import patchalg as pa

BLOCK = 20
NONZERO = [c for c in range(-9, 10) if c]


@dataclass(frozen=True)
class Kind:
    name: str
    per_block: int  # requests of this kind in each block of BLOCK
    make: Callable
    compute: Callable
    check: Callable
    corrupt: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # () -> ctx (configuration and shared constants)
    kinds: tuple
    shapes: Callable  # (ctx, kind, design rng) -> kind.per_block shapes

    def _designed(self, ctx, design: random.Random) -> list:
        """One block's slots, kind by kind in the order each kind designed them."""
        out = [(k, s) for k in self.kinds for s in self.shapes(ctx, k, design)]
        if len(out) != BLOCK:
            raise ValueError(f"{self.name}: the mix must fill a block of {BLOCK}")
        return out

    def blocks(self, ctx, count: int) -> list:
        """``count`` blocks of BLOCK ``(kind, shape)`` slots, each its own design."""
        design = random.Random(f"{self.name}-design")
        out = []
        for _ in range(count):
            slots = self._designed(ctx, design)
            design.shuffle(slots)
            out.append(slots)
        return out

    def stream(self, ctx, rng: random.Random, count: int) -> list:
        """``count`` requests ``(kind, inputs)``, block after block."""
        slots = [s for b in self.blocks(ctx, -(-count // BLOCK)) for s in b]
        return [(k, k.make(ctx, rng, shape)) for k, shape in slots[:count]]

    def warmup(self, ctx, rng: random.Random) -> list:
        """One request of each kind, with the first shape that kind designed."""
        first = {}
        for k, shape in self._designed(ctx, random.Random(f"{self.name}-design")):
            first.setdefault(k.name, (k, shape))
        return [(k, k.make(ctx, rng, shape)) for k, shape in first.values()]


def run_request(ctx, kind: Kind, inp) -> bool:
    """Compute and verify one request; False on a failed check."""
    return bool(kind.check(ctx, inp, kind.compute(ctx, inp)))


def spread(values, m: int) -> list:
    """m values spread evenly over ``values`` (midpoint quantiles)."""
    values = list(values)
    return [values[int((k + 0.5) * len(values) / m)] for k in range(m)]


def perturb(x: pa.AnalyticElement) -> pa.AnalyticElement:
    """x plus t^(N-1): wrong only in the last coefficient the window keeps."""
    p = x.precision
    return pa.AnalyticElement(x.cfg, x.chart, x.f0 + x.cfg.t_series(p - 1, p), x.zc)


def _corrupt_elem(ctx, inp, out):
    return perturb(out)


def _in_subring(m: pa.PatchMatrix, J) -> bool:
    return all(pa.membership(x.body, J) for row in m.rows for x in row)


# ---------------------------------------------------------------------------
# ring-ops: Q, centers 0/1/2, N = 16; element z-degrees 1..5
# ---------------------------------------------------------------------------

ARITY = {"mul": 2, "add": 2, "roundtrip": 1, "split": 1, "oracle": 2}


def _ring_ctx():
    cfg = pa.Configuration(pa.QQ, [0, 1, 2], 16)
    return {"cfg": cfg, "oracle": pa.OracleCache(cfg, 9)}


def _zslots(design, indices, cap: int, support=None) -> tuple:
    """The z-slots random_element fills: each (k, n) with n <= cap with
    probability 1/2, over a support holding each index with probability 0.6."""
    if support is None:
        support = [k for k in indices if design.random() < 0.6]
    return tuple((k, n) for k in support for n in range(1, cap + 1) if design.random() < 0.5)


def _ring_shapes(ctx, kind, design):
    """Per element a chart and its z-slots, with z-degree caps and charts
    spread evenly (over 1..5 and over the centers) across the kind's
    elements; a roundtrip also fixes its target chart, a split its J, J'
    and support as the split suite draws them.  Whether two operands share
    a chart decides whether a product or sum rebases one of them, and the
    z-slots set how much work a rebase is."""
    idx = ctx["cfg"].indices
    m = kind.per_block * ARITY[kind.name]
    caps = spread(range(1, 6), m)
    charts = spread(idx, m)
    design.shuffle(caps)
    design.shuffle(charts)
    if kind.name == "split":
        out = []
        for cap in caps:
            J, Jp = _rand_subset(design, idx), _rand_subset(design, idx)
            if not J | Jp:
                J = frozenset([0])
            union = sorted(J | Jp)
            support = [k for k in union if design.random() < 0.7]
            out.append(((design.choice(union), _zslots(design, idx, cap, support)), J, Jp))
        return out
    elems = [(chart, _zslots(design, idx, cap)) for cap, chart in zip(caps, charts)]
    if kind.name == "roundtrip":
        return [(e, design.choice([j for j in idx if j != e[0]])) for e in elems]
    n = ARITY[kind.name]
    return [tuple(elems[s * n:(s + 1) * n]) for s in range(kind.per_block)]


def _elem(ctx, rng, shape):
    """An element with the shape's chart and z-slots, every coefficient
    drawn as random_element draws it (uniform in [-9, 9])."""
    cfg = ctx["cfg"]
    chart, slots = shape

    def series():
        return cfg.series([rng.randint(-9, 9) for _ in range(cfg.precision)])

    return pa.AnalyticElement(cfg, chart, series(), {s: series() for s in slots})


def _make_pair(ctx, rng, shape):
    return _elem(ctx, rng, shape[0]), _elem(ctx, rng, shape[1])


def _mul(ctx, inp):
    f, g = inp
    return f * g


def _check_mul(ctx, inp, h):
    # commutativity through the other operand order of the product kernel
    f, g = inp
    return (g.rebase(f.chart) * f).equals(h)


def _add(ctx, inp):
    f, g = inp
    return f + g


def _check_add(ctx, inp, s):
    f, g = inp
    return (s - g).equals(f)


def _make_roundtrip(ctx, rng, shape):
    return _elem(ctx, rng, shape[0]), shape[1]


def _roundtrip(ctx, inp):
    f, j = inp
    return f.rebase(j).rebase(f.chart)


def _check_roundtrip(ctx, inp, r):
    return r.chart == inp[0].chart and r.equals(inp[0])


def _rand_subset(rng, pool) -> frozenset:
    return frozenset(k for k in pool if rng.random() < 0.55)


def _make_split(ctx, rng, shape):
    return _elem(ctx, rng, shape[0]), shape[1], shape[2]


def _split(ctx, inp):
    f, J, Jp = inp
    return pa.split(f, J, Jp)


def _check_split(ctx, inp, out):
    f, J, Jp = inp
    f1, f2 = out
    side1 = pa.membership(f1, J) if J else f1.is_zero()
    side2 = pa.membership(f2, Jp) if Jp else f2.is_zero()
    return side1 and side2 and (f1 + f2).equals(f)


def _corrupt_split(ctx, inp, out):
    return perturb(out[0]), out[1]


def _check_oracle(ctx, inp, h):
    f, g = inp
    cache = ctx["oracle"]
    of = pa.oracle_of_element(f, f.chart, cache)
    og = pa.oracle_of_element(g, f.chart, cache)
    return (of * og) == pa.oracle_of_element(h, f.chart, cache)


RING_OPS = Workload("ring-ops", _ring_ctx, (
    Kind("mul", 7, _make_pair, _mul, _check_mul, _corrupt_elem),
    Kind("add", 3, _make_pair, _add, _check_add, _corrupt_elem),
    Kind("roundtrip", 5, _make_roundtrip, _roundtrip, _check_roundtrip, _corrupt_elem),
    Kind("split", 3, _make_split, _split, _check_split, _corrupt_split),
    Kind("oracle", 2, _make_pair, _mul, _check_oracle, _corrupt_elem),
), _ring_shapes)


# ---------------------------------------------------------------------------
# cartan: Q, centers 0/1/2, N = 12; entries distributed as in the cartan suite
# ---------------------------------------------------------------------------


def _cartan_ctx():
    cfg = pa.Configuration(pa.QQ, [0, 1, 2], 12)
    return {"cfg": cfg, "one": pa.AnalyticElement.one(cfg, 0),
            "zero": pa.AnalyticElement.zero(cfg, 0)}


def _slots(rng, support):
    return [(k, m) for k in support for m in (1, 2) if rng.random() < 0.5]


def _cartan_shapes(ctx, kind, design):
    """Matrix size, index i and the z-slots of every entry, as the cartan
    suite draws them: random_element with max_zdeg 2 over a support holding
    each index with probability 0.4 (factor), or, for the one-sided factors
    B1 and B2 of a gl request, each index of J with probability 0.7 and {i}."""
    idx = list(ctx["cfg"].indices)
    sizes = (2, 3) if kind.name == "factor" else (2, 3, 2)
    out = []
    for s in range(kind.per_block):
        n, i = sizes[s % len(sizes)], idx[s % len(idx)]
        if kind.name == "factor":
            out.append((n, i, [[_slots(design, [k for k in idx if design.random() < 0.4])
                                for _ in range(n)] for _ in range(n)]))
        else:
            J = [k for k in idx if k != i]
            side1 = [[_slots(design, [k for k in J if design.random() < 0.7])
                      for _ in range(n)] for _ in range(n)]
            side2 = [[_slots(design, [i]) for _ in range(n)] for _ in range(n)]
            out.append((n, i, side1, side2))
    return out


def _near_identity(ctx, rng, slots, tdeg):
    """1 + t * (entries with the given z-slots and nonzero coefficients of
    t-degree < tdeg).  A zero coefficient would delete a term, which changes
    the shape: it made single requests up to three times cheaper."""
    cfg = ctx["cfg"]

    def series():
        return cfg.series([rng.choice(NONZERO) for _ in range(tdeg)])

    n = len(slots)
    return pa.PatchMatrix([[
        (ctx["one"] if r == c else ctx["zero"])
        + pa.AnalyticElement(cfg, 0, series(), {kn: series() for kn in slots[r][c]}).shift_t(1)
        for c in range(n)] for r in range(n)], 0)


def _make_factor(ctx, rng, shape):
    n, i, slots = shape
    return _near_identity(ctx, rng, slots, 2), i


def _factor(ctx, inp):
    a, i = inp
    res = pa.cartan_factor(a, i)
    return res.b1, res.b2


def _check_factor(ctx, inp, out):
    a, i = inp
    b1, b2 = out
    v0 = a.deviation().min_valuation()
    J = frozenset(ctx["cfg"].indices) - {i}
    return ((b1 * b2).equals(a)
            and _in_subring(b1, J) and _in_subring(b2, {i})
            and b1.deviation().min_valuation() >= v0
            and b2.deviation().min_valuation() >= v0)


def _make_gl(ctx, rng, shape):
    n, i, side1, side2 = shape
    return _near_identity(ctx, rng, side1, 3), _near_identity(ctx, rng, side2, 3), i


def _gl(ctx, inp):
    b1, b2, i = inp
    b = b1 * b2
    res = pa.gl_factor(b, i)
    return b, res.b1, res.b2


def _check_gl(ctx, inp, out):
    i = inp[2]
    b, f1, f2 = out
    J = frozenset(ctx["cfg"].indices) - {i}
    return (f1 * f2).equals(b) and _in_subring(f1, J) and _in_subring(f2, {i})


def _swap_factors(ctx, inp, out):
    return (out[1], out[0]) if len(out) == 2 else (out[0], out[2], out[1])


CARTAN = Workload("cartan", _cartan_ctx, (
    Kind("factor", 17, _make_factor, _factor, _check_factor, _swap_factors),
    Kind("gl", 3, _make_gl, _gl, _check_gl, _swap_factors),
), _cartan_shapes)


# ---------------------------------------------------------------------------
# kummer-qi: Q(i), centers 0/1/2, N = 12, scenario (i,j,k,q,q') = (2,1,3,2,2)
# ---------------------------------------------------------------------------


def _kummer_ctx():
    cfg = pa.Configuration(pa.cyclotomic_field(4), [0, 1, 2], 12)
    sc = pa.build_scenario(cfg, 2, 1, 3, 2, 2)
    ext = pa.KummerExtension.create(cfg, sc.j, sc.full_degree, sc.rp.rebase(sc.j),
                                    u2=sc.u2, radicand_u2_power=1)
    r_pows = [pa.AnalyticElement.one(cfg, sc.j)]
    for _ in range(2):
        r_pows.append(r_pows[-1] * sc.r)
    return {"cfg": cfg, "sc": sc, "ext": ext, "r_pows": r_pows,
            "ring": frozenset(cfg.indices) - {sc.i}}


def _kummer_shapes(ctx, kind, design):
    """norm-law: the power w of r, and per coordinate the indices of the ring
    that carry a z-slot (each with probability 1/2, as random_ring_element
    draws them); hensel: the root order q and the z-exponents of a - 1."""
    if kind.name == "norm-law":
        ring = sorted(ctx["ring"])
        return [(w, [[k for k in ring if design.random() < 0.5]
                     for _ in range(ctx["ext"].degree)])
                for w in spread((0, 1, 2), kind.per_block)]
    if kind.name == "hensel":
        return [(q, [m for m in (1, 2) if design.random() < 0.5])
                for q in spread((2, 4), kind.per_block)]
    return [None] * kind.per_block


def _ring_coord(ctx, rng, ks):
    """A coordinate as random_ring_element builds it (a unit at the point,
    z-slots (k, 1) for k in ks, three t-terms below t^4), but with nonzero
    coefficients so that ks alone sets its terms."""
    cfg = ctx["cfg"]

    def series(lead):
        vals = [0] * cfg.precision
        if lead:
            vals[0] = rng.randint(1, 9)
        for _ in range(3 - lead):
            vals[rng.randrange(4)] = rng.choice(NONZERO)
        return cfg.series(vals)

    return pa.AnalyticElement(cfg, ctx["sc"].j, series(1), {(k, 1): series(0) for k in ks})


def _make_norm(ctx, rng, shape):
    w, coords = shape
    return ctx["ext"].element([_ring_coord(ctx, rng, ks) for ks in coords]), w


def _norm(ctx, inp):
    x, w = inp
    pt = ctx["sc"].pt_r
    xw = x.mul_base(ctx["r_pows"][w]) if w else x
    conj = [xw.galois(l).valuation(pt) for l in range(1, ctx["ext"].degree)]
    return x.valuation(pt), xw.valuation(pt), conj, xw.norm().elem


def _check_norm(ctx, inp, out):
    v0, vw, conj, nrm = out
    vn = pa.prime_point_valuation(nrm, ctx["sc"].pt_r)
    return vw == v0 + inp[1] and all(v == vw for v in conj) and vn == ctx["ext"].degree * vw


def _corrupt_norm(ctx, inp, out):
    return (*out[:3], out[3] * pa.LocalizedElement.of(ctx["sc"].r))


def _make_hensel(ctx, rng, shape):
    q, exps = shape
    cfg = ctx["cfg"]
    c = rng.choice(list(cfg.indices))

    def series():
        return cfg.series([rng.choice(NONZERO) for _ in range(3)])

    bump = pa.AnalyticElement(cfg, c, series(), {(c, m): series() for m in exps}).shift_t(1)
    return pa.AnalyticElement.one(cfg, c) + bump, q


def _hensel(ctx, inp):
    return pa.hensel_root(*inp)


def _check_hensel(ctx, inp, s):
    a, q = inp
    return (s ** q).equals(a) and (s - pa.AnalyticElement.one(a.cfg, a.chart)).valuation() >= 1


def _make_cert(ctx, rng, shape):
    # alternate so that exactly half of the certificates are negative controls
    ctx["certs"] = ctx.get("certs", 0) + 1
    return ctx["certs"] % 2 == 0, rng.randrange(1 << 30)


def _cert(ctx, inp, tamper=None):
    tamper_b, seed = inp
    return pa.certify_division_algebra(ctx["sc"], tamper_b=tamper_b if tamper is None else tamper,
                                       norm_samples=2, seed=seed)


def _check_cert(ctx, inp, cert):
    return cert.verdict == ("refuted" if inp[0] else "certified")


def _corrupt_cert(ctx, inp, cert):
    return _cert(ctx, inp, tamper=not inp[0])


KUMMER_QI = Workload("kummer-qi", _kummer_ctx, (
    Kind("norm-law", 15, _make_norm, _norm, _check_norm, _corrupt_norm),
    Kind("hensel", 4, _make_hensel, _hensel, _check_hensel, _corrupt_elem),
    Kind("certificate", 1, _make_cert, _cert, _check_cert, _corrupt_cert),
), _kummer_shapes)


WORKLOADS = {w.name: w for w in (RING_OPS, CARTAN, KUMMER_QI)}
