"""Digests of benchmark results: kummer-qi norms, Kummer products, Hensel
roots, prime-point valuations or Weierstrass divisions, ring-ops results
and oracle expansions, cartan factors, and inverses of cartan inputs.

    python3 tools/norm_digest.py --seeds 1 2 3
    python3 tools/norm_digest.py --kind product --seeds 1 2 3
    python3 tools/norm_digest.py --kind hensel --seeds 1 2 3
    python3 tools/norm_digest.py --kind valuation --seeds 1 2 3
    python3 tools/norm_digest.py --kind bivar --seeds 1 2 3
    python3 tools/norm_digest.py --kind ring --seeds 1 2 3
    python3 tools/norm_digest.py --kind oracle --seeds 1 2 3
    python3 tools/norm_digest.py --kind cartan --seeds 1 2 3
    python3 tools/norm_digest.py --kind inverse --seeds 1 2 3
    python3 tools/norm_digest.py --kind cartan-qi --seeds 1 2 3

Run from the root of a checkout; the program is imported from ``src/`` and
the requests are the ones ``bench/run.py`` draws for a seed, apart from
``cartan-qi``, which draws its own.  For every request of the chosen kind
it prints the seed, the request's place in the stream and the SHA-256 of
the result's exact data:

* ``norm`` (the default), kummer-qi norm-law requests: the norm's u2
  power, t-shift and the series data of its numerator;
* ``product``, kummer-qi norm-law requests (x, w): every coordinate (u2
  power, t-shift and series data) of the Kummer products x x, x (x r^w)
  and (x r^w) sigma(x);
* ``hensel``, kummer-qi hensel requests: the series data of the root;
* ``valuation``, kummer-qi norm-law and certificate requests: the
  prime-point valuations of x, of x r^w, of its conjugates and of its
  norm, the unbounded valuation of every coordinate of x, of x r^w and
  of each conjugate on its own (None for a zero coordinate), which a
  Kummer valuation bounds by the least one found and may leave unsummed,
  and the whole certificate (valuation table, norm-law evidence,
  verdict);
* ``bivar``, kummer-qi certificate requests: the quotient and remainder
  of every distinct ``weierstrass_div`` a certificate makes on a scenario
  with no cached valuations, in the order first made, each read through
  ``BivarSeries.terms()`` (precision and nonzero coefficients), so the
  digest does not depend on how a series is stored;
* ``ring``, ring-ops mul, add, roundtrip and split requests: the exact
  result (chart, precision and series data of f g, f + g, the pair
  (f1, f2) of a split), and for a roundtrip both f rebased to the target
  chart and the result of rebasing it back;
* ``oracle``, ring-ops mul and oracle requests (f, g): the denominator and
  sorted data of the expansions of f and of g in f's chart (the
  benchmark's ``OracleCache``) and of their ``OracleSeries`` product;
* ``cartan``, cartan factor and gl requests: every entry (t-shift and
  exact series) of the factors b1 and b2 of ``cartan_factor`` or
  ``gl_factor``, and the round count; for a gl request also the result's
  notes (cleared shift, ``det_order``, ``cut_det_order``) and its
  residual precision;
* ``inverse``, cartan factor requests (a, i): every entry of the exact
  inverse ``a.invert_near_identity()``;
* ``cartan-qi``, Cartan factorizations over Q(i), which no workload makes:
  per seed, four 2x2 and four 3x3 matrices 1 + t * (random forms with
  imaginary parts, z-degree up to 2 and t-degree below 3) at N = 12 over
  the centers 0, 1, i, 1/2 + i and -3/2 + i/3, each split at a random
  index; the entries of b1 and b2 of ``cartan_factor`` and the round
  count.

Two checkouts compute identical results when their outputs are identical,
so a change to ``KummerElement.norm``, ``KummerElement.__mul__``, ``hensel_root``,
``prime_point_valuation``, ``weierstrass_div``, ``ae_dot``, ``rebase``,
``split``, ``oracle_of_element``, ``OracleSeries``, ``cartan_factor``,
``gl_factor`` or ``PatchMatrix.invert_near_identity`` (or the series product
under them) is checked by running this script in both and comparing the
outputs.  The ``norm``, ``product`` and
``valuation`` kinds also check ``kummer._coordinate_products`` and ``LocalizedElement``
arithmetic (``*``, ``+``, ``-``, ``rebase`` and ``localized_dot``), which
every Kummer product and norm goes through.  The script is part of the
checkout, so when it changes, copy the newer version into the other
checkout before comparing: two versions digest different data and never
agree.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from run import PASS_REQUESTS  # noqa: E402  (the pool of one run)
from patchalg import series  # noqa: E402
from patchalg.analytic import (  # noqa: E402
    AnalyticElement,
    Configuration,
    prime_point_valuation,
    random_element,
)
from patchalg.oracle import oracle_of_element  # noqa: E402
from patchalg.patching import PatchMatrix, cartan_factor, gl_factor  # noqa: E402
from patchalg.scalars import Scalar, cyclotomic_field  # noqa: E402


def element_data(e) -> list:
    """Chart, precision and the exact series of an analytic element."""
    return [e.chart, e.precision, (e.f0.den, e.f0._c),
            sorted((kn, s.den, s._c) for kn, s in e.zc.items())]


def coord_data(c) -> list:
    """u2 power, t-shift and the exact series of a Kummer coordinate."""
    return [c.u2pow, c.elem.tshift, *element_data(c.elem.body)]


def norm_data(ctx, kind, inp) -> list:
    x, w = inp
    xw = x.mul_base(ctx["r_pows"][w]) if w else x
    return coord_data(xw.norm())


def product_data(ctx, kind, inp) -> list:
    x, w = inp
    xw = x.mul_base(ctx["r_pows"][w]) if w else x
    return [[coord_data(c) for c in p.coords] for p in (x * x, x * xw, xw * x.galois(1))]


def hensel_data(ctx, kind, inp) -> list:
    return element_data(kind.compute(ctx, inp))


def valuation_data(ctx, kind, inp):
    out = kind.compute(ctx, inp)
    if kind.name == "certificate":
        return out.to_dict()
    v0, vw, conj, nrm = out
    x, w = inp
    pt = ctx["sc"].pt_r
    xw = x.mul_base(ctx["r_pows"][w]) if w else x
    elements = [x, xw] + [xw.galois(l) for l in range(1, ctx["ext"].degree)]
    coords = [[None if c.is_zero() else prime_point_valuation(c.elem, pt) for c in y.coords]
              for y in elements]
    return [v0, vw, conj, prime_point_valuation(nrm, pt), coords]


def bivar_series_data(s) -> list:
    """Precision and nonzero coefficients of a bivariate series."""
    return [s.prec, [(key, c.coords) for key, c in s.terms()]]


def bivar_data(ctx, kind, inp) -> list:
    """(q, r) of every distinct Weierstrass division the request makes, in
    the order first made.  The scenario's cached valuations are dropped
    first, so that each request makes its divisions, and a division the
    request repeats is recorded once."""
    divide, seen = series.weierstrass_div, []
    vars(ctx["sc"]).pop("bivar_valuations", None)

    def recorded(g, f):
        q, r = divide(g, f)
        data = [bivar_series_data(q), bivar_series_data(r)]
        if data not in seen:
            seen.append(data)
        return q, r

    series.weierstrass_div = recorded
    try:
        kind.compute(ctx, inp)
    finally:
        series.weierstrass_div = divide
    return seen


def ring_data(ctx, kind, inp) -> list:
    out = kind.compute(ctx, inp)
    if kind.name == "roundtrip":
        f, j = inp
        return [element_data(f.rebase(j)), element_data(out)]
    if kind.name == "split":
        return [element_data(x) for x in out]
    return element_data(out)


def oracle_data(ctx, kind, inp) -> list:
    f, g = inp
    cache = ctx["oracle"]
    of = oracle_of_element(f, f.chart, cache)
    og = oracle_of_element(g, f.chart, cache)
    return [(s.den, sorted(s.data.items())) for s in (of, og, of * og)]


def matrix_data(m) -> list:
    """Chart and the t-shift and exact data of every entry of a matrix."""
    return [m.chart, [[(x.tshift, *element_data(x.body)) for x in row] for row in m.rows]]


def cartan_data(ctx, kind, inp) -> list:
    if kind.name == "factor":
        a, i = inp
        res = cartan_factor(a, i)
        return [matrix_data(res.b1), matrix_data(res.b2), res.rounds]
    b1, b2, i = inp
    res = gl_factor(b1 * b2, i)
    return [matrix_data(res.b1), matrix_data(res.b2), res.rounds,
            sorted(res.notes.items()), res.residual_precision]


def inverse_data(ctx, kind, inp) -> list:
    return matrix_data(inp[0].invert_near_identity())


QI_CENTERS = [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), 1), (Fraction(-3, 2), Fraction(1, 3))]


def cartan_qi_data(seed: int):
    """The place and result data of every cartan-qi request of a seed."""
    qi = cyclotomic_field(4)
    cfg = Configuration(qi, [Scalar.of(qi, a, b) for a, b in QI_CENTERS], 12)
    one, zero, imag = AnalyticElement.one(cfg, 0), AnalyticElement.zero(cfg, 0), Scalar.of(qi, 0, 1)
    rng = random.Random(f"cartan-qi/{seed}")

    def form():
        return random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3)

    for n, size in enumerate((2, 3) * 4):
        a = PatchMatrix([[(one if r == c else zero) + (form() + form().scale(imag)).shift_t(1)
                          for c in range(size)] for r in range(size)], 0)
        res = cartan_factor(a, rng.randrange(len(QI_CENTERS)))
        yield n, [matrix_data(res.b1), matrix_data(res.b2), res.rounds]


def bench_data(kind: str, seed: int):
    """The place in the stream and result data of every request of the
    kind that ``bench/run.py`` draws for a seed."""
    name, names, data = KINDS[kind]
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup()
    for n, (k, inp) in enumerate(wl.stream(ctx, random.Random(f"{wl.name}/{seed}"),
                                           PASS_REQUESTS[name])):
        if k.name in names:
            yield n, data(ctx, k, inp)


# --kind -> (workload, request kinds digested, result data of one request)
KINDS = {
    "norm": ("kummer-qi", {"norm-law"}, norm_data),
    "product": ("kummer-qi", {"norm-law"}, product_data),
    "hensel": ("kummer-qi", {"hensel"}, hensel_data),
    "valuation": ("kummer-qi", {"norm-law", "certificate"}, valuation_data),
    "bivar": ("kummer-qi", {"certificate"}, bivar_data),
    "ring": ("ring-ops", {"mul", "add", "roundtrip", "split"}, ring_data),
    "oracle": ("ring-ops", {"mul", "oracle"}, oracle_data),
    "cartan": ("cartan", {"factor", "gl"}, cartan_data),
    "inverse": ("cartan", {"factor"}, inverse_data),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--kind", choices=sorted([*KINDS, "cartan-qi"]), default="norm")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        results = (cartan_qi_data(seed) if args.kind == "cartan-qi"
                   else bench_data(args.kind, seed))
        for n, data in results:
            print(seed, n, hashlib.sha256(repr(data).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
