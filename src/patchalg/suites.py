"""Seeded verification suites.

Each suite replays a family of checks deterministically from a seed and
returns per-case records; the CLI assembles them into a report, and the
acceptance tests drive the same functions.  Case counts follow the
documented defaults; failures carry enough detail to reproduce.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    SupportError,
    UnitNotRecognized,
    chart_ratio_unit,
    embed_xy,
    membership,
    random_element,
    split,
    t_element,
    unit_invert,
    weierstrass_prepare_linear,
    z_generator,
)
from .kummer import (
    KummerExtension,
    build_scenario,
    certify_division_algebra,
    grid_norm_identity,
    hensel_root,
    lift_configuration,
    norm_law_samples,
    quaternion_mul,
    quaternion_norm,
    random_ring_element,
)
from .oracle import OracleCache, lin_indep_check, oracle_of_element
from .patching import FactorizationError, PatchMatrix, cartan_factor, gl_factor
from .scalars import Scalar
from .series import INF

SUITE_NAMES = ("rings", "split", "intersect", "cartan", "kummer", "certificate")


@dataclass
class CaseResult:
    suite: str
    case_id: str
    status: str
    details: object = None
    elapsed_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "case": self.case_id,
            "status": self.status,
            "details": self.details,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _run_case(suite: str, case_id: str, fn: Callable, verbose: bool = False) -> CaseResult:
    t0 = time.perf_counter()
    try:
        ok, details = fn()
        status = "pass" if ok else "fail"
    except Exception as exc:  # noqa: BLE001 - suite runner reports, never crashes
        status = "fail"
        details = {"error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - t0) * 1000
    if verbose:
        print(f"  [{status}] {suite}/{case_id} ({ms:.0f} ms)", file=sys.stderr)
    return CaseResult(suite, case_id, status, details, ms)


# ---------------------------------------------------------------------------
# rings: canonical arithmetic against the oracle, axioms, valuation laws
# ---------------------------------------------------------------------------


def suite_rings(cfg: Configuration, seed: int, oracle_cases: int = 100,
                axiom_cases: int = 100, verbose: bool = False) -> list:
    out = []
    rng = random.Random(seed)
    els = [random_element(cfg, rng) for _ in range(oracle_cases + 2)]
    cache = OracleCache(cfg, 9)

    def oracle_case(i: int):
        def fn():
            f, g = els[i], els[i + 1]
            h = f * g
            of = oracle_of_element(f, f.chart, cache)
            og = oracle_of_element(g, f.chart, cache)
            mul_ok = (of * og) == oracle_of_element(h, f.chart, cache)
            add_ok = (of + og) == oracle_of_element(f + g.rebase(f.chart), f.chart, cache)
            j2 = (f.chart + 1) % len(cfg.centers)
            reb_ok = oracle_of_element(f, j2, cache) == oracle_of_element(f.rebase(j2), j2, cache)
            return mul_ok and add_ok and reb_ok, {
                "mul": mul_ok, "add": add_ok, "rebase": reb_ok,
            }
        return fn

    for i in range(oracle_cases):
        out.append(_run_case("rings", f"oracle-{i:03d}", oracle_case(i), verbose))

    def rewrite_identity():
        bad = []
        for i in cfg.indices:
            for j in cfg.indices:
                if i == j:
                    continue
                zi, zj = z_generator(cfg, i, 0), z_generator(cfg, j, 0)
                ai = (cfg.centers[i] - cfg.centers[j]).inverse()
                bj = (cfg.centers[j] - cfg.centers[i]).inverse()
                res = zi * zj - zi.scale(ai) - zj.scale(bj)
                if not res.is_zero():
                    bad.append((i, j))
        return not bad, {"failing_pairs": bad}

    out.append(_run_case("rings", "cross-term-rewrite-identity", rewrite_identity, verbose))

    def ring_axioms():
        bad = 0
        r2 = random.Random(seed + 1)
        for _ in range(axiom_cases):
            f = random_element(cfg, r2, chart=0)
            g = random_element(cfg, r2, chart=0)
            h = random_element(cfg, r2, chart=0)
            if (f * g) * h != f * (g * h):
                bad += 1
            if f * (g + h) != f * g + f * h:
                bad += 1
        return bad == 0, {"triples": axiom_cases, "violations": bad}

    out.append(_run_case("rings", "ring-axioms", ring_axioms, verbose))

    def valuation_laws():
        r2 = random.Random(seed + 2)
        bad = []
        for n in range(60):
            f = random_element(cfg, r2, chart=0)
            g = random_element(cfg, r2, chart=0)
            vf, vg = f.valuation(), g.valuation()
            if vf != INF and vg != INF and vf + vg < cfg.precision:
                if (f * g).valuation() != vf + vg:
                    bad.append(("mul", n))
            if (f + g).valuation() < min(vf, vg):
                bad.append(("add", n))
        for k in cfg.indices:
            if z_generator(cfg, k, 0).valuation() != 0:
                bad.append(("z-monomial", k))
        X = embed_xy(cfg, {(1, 0): 1}, 0)
        Y = embed_xy(cfg, {(0, 1): 1}, 0)
        if X.valuation() != 1 or Y.valuation() != 1:
            bad.append(("XY", -1))
        if embed_xy(cfg, {(2, 0): 1, (1, 1): 1}, 0).valuation() != 2:
            bad.append(("deg2", -1))
        return not bad, {"violations": bad}

    out.append(_run_case("rings", "valuation-laws", valuation_laws, verbose))

    def rebase_roundtrip():
        r2 = random.Random(seed + 3)
        bad = 0
        for _ in range(100):
            f = random_element(cfg, r2)
            for j2 in cfg.indices:
                if not f.rebase(j2).rebase(f.chart).equals(f):
                    bad += 1
        return bad == 0, {"violations": bad}

    out.append(_run_case("rings", "rebase-roundtrip", rebase_roundtrip, verbose))

    def chart_ratio_identity():
        bad = []
        for j2 in cfg.indices:
            for j in cfg.indices:
                if j2 == j:
                    continue
                u = chart_ratio_unit(cfg, j2, j)
                v = chart_ratio_unit(cfg, j, j2)
                if not (u * v).is_one():
                    bad.append((j2, j))
        return not bad, {"failing_pairs": bad}

    out.append(_run_case("rings", "chart-ratio-units", chart_ratio_identity, verbose))

    def linear_independence():
        r2 = random.Random(seed + 4)
        if not lin_indep_check(cfg, {None: 0}):
            return False, {"error": "zero combination not recognized"}
        if lin_indep_check(cfg, {None: 1}):
            return False, {"error": "constant 1 reported zero"}
        bad = 0
        for _ in range(20):
            combo = {None: Scalar.of(cfg.field, r2.randint(-9, 9))}
            nonzero = not combo[None].is_zero()
            for k in cfg.indices:
                for n in range(1, 5):
                    if r2.random() < 0.4:
                        c = r2.randint(-9, 9)
                        combo[(k, n)] = Scalar.of(cfg.field, c)
                        nonzero = nonzero or c != 0
            if lin_indep_check(cfg, combo) != (not nonzero):
                bad += 1
        return bad == 0, {"violations": bad}

    out.append(_run_case("rings", "linear-independence", linear_independence, verbose))

    def uniqueness():
        # a canonical form vanishes exactly when its stored data does, and
        # the oracle agrees
        r2 = random.Random(seed + 5)
        bad = 0
        for _ in range(20):
            f = random_element(cfg, r2)
            stored_zero = f.f0.is_zero() and not f.zc
            if f.is_zero() != stored_zero:
                bad += 1
            if oracle_of_element(f, f.chart, cache).is_zero() != stored_zero:
                bad += 1
            if not (f - f).is_zero():
                bad += 1
        return bad == 0, {"violations": bad}

    out.append(_run_case("rings", "canonical-uniqueness", uniqueness, verbose))
    return out


# ---------------------------------------------------------------------------
# split: additive support splitting
# ---------------------------------------------------------------------------


def _random_subset(rng, pool, allow_empty=True):
    s = frozenset(k for k in pool if rng.random() < 0.55)
    if not allow_empty and not s:
        s = frozenset([rng.choice(list(pool))])
    return s


def suite_split(cfg: Configuration, seed: int, cases: int = 200, verbose: bool = False) -> list:
    out = []
    rng = random.Random(seed)

    def split_case(n: int):
        def fn():
            J = _random_subset(rng, cfg.indices)
            Jp = _random_subset(rng, cfg.indices)
            union = J | Jp
            if not union:
                J = frozenset([0])
                union = J
            support = [k for k in union if rng.random() < 0.7]
            chart = rng.choice(sorted(union))
            f = random_element(cfg, rng, chart=chart, support=support)
            f1, f2 = split(f, J, Jp)
            vf = f.valuation()
            sum_ok = (f1 + f2.rebase(f1.chart)).equals(f) if not f1.is_zero() or not f2.is_zero() else f.is_zero()
            m1_ok = membership(f1, J) if J else f1.is_zero()
            m2_ok = membership(f2, Jp) if Jp else f2.is_zero()
            v_ok = f1.valuation() >= vf and f2.valuation() >= vf
            ok = sum_ok and m1_ok and m2_ok and v_ok
            det = {"J": sorted(J), "Jp": sorted(Jp), "sum": sum_ok,
                   "mem1": m1_ok, "mem2": m2_ok, "valuations": v_ok}
            return ok, det
        return fn

    for n in range(cases):
        out.append(_run_case("split", f"random-{n:03d}", split_case(n), verbose))

    def outside_support_error():
        f = z_generator(cfg, 0, 0) + z_generator(cfg, 2, 0)
        try:
            split(f, [0], [1])
            return False, {"error": "no SupportError raised"}
        except SupportError:
            return True, None

    out.append(_run_case("split", "support-error", outside_support_error, verbose))

    def tie_break():
        t0e = t_element(cfg, 0)
        f1, f2 = split(t0e, [0], [1])
        return f1 == t0e and f2.is_zero(), None

    out.append(_run_case("split", "zfree-tiebreak", tie_break, verbose))
    return out


# ---------------------------------------------------------------------------
# intersect: membership laws
# ---------------------------------------------------------------------------


def suite_intersect(cfg: Configuration, seed: int, cases: int = 200,
                    targeted: int = 20, verbose: bool = False) -> list:
    out = []
    rng = random.Random(seed)

    def iff_case(n: int):
        def fn():
            f = random_element(cfg, rng)
            J = _random_subset(rng, cfg.indices)
            Jp = _random_subset(rng, cfg.indices)
            lhs = membership(f, J) and membership(f, Jp)
            rhs = membership(f, J & Jp)
            return lhs == rhs, {"J": sorted(J), "Jp": sorted(Jp), "both": lhs, "cap": rhs}
        return fn

    for n in range(cases):
        out.append(_run_case("intersect", f"random-{n:03d}", iff_case(n), verbose))

    def targeted_case(n: int):
        def fn():
            J = _random_subset(rng, cfg.indices, allow_empty=False)
            Jp = _random_subset(rng, cfg.indices, allow_empty=False)
            cap = J & Jp
            if cap:
                chart = rng.choice(sorted(cap))
                f = random_element(cfg, rng, chart=chart, support=sorted(cap))
                f = f.rebase(rng.choice(list(cfg.indices)))
            else:
                f = embed_xy(cfg, _random_poly(rng), rng.choice(list(cfg.indices)))
            ok = membership(f, J) and membership(f, Jp) and membership(f, cap)
            return ok, {"J": sorted(J), "Jp": sorted(Jp)}
        return fn

    for n in range(targeted):
        out.append(_run_case("intersect", f"targeted-{n:02d}", targeted_case(n), verbose))

    def embedded_polys():
        bad = []
        for n in range(10):
            p = embed_xy(cfg, _random_poly(rng), rng.choice(list(cfg.indices)))
            for j in cfg.indices:
                if not membership(p, frozenset(cfg.indices) - {j}):
                    bad.append((n, "complement", j))
            if not membership(p, []):
                bad.append((n, "empty", -1))
        return not bad, {"violations": bad}

    out.append(_run_case("intersect", "embedded-polynomials", embedded_polys, verbose))

    def zgen_membership():
        bad = []
        for i in cfg.indices:
            zi = z_generator(cfg, i, i)
            if membership(zi, []):
                bad.append(("empty", i))
            if not membership(zi, {i}):
                bad.append(("own", i))
            other = frozenset(cfg.indices) - {i}
            if membership(zi, other):
                bad.append(("other", i))
        yel = embed_xy(cfg, {(0, 1): 1}, 0)  # Y = z_0 t_0 lies in the plain ring
        if not membership(yel, []):
            bad.append(("Y", -1))
        return not bad, {"violations": bad}

    out.append(_run_case("intersect", "z-generators", zgen_membership, verbose))
    return out


def _random_poly(rng, max_deg: int = 4) -> dict:
    poly = {}
    for a in range(max_deg + 1):
        for b in range(max_deg + 1 - a):
            if rng.random() < 0.4:
                poly[(a, b)] = rng.randint(-9, 9)
    if not poly:
        poly[(1, 0)] = 1
    return poly


# ---------------------------------------------------------------------------
# cartan: matrix factorization
# ---------------------------------------------------------------------------


def suite_cartan(cfg_base: Configuration, seed: int, cases: int = 50,
                 precision: int = 12, verbose: bool = False) -> list:
    out = []
    cfg = Configuration(cfg_base.field, cfg_base.centers, precision)
    rng = random.Random(seed)
    one = AnalyticElement.one(cfg, 0)
    zero = AnalyticElement.zero(cfg, 0)

    def rand_entry():
        sup = [k for k in cfg.indices if rng.random() < 0.4]
        return random_element(cfg, rng, chart=0, support=sup, max_zdeg=2, tdeg=2).shift_t(1)

    def cartan_case(case: int):
        def fn():
            n = rng.choice([2, 3])
            i = rng.choice(list(cfg.indices))
            rows = [[(one if r == c else zero) + rand_entry() for c in range(n)] for r in range(n)]
            A = PatchMatrix(rows, 0)
            v0 = A.deviation().min_valuation()
            res = cartan_factor(A, i)
            re_ok = (res.b1 * res.b2).equals(A)
            mem_ok = all(res.side_memberships)
            v_ok = (res.b1.deviation().min_valuation() >= v0
                    and res.b2.deviation().min_valuation() >= v0)
            return re_ok and mem_ok and v_ok, {
                "n": n, "i": i, "rounds": res.rounds,
                "reassembly": re_ok, "memberships": res.side_memberships, "valuations": v_ok,
            }
        return fn

    for case in range(cases):
        out.append(_run_case("cartan", f"random-{case:02d}", cartan_case(case), verbose))

    def identity_case():
        res = cartan_factor(PatchMatrix.identity(cfg, 2, 0), 2)
        ident = PatchMatrix.identity(cfg, 2, 0)
        return res.b1.equals(ident) and res.b2.equals(ident), None

    out.append(_run_case("cartan", "identity", identity_case, verbose))

    def one_sided_case():
        z1 = z_generator(cfg, 1, 0)
        m = z1.scale_series(cfg.t_series(1))
        A = PatchMatrix([[one, m], [zero, one]], 0)
        res = cartan_factor(A, 2)
        return res.b1.equals(A) and res.b2.equals(PatchMatrix.identity(cfg, 2, 0)), None

    out.append(_run_case("cartan", "one-sided", one_sided_case, verbose))

    def nilpotent_split_case():
        z1 = z_generator(cfg, 1, 0)
        z2 = z_generator(cfg, 2, 0)
        m = (z1 + z2).scale_series(cfg.t_series(1))
        A = PatchMatrix([[one, m], [zero, one]], 0)
        res = cartan_factor(A, 2)
        e1 = PatchMatrix([[one, z1.scale_series(cfg.t_series(1))], [zero, one]], 0)
        e2 = PatchMatrix([[one, z2.scale_series(cfg.t_series(1))], [zero, one]], 0)
        return res.b1.equals(e1) and res.b2.equals(e2), None

    out.append(_run_case("cartan", "nilpotent-exact-split", nilpotent_split_case, verbose))

    def mat_layer():
        bad = []
        A = PatchMatrix([[one, z_generator(cfg, 1, 0)], [zero, one + t_element(cfg, 0)]], 0)
        ident = PatchMatrix.identity(cfg, 2, 0)
        if not (A * ident).equals(A):
            bad.append("unit")
        e12 = PatchMatrix([[one, t_element(cfg, 0)], [zero, one]], 0)
        sq = e12 * e12
        exp = PatchMatrix([[one, t_element(cfg, 0).scale(2)], [zero, one]], 0)
        if not sq.equals(exp):
            bad.append("nilpotent-square")
        for _ in range(10):
            M1 = PatchMatrix([[random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3) for _ in range(2)] for _ in range(2)], 0)
            M2 = PatchMatrix([[random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3) for _ in range(2)] for _ in range(2)], 0)
            M3 = PatchMatrix([[random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3) for _ in range(2)] for _ in range(2)], 0)
            if not ((M1 * M2) * M3).equals(M1 * (M2 * M3)):
                bad.append("assoc")
            if not (M1 * M2).det().equals(M1.det() * M2.det()):
                bad.append("det-mult")
        m = rand_entry()
        A = PatchMatrix([[one + m, zero], [m, one]], 0)
        if not (A * A.invert_near_identity()).equals(PatchMatrix.identity(cfg, 2, 0)):
            bad.append("neumann-inverse")
        return not bad, {"violations": bad}

    out.append(_run_case("cartan", "matrix-layer", mat_layer, verbose))

    def gl_monomial():
        tl = LocalizedElement(t_element(cfg, 0), 0)
        zl = LocalizedElement(zero, 0)
        B = PatchMatrix([[tl, zl], [zl, tl]], 0)
        res = gl_factor(B, 2)
        texp = PatchMatrix([[LocalizedElement(one, 1), zl], [zl, LocalizedElement(one, 1)]], 0)
        ok = (res.b1 * res.b2).equals(B) and res.b1.equals(texp) and res.b2.equals(
            PatchMatrix.identity(cfg, 2, 0)
        )
        return ok, res.notes

    out.append(_run_case("cartan", "gl-t-monomial", gl_monomial, verbose))

    def gl_one_sided(case: int):
        def fn():
            n = rng.choice([2, 3])
            i = rng.choice(list(cfg.indices))
            J = sorted(frozenset(cfg.indices) - {i})
            rows1 = [[(one if r == c else zero)
                      + random_element(cfg, rng, chart=0, support=[k for k in J if rng.random() < 0.7],
                                      max_zdeg=2, tdeg=3).shift_t(1)
                      for c in range(n)] for r in range(n)]
            rows2 = [[(one if r == c else zero)
                      + random_element(cfg, rng, chart=0, support=[i], max_zdeg=2, tdeg=3).shift_t(1)
                      for c in range(n)] for r in range(n)]
            B1 = PatchMatrix(rows1, 0)
            B2 = PatchMatrix(rows2, 0)
            B = B1 * B2
            res = gl_factor(B, i)
            ok = (res.b1 * res.b2).equals(B) and all(res.side_memberships)
            return ok, {"n": n, "i": i, "memberships": res.side_memberships}
        return fn

    for case in range(5):
        out.append(_run_case("cartan", f"gl-one-sided-{case}", gl_one_sided(case), verbose))

    def gl_restricted():
        B = PatchMatrix([[one + z_generator(cfg, 0, 0), zero], [zero, one]], 0)
        try:
            gl_factor(B, 2)
            return False, {"error": "restricted pipeline accepted an unknown det class"}
        except FactorizationError as exc:
            return True, {"diagnostic": str(exc)[:90]}

    out.append(_run_case("cartan", "gl-restricted-error", gl_restricted, verbose))
    return out


# ---------------------------------------------------------------------------
# kummer: Hensel roots, Galois/norm laws, non-association, quaternions
# ---------------------------------------------------------------------------


def suite_kummer(cfg: Configuration, scen: dict, seed: int, norm_samples: int = 50,
                 nonassoc_draws: int = 20, norm_precision: int = 12,
                 verbose: bool = False) -> list:
    out = []
    rng = random.Random(seed)
    i, j = scen["i"], scen["j"]

    def hensel_case(k: int, q: int, lifted: bool):
        def fn():
            c = lift_configuration(cfg) if lifted else cfg
            a = AnalyticElement.from_terms(c, i, 1, {(i, k): c.t_series(k - 1)})
            s = hensel_root(a, q)
            one = AnalyticElement.one(c, i, c.precision)
            ok = (s ** q).equals(a) and (s - one).valuation() >= 1
            return ok, {"k": k, "q": q, "precision": c.precision}
        return fn

    for k in (2, 3, 4):
        out.append(_run_case("kummer", f"hensel-q2-k{k}", hensel_case(k, 2, False), verbose))
    for q in (2, 4):
        for k in (2, 3, 4):
            out.append(_run_case(
                "kummer", f"hensel-q{q}-k{k}-cyclotomic", hensel_case(k, q, True), verbose
            ))

    def norm_law():
        base = Configuration(cfg.field, cfg.centers, max(norm_precision, scen["k"] + 1))
        sc = build_scenario(base, i, j, scen["k"], scen["q"], scen["qprime"])
        res = norm_law_samples(sc, norm_samples, random.Random(seed + 10))
        return not res["failures"], {"samples": res["samples"], "failures": res["failures"][:5],
                                     "degree": sc.full_degree, "precision": base.precision}

    out.append(_run_case("kummer", "galois-norm-law", norm_law, verbose))

    def nonassoc_case(case: int):
        def fn():
            while True:
                vals = rng.sample(range(1, 10), 3)
                signs = [rng.choice((-1, 1)) for _ in range(3)]
                av, bv, cv = (s * v for s, v in zip(signs, vals))
                if av != -bv and len({av, bv, cv}) == 3:
                    break
            m = rng.choice((2, 3, 4))
            jj = rng.choice(list(cfg.indices))
            r_el = AnalyticElement.from_terms(
                cfg, jj, 1, {(jj, 1): av, (jj, m): cfg.t_series(m - 1)}
            )
            rp_el = AnalyticElement.from_terms(
                cfg, jj, 1, {(jj, 1): bv, (jj, m): cfg.t_series(m - 1, coeff=-1)}
            )
            s_el = AnalyticElement.from_terms(cfg, jj, 1, {(jj, 1): cv})
            pts = []
            for p_el, lbl in ((r_el, "r"), (rp_el, "rp"), (s_el, "s")):
                pt, unit = weierstrass_prepare_linear(p_el, lbl, ring_support=[jj])
                zj = z_generator(cfg, jj, jj)
                lam_e = AnalyticElement(cfg, jj, pt.lam, {})
                if not ((zj - lam_e) * unit.body).equals(p_el):
                    return False, {"error": f"recomposition failed for {lbl}"}
                pts.append(pt)
            mod_t = [pt.lam.coeff(0) for pt in pts]
            distinct_mod_t = len({(c.coords) for c in mod_t}) == 3
            distinct_full = (pts[0].lam != pts[1].lam and pts[0].lam != pts[2].lam
                             and pts[1].lam != pts[2].lam)
            return distinct_mod_t and distinct_full, {
                "a": av, "b": bv, "c": cv, "m": m,
                "roots_mod_t": [str(c) for c in mod_t],
            }
        return fn

    for case in range(nonassoc_draws):
        out.append(_run_case("kummer", f"nonassoc-{case:02d}", nonassoc_case(case), verbose))

    def kummer_arith():
        bad = []
        base = Configuration(cfg.field, cfg.centers, 10)
        rad = AnalyticElement.one(base, 0, 10) + z_generator(base, 0, 0, 10).scale_series(base.t_series(1, 10))
        ext = KummerExtension.create(base, 0, 2, rad)
        alpha = ext.generator()
        one_k = ext.scalar_embed(AnalyticElement.one(base, 0, 10))
        # alpha * alpha^{q-1} = radicand
        sq = alpha * alpha
        if not (sq.coords[0].elem.equals(LocalizedElement.of(rad)) and sq.coords[1].is_zero()):
            bad.append("alpha-square")
        if not (alpha * one_k).coords[1].elem.equals(alpha.coords[1].elem):
            bad.append("mul-one")
        # sigma(alpha) = -alpha; sigma^2 = id
        sa = alpha.galois(1)
        if not (sa + alpha).is_zero():
            bad.append("sigma-alpha")
        r2 = random.Random(seed + 20)
        for _ in range(5):
            x = ext.element([random_ring_element(base, r2, base.indices, 0),
                             random_ring_element(base, r2, base.indices, 0)])
            y = ext.element([random_ring_element(base, r2, base.indices, 0),
                             random_ring_element(base, r2, base.indices, 0)])
            if not _kummer_equal(x.galois(2), x):
                bad.append("sigma-order")
            if not _kummer_equal((x * y).galois(1), x.galois(1) * y.galois(1)):
                bad.append("sigma-hom")
            nx, ny, nxy = x.norm(), y.norm(), (x * y).norm()
            if not (nx.elem * ny.elem).equals(nxy.elem):
                bad.append("norm-mult")
            if not x.galois(1).norm().elem.equals(nx.elem):
                bad.append("norm-sigma-invariance")
            # quadratic norm form b0^2 - a b1^2
            b0, b1 = x.coords[0].elem, x.coords[1].elem
            direct = b0 * b0 - LocalizedElement.of(rad) * b1 * b1
            if not direct.equals(nx.elem):
                bad.append("norm-form")
            # difference of squares: (1+alpha)(1-alpha) = 1 - a
            pa = one_k + alpha
            ma = one_k - alpha
            prod = pa * ma
            want = AnalyticElement.one(base, 0, 10) - rad
            if not (prod.coords[1].is_zero() and prod.coords[0].elem.equals(LocalizedElement.of(want))):
                bad.append("difference-of-squares")
        return not bad, {"violations": bad}

    out.append(_run_case("kummer", "extension-arithmetic", kummer_arith, verbose))

    def grid_identity():
        base = Configuration(cfg.field, cfg.centers, max(10, scen["k"] + 1))
        sc = build_scenario(base, i, j, scen["k"], scen["q"], scen["qprime"])
        res = grid_norm_identity(sc)
        return all(res.values()), res

    out.append(_run_case("kummer", "composite-grid-norms", grid_identity, verbose))

    def quaternions():
        bad = []
        base = Configuration(cfg.field, cfg.centers, max(8, scen["k"] + 1))
        sc = build_scenario(base, i, j, scen["k"], 2, 2)
        av = sc.a
        bv = sc.b.rebase(sc.a.chart)
        one_e = AnalyticElement.one(base, sc.a.chart)
        zero_e = AnalyticElement.zero(base, sc.a.chart)
        iq = (zero_e, one_e, zero_e, zero_e)
        jq = (zero_e, zero_e, one_e, zero_e)
        ij = quaternion_mul(iq, jq, av, bv)
        ji = quaternion_mul(jq, iq, av, bv)
        if not all((x + y).is_zero() for x, y in zip(ij, ji)):
            bad.append("anticommute")
        ii = quaternion_mul(iq, iq, av, bv)
        if not (ii[0].equals(av) and ii[1].is_zero() and ii[2].is_zero() and ii[3].is_zero()):
            bad.append("i-square")
        r2 = random.Random(seed + 30)
        for _ in range(4):
            x = tuple(random_ring_element(base, r2, base.indices, sc.a.chart) for _ in range(4))
            y = tuple(random_ring_element(base, r2, base.indices, sc.a.chart) for _ in range(4))
            lhs = quaternion_norm(quaternion_mul(x, y, av, bv), av, bv)
            rhs = quaternion_norm(x, av, bv) * quaternion_norm(y, av, bv)
            if not lhs.equals(rhs):
                bad.append("norm-mult")
            xy = quaternion_mul(x, y, av, bv)
            z3 = tuple(random_ring_element(base, r2, base.indices, sc.a.chart) for _ in range(4))
            if not all(p.equals(q) for p, q in zip(
                quaternion_mul(xy, z3, av, bv),
                quaternion_mul(x, quaternion_mul(y, z3, av, bv), av, bv),
            )):
                bad.append("assoc")
        # agreement with the Kummer quadratic norm on the subfield x0 + x1 i
        ext = KummerExtension.create(base, sc.a.chart, 2, av)
        for _ in range(3):
            b0 = random_ring_element(base, r2, base.indices, sc.a.chart)
            b1 = random_ring_element(base, r2, base.indices, sc.a.chart)
            qn = quaternion_norm((b0, b1, zero_e, zero_e), av, bv)
            kn = ext.element([b0, b1]).norm()
            if not kn.elem.equals(LocalizedElement.of(qn)):
                bad.append("kummer-agreement")
        return not bad, {"violations": bad}

    out.append(_run_case("kummer", "quaternion-layer", quaternions, verbose))

    def unit_classes():
        bad = []
        u2 = chart_ratio_unit(cfg, 1, 0)
        if not (u2 * unit_invert(u2)).is_one():
            bad.append("U2")
        h = AnalyticElement.one(cfg, 0) + z_generator(cfg, 0, 0).scale_series(cfg.t_series(1))
        if not (h * unit_invert(h)).is_one():
            bad.append("U1")
        loc = LocalizedElement(h * t_element(cfg, 0), -2)
        li = unit_invert(loc)
        if not (loc * li).equals(LocalizedElement(AnalyticElement.one(cfg, 0), 0)):
            bad.append("U3")
        try:
            unit_invert(AnalyticElement.one(cfg, 0) + z_generator(cfg, 0, 0))
            bad.append("unrecognized-not-raised")
        except UnitNotRecognized:
            pass
        return not bad, {"violations": bad}

    out.append(_run_case("kummer", "unit-classes", unit_classes, verbose))
    return out


def _kummer_equal(x, y) -> bool:
    return (x - y).is_zero()


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def suite_certificate(cfg: Configuration, scen: dict, seed: int,
                      tamper_b: bool = False, verbose: bool = False) -> list:
    out = []

    def main_case():
        sc = build_scenario(cfg, scen["i"], scen["j"], scen["k"], scen["q"], scen["qprime"])
        cert = certify_division_algebra(
            sc, tamper_b=tamper_b, norm_samples=8, seed=seed,
            norm_precision=max(min(12, cfg.precision), scen["k"] + 1),
        )
        return cert.verdict == "certified", cert.to_dict()

    out.append(_run_case("certificate", "division-algebra", main_case, verbose))

    def negative_control():
        sc = build_scenario(cfg, scen["i"], scen["j"], scen["k"], scen["q"], scen["qprime"])
        cert = certify_division_algebra(
            sc, tamper_b=True, norm_samples=2, seed=seed,
            norm_precision=max(min(10, cfg.precision), scen["k"] + 1),
        )
        return cert.verdict == "refuted", {
            "verdict": cert.verdict,
            "v_r(b^2)": cert.table["v_r(b)"]["computed"],
        }

    out.append(_run_case("certificate", "negative-control", negative_control, verbose))
    return out


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_suites(cfg: Configuration, scen: dict, seed: int, names,
               tamper_b: bool = False, verbose: bool = False) -> list:
    results = []
    for name in names:
        if verbose:
            print(f"suite {name}:", file=sys.stderr)
        if name == "rings":
            results += suite_rings(cfg, seed, verbose=verbose)
        elif name == "split":
            results += suite_split(cfg, seed, verbose=verbose)
        elif name == "intersect":
            results += suite_intersect(cfg, seed, verbose=verbose)
        elif name == "cartan":
            results += suite_cartan(cfg, seed, verbose=verbose)
        elif name == "kummer":
            results += suite_kummer(cfg, scen, seed, verbose=verbose)
        elif name == "certificate":
            results += suite_certificate(cfg, scen, seed, tamper_b=tamper_b, verbose=verbose)
        else:
            raise ValueError(f"unknown suite {name!r}")
    return results
