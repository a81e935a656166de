"""Acceptance criteria, one test per criterion.

Every check is exact (integer or canonical-form equality); the two stated
runtime targets are asserted on the measured wall time.  Each test prints a
one-line pass/fail summary (visible with pytest -s or in captured output).
"""

import random
import time
from collections import Counter

import pytest

from patchalg import analytic, patching
from patchalg.analytic import (
    AnalyticElement,
    Configuration,
    _SeriesAcc,
    default_configuration,
    random_element,
    z_generator,
)
from patchalg.kummer import build_scenario, certify_division_algebra, hensel_root, lift_configuration
from patchalg.oracle import OracleCache, OracleSeries, oracle_of_element
from patchalg.patching import PatchMatrix, cartan_factor
from patchalg.scalars import QQ
from patchalg.suites import (
    suite_cartan,
    suite_intersect,
    suite_kummer,
    suite_split,
)

SEED = 42
CFG = default_configuration(16)
SCEN = dict(i=2, j=1, k=3, q=2, qprime=2)


def _report(name: str, ok: bool, extra: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def _failures(results):
    return [r for r in results if r.status != "pass"]


def test_criterion_1_oracle_equivalence():
    rng = random.Random(SEED)
    els = [random_element(CFG, rng) for _ in range(101)]
    cache = OracleCache(CFG, 9)
    t0 = time.perf_counter()
    bad = []
    for n in range(100):
        f, g = els[n], els[n + 1]
        of = oracle_of_element(f, f.chart, cache)
        og = oracle_of_element(g, f.chart, cache)
        if (of * og) != oracle_of_element(f * g, f.chart, cache):
            bad.append((n, "mul"))
        if (of + og) != oracle_of_element(f + g.rebase(f.chart), f.chart, cache):
            bad.append((n, "add"))
        j2 = (f.chart + 1) % 3
        if oracle_of_element(f, j2, cache) != oracle_of_element(f.rebase(j2), j2, cache):
            bad.append((n, "rebase"))
    dt = time.perf_counter() - t0
    _report(
        "criterion 1: mul/add/rebase match the expansion oracle on 100 elements",
        not bad and dt < 10.0,
        f"{dt:.1f}s of 10s budget, {len(bad)} mismatches",
    )


def test_criterion_1_oracle_independence(monkeypatch):
    """Gate beside criterion 1: with the canonical kernels (products, series
    accumulators, chart changes, the rewrite rule and the transfer tables)
    made to raise, the oracle still expands and multiplies, and once its
    cache is warm an expansion makes no OracleSeries product or sum."""
    rng = random.Random(SEED)
    pairs = [(random_element(CFG, rng), random_element(CFG, rng)) for _ in range(10)]
    prods = [f * g for f, g in pairs]

    def banned(*args, **kwargs):
        raise AssertionError("the oracle used the canonical arithmetic")

    monkeypatch.setattr(analytic, "ae_dot", banned)
    monkeypatch.setattr(_SeriesAcc, "__init__", banned)
    monkeypatch.setattr(AnalyticElement, "rebase", banned)
    for name in ("rewrite", "rewrite_ints", "transfer"):
        monkeypatch.setattr(Configuration, name, banned)
    cache = OracleCache(CFG, 9)
    mismatches = 0
    for (f, g), h in zip(pairs, prods):
        for j in CFG.indices:
            of, og = oracle_of_element(f, j, cache), oracle_of_element(g, j, cache)
            mismatches += (of * og) != oracle_of_element(h, j, cache)
    calls = 0

    def counted(method):
        def wrapper(*args, **kwargs):
            nonlocal calls
            calls += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(OracleSeries, "__mul__", counted(OracleSeries.__mul__))
    monkeypatch.setattr(OracleSeries, "__add__", counted(OracleSeries.__add__))
    for f in [x for fg in pairs for x in fg] + prods:
        for j in CFG.indices:
            oracle_of_element(f, j, cache)
    monkeypatch.undo()
    _report(
        "criterion 1 independence gate: the oracle without the canonical kernels",
        mismatches == 0 and calls == 0,
        f"{mismatches} mismatches in {len(pairs) * len(CFG.indices)} products, "
        f"{calls} OracleSeries products or sums in warm expansions",
    )


def test_criterion_2_rewrite_identity():
    bad = []
    for i in CFG.indices:
        for j in CFG.indices:
            if i == j:
                continue
            zi, zj = z_generator(CFG, i, 0), z_generator(CFG, j, 0)
            ci, cj = CFG.centers[i], CFG.centers[j]
            res = zi * zj - zi.scale((ci - cj).inverse()) - zj.scale((cj - ci).inverse())
            if not res.is_zero():
                bad.append((i, j))
    _report("criterion 2: cross-term rewrite identity for all center pairs", not bad)


def test_criterion_3_splitting():
    results = [r for r in suite_split(CFG, SEED, cases=200) if r.case_id.startswith("random")]
    bad = _failures(results)
    _report(
        "criterion 3: 200 random additive splits (sum, memberships, valuations)",
        len(results) == 200 and not bad,
        f"{len(results)} cases, {len(bad)} failures",
    )


def test_criterion_4_membership_laws():
    results = suite_intersect(CFG, SEED, cases=200, targeted=20)
    randoms = [r for r in results if r.case_id.startswith("random")]
    targeted = [r for r in results if r.case_id.startswith("targeted")]
    rest = [r for r in results if not (r.case_id.startswith(("random", "targeted")))]
    ok = (len(randoms) == 200 and len(targeted) == 20
          and not _failures(results))
    _report(
        "criterion 4: membership conjunction = intersection membership; "
        "embedded series pass, generators fail the empty set",
        ok,
        f"{len(randoms)}+{len(targeted)} cases + {len(rest)} structural",
    )


def test_criterion_5_cartan():
    results = [r for r in suite_cartan(CFG, SEED, cases=50, precision=12)
               if r.case_id.startswith("random")]
    dt = sum(r.elapsed_ms for r in results) / 1000.0
    bad = _failures(results)
    _report(
        "criterion 5: 50 random Cartan factorizations at N=12",
        len(results) == 50 and not bad and dt < 30.0,
        f"{dt:.1f}s of 30s budget, {len(bad)} failures",
    )


def _criterion_5_matrix() -> PatchMatrix:
    """A fixed 3x3 matrix at N=12, dense over the centers 0/1/2, whose
    factorization at index 2 takes four contraction rounds."""
    cfg = Configuration(QQ, [0, 1, 2], 12)
    one, zero = AnalyticElement.one(cfg, 0), AnalyticElement.zero(cfg, 0)
    rng = random.Random(34)
    return PatchMatrix(
        [[(one if r == c else zero)
          + random_element(cfg, rng, chart=0, max_zdeg=2, tdeg=3, support=[0, 1, 2]).shift_t(1)
          for c in range(3)] for r in range(3)], 0)


def test_criterion_5_cartan_op_count(monkeypatch):
    """Work gate beside criterion 5's wall budget: one fixed 3x3 Cartan
    factorization at N=12 in four rounds, with no series product and no
    ``ae_dot`` call, at most 64 ``apply_rule`` calls of the lift's kernel
    ``patching._combine`` (58), one per product of whole-matrix
    coefficients, and at most 12,000 coordinate products: the numerator
    products its convolution ``_conv`` makes (8,816) plus its reductions of
    cross cells by a partial-fraction coefficient (1,929), 10,745 in all.
    History of the gate: 77,684 series products (``add_product`` calls)
    with Horner folds, 58,164 with the contraction by term-by-term Neumann
    sums, 8,816 with the t-adic lift on precision-1 series, none since the
    lift holds its coefficients as integers, and 1,500 ``apply_rule``
    calls while each matrix entry had a z-polynomial of its own."""
    A = _criterion_5_matrix()
    counts = {"add_product": 0, "ae_dot": 0, "apply_rule": 0, "products": 0, "reductions": 0}
    add_product, ae_dot = _SeriesAcc.add_product, analytic.ae_dot
    apply_rule, conv, coord_mul = patching.apply_rule, patching._conv, patching.coord_mul

    def counted_add_product(*args, **kwargs):
        counts["add_product"] += 1
        return add_product(*args, **kwargs)

    def counted_ae_dot(pairs):
        counts["ae_dot"] += 1
        return ae_dot(pairs)

    def counted_apply_rule(*args):
        counts["apply_rule"] += 1
        return apply_rule(*args)

    def counted_conv(out, xs, ys, arg, scale):
        rows = Counter(k for k, _c, _s in ys[0])
        counts["products"] += sum(rows[k] for _r, k, _s in xs[0])
        return conv(out, xs, ys, arg, scale)

    def counted_coord_mul(x, y):
        counts["reductions"] += 1
        return coord_mul(x, y)

    monkeypatch.setattr(_SeriesAcc, "add_product", counted_add_product)
    monkeypatch.setattr(analytic, "ae_dot", counted_ae_dot)
    monkeypatch.setattr(patching, "apply_rule", counted_apply_rule)
    monkeypatch.setattr(patching, "_conv", counted_conv)
    monkeypatch.setattr(patching, "coord_mul", counted_coord_mul)
    res = cartan_factor(A, 2)
    monkeypatch.undo()
    assert (res.b1 * res.b2).equals(A) and all(res.side_memberships)
    total = counts["products"] + counts["reductions"]
    _report(
        "criterion 5 work gate: fixed 3x3 Cartan factorization at N=12",
        res.rounds == 4 and counts["add_product"] == counts["ae_dot"] == 0
        and counts["reductions"] > 0 and total <= 12_000 and counts["apply_rule"] <= 64,
        f"{res.rounds} rounds, {total} coordinate products of 12000 "
        f"({counts['products']} products, {counts['reductions']} reductions), "
        f"{counts['apply_rule']} apply_rule calls of 64, "
        f"{counts['add_product']} add_product and {counts['ae_dot']} ae_dot calls",
    )


def test_criterion_5_round_cap():
    """The round cap raises instead of returning unfinished factors: the
    criterion 5 matrix needs four rounds, so a cap of one fails."""
    a = _criterion_5_matrix()
    with pytest.raises(ArithmeticError, match="failed to contract"):
        cartan_factor(a, 2, max_rounds=1)
    assert cartan_factor(a, 2, max_rounds=4).rounds == 4


def test_criterion_6_hensel():
    bad = []
    for k in (2, 3, 4):
        a = AnalyticElement.from_terms(CFG, 2, 1, {(2, k): CFG.t_series(k - 1)})
        s = hensel_root(a, 2)
        if not (s * s).equals(a):
            bad.append(("q2", k))
    cfg4 = lift_configuration(CFG)
    for k in (2, 3, 4):
        a = AnalyticElement.from_terms(cfg4, 2, 1, {(2, k): cfg4.t_series(k - 1)})
        s = hensel_root(a, 4)
        if not (s ** 4).equals(a):
            bad.append(("q4", k))
    _report(
        "criterion 6: Hensel roots s^2 = a (k in 2,3,4) and s^4 = a over the "
        "order-4 cyclotomic field, all mod t^16",
        not bad,
    )


def test_criterion_7_valuation_table():
    sc = build_scenario(CFG, **SCEN)
    cert = certify_division_algebra(sc, norm_samples=4, norm_precision=10, seed=SEED)
    expected = {
        "v_f(a)": 1, "v_f(b)": 0, "v_g(a)": 0, "v_g(b)": 1,
        "v_r(a)": 0, "v_r(b)": 1, "v_r'(a)": 1, "v_r'(b)": 0,
    }
    mism = {k: cert.table[k]["computed"] for k in expected
            if cert.table[k]["computed"] != expected[k]}
    _report(
        "criterion 7: full valuation table matches the stated integers exactly",
        not mism,
        f"table={ {k: v['computed'] for k, v in cert.table.items()} }",
    )


def test_criterion_8_norm_law_and_certificates():
    results = suite_kummer(CFG, SCEN, SEED, norm_samples=50)
    law = [r for r in results if r.case_id == "galois-norm-law"]
    ok_law = len(law) == 1 and law[0].status == "pass" and law[0].details["samples"] == 50
    sc = build_scenario(CFG, **SCEN)
    cert = certify_division_algebra(sc, norm_samples=4, norm_precision=10, seed=SEED)
    bad_cert = certify_division_algebra(sc, tamper_b=True, norm_samples=2,
                                        norm_precision=8, seed=SEED)
    ok = ok_law and cert.verdict == "certified" and bad_cert.verdict == "refuted"
    _report(
        "criterion 8: Galois invariance + norm-valuation law on 50 samples; "
        "certificate certified, tampered control refuted",
        ok,
        f"law={'ok' if ok_law else 'failed'}, verdicts={cert.verdict}/{bad_cert.verdict}",
    )


def test_criterion_9_nonassociate_roots():
    results = [r for r in suite_kummer(CFG, SCEN, SEED, norm_samples=0, nonassoc_draws=20)
               if r.case_id.startswith("nonassoc")]
    bad = _failures(results)
    _report(
        "criterion 9: prepared roots pairwise distinct mod t on 20 draws",
        len(results) == 20 and not bad,
        f"{len(bad)} failures",
    )
