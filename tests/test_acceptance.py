"""Acceptance criteria, one test per criterion.

Every check is exact (integer or canonical-form equality); the two stated
runtime targets are asserted on the measured wall time.  Each test prints a
one-line pass/fail summary (visible with pytest -s or in captured output).
"""

import random
import time

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
from patchalg.intvec import unpack
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
    ``ae_dot`` call, at most 64 calls of the kernel
    ``patching._column_products`` (58), one per product of whole-matrix
    coefficients, and at most 4,500 integer multiplies: the packed rows
    times a right numerator that the kernel makes (934), plus the
    numerators of a left factor times the weights of z^s1 z^s2 that build
    those rows (3,092: per product of a packed column by packed weights,
    the column's nonzero places times the weights'), 4,026 in all.
    History of the gate: 77,684 series products (``add_product`` calls)
    with Horner folds, 58,164 with the contraction by term-by-term Neumann
    sums, 8,816 with the t-adic lift on precision-1 series, none since the
    lift holds its coefficients as integers, 1,500 ``apply_rule`` calls
    while each matrix entry had a z-polynomial of its own, and 10,745
    coordinate products (8,816 numerator products and 1,929 reductions of
    cross cells by their partial-fraction coefficients) in 58 calls while
    the lift formed cross cells."""
    A = _criterion_5_matrix()
    counts = {"add_product": 0, "ae_dot": 0, "kernel": 0, "products": 0, "build": 0}
    add_product, ae_dot = _SeriesAcc.add_product, analytic.ae_dot
    kernel, weights = patching._column_products, patching._Kernel.weights

    def counted_add_product(*args, **kwargs):
        counts["add_product"] += 1
        return add_product(*args, **kwargs)

    def counted_ae_dot(pairs):
        counts["ae_dot"] += 1
        return ae_dot(pairs)

    def counted_kernel(out, xs, ys, fac, scale):
        counts["kernel"] += 1
        counts["products"] += sum(1 for k, _c, s2 in ys[0] if xs[0].get((k, s2)))
        return kernel(out, xs, ys, fac, scale)

    def places(v: int, w: int) -> int:
        """The nonzero places of v packed at width w."""
        return sum(1 for u in unpack(v, w, abs(v).bit_length() // w + 2) if u)

    class Counted(int):
        """Packed weights at width w that count, per product they are the
        right factor of, its numerator x weight products: the nonzero
        places of the packed column times their own."""

        def __new__(cls, v: int, w: int):
            packed = super().__new__(cls, v)
            packed.w, packed.places = w, places(v, w)
            return packed

        def __rmul__(self, other):
            counts["build"] += places(other, self.w) * self.places
            return int(other) * int(self)

    def counted_weights(self, s1, s2, w, f):
        return tuple(tuple((o, Counted(packed, w)) for o, packed in pairs)
                     for pairs in weights(self, s1, s2, w, f))

    monkeypatch.setattr(_SeriesAcc, "add_product", counted_add_product)
    monkeypatch.setattr(analytic, "ae_dot", counted_ae_dot)
    monkeypatch.setattr(patching, "_column_products", counted_kernel)
    monkeypatch.setattr(patching._Kernel, "weights", counted_weights)
    res = cartan_factor(A, 2)
    monkeypatch.undo()
    assert (res.b1 * res.b2).equals(A) and all(res.side_memberships)
    total = counts["products"] + counts["build"]
    _report(
        "criterion 5 work gate: fixed 3x3 Cartan factorization at N=12",
        res.rounds == 4 and counts["add_product"] == counts["ae_dot"] == 0
        and counts["products"] > 0 and counts["build"] > 0 and total <= 4_500
        and counts["kernel"] <= 64,
        f"{res.rounds} rounds, {total} integer multiplies of 4500 "
        f"({counts['products']} packed rows x numerators, {counts['build']} "
        f"numerators x weights), {counts['kernel']} kernel calls of 64, "
        f"{counts['add_product']} add_product and {counts['ae_dot']} ae_dot calls",
    )


def test_criterion_5_round_cap():
    """The round cap raises instead of returning unfinished factors: the
    criterion 5 matrix needs four rounds, so a cap of one fails."""
    a = _criterion_5_matrix()
    with pytest.raises(ArithmeticError, match="failed to contract"):
        cartan_factor(a, 2, max_rounds=1)
    assert cartan_factor(a, 2, max_rounds=4).rounds == 4


def test_round_cap_zero():
    """A cap of zero is a cap, not the default: the identity needs no round
    and holds under it, the criterion 5 matrix needs four and raises."""
    a = _criterion_5_matrix()
    assert cartan_factor(PatchMatrix.identity(a.cfg, 3, 0), 2, max_rounds=0).rounds == 0
    with pytest.raises(ArithmeticError, match="failed to contract in 0 rounds"):
        cartan_factor(a, 2, max_rounds=0)


def test_round_cap_negative_refused():
    with pytest.raises(ValueError, match="max_rounds"):
        cartan_factor(_criterion_5_matrix(), 2, max_rounds=-1)


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
