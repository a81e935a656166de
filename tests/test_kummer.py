import random

import pytest

from patchalg.analytic import (
    AnalyticElement,
    Configuration,
    LocalizedElement,
    default_configuration,
    prime_point_valuation,
    z_generator,
)
from patchalg.kummer import (
    ExtensionError,
    KummerExtension,
    Scenario,
    ScenarioError,
    build_scenario,
    certify_division_algebra,
    grid_norm_identity,
    hensel_root,
    lift_configuration,
    quaternion_mul,
    quaternion_norm,
    random_ring_element,
)
from patchalg.scalars import QQ, Scalar

CFG = default_configuration()
SCEN = dict(i=2, j=1, k=3, q=2, qprime=2)


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    return build_scenario(CFG, **SCEN)


# -- Hensel ------------------------------------------------------------------


def test_hensel_trivial():
    one = AnalyticElement.one(CFG, 2)
    assert hensel_root(one, 2).equals(one)


def test_hensel_single_step_value():
    a = AnalyticElement.from_terms(CFG, 2, 1, {(2, 2): CFG.t_series(1)})
    s = hensel_root(a, 2)
    assert (s * s).equals(a)
    # mod t^2 the root is 1 + (1/2) z^2 t
    assert s.f0.coeff(0) == Scalar.of(QQ, 1)
    assert s.zc[(2, 2)].coeff(1) == Scalar.of(QQ, "1/2")


def test_hensel_scenario_radicand(scenario):
    s = hensel_root(scenario.a, 2)
    assert (s * s).equals(scenario.a)
    one = AnalyticElement.one(CFG, scenario.a.chart)
    assert (s - one).valuation() >= 1


def test_hensel_rejects_bad_input(scenario):
    # b is not congruent to 1 modulo t when c_i != 0
    with pytest.raises(ValueError):
        hensel_root(scenario.b, 2)


# -- scenario ------------------------------------------------------------------


def test_scenario_two_center_config():
    cfg2 = Configuration(QQ, [1, 2], 16)
    sc = build_scenario(cfg2, i=1, j=0, k=3, q=2, qprime=2)
    assert (sc.b.rebase(sc.j) * sc.u2).equals(sc.r)


def test_scenario_chart_identity(scenario):
    assert (scenario.b.rebase(scenario.j) * scenario.u2).equals(scenario.r)
    assert (scenario.a.rebase(scenario.j) * scenario.u2).equals(scenario.rp)


def test_scenario_rejects_equal_indices():
    with pytest.raises(ScenarioError):
        build_scenario(CFG, i=1, j=1, k=3, q=2, qprime=2)


def test_scenario_rejects_opposite_centers():
    cfg = Configuration(QQ, [1, -1], 16)
    with pytest.raises(ScenarioError):
        build_scenario(cfg, i=0, j=1, k=3, q=2, qprime=2)


def test_scenario_rejects_huge_degree():
    with pytest.raises(ScenarioError):
        build_scenario(CFG, i=2, j=1, k=3, q=4, qprime=4)


# -- Kummer arithmetic ---------------------------------------------------------


@pytest.fixture(scope="module")
def quad_ext():
    base = Configuration(QQ, [0, 1, 2], 10)
    rad = AnalyticElement.one(base, 0, 10) + z_generator(base, 0, 0, 10).scale_series(
        base.t_series(1, 10)
    )
    return base, rad, KummerExtension.create(base, 0, 2, rad)


def test_alpha_squares_to_radicand(quad_ext):
    base, rad, ext = quad_ext
    alpha = ext.generator()
    sq = alpha * alpha
    assert sq.coords[1].is_zero()
    assert sq.coords[0].elem.equals(LocalizedElement.of(rad))


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_generator_to_the_degree_is_the_radicand(degree):
    """alpha^q = radicand, in degree 1 too, where alpha is the radicand."""
    cfg = lift_configuration(Configuration(QQ, [0, 1, 2], 10))
    rad = AnalyticElement.one(cfg, 0) + z_generator(cfg, 0).scale_series(cfg.t_series(1))
    ext = KummerExtension.create(cfg, 0, degree, rad)
    alpha = ext.generator()
    power = alpha
    for _ in range(degree - 1):
        power = power * alpha
    assert (power - ext.scalar_embed(rad)).is_zero()


def test_elements_of_two_extensions_do_not_multiply(quad_ext):
    """Two extensions of one degree and configuration with different
    radicands: their elements do not mix."""
    base, rad, ext = quad_ext
    other = KummerExtension.create(base, 0, 2, rad + rad)
    with pytest.raises(ExtensionError):
        ext.generator() * other.generator()
    with pytest.raises(ExtensionError):
        ext.generator() + other.generator()


def test_mul_by_one(quad_ext):
    base, rad, ext = quad_ext
    rng = random.Random(41)
    x = ext.element([random_ring_element(base, rng, base.indices, 0),
                     random_ring_element(base, rng, base.indices, 0)])
    one = ext.scalar_embed(AnalyticElement.one(base, 0, 10))
    assert ((x * one) - x).is_zero()


def test_difference_of_squares(quad_ext):
    base, rad, ext = quad_ext
    one = ext.scalar_embed(AnalyticElement.one(base, 0, 10))
    alpha = ext.generator()
    prod = (one + alpha) * (one - alpha)
    want = AnalyticElement.one(base, 0, 10) - rad
    assert prod.coords[1].is_zero()
    assert prod.coords[0].elem.equals(LocalizedElement.of(want))


def test_galois_action(quad_ext):
    base, rad, ext = quad_ext
    alpha = ext.generator()
    assert (alpha.galois(1) + alpha).is_zero()
    rng = random.Random(42)
    for _ in range(5):
        x = ext.element([random_ring_element(base, rng, base.indices, 0),
                         random_ring_element(base, rng, base.indices, 0)])
        y = ext.element([random_ring_element(base, rng, base.indices, 0),
                         random_ring_element(base, rng, base.indices, 0)])
        assert (x.galois(2) - x).is_zero()
        assert ((x * y).galois(1) - x.galois(1) * y.galois(1)).is_zero()


def test_norm_form_and_multiplicativity(quad_ext):
    base, rad, ext = quad_ext
    rng = random.Random(43)
    for _ in range(5):
        b0 = random_ring_element(base, rng, base.indices, 0)
        b1 = random_ring_element(base, rng, base.indices, 0)
        x = ext.element([b0, b1])
        nx = x.norm()
        direct = LocalizedElement.of(b0) * b0 - LocalizedElement.of(rad) * b1 * b1
        assert nx.elem.equals(direct)
        y = ext.element([random_ring_element(base, rng, base.indices, 0),
                         random_ring_element(base, rng, base.indices, 0)])
        assert (x * y).norm().elem.equals(nx.elem * y.norm().elem)


def test_ext_valuation_base_element(scenario):
    ext = KummerExtension.create(
        scenario.cfg, scenario.j, 2, scenario.rp, u2=scenario.u2, radicand_u2_power=1
    )
    zero = AnalyticElement.zero(scenario.cfg, scenario.j)
    x = ext.element([scenario.r, zero])
    assert x.valuation(scenario.pt_r) == prime_point_valuation(scenario.r, scenario.pt_r) == 1


@pytest.fixture(scope="module")
def quartic():
    """The degree-4 extension of radicand r'/u2 over the lifted scenario."""
    sc = build_scenario(lift_configuration(Configuration(QQ, [0, 1, 2], 10)), **SCEN)
    return sc, KummerExtension.create(sc.cfg, sc.j, 4, sc.rp.rebase(sc.j), u2=sc.u2,
                                      radicand_u2_power=1)


def test_norm_law_over_cyclotomic(quartic):
    sc, ext = quartic
    # the degree-4 action has exact order 4 on the generator
    alpha = ext.generator()
    for l in (1, 2, 3):
        assert not (alpha.galois(l) - alpha).is_zero()
    assert (alpha.galois(4) - alpha).is_zero()
    rng = random.Random(44)
    ring = frozenset(sc.cfg.indices) - {sc.i}
    for w in (0, 1, 2):
        x = ext.element([random_ring_element(sc.cfg, rng, ring, sc.j) for _ in range(4)])
        xw = x.mul_base(sc.r ** w) if w else x
        v = xw.valuation(sc.pt_r)
        assert v == x.valuation(sc.pt_r) + w
        for l in range(1, 4):
            assert xw.galois(l).valuation(sc.pt_r) == v
        assert prime_point_valuation(xw.norm().elem, sc.pt_r) == 4 * v


def kummer_valuation(ext, coords, pt):
    try:
        return ext.element(coords).valuation(pt)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("others, want", [
    ((1, 2, 4), 1),  # vanishing through 3 shows v >= 3 > 1
    ((3, 4, 5), 3),  # ... and v >= 3 = 3
    ((4, 5, 4), "eps-degree 3"),  # 3 < 4: undetermined
    ((None, None, None), "eps-degree 3"),  # no valuation known
])
def test_ext_valuation_does_not_depend_on_where_a_coordinate_vanishes(quartic, others, want):
    """r^3 mod t^3 vanishes through its precision 3.  Placed first, in the
    middle or last beside three coordinates u r^e (None: zero), the element
    has one outcome, value or error."""
    sc, ext = quartic
    ring = frozenset(sc.cfg.indices) - {sc.i}
    rng = random.Random(7)
    zero = AnalyticElement.zero(sc.cfg, sc.j)
    known = [zero if e is None else random_ring_element(sc.cfg, rng, ring, sc.j) * sc.r ** e
             for e in others]
    assert [prime_point_valuation(c, sc.pt_r) for c in known if not c.is_zero()] == \
        [e for e in others if e is not None]
    vanishing = (sc.r ** 3).truncate(3)
    with pytest.raises(ValueError, match="exceeds the eps budget"):
        prime_point_valuation(vanishing, sc.pt_r)
    got = {kummer_valuation(ext, known[:p] + [vanishing] + known[p:], sc.pt_r)
           for p in (0, 1, 3)}
    assert len(got) == 1
    got = got.pop()
    assert got == want if isinstance(want, int) else want in got


def test_ext_valuation_is_the_least_coordinate_valuation(quartic):
    """With every coordinate's valuation defined, the element's is their
    minimum, in every order of the coordinates."""
    sc, ext = quartic
    ring = frozenset(sc.cfg.indices) - {sc.i}
    rng = random.Random(8)
    for _ in range(6):
        coords = [random_ring_element(sc.cfg, rng, ring, sc.j) * sc.r ** rng.randrange(4)
                  for _ in range(4)]
        want = min(prime_point_valuation(c, sc.pt_r) for c in coords)
        for p in range(4):
            assert ext.element(coords[p:] + coords[:p]).valuation(sc.pt_r) == want


# -- certificate -----------------------------------------------------------------


def test_certificate_certified(scenario):
    cert = certify_division_algebra(scenario, norm_samples=4, norm_precision=10)
    assert cert.verdict == "certified"
    expected = {
        "v_f(a)": 1, "v_f(b)": 0, "v_g(a)": 0, "v_g(b)": 1,
        "v_r(a)": 0, "v_r(b)": 1, "v_r'(a)": 1, "v_r'(b)": 0,
    }
    for name, want in expected.items():
        assert cert.table[name]["computed"] == want, name
    assert cert.excluded_powers == [1, 2, 3]
    assert cert.norm_law["ok"]
    assert cert.assumptions


def test_certificate_tampered_refuted(scenario):
    cert = certify_division_algebra(scenario, tamper_b=True, norm_samples=2, norm_precision=8)
    assert cert.verdict == "refuted"
    assert cert.table["v_r(b)"]["computed"] == 2
    assert cert.tampered


def test_certificates_share_the_bivariate_valuations(monkeypatch):
    """The scenario computes its six bivariate valuations on first use and
    keeps them; a tampered certificate after a plain one makes none and
    still doubles the rows for b."""
    from patchalg import kummer

    sc = build_scenario(Configuration(QQ, [0, 1, 2], 10), **SCEN)
    calls = []
    valuation = kummer.bivar_prime_valuation

    def counted(g, f):
        calls.append(1)
        return valuation(g, f)

    monkeypatch.setattr(kummer, "bivar_prime_valuation", counted)
    plain = certify_division_algebra(sc, norm_samples=0)
    bad = certify_division_algebra(sc, tamper_b=True, norm_samples=0)
    assert len(calls) == 6
    assert plain.verdict == "certified" and bad.verdict == "refuted"
    for name in ("v_f(b)", "v_g(b)"):
        assert bad.table[name]["computed"] == 2 * plain.table[name]["computed"]


def test_grid_norm_identity(scenario):
    small = build_scenario(Configuration(QQ, [0, 1, 2], 10), **SCEN)
    res = grid_norm_identity(small)
    assert res["s_prime_power_is_b"]
    assert res["s_power_is_a"]


# -- quaternions ------------------------------------------------------------------


def test_quaternion_relations():
    a, b = 3, 5
    i = (0, 1, 0, 0)
    j = (0, 0, 1, 0)
    ij = quaternion_mul(i, j, a, b)
    ji = quaternion_mul(j, i, a, b)
    assert ij == (0, 0, 0, 1)
    assert ji == (0, 0, 0, -1)
    assert quaternion_mul(i, i, a, b) == (a, 0, 0, 0)
    assert quaternion_mul(j, j, a, b) == (b, 0, 0, 0)


def test_quaternion_norm_multiplicative():
    rng = random.Random(45)
    a, b = 2, -3
    for _ in range(20):
        x = tuple(rng.randint(-9, 9) for _ in range(4))
        y = tuple(rng.randint(-9, 9) for _ in range(4))
        assert quaternion_norm(quaternion_mul(x, y, a, b), a, b) == \
            quaternion_norm(x, a, b) * quaternion_norm(y, a, b)


def test_quaternion_associativity():
    rng = random.Random(46)
    a, b = 7, -2
    for _ in range(10):
        x, y, z = (tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3))
        assert quaternion_mul(quaternion_mul(x, y, a, b), z, a, b) == \
            quaternion_mul(x, quaternion_mul(y, z, a, b), a, b)
