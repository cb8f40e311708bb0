"""Tests for classification, the lemma evaluators, and the three
seven-element synthesizers."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from biquadrlc.biquad import CanonicalBiquad, PoleSquaredForm, to_rational_fn, transform_params
from biquadrlc.cli import main
from biquadrlc.network import (
    canonical_key,
    element_count,
    has_pure_reactive_series_arm,
    leaves,
    reactive_count,
    violates_cutset_rule,
)
from biquadrlc.ratpoly import (
    Poly,
    QuadraticRational,
    gcd,
    isolate_root,
    resultant,
    scalar_to_str,
    squarefree_part,
    working_tol,
)
from biquadrlc.realize import (
    _CATALOG,
    _common_root,
    FIG3A_QUARTIC,
    N4A_QUARTIC,
    N5A_DEGREE10,
    NotRealizableError,
    RealizationClass,
    check_fig3a_condition,
    check_n4a_condition,
    check_n5a_condition,
    classify,
    count_roots_below_sqrt5_bound,
    fig3a_p1_quadratic,
    five_element_condition,
    lemma_five_element_two_reactive,
    lemma_four_element,
    lemma_three_element,
    n4a_p1_system,
    n4a_root_interval,
    n5a_p1_system,
    n5a_root_interval,
    synth_config,
    synth_fig3a,
    synth_n4a,
    synth_n5a,
)
from biquadrlc.verify import verify_exact, verify_numeric
from boundaries import BOUNDARIES
from eliminations import ELIMINATIONS

F = Fraction


def B(k, z, p):
    return CanonicalBiquad(F(k), F(z), F(p))


def _mid_mpf(interval, prec=256):
    lo, hi = interval
    mid = (lo + hi) / 2
    with mp.workprec(prec):
        return mpf(mid.numerator) / mid.denominator


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify(B(1, 1, 3)).klass is RealizationClass.FOUR_ELEMENT
    assert classify(B(1, 1, 2)).klass is RealizationClass.FIVE_ELEMENT
    assert classify(B(1, 1, 6)).klass is RealizationClass.NOT_POSITIVE_REAL
    rep = classify(B(1, 1, 5))
    assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG
    assert rep.config == "fig3a" and rep.transform is None
    assert rep.network is not None
    assert float(rep.residual) <= 1e-20


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_classify_decides_exact_four_element_loci_exactly(bits):
    # exact targets just off p = 3z and p = z/3, inside the 1e-20 band; the
    # fig3a values there come from nearly cancelling terms, so this also
    # checks the synthesis at low working precision
    tol = working_tol(bits)
    for p in (3 + F(1, 10**25), F(1, 3) - F(1, 10**35)):
        rep = classify(B(F(7, 25), F(19, 5), F(19, 5) * p), precision_bits=bits, tol=tol)
        assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG, p
        assert rep.config == "fig3a"
        ok, _ = verify_numeric(rep.network, to_rational_fn(rep.target), tol=tol, precision_bits=bits)
        assert ok
    # the band still applies to inexact targets
    with mp.workprec(256):
        near = CanonicalBiquad(mpf(1), mpf(1), 3 + mpf("1e-25"))
        assert classify(near).klass is RealizationClass.FOUR_ELEMENT


def test_classify_decides_quadratic_rational_eta_exactly():
    # 2 + sqrt2 + 10^-25 and 1/(2 + sqrt2) - 10^-25 lie inside the 1e-20 band
    # of the five-element points but off them, so fig3a applies
    for eta, transform in (
        (QuadraticRational(2 + F(1, 10**25), 1, 2), None),
        (QuadraticRational(1 - F(1, 10**25), F(-1, 2), 2), "inv"),
    ):
        b = CanonicalBiquad(F(1), F(1), eta)
        rep = classify(b)
        assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG, eta
        assert (rep.config, rep.transform) == ("fig3a", transform)
        ok, _ = verify_numeric(rep.network, to_rational_fn(b))
        assert ok
    # exactly on the points they are five-element
    for eta in (QuadraticRational(2, 1, 2), QuadraticRational(1, F(-1, 2), 2)):
        assert classify(CanonicalBiquad(F(1), F(1), eta)).klass is RealizationClass.FIVE_ELEMENT
    # rationals keep the band on irrational loci: a 30-digit decimal of
    # 2 + sqrt2 is five-element, and an n4a interval midpoint is on n4a
    with mp.workprec(256):
        digits = F(mpmath.nstr(2 + mpmath.sqrt(2), 30))
    assert five_element_condition(F(1), digits)[0]
    lo, hi = n4a_root_interval()
    assert check_n4a_condition(F(1), (lo + hi) / 2) is True
    assert check_n4a_condition(F(1), QuadraticRational((lo + hi) / 2)) is False


def test_classify_reports_condition_values():
    rep = classify(B(1, 1, 5))
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["fig3a[(eta-1)(eta-3)>0]"].value == "8"
    assert by_name["fig3a[(eta-1)(eta-3)>0]"].passed
    assert by_name["fig3a[quartic(eta)<0]"].value == "-40"
    assert by_name["fig3a[quartic(eta)<0]"].passed
    assert by_name["positive_real[eta^2-6eta+1<=0]"].value == "-4"
    # the catalog on the target, then on its inv image: dual and gdu would
    # repeat these records, as they depend on eta only
    catalog = [
        "fig3a[(eta-1)(eta-3)>0]",
        "fig3a[quartic(eta)<0]",
        "n4a[condition_poly(eta)=0]",
        "n4a[eta<1/(2+sqrt5)]",
        "n5a[condition_poly(eta)=0]",
        "n5a[eta<1/(2+sqrt5)]",
    ]
    assert [c.name for c in rep.conditions] == [
        "positive_real[eta^2-6eta+1<=0]",
        "four_element[eta=3]",
        "four_element[eta=1/3]",
        "five_element[1/3<eta<3]",
        "five_element[eta=2+sqrt2]",
        "five_element[eta=1/(2+sqrt2)]",
        *catalog,
        *(name + "[inv]" for name in catalog),
    ]


def test_classify_unknown_within_scope():
    rep = classify(B(1, 1, F(11, 2)))
    assert rep.klass is RealizationClass.UNKNOWN_WITHIN_SCOPE
    assert rep.network is None


def test_classify_transform_closure_hit():
    rep = classify(B(1, 1, F(1, 4)))
    assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG
    assert rep.config == "fig3a"
    assert rep.transform == "inv"
    assert float(rep.residual) <= 1e-20


def test_classify_formats_each_catalog_value_once_per_composition(monkeypatch):
    # build_config builds fig3a's seven leaves (values in Q(sqrt d)) into
    # one raw tree and canonicalizes it once, which formats each irrational
    # value once: a warm classify calls decimal_str 6 times at p = 5 and 12
    # times at p = 1/5, where the network is also mapped back through inv
    import biquadrlc.ratpoly as ratpoly

    real = ratpoly.decimal_str
    for p, calls in ((5, 6), (F(1, 5), 12)):
        b = B(1, 1, p)
        expected = classify(b).to_json()
        formatted = []
        monkeypatch.setattr(ratpoly, "decimal_str", lambda x, *args: formatted.append(x) or real(x, *args))
        report = classify(b)
        monkeypatch.setattr(ratpoly, "decimal_str", real)
        assert len(formatted) == calls, p
        assert report.to_json() == expected


def test_classify_invariant_under_transform_group():
    rng = random.Random(20250809)
    checked = 0
    while checked < 500:
        k = F(rng.randint(1, 40), rng.randint(1, 40))
        z = F(rng.randint(1, 40), rng.randint(1, 40))
        ratio = F(rng.randint(1, 600), 100)
        p = z * ratio
        if p == z:
            continue
        b = CanonicalBiquad(k, z, p)
        base = classify(b).klass
        for t in ("inv", "dual", "gdu"):
            assert classify(transform_params(b, t)).klass is base
        # classify's premise: the catalog records depend on eta only, which
        # dual maps as inv does and gdu keeps
        image = {t: transform_params(b, t) for t in ("inv", "dual", "gdu")}
        for records, _ in _CATALOG.values():
            assert records(image["dual"].z, image["dual"].p) == records(image["inv"].z, image["inv"].p)
            assert records(image["gdu"].z, image["gdu"].p) == records(b.z, b.p)
        checked += 1


def test_classification_independent_of_gain_and_scale():
    # the class depends only on p/z; k and a common (z, p) scale are inert
    rng = random.Random(5)
    for _ in range(40):
        z = F(rng.randint(1, 30), rng.randint(1, 30))
        ratio = F(rng.randint(1, 70), 10)
        if ratio == 1:
            continue
        base = classify(CanonicalBiquad(F(1), z, z * ratio)).klass
        k = F(rng.randint(1, 50), rng.randint(1, 50))
        c = F(rng.randint(1, 50), rng.randint(1, 50))
        assert classify(CanonicalBiquad(k, c * z, c * z * ratio)).klass is base


def test_report_json_shape():
    data = classify(B(1, 1, 5)).to_json()
    assert data["class"] == "SevenElementCatalog"
    assert data["network"]["type"] == "series"
    assert all(set(c) == {"name", "value", "pass"} for c in data["conditions"])
    assert data["residual"] is not None


# ---------------------------------------------------------------------------
# fig3a


def test_check_fig3a_condition_examples():
    assert check_fig3a_condition(F(1), F(5)) is True
    assert check_fig3a_condition(F(1), F(2)) is False
    # 256 - 384 + 96 - 56 + 5 = -83 < 0 and (3)(1) > 0
    assert check_fig3a_condition(F(1), F(4)) is True


def test_fig3a_p1_unique_positive_root():
    # root product of the p1 quadratic is -p^2 < 0: exactly one positive root
    quad = fig3a_p1_quadratic(F(1), F(5))
    assert quad == Poly([F(50), F(-40), F(-2)])
    net = synth_fig3a(B(1, 1, 5))
    # recover p1 from the synthesized L21 = alpha/(2p + p1), R21 = alpha
    r21 = max(lf.value for lf in leaves(net) if lf.kind == "R")
    l21 = min(lf.value for lf in leaves(net) if lf.kind == "L")
    # the quadratic-formula root -10 + 5 sqrt5, spelled in Q(sqrt20), the
    # field the synthesis adjoins, which is Q(sqrt5): sqrt20 = 2 sqrt5
    assert r21 / l21 - 10 == QuadraticRational(-10, F(5, 2), 20) == QuadraticRational(-10, 5, 5)


def test_synth_fig3a_verifies_numerically():
    b = B(1, 1, 5)
    net = synth_fig3a(b)
    ok, residual = verify_numeric(net, to_rational_fn(b), tol=F(1, 10**25))
    assert ok and float(residual) <= 1e-25


def test_synth_fig3a_exact_quadratic_extension():
    for p in (F(5), F(4), F(1, 2), F(9, 2)):
        b = CanonicalBiquad(F(1), F(1), p)
        net = synth_fig3a(b)
        assert verify_exact(net, to_rational_fn(b))
        assert element_count(net) == 7
        assert reactive_count(net) == 4
        assert not violates_cutset_rule(net)
        assert not has_pure_reactive_series_arm(net)


def test_synth_fig3a_exact_with_rational_square_discriminant():
    # 2(p^2 - 4pz + 5z^2) = (26/7)^2 at p = 31/7, z = 1: p1 is rational and
    # the synthesis must stay in plain rational arithmetic
    b = CanonicalBiquad(F(1), F(1), F(31, 7))
    net = synth_fig3a(b)
    assert all(isinstance(lf.value, Fraction) for lf in leaves(net))
    assert verify_exact(net, to_rational_fn(b))


def test_synth_fig3a_rejects_outside_condition():
    with pytest.raises(NotRealizableError):
        synth_fig3a(B(1, 1, 2))


@pytest.mark.parametrize(
    "bits, n, inverse",
    [(64, 3, False), (64, 6, False), (64, 12, False), (64, 25, True), (80, 35, True),
     (256, 3, True), (256, 23, False)],
)
def test_mpf_target_on_the_fig3a_boundary_is_not_realizable(bits, n, inverse):
    # eta rounds onto the quartic's root r (or 1/r), where R2 vanishes: the
    # condition holds by rounding alone and R2 rounds to 0 or below, which the
    # input decides, not a fault of the program
    r = _mid_mpf(isolate_root(FIG3A_QUARTIC, F(5), F(6), F(1, 10**80)), 400)
    with mp.workprec(400):
        eta = 1 / r if inverse else r
    with mp.workprec(bits):
        z = mpf(n) / 7
        b = CanonicalBiquad(mpf(1), z, z * eta)
    with pytest.raises(NotRealizableError, match="fig3a boundary"):
        classify(b, precision_bits=bits)


def test_synth_fig3a_random_samples_both_branches():
    rng = random.Random(99)
    done_high = done_low = 0
    while done_high < 8 or done_low < 8:
        z = F(rng.randint(1, 20), rng.randint(1, 10))
        if done_high < 8:
            ratio = F(rng.randint(3001, 5316), 1000)
        else:
            ratio = F(rng.randint(401, 999), 1000)
        p = z * ratio
        if not check_fig3a_condition(z, p):
            continue
        b = CanonicalBiquad(F(1), z, p)
        net = synth_fig3a(b)
        assert all(lf.value > 0 for lf in leaves(net))
        ok, residual = verify_numeric(net, to_rational_fn(b), tol=F(1, 10**20))
        assert ok, (z, p, residual)
        if ratio > 3:
            done_high += 1
        else:
            done_low += 1


# ---------------------------------------------------------------------------
# n4a / n5a


def test_root_counts_in_sqrt5_bounded_interval():
    assert count_roots_below_sqrt5_bound(N4A_QUARTIC) == 1
    assert count_roots_below_sqrt5_bound(N5A_DEGREE10) == 1


def test_root_count_splits_roots_straddling_the_sqrt5_endpoint():
    # two rational roots 1e-60 apart on either side of sqrt5 - 2
    lo, hi = isolate_root(Poly([F(-1), F(4), F(1)]), F(0), F(1), F(1, 10**60))
    assert count_roots_below_sqrt5_bound(Poly.from_roots([lo, hi])) == 1
    assert count_roots_below_sqrt5_bound(Poly.from_roots([lo, lo / 2, hi])) == 2
    with pytest.raises(ValueError):
        count_roots_below_sqrt5_bound(Poly([F(-1), F(4), F(1)]) * Poly([F(-1), F(10)]))


def test_n4a_condition_sign_change_bracket():
    # quartic16 is +0.0706 at 0.15 and -0.0544 at 0.2
    q = N4A_QUARTIC
    assert q.eval(F(15, 100)) == F(706, 10**4)
    assert q.eval(F(2, 10)) == F(-544, 10**4)


def test_n4a_condition_exact_rational_is_false():
    # quartic16(1/3) = -14/81 != 0
    assert N4A_QUARTIC.eval(F(1, 3)) == F(-14, 81)
    assert check_n4a_condition(F(1), F(1, 3)) is False


def test_n5a_condition_exact_rational_is_false():
    assert N5A_DEGREE10.eval(F(1, 10)) != 0
    assert check_n5a_condition(F(1), F(1, 10)) is False


@pytest.mark.parametrize("which", ["n4a", "n5a"])
def test_synthesis_at_isolated_root(which):
    if which == "n4a":
        interval, synth = n4a_root_interval(), synth_n4a
    else:
        interval, synth = n5a_root_interval(), synth_n5a
    lo, hi = interval
    assert hi - lo <= F(1, 10**30)
    p = _mid_mpf(interval)
    with mp.workprec(256):
        b = CanonicalBiquad(mpf(1), mpf(1), p)
        net = synth(b)
        assert element_count(net) == 7
        assert reactive_count(net) == 5
        assert all(lf.value > 0 for lf in leaves(net))
        assert not violates_cutset_rule(net)
        assert not has_pure_reactive_series_arm(net)
        ok, residual = verify_numeric(net, to_rational_fn(b), tol=F(1, 10**20))
        assert ok, residual


@pytest.mark.parametrize("which", ["n4a", "n5a"])
def test_synth_config_accepts_every_spelling(which):
    # n4a/n5a are the catalog's fig4a/fig5a, in any case
    interval = n4a_root_interval() if which == "n4a" else n5a_root_interval()
    with mp.workprec(256):
        b = CanonicalBiquad(mpf(1), mpf(1), _mid_mpf(interval))
        spellings = (which, which.upper(), which.replace("n", "fig"), which.replace("n", "FIG"))
        nets = [synth_config(c, b) for c in spellings]
    assert all(net == nets[0] for net in nets)
    with pytest.raises(KeyError):
        synth_config("fig7a", b)


@pytest.mark.parametrize("which", ["n4a", "n5a"])
def test_synthesis_scales_with_gain_and_frequency(which):
    # conditions are homogeneous in (z, p); k only scales impedances
    interval = n4a_root_interval() if which == "n4a" else n5a_root_interval()
    synth = synth_n4a if which == "n4a" else synth_n5a
    eta = _mid_mpf(interval)
    with mp.workprec(256):
        z = mpf(5) / 2
        k = mpf(3) / 4
        b = CanonicalBiquad(k, z, z * eta)
        net = synth(b)
        ok, residual = verify_numeric(net, to_rational_fn(b), tol=F(1, 10**20))
        assert ok, residual


def test_synth_n4a_rejects_off_locus():
    with pytest.raises(NotRealizableError):
        synth_n4a(B(1, 1, F(1, 5)))
    with pytest.raises(NotRealizableError):
        synth_n5a(B(1, 1, F(1, 5)))


def test_classify_hits_n4a_at_root():
    p = _mid_mpf(n4a_root_interval())
    with mp.workprec(256):
        rep = classify(CanonicalBiquad(mpf(1), mpf(1), p))
    assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG
    assert rep.config == "n4a" and rep.transform is None


def test_classify_manages_its_own_precision():
    # high-precision mpf parameters must classify correctly even when the
    # ambient mpmath context is the 53-bit default
    p = _mid_mpf(n4a_root_interval())
    b = CanonicalBiquad(mpf(1), mpf(1), p)
    assert mp.prec == 53
    rep = classify(b, precision_bits=256)
    assert rep.config == "n4a"
    assert float(rep.residual) <= 1e-20


@pytest.mark.parametrize("which", ["n4a", "n5a"])
def test_classify_transformed_hit_synthesizes_at_working_precision(which):
    # eta = 1/eta* reaches the catalog only through inv; the transformed
    # parameters must keep all 256 bits, not be rounded at the ambient 53
    interval = n4a_root_interval() if which == "n4a" else n5a_root_interval()
    with mp.workprec(256):
        p = 1 / _mid_mpf(interval)
    assert mp.prec == 53
    rep = classify(CanonicalBiquad(mpf(1), mpf(1), p), precision_bits=256)
    assert rep.klass is RealizationClass.SEVEN_ELEMENT_CATALOG
    assert (rep.config, rep.transform) == (which, "inv")
    assert float(rep.residual) <= 1e-25

    lo, hi = interval
    exact = classify(CanonicalBiquad(F(1), F(1), 2 / (lo + hi)))
    assert (exact.klass, exact.config, exact.transform) == (rep.klass, which, "inv")


def test_fig3a_subnetwork_impedances_match_analysis_forms():
    # at (k,z,p) = (1,1,5) everything lives in Q(sqrt5): p1 = -10 + 5 sqrt5;
    # the one-reactive half must equal (ms+q)/(s+p1) and the three-reactive
    # half s(alpha s^2 + beta s + gamma)/((s+p1)(s+p)^2)
    from biquadrlc.network import build_config, impedance
    from biquadrlc.ratpoly import RationalFn

    k, z, p = F(1), F(1), F(5)
    p1 = QuadraticRational(-10, 5, 5)
    quad = fig3a_p1_quadratic(z, p)
    assert quad.eval(p1) == 0 and p1 > 0
    alpha = k * (p - z) * (2 * p + p1) * (p * p + z * p - 2 * z * p1) / (2 * p**4)
    beta = 2 * k * (p - z) * (-z * p1 * p1 + p * (p - z) * p1 + z * p * p) / p**3
    gamma = k * p1 * (p - z) * (p * p + z * p - 2 * z * p1) / (2 * p * p)
    q = k * z * z * p1 / (p * p)
    m = k - alpha

    n1 = build_config("fig7a", {"R1": q / p1, "R2": m * q / (q - m * p1), "C1": (q - m * p1) / (q * q)})
    expected_n1 = RationalFn(Poly([q, m]), Poly([p1, q / q]))
    assert impedance(n1) == expected_n1

    n2 = build_config(
        "fig9g",
        {"R21": alpha, "L21": alpha / (2 * p + p1), "L22": alpha * beta / gamma, "C21": 1 / beta},
    )
    one = q / q
    den = Poly([p1, one]) * Poly([p, one]) * Poly([p, one])
    expected_n2 = RationalFn(Poly([0 * one, gamma, beta, alpha]), den)
    assert impedance(n2) == expected_n2


def test_n4a_subnetwork_impedances_match_analysis_forms():
    # at the isolated root: the two-reactive half equals m(s^2+p p1)/((s+p1)(s+p))
    # and the fig9e half (alpha s^2 + beta s + gamma)/((s+p1)(s+p)^2)
    from biquadrlc.network import build_config, impedance
    from biquadrlc.ratpoly import RationalFn
    from biquadrlc.verify import coefficient_residual

    p = _mid_mpf(n4a_root_interval())
    with mp.workprec(256):
        k, z = mpf(1), mpf(1)
        f, g = n4a_p1_system(z, p)
        import mpmath as _mp

        aa, bb, cc = f.coeffs[2], f.coeffs[1], f.coeffs[0]
        sq = _mp.sqrt(bb * bb - 4 * aa * cc)
        p1 = min([(-bb + sq) / (2 * aa), (-bb - sq) / (2 * aa)], key=lambda r: abs(g.eval(r)))
        alpha = k * (p1 + 2 * z - p)
        beta = k * (2 * z * p1 + z * z - p1 * p)
        gamma = k * p1 * (z - p) * (z + p)
        m = k
        d = 2 * alpha * p + alpha * p1 - beta

        n1 = build_config("fig8b", {"R1": m, "L1": m / (p + p1), "C1": (p + p1) / (m * p * p1)})
        z1 = impedance(n1)
        expected1 = RationalFn(
            Poly([m * p * p1, mpf(0), m]), Poly([p1, mpf(1)]) * Poly([p, mpf(1)])
        )
        res1 = coefficient_residual(z1.num * expected1.den, expected1.num * z1.den)
        assert res1 < mpf("1e-70")

        n2 = build_config(
            "fig9e",
            {"C21": 1 / alpha, "C22": d / (alpha * beta), "R21": alpha * alpha / d,
             "L21": alpha * alpha * beta / (gamma * d)},
        )
        z2 = impedance(n2)
        expected2 = RationalFn(
            Poly([gamma, beta, alpha]),
            Poly([p1, mpf(1)]) * Poly([p, mpf(1)]) * Poly([p, mpf(1)]),
        )
        res2 = coefficient_residual(z2.num * expected2.den, expected2.num * z2.den)
        assert res2 < mpf("1e-25")


_LOCUS = {"n4a": (n4a_root_interval, n4a_p1_system), "n5a": (n5a_root_interval, n5a_p1_system)}


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("tag", ["n4a", "n5a"])
def test_p1_is_fs_root_where_g_is_least_certified_exactly(monkeypatch, tag, bits):
    # the p1 that classify synthesizes with, direct and through inv, from
    # Fraction and mpf inputs: f changes sign within p1 (1 -+ 2^(8 - bits)),
    # decided exactly, at the positive root of f where |g| is least
    import biquadrlc.realize as realize
    from biquadrlc.ratpoly import _exact_value

    interval, system = _LOCUS[tag]
    lo, hi = interval()
    mid = (lo + hi) / 2
    seen = []
    common_root = realize._common_root
    monkeypatch.setattr(realize, "_common_root", lambda f, g: seen.append((f, g, common_root(f, g))) or seen[-1][2])
    rng = random.Random(bits)
    for exact in (True, False):
        for transform in (None, "inv"):
            k, z = (math.exp(rng.uniform(math.log(0.2), math.log(5))) for _ in range(2))
            with mp.workprec(bits):
                mid_mpf = mpf(mid.numerator) / mid.denominator
                if exact:
                    b = B(k, z, F(z) * mid if transform is None else F(z) / mid)
                else:
                    b = CanonicalBiquad(mpf(k), mpf(z), mpf(z) * mid_mpf if transform is None else mpf(z) / mid_mpf)
            seen.clear()
            report = classify(b, precision_bits=bits)
            assert (report.klass, report.config, report.transform) == (RealizationClass.SEVEN_ELEMENT_CATALOG, tag,
                                                                       transform)
            (f, g, p1), = seen
            x, eps = _exact_value(p1), F(2) ** (8 - bits)
            assert f.eval(x * (1 - eps)) * f.eval(x * (1 + eps)) < 0
            with mp.workprec(800):
                # f's positive roots from mpmath: p1 is nearest the one of least |g|
                as_mpf = lambda poly: [mpf(c.numerator) / c.denominator for c in reversed(poly.coeffs)]
                roots = [mpmath.re(r) for r in mpmath.polyroots(as_mpf(f), maxsteps=200, extraprec=800)
                         if abs(mpmath.im(r)) < mpf(2) ** -700 and mpmath.re(r) > 0]
                least = min(roots, key=lambda r: abs(mpmath.polyval(as_mpf(g), r)))
                assert min(roots, key=lambda r: abs(r - p1)) == least
                assert abs(least - p1) <= eps * p1


@pytest.mark.parametrize("call", [
    lambda: isolate_root(N4A_QUARTIC, F(15, 100), F(2, 10), F(1, 10**30)),
    n5a_root_interval,
    lambda: _common_root(*n5a_p1_system(F(1), F("0.18540003985756203902795763551110015756707659752299"))),
    lambda: main(["roots", "--poly", '["1","-10","31","-40","16"]', "--lo", "0.15", "--hi", "0.2"]),
], ids=["isolate_root", "n5a_root_interval", "_common_root", "roots"])
def test_one_squarefree_part_and_one_sturm_sequence_per_polynomial(monkeypatch, capsys, call):
    # each count and isolation on a polynomial shares one Sturm chain
    import biquadrlc.ratpoly as ratpoly

    built = {"squarefree_part": [], "sturm_sequence": []}
    for name, calls in built.items():
        original = getattr(ratpoly, name)
        monkeypatch.setattr(ratpoly, name, lambda a, calls=calls, original=original: calls.append(a) or original(a))
    call()
    assert len(built["squarefree_part"]) == len(built["sturm_sequence"]) == 1


def test_a_report_prints_its_values_as_stored_at_any_working_precision():
    # the 256-bit residual of an n4a synthesis, printed outside any workprec:
    # 50 digits of the stored value, not of its rounding to 53 bits; the
    # canonical key of its mpf network does not move with the precision either;
    # p is 3/2 times a fixed point within 1e-30 of the n4a root
    root = F(60979477604182187962504080822493065462765, 348449143727040986586495598010130648530944)
    report = classify(B(F(7, 5), F(3, 2), F(3, 2) * root))
    outside, key = report.to_json(), canonical_key(report.network)
    with mp.workprec(256):
        assert (report.to_json(), canonical_key(report.network)) == (outside, key)
    assert outside["residual"] == mpmath.nstr(report.residual, 50)
    assert outside["residual"].startswith("8.0561461058955948639")


# ---------------------------------------------------------------------------
# resultant identities


def _nested_pz():
    pp = lambda *cs: Poly([F(c) for c in cs])
    p_elem = Poly([pp(0, 1)])
    z_elem = Poly([pp(), pp(1)])
    return z_elem, p_elem


def test_n4a_resultant_identity_bivariate():
    z, p = _nested_pz()
    f, g = n4a_p1_system(z, p)
    res = resultant(f, g)
    expected = ELIMINATIONS["n4a"].expected(z, p)
    assert res == expected or res == -expected


def test_n5a_resultant_identity_univariate():
    # published value corresponds to padding the cubic to formal degree 4,
    # an extra factor lc(g) = 2z(4p - z) relative to the Sylvester resultant
    one = F(1)
    p = Poly([F(0), F(1)])
    f, g = n5a_p1_system(one, p)
    res = resultant(f, g)
    lc = g.leading
    expected = ELIMINATIONS["n5a"].expected(Poly.constant(one), p)
    assert res * lc == expected or res * lc == -expected


def test_aux_resultants_at_exact_points():
    rng = random.Random(17)
    formal_factor = {"n5a": lambda z, p: 2 * z * (4 * p - z)}
    for name, elim in ELIMINATIONS.items():
        for _ in range(6):
            z = F(rng.randint(1, 9), rng.randint(1, 5))
            p = F(rng.randint(1, 9), rng.randint(1, 5))
            f, g = elim.system(z, p)
            if f.degree < 1 or g.degree < 1:
                continue
            res = resultant(f, g) * formal_factor.get(name, lambda z, p: F(1))(z, p)
            expected = elim.expected(z, p)
            assert res == expected or res == -expected, (name, z, p)


def test_fig3a_template_fit_agrees_with_condition():
    # independent route: multistart least squares on the fig3a template must
    # succeed where the condition holds and hit a floor where it fails
    from biquadrlc.network import config_template
    from biquadrlc.verify import fit_topology

    template = config_template("fig3a")
    realizable = to_rational_fn(B(1, 1, 5))
    fit = fit_topology(template, realizable, seed=11, starts=48, budget=12000)
    assert fit.success and fit.residual <= 1e-8

    # eta = 2 fails (eta-1)(eta-3) > 0: no positive values can fit
    not_realizable = to_rational_fn(B(1, 1, 2))
    fit = fit_topology(template, not_realizable, seed=11, starts=48, budget=12000)
    assert not fit.success
    assert fit.residual > 1e-6


# ---------------------------------------------------------------------------
# lemma evaluators


def PS(a, b, g, p):
    return PoleSquaredForm(F(a), F(b), F(g), F(p))


def test_lemma_three_element_examples():
    assert lemma_three_element(PS(1, 2, 1, 1)) == (True, 5)
    assert lemma_three_element(PS(0, 1, 2, 1)) == (True, 4)
    assert lemma_three_element(PS(1, 1, 1, 1)) == (False, None)
    assert lemma_three_element(PS(0, 3, 0, 2)) == (True, 1)


def test_lemmas_decide_exact_inputs_exactly():
    # alpha p^2 - beta p + gamma = 10^-25 is not 0: no common factor with (s+1)^2
    assert lemma_three_element(PoleSquaredForm(F(1, 10**25), F(1), F(1), F(1))) == (False, None)
    # alpha p^2 - gamma = -10^-25 is not 0, and no other condition holds
    near = PS(1, 3, 1 + F(1, 10**25), 1)
    assert lemma_four_element(near) == (False, None)
    # the band still applies to inexact inputs
    with mp.workprec(256):
        inexact = PoleSquaredForm(mpf(1), mpf(3), 1 + mpf("1e-25"), mpf(1))
        assert lemma_four_element(inexact) == (True, 3)
        inexact = PoleSquaredForm(mpf("1e-25"), mpf(1), mpf(1), mpf(1))
        assert lemma_three_element(inexact) == (True, 5)


def test_lemma_four_element_examples():
    # alpha = 0 with 0 < gamma < 2 beta p and no three-element hit
    assert lemma_four_element(PS(0, 1, 1, 2)) == (True, 1)
    assert lemma_four_element(PS(1, 1, 1, 1)) == (True, 3)
    assert lemma_four_element(PS(1, 100, 2, 1)) == (False, None)


def test_lemma_four_element_precondition():
    # (0,1,1,p=1) satisfies three-element condition 5 (0 - 1 + 1 = 0)
    assert lemma_three_element(PS(0, 1, 1, 1)) == (True, 5)
    with pytest.raises(ValueError):
        lemma_four_element(PS(0, 1, 1, 1))


def test_lemma_five_element_examples():
    assert lemma_five_element_two_reactive(PS(1, 5, F(1, 2), 1)) == (True, 1)
    assert lemma_five_element_two_reactive(PS(F(1, 2), 5, 1, 1)) == (True, 3)
    # all four strict inequalities fail
    assert lemma_five_element_two_reactive(PS(1, F(1, 4), F(1, 2), 1)) == (False, None)


def test_lemma_five_element_preconditions():
    with pytest.raises(ValueError):
        lemma_five_element_two_reactive(PS(0, 1, 1, 2))
    # alpha p^2 = gamma triggers four-element condition 3, so the boundary
    # point is rejected rather than reported False
    with pytest.raises(ValueError):
        lemma_five_element_two_reactive(PS(1, 3, 1, 1))


def test_lemma_scaling_invariance():
    rng = random.Random(31)
    for _ in range(200):
        a = F(rng.randint(0, 8), rng.randint(1, 5))
        bb = F(rng.randint(0, 8), rng.randint(1, 5))
        g = F(rng.randint(0, 8), rng.randint(1, 5))
        p = F(rng.randint(1, 8), rng.randint(1, 5))
        if a == 0 and bb == 0 and g == 0:
            continue
        c = F(rng.randint(1, 60), rng.randint(1, 60))
        f1 = PoleSquaredForm(a, bb, g, p)
        f2 = PoleSquaredForm(a * c, bb * c, g * c, p)
        assert lemma_three_element(f1) == lemma_three_element(f2)
        ok3, _ = lemma_three_element(f1)
        if ok3:
            continue
        assert lemma_four_element(f1) == lemma_four_element(f2)
        ok4, _ = lemma_four_element(f1)
        if ok4 or not (a > 0 and bb > 0 and g > 0):
            continue
        assert lemma_five_element_two_reactive(f1) == lemma_five_element_two_reactive(f2)


# ---------------------------------------------------------------------------
# auxiliary polynomial catalog


def test_auxiliary_polynomials():
    # every resultant factor but the octic is squarefree, so its power is its
    # multiplicity; the octic is (eta - 1)^2 times a squarefree sextic
    for name, elim in ELIMINATIONS.items():
        if name == "octic":
            assert gcd(elim.factor, elim.factor.derivative()) == Poly([F(-1), F(1)])
        else:
            assert squarefree_part(elim.factor) == elim.factor.monic(), name
    # classify decides n4a and n5a on the factors of those resultants, on the
    # parameters and on their transform images
    eta = F(1, 10)
    values = {c.name: c.value for c in classify(B(1, 1, eta)).conditions}
    for name in ("n4a", "n5a"):
        factor = ELIMINATIONS[name].factor
        assert values["%s[condition_poly(eta)=0]" % name] == scalar_to_str(factor.eval(eta))
        assert values["%s[condition_poly(eta)=0][inv]" % name] == scalar_to_str(
            factor.eval(1 / eta)
        )


def test_equality_tolerance_on_floats():
    # a float within 1e-20 of the locus passes; a clearly-off one fails
    p = _mid_mpf(n4a_root_interval())
    with mp.workprec(256):
        assert check_n4a_condition(mpf(1), p) is True
        assert check_n4a_condition(mpf(1), p + mpf("1e-6")) is False
        assert working_tol() == F(1, 10**20)


# ---------------------------------------------------------------------------
# the band follows the working precision


@pytest.mark.parametrize("bits", [64, 80, 128])
def test_four_element_targets_rounded_to_the_working_precision_stay_four_element(bits):
    # rational k and z with p = 3z or z/3, each rounded to a bits-bit mpf: the
    # band is 2^(16 - bits) below 83 bits, so every target lies in it (a
    # fixed 1e-20, below one unit in the last place at 64 bits, missed a
    # third of them, and some of those raised RuntimeError)
    rng = random.Random(20)
    for _ in range(200):
        k, z = (F(rng.randint(1, 999), rng.randint(1, 999)) for _ in range(2))
        p = 3 * z if rng.random() < 0.5 else z / 3
        with mp.workprec(bits):
            b = CanonicalBiquad(*(mpf(v.numerator) / v.denominator for v in (k, z, p)))
        assert classify(b, precision_bits=bits).klass is RealizationClass.FOUR_ELEMENT, (k, z, p)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(BOUNDARIES)),
    st.integers(64, 256),
    st.fractions(F(1, 100), F(100), max_denominator=100),
    st.fractions(F(1, 100), F(100), max_denominator=100),
    st.one_of(st.just(0), st.integers(3, 80)),
    st.sampled_from([1, -1]),
)
def test_mpf_targets_near_every_boundary_get_a_documented_answer(name, bits, k, z, digits, sign):
    # eta on a boundary, or 10^-digits off it relatively, with every value an
    # mpf of the working precision: the class is one of those on either side,
    # a target the band puts on an n4a/n5a locus may be rejected
    # (NotRealizableError), and no other error is raised; on the boundary
    # itself the band always holds the target
    eta_at, on_boundary, near = BOUNDARIES[name]
    with mp.workprec(bits + 64):
        eta = eta_at() * (1 + sign * (mpf(10) ** -digits if digits else 0))
    with mp.workprec(bits):
        zz = mpf(z.numerator) / z.denominator
        b = CanonicalBiquad(mpf(k.numerator) / k.denominator, zz, +(eta * zz))
    try:
        rep = classify(b, precision_bits=bits)
    except NotRealizableError as exc:
        assert on_boundary and "band of the %s locus" % on_boundary[1] in str(exc)
        assert digits, "a target rounded from the locus verifies"
        return
    assert rep.klass.value in near
    if not digits and on_boundary is not None:
        assert (rep.klass.value, rep.config) == on_boundary
    if rep.config is not None:
        assert rep.network is not None and float(rep.residual) <= working_tol(bits)
