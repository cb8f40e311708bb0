"""Tests for the target-impedance types and the positive-real tests."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from biquadrlc.biquad import (
    CanonicalBiquad,
    GeneralBiquad,
    PoleSquaredForm,
    canonical_positive_real,
    canonical_to_general,
    is_positive_real,
    pole_squared_to_general,
    pole_zero_ratio,
    target_from_json,
    target_to_json,
    to_rational_fn,
    transform_params,
)
from biquadrlc.cli import main
from biquadrlc.network import apply_transform, impedance
from biquadrlc.ratpoly import Poly, QuadraticRational, RationalFn

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def test_canonical_to_general_quoted_substitution():
    g = canonical_to_general(CanonicalBiquad(F(1), F(1), F(3)), F(1))
    assert g.coeffs() == (F(1), F(2), F(1), F(1), F(6), F(9))


def test_canonical_rejects_p_equal_z():
    with pytest.raises(ValueError):
        CanonicalBiquad(F(1), F(1), F(1))


def test_canonical_to_general_scaled():
    g = canonical_to_general(CanonicalBiquad(F(2), F(3), F(5)), F(2))
    assert g.coeffs() == (F(4), F(24), F(36), F(2), F(20), F(50))
    # Z(0) = C/F = kz^2/p^2 = 18/25
    assert F(g.C, 1) / g.F == F(18, 25)


def test_is_positive_real_examples():
    assert is_positive_real(GeneralBiquad(1, 2, 1, 1, 2, 1)) is True
    assert is_positive_real(GeneralBiquad(1, 1, 4, 1, 1, 4)) is True
    # (sqrt(16) - sqrt(1))^2 = 9 > 1*1
    assert is_positive_real(GeneralBiquad(4, 1, 1, 1, 1, 4)) is False


def _positive_real_by_definition(coeffs) -> bool:
    """The definition of a positive-real Z(s) = (A s^2 + B s + C)/(D s^2 +
    E s + F), decided exactly by sympy on Z in lowest terms: no pole or zero
    in Re s > 0, every pole and zero on the jw axis simple (s = 0 and s = oo
    included), a real positive residue at each finite pole there, and
    Re Z(jw) >= 0 for every real w."""
    sympy = pytest.importorskip("sympy")
    s, w = sympy.Symbol("s"), sympy.Symbol("w", real=True)
    A, B, C, D, E, F_ = (sympy.Rational(c.numerator, c.denominator) for c in coeffs)
    num, den = sympy.Poly(A * s**2 + B * s + C, s), sympy.Poly(D * s**2 + E * s + F_, s)
    common = sympy.gcd(num, den)
    num, den = num.exquo(common), den.exquo(common)
    if abs(num.degree() - den.degree()) > 1:  # a multiple pole or zero at s = oo
        return False
    for poly in (num, den):
        for root, multiplicity in sympy.roots(poly).items():
            if sympy.re(root) > 0 or (sympy.re(root) == 0 and multiplicity > 1):
                return False
            if poly is den and sympy.re(root) == 0:
                residue = sympy.simplify(num.eval(root) / den.diff(s).eval(root))
                if not (sympy.im(residue) == 0 and sympy.re(residue) > 0):
                    return False
    # Re Z(jw) = Re(num(jw) conj(den(jw))) / |den(jw)|^2 >= 0 for every real w
    # exactly when this even polynomial in w has no real root of odd
    # multiplicity and a positive value away from its roots
    re_part = sympy.Poly(sympy.re(sympy.expand(num.as_expr().subs(s, sympy.I * w)
                                               * den.as_expr().subs(s, -sympy.I * w))), w)
    if re_part.is_zero:
        return True
    roots = re_part.real_roots()
    if any(roots.count(r) % 2 for r in roots):
        return False
    away = 1 + max((abs(r) for r in roots), default=0)
    return bool(re_part.eval(away) > 0)


_COEFFICIENT = st.one_of(st.just(F(0)), st.fractions(F(0), F(9), max_denominator=4))


@st.composite
def _general_biquads(draw):
    """Nonnegative rational coefficients, zeros included, half of them on
    the boundary (sqrt(AF) - sqrt(CD))^2 = BE of the positive-real test or
    1/7 off it."""
    if draw(st.booleans()):
        coeffs = [draw(_COEFFICIENT) for _ in range(6)]
    else:
        a, c, d, f, e = (draw(st.integers(0, 4)) for _ in range(5))
        gap = max(F(0), (a * f - c * d) ** 2 + draw(st.sampled_from([F(0), F(0), F(1, 7), F(-1, 7)])))
        b = gap / e if e else draw(_COEFFICIENT)
        coeffs = [F(a * a), b, F(c * c), F(d * d), F(e), F(f * f)]
    assume(any(coeffs[:3]) and any(coeffs[3:]))
    return coeffs


@settings(max_examples=150, deadline=None)
@given(_general_biquads())
def test_is_positive_real_agrees_with_the_definition(coeffs):
    assert is_positive_real(GeneralBiquad(*coeffs)) is _positive_real_by_definition(coeffs), coeffs


def test_canonical_positive_real_examples():
    assert canonical_positive_real(CanonicalBiquad(F(1), F(1), F(3))) is True
    assert canonical_positive_real(CanonicalBiquad(F(1), F(1), F(6))) is False


def test_canonical_positive_real_exact_boundary():
    # p = (3 + 2 sqrt 2) z makes p^2 - 6zp + z^2 exactly zero (non-strict)
    p = QuadraticRational(3, 2, 2)
    b = CanonicalBiquad(F(1), F(1), p)
    assert p * p - 6 * p + 1 == 0
    assert canonical_positive_real(b) is True
    just_outside = CanonicalBiquad(F(1), F(1), p + F(1, 10**9))
    assert canonical_positive_real(just_outside) is False


def test_pr_independent_of_expansion_scale():
    rng = random.Random(3)
    for b in (
        CanonicalBiquad(F(2), F(1), F(4)),
        CanonicalBiquad(F(1), F(3), F(20)),
    ):
        results = set()
        for _ in range(20):
            x = F(rng.randint(1, 500), rng.randint(1, 500))
            results.add(is_positive_real(canonical_to_general(b, x)))
        assert len(results) == 1
        assert results.pop() == canonical_positive_real(b)


def test_transform_params_examples():
    b = transform_params(CanonicalBiquad(F(2), F(1), F(3)), "dual")
    assert (b.k, b.z, b.p) == (F(1, 2), F(3), F(1))
    b = transform_params(CanonicalBiquad(F(1), F(2), F(4)), "inv")
    assert (b.k, b.z, b.p) == (F(1, 4), F(1, 2), F(1, 4))
    b0 = CanonicalBiquad(F(5), F(2), F(7))
    assert transform_params(transform_params(b0, "dual"), "dual") == b0


def test_transform_params_group_action():
    rng = random.Random(9)
    for _ in range(50):
        b = CanonicalBiquad(
            F(rng.randint(1, 30), rng.randint(1, 30)),
            F(rng.randint(1, 30), rng.randint(1, 30)),
            F(rng.randint(1, 30), rng.randint(1, 30)) + F(31),
        )
        for t in ("inv", "dual", "gdu"):
            assert transform_params(transform_params(b, t), t) == b
        assert transform_params(b, "dual") == transform_params(
            transform_params(b, "inv"), "gdu"
        )
        assert transform_params(b, "dual") == transform_params(
            transform_params(b, "gdu"), "inv"
        )
        # the PR interval is closed under r -> 1/r and p <-> z
        pr = canonical_positive_real(b)
        for t in ("inv", "dual", "gdu"):
            assert canonical_positive_real(transform_params(b, t)) == pr


def test_transform_params_dual_matches_reciprocal_oracle():
    b = CanonicalBiquad(F(2), F(1), F(3))
    z = to_rational_fn(b)
    zd = to_rational_fn(transform_params(b, "dual"))
    assert z * zd == RationalFn.constant(F(1))


def test_transform_params_inv_matches_substitution_oracle():
    b = CanonicalBiquad(F(1), F(2), F(4))
    assert to_rational_fn(transform_params(b, "inv")) == to_rational_fn(
        b
    ).substitute_inverse()


def test_transforms_commute_with_network_transforms():
    # a network realizing a canonical biquad: series RLC tank assembly is
    # not needed; use the four-element realization of (s+1)^2/(s+3)^2
    from biquadrlc.network import Leaf, parallel, series

    net = series(
        Leaf("R", F(1, 9)),
        parallel(
            Leaf("L", F(4, 27)), series(Leaf("R", F(8, 9)), Leaf("C", F(3, 4)))
        ),
    )
    b = CanonicalBiquad(F(1), F(1), F(3))
    assert impedance(net) == to_rational_fn(b)
    for t in ("dual", "inv", "gdu"):
        assert impedance(apply_transform(net, t)) == to_rational_fn(
            transform_params(b, t)
        )


def test_to_rational_fn_examples():
    assert to_rational_fn(CanonicalBiquad(F(1), F(1), F(2))) == RationalFn(
        P(1, 2, 1), P(4, 4, 1)
    )
    assert to_rational_fn(GeneralBiquad(1, 2, 1, 1, 6, 9)) == RationalFn(
        P(1, 2, 1), P(9, 6, 1)
    )
    # full cancellation down to a constant
    assert to_rational_fn(PoleSquaredForm(F(1), F(2), F(1), F(1))) == RationalFn.constant(
        F(1)
    )


def test_pole_squared_allows_zero_coefficients():
    f = PoleSquaredForm(F(0), F(1), F(2), F(1))
    assert to_rational_fn(f) == RationalFn(P(2, 1), P(1, 2, 1))
    with pytest.raises(ValueError):
        PoleSquaredForm(F(0), F(0), F(0), F(1))


@pytest.mark.parametrize(
    "coeffs",
    [(1, 2, 1, 1), (1, 0, 1, 1), (0, 1, 2, 1), (1, 0, 9, 1), (5, 1, 1, F(3, 2)), (2, F(1, 10), 0, 7)],
)
def test_pole_squared_to_general_matches_cli_pr_check(coeffs, capsys):
    f = PoleSquaredForm(*map(F, coeffs))
    g = pole_squared_to_general(f)
    assert to_rational_fn(g) == to_rational_fn(f)
    code = main(["pr-check", "--target", '{"alpha": "%s", "beta": "%s", "gamma": "%s", "p": "%s"}' % coeffs])
    assert json.loads(capsys.readouterr().out)["positive_real"] is is_positive_real(g)
    assert code == (0 if is_positive_real(g) else 1)


def test_target_json_roundtrip():
    b = CanonicalBiquad(F(1), F(2), F(3))
    assert target_from_json(target_to_json(b)) == b
    g = GeneralBiquad(*map(F, (1, 2, 1, 1, 6, 9)))
    assert target_from_json(target_to_json(g)) == g
    f = PoleSquaredForm(F(1), F(1), F(1), F(2))
    assert target_from_json(target_to_json(f)) == f
    r = target_from_json({"num": ["1", "2", "1"], "den": ["9", "6", "1"]})
    assert r == RationalFn(P(1, 2, 1), P(9, 6, 1))


def test_pole_zero_ratio_takes_the_field_of_both_arguments():
    q = QuadraticRational(2, 1, 2)
    exact = [
        ((2, 6), F(3)),
        ((F(1, 2), 3), F(6)),
        ((F(1, 2), q), QuadraticRational(4, 2, 2)),
        ((q, 2), QuadraticRational(2, -1, 2)),
    ]
    for (z, p), eta in exact:
        got = pole_zero_ratio(z, p)
        assert got == eta and type(got) is type(eta), (z, p)
    with mp.workprec(128):
        inexact = [
            ((mpf(2), 6), mpf(3)),
            ((F(1, 2), mpf(3)), mpf(6)),
            ((mpf(1), q), q.to_mpf()),
            ((q, mpf(2)), QuadraticRational(2, -1, 2).to_mpf()),
        ]
        for (z, p), eta in inexact:
            got = pole_zero_ratio(z, p)
            assert isinstance(got, mpf) and abs(got - eta) <= mpf(2) ** -120, (z, p)
