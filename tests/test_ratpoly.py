"""Tests for the exact polynomial / rational-function layer."""

import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquadrlc.ratpoly import (
    Poly,
    QuadraticRational,
    RationalFn,
    decimal_str,
    field_of,
    gcd,
    isolate_root,
    resultant,
    scalar_from_str,
    scalar_to_str,
    squarefree_part,
    sturm_count,
)
from biquadrlc.realize import FIG3A_QUARTIC, N4A_QUARTIC
from eliminations import ELIMINATIONS

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_binomial_square():
    assert P(1, 1) * P(1, 1) == P(1, 2, 1)


def test_add_identity():
    p = P(3, 0, 7)
    assert p + Poly.zero() == p


def test_mul_cross_checked_by_evaluation():
    prod = P(-2, 1) * P(-3, 1)
    assert prod == P(6, -5, 1)
    for x in (F(0), F(1), F(2)):
        assert prod.eval(x) == (x - 2) * (x - 3)


def test_zero_polynomial_canonical_encoding():
    assert Poly([0, 0]).is_zero
    assert Poly([0, 0]).coeffs == ()
    assert P(1, 0).coeffs == (F(1),)


def test_eval_horner_matches_expanded_sum():
    p = FIG3A_QUARTIC  # 5 - 14x + 6x^2 - 6x^3 + x^4
    x = F(5)
    expanded = sum(c * x**i for i, c in enumerate(p.coeffs))
    assert p.eval(x) == expanded == F(-40)
    assert p.eval(F(0)) == p.coeffs[0]


def test_derivative():
    assert P(1, 2, 1).derivative() == P(2, 2)
    assert Poly.zero().derivative().is_zero


def test_divmod_roundtrip():
    a = P(2, 0, -3, 1)
    b = P(1, 1)
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_mpf_remainder_drops_divisor_degree():
    # at 53 bits c - (c/49)*49 rounds to about 1e-16, not 0; the eliminated
    # coefficients must still vanish or Euclidean chains never shrink
    with mpmath.workprec(53):
        a = Poly([mpmath.mpf(1)] * 4)
        b = Poly([mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(49)])
        q, r = a.divmod(b)
        assert r.degree < 2
        assert q.degree == 1


# ---------------------------------------------------------------------------
# gcd


def test_gcd_shared_factor():
    assert gcd(P(1, 2, 1), P(1, 1)) == P(1, 1)


def test_gcd_coprime_linears():
    assert gcd(P(2, 1), P(3, 1)) == P(1)


def test_gcd_constructed_factors_verified_by_division():
    a = P(1, 1) * P(1, 1) * P(5, 1)
    b = P(1, 1) * P(7, 1)
    g = gcd(a, b)
    assert g == P(1, 1)
    assert (a % g).is_zero and (b % g).is_zero


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gcd_divides_and_resultant_zero_iff_common_factor(data):
    def rand_poly(min_deg=0, max_deg=3):
        deg = data.draw(st.integers(min_deg, max_deg))
        coeffs = [
            F(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
            for _ in range(deg)
        ]
        coeffs.append(F(data.draw(st.integers(1, 4))))
        return Poly(coeffs)

    a, b = rand_poly(), rand_poly()
    g = gcd(a, b)
    assert (a % g).is_zero and (b % g).is_zero
    if a.degree >= 1 and b.degree >= 1:
        res = resultant(a, b)
        assert (res == 0) == (g.degree >= 1)


# ---------------------------------------------------------------------------
# resultant


def test_resultant_linear_case_is_sylvester_det():
    # det [[1, -2], [1, -3]] = -3 + 2 = -1
    assert resultant(P(-2, 1), P(-3, 1)) == F(-1)


def test_resultant_shared_root_is_zero():
    assert resultant(P(-1, 0, 1), P(-1, 1)) == 0


def test_resultant_rejects_degree_zero():
    with pytest.raises(ValueError):
        resultant(P(3), P(0, 1))
    with pytest.raises(ValueError):
        resultant(Poly.zero(), P(0, 1))


def test_resultant_matches_root_product_formula():
    # res(a, b) = lc(a)^deg b * prod b... checked via the root-difference
    # product for split polynomials: res = lc(a)^n lc(b)^m prod (ri - sj)
    rng = random.Random(7)
    for _ in range(25):
        ra = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        rb = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        la, lb = F(rng.randint(1, 3)), F(rng.randint(1, 3))
        a = Poly.from_roots(ra, la)
        b = Poly.from_roots(rb, lb)
        expected = la ** len(rb) * lb ** len(ra)
        for ri in ra:
            for sj in rb:
                expected *= ri - sj
        assert resultant(a, b) == expected


def test_resultant_bivariate_entries():
    # res_y(y - x, y - 2x) must be -x  (up to the fixed sign convention:
    # det [[1, -x], [1, -2x]] = -2x + x = -x)
    x = Poly.x()
    a = Poly([-1 * x, Poly.constant(F(1))])
    b = Poly([-2 * x, Poly.constant(F(1))])
    res = resultant(a, b)
    assert isinstance(res, Poly)
    assert res == Poly([F(0), F(-1)])


def test_resultant_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(23)

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))

    for _ in range(25):
        a = Poly(
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            + [F(rng.randint(1, 4))]
        )
        b = Poly(
            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            + [F(rng.randint(1, 4))]
        )
        mine = resultant(a, b)
        theirs = sympy.resultant(to_sympy(a), to_sympy(b), x)
        # compare up to sign: the subresultant-PRS route sympy uses does not
        # track the Sylvester sign (it can return res(f,g) = res(g,f) even
        # for odd degree products); the sign of this implementation is pinned
        # separately by the root-product formula test
        assert abs(sympy.Rational(mine.numerator, mine.denominator)) == abs(theirs)


def _random_int_poly(rng, max_degree):
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, max_degree))]
    return Poly([F(c) for c in coeffs] + [F(rng.choice([-3, -2, -1, 1, 2, 3]))])


def test_resultant_matches_sympy_on_random_integer_polynomials():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import sylvester

    x = sympy.Symbol("x")
    rng = random.Random(31)
    for _ in range(60):
        a, b = _random_int_poly(rng, 6), _random_int_poly(rng, 6)
        fa, fb = (sympy.Poly([int(c) for c in reversed(p.coeffs)], x) for p in (a, b))
        mine = resultant(a, b)
        theirs = sympy.resultant(fa, fb)
        # sympy's sign can be that of res(b, a) = (-1)^(deg a deg b) res(a, b)
        assert mine == theirs or (a.degree * b.degree % 2 and mine == -theirs)
        assert mine == sylvester(fa.as_expr(), fb.as_expr(), x).det()


def test_sturm_count_matches_sympy_count_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(37)
    for _ in range(60):
        p = _random_int_poly(rng, 6)
        if rng.random() < 0.5:
            p = p * _random_int_poly(rng, 2) ** 2  # a repeated factor
        lo = F(rng.randint(-12, 0), rng.randint(1, 3))
        hi = F(rng.randint(1, 12), rng.randint(1, 3))
        fp = sympy.Poly([int(c) for c in reversed(p.coeffs)], x)
        # count_roots counts distinct roots in [lo, hi]; sturm_count in (lo, hi]
        expected = fp.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                  sympy.Rational(hi.numerator, hi.denominator))
        expected -= p.eval(lo) == 0
        assert sturm_count(p, lo, hi) == expected, (p, lo, hi)


# ---------------------------------------------------------------------------
# sturm / isolation


def _brute_force_distinct_roots(p: Poly, lo: Fraction, hi: Fraction, grid=10**4):
    """Sign-change scan oracle on the square-free part (open-closed interval)."""
    sf = squarefree_part(p)
    count = 0
    prev_x = Fraction(lo)
    prev = sf.eval(prev_x)
    for i in range(1, grid + 1):
        x = lo + (hi - lo) * Fraction(i, grid)
        val = sf.eval(x)
        if val == 0:
            count += 1
            # step off the root for the next comparison
            prev = sf.eval(x + (hi - lo) / (grid * 100))
        elif prev != 0 and (prev > 0) != (val > 0):
            count += 1
            prev = val
        else:
            prev = val
    return count


def test_sturm_no_real_roots():
    assert sturm_count(P(1, 0, 1), F(-10), F(10)) == 0


def test_sturm_constructed_roots():
    p = P(-1, 1) * P(-2, 1)
    assert sturm_count(p, F(0), F(3)) == 2
    assert sturm_count(p, F(1), F(3)) == 1  # (1, 3] excludes the root at 1
    assert sturm_count(p, F(0), F(2)) == 2  # (0, 2] includes the root at 2


def test_sturm_takes_quadratic_rational_endpoints():
    # sqrt5 - 2 = 0.23606..., the positive root of x^2 + 4x - 1
    end = QuadraticRational(-2, 1, 5)
    straddle = Poly.from_roots([F(236, 1000), F(2361, 10000)])
    assert sturm_count(straddle, F(0), end) == 1
    assert sturm_count(straddle, end, F(1)) == 1
    on_end = P(-1, 4, 1)
    assert sturm_count(on_end, F(0), end) == 1  # (lo, hi] includes hi
    assert sturm_count(on_end, end, F(1)) == 0
    with pytest.raises(TypeError):
        sturm_count(straddle, mpmath.mpf(0), F(1))


def test_sturm_repeated_roots_counted_once():
    p = P(-1, 1) ** 3 * P(-2, 1)
    assert sturm_count(p, F(0), F(3)) == 2


def test_sturm_matches_brute_force_on_condition_polynomials():
    catalog = [FIG3A_QUARTIC] + [e.factor for e in ELIMINATIONS.values()]
    for p in catalog:
        for lo, hi in ((F(0), F(1)), (F(-1), F(6))):
            assert sturm_count(p, lo, hi) == _brute_force_distinct_roots(p, lo, hi)


def test_sturm_matches_sympy_root_counts():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(29)
    for _ in range(15):
        roots = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        p = Poly.from_roots(roots) * P(1, 0, 1)  # add a complex pair
        lo, hi = F(-4), F(3)
        expected = len({r for r in roots if lo < r <= hi})
        assert sturm_count(p, lo, hi) == expected
        spoly = sympy.prod(x - sympy.Rational(r.numerator, r.denominator) for r in roots)
        distinct = {r for r in sympy.real_roots(spoly)}
        assert len([r for r in distinct if lo < r <= hi]) == expected


def test_isolate_root_quartic_from_sign_change_bracket():
    p = N4A_QUARTIC
    # bisection oracle inputs: sign change across (0.15, 0.2)
    assert p.eval(F(15, 100)) > 0 and p.eval(F(2, 10)) < 0
    lo, hi = isolate_root(p, F(15, 100), F(2, 10), F(1, 10**30))
    assert hi - lo <= F(1, 10**30)
    assert p.eval(lo) * p.eval(hi) < 0


def test_isolate_root_exact_half():
    lo, hi = isolate_root(P(F(-1, 2), 1), F(0), F(1), F(1, 10**6))
    assert lo <= F(1, 2) <= hi


def test_isolate_root_sqrt2():
    lo, hi = isolate_root(P(-2, 0, 1), F(1), F(2), F(1, 10**10))
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= F(1, 10**10)


def test_isolate_root_rejects_bad_count():
    with pytest.raises(ValueError):
        isolate_root(P(-1, 1) * P(-2, 1), F(0), F(3), F(1, 100))


# ---------------------------------------------------------------------------
# rational functions


def test_rationalfn_reduces_and_normalizes():
    r = RationalFn(P(0, 2, 2), P(0, 0, 2, 2))  # 2s(s+1) / 2s^2(s+1)
    assert r.num == P(1) and r.den == P(0, 1)


def test_rationalfn_den_monic():
    r = RationalFn(P(1), P(2, 4))
    assert r.den == P(F(1, 2), 1)
    assert r.num == P(F(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rationalfn_normalization_idempotent_and_eval_preserving(data):
    def rand_poly(nonzero):
        deg = data.draw(st.integers(0, 3))
        coeffs = [F(data.draw(st.integers(-5, 5))) for _ in range(deg)]
        coeffs.append(F(data.draw(st.integers(1, 5))))
        p = Poly(coeffs)
        return p

    num = rand_poly(False)
    den = rand_poly(True)
    extra = rand_poly(True)
    reduced = RationalFn(num * extra, den * extra)
    again = RationalFn(reduced.num, reduced.den)
    assert again == reduced
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    checked = 0
    while checked < 20:
        x = F(rng.randint(-40, 40), rng.randint(1, 7))
        if den.eval(x) == 0 or extra.eval(x) == 0:
            continue
        assert reduced.eval(x) == num.eval(x) / den.eval(x)
        checked += 1


def test_rationalfn_substitute_inverse():
    # (2s+1)/1 -> s -> 1/s gives (2 + s)/s
    r = RationalFn(P(1, 2), P(1))
    assert r.substitute_inverse() == RationalFn(P(2, 1), P(0, 1))


def test_rationalfn_json_roundtrip():
    r = RationalFn(P(F(1, 3), 2), P(3, 2))
    back = RationalFn.from_json(r.to_json())
    assert back == r
    assert r.to_json()["num"] == ["1/6", "1"]
    assert r.to_json()["den"] == ["3/2", "1"]


# ---------------------------------------------------------------------------
# quadratic-extension scalars


def test_quadratic_rational_arithmetic():
    s2 = QuadraticRational(0, 1, 2)
    x = (2 + s2) * (2 - s2)
    assert x == F(2)
    assert (1 / (1 + s2)) * (1 + s2) == 1


def test_quadratic_rational_sign_and_order():
    s2 = QuadraticRational(0, 1, 2)
    assert (3 - 2 * s2).sign() > 0  # 3 > 2*sqrt(2) ~ 2.828
    assert (s2 - F(3, 2)).sign() < 0  # sqrt 2 < 1.5
    assert 2 - s2 < 1 < s2


def test_quadratic_rational_pow_and_mpf():
    s5 = QuadraticRational(0, 1, 5)
    assert s5**2 == 5
    approx = (2 + s5).to_mpf()
    assert abs(approx - (2 + mpmath.sqrt(5))) < mpmath.mpf("1e-15")


def test_quadratic_rational_as_poly_coefficients():
    s2 = QuadraticRational(0, 1, 2)
    p = Poly([1 + s2, 1]) * Poly([1 - s2, 1])  # (x+1+s2)(x+1-s2) = x^2+2x-1
    assert p == P(-1, 2, 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_quadratic_rational_field_axioms(data):
    d = data.draw(st.sampled_from([2, 3, 5, F(13, 2)]))

    def elem():
        return QuadraticRational(
            F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))),
            F(data.draw(st.integers(-6, 6)), data.draw(st.integers(1, 4))),
            d,
        )

    x, y, z = elem(), elem(), elem()
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    if x.sign() != 0:
        assert x * (1 / x) == 1
    # sign agrees with the numeric embedding
    approx = float(x.to_mpf())
    if abs(approx) > 1e-9:
        assert (approx > 0) == (x.sign() > 0)


_POSITIVE = st.fractions(F(1, 6), 12, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.fractions(-20, 20, max_denominator=6), st.fractions(-20, 20, max_denominator=6),
       st.sampled_from([1, 2, 3, 5, 6, F(13, 2)]), _POSITIVE, _POSITIVE)
def test_equal_quadratic_rationals_hash_alike(a, b, d, q, r):
    # one value in the radicands d q^2 and d r^2, as sqrt(d q^2) = q sqrt(d)
    x, y = QuadraticRational(a, b / q, d * q * q), QuadraticRational(a, b / r, d * r * r)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x - y == 0 and x + y == 2 * x
    if d == 1:  # a square radicand: the value is the rational a + b
        assert x == a + b and hash(x) == hash(a + b)


def test_quadratic_rationals_mix_only_within_one_field():
    assert len({QuadraticRational(0, 1, 4), QuadraticRational(2)}) == 1
    assert QuadraticRational(0, 1, 20) == QuadraticRational(0, 2, 5)
    assert QuadraticRational(0, 1, 8) + QuadraticRational(0, 1, 2) == QuadraticRational(0, 3, 2)
    for a, b in ((2, 3), (2, F(1, 3)), (5, 20 * 3)):
        with pytest.raises(ValueError, match="cannot mix"):
            QuadraticRational(0, 1, a) + QuadraticRational(0, 1, b)


@pytest.mark.parametrize("x, y", [
    (QuadraticRational(0, 1, 2), QuadraticRational(0, 1, 3)),
    (QuadraticRational(1, 1, 2), QuadraticRational(1, 1, F(1, 3))),
    (QuadraticRational(2, -1, 5), QuadraticRational(2, -2, 60)),
    # radicands 5 and 5 + (2^61 - 1), whose hashes collide, so that a set
    # or dict compares the two
    (QuadraticRational(0, 1, 5), QuadraticRational(0, 1, 5 + 2**61 - 1)),
])
def test_irrationals_of_two_fields_are_unequal(x, y):
    # a + b sqrt(d) = c + e sqrt(d') with b, e != 0 would make sqrt(d d')
    # rational: so == is False and != True, both ways round, while
    # arithmetic and order across the fields keep raising
    assert not x == y and not y == x
    assert x != y and y != x
    assert len({x, y}) == 2 and {x: 1}.get(y) is None and {y: 1}.get(x) is None
    for op in (operator.add, operator.lt):
        with pytest.raises(ValueError, match="cannot mix"):
            op(x, y)


@settings(max_examples=300, deadline=None)
@given(st.fractions(-(10**9), 10**9, max_denominator=10**9),
       st.fractions(-(10**9), 10**9, max_denominator=10**9).filter(bool),
       st.sampled_from([2, 3, 5, F(13, 2), F(10**12 + 1, 7)]), st.integers(-300, 300))
@example(F(0), F(1), F(2), 0)
# a + b sqrt(d) within 2^-60 of the rational a, which it must not round to
@example(F(1), F(1, 2**60), F(2), 0)
# 3 - 2 sqrt2 = 0.17..., computed from a cancellation of two nearly equal terms
@example(F(3), F(-2), F(2), 0)
def test_float_of_a_quadratic_irrational_rounds_correctly(a, b, d, e):
    # against mpmath at 1100 bits, whose own rounding lies a thousand bits
    # below the float's
    scale = F(2) ** e
    x = QuadraticRational(a * scale, b * scale, d)
    with mpmath.workprec(1100):
        mpf = mpmath.mpf
        oracle = (mpf(x.a.numerator) / x.a.denominator
                  + mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(mpf(x.d.numerator) / x.d.denominator))
        assert float(x) == float(oracle)
    assert float(QuadraticRational(a)) == float(a)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.eq, operator.lt])
@pytest.mark.parametrize("d", [2, 5, F(13, 2)])
def test_a_square_radicand_mixes_with_any_field(op, d):
    # 2 sqrt(9/4) - 1/3 = 8/3 is rational, so it acts as 8/3 beside any
    # radicand, in either order
    def rational():
        return QuadraticRational(F(-1, 3), 2, F(9, 4))

    def other():
        return QuadraticRational(1, F(-2, 3), d)

    assert op(rational(), other()) == op(F(8, 3), other())
    assert op(other(), rational()) == op(other(), F(8, 3))
    x = rational()
    before = hash(x)
    op(x, other())
    assert x == F(8, 3) and hash(x) == before == hash(F(8, 3))
    if op in (operator.add, operator.mul):
        # equal values hash alike: a sum or product in Q(sqrt d) and the same
        # value built there directly
        direct = op(QuadraticRational(F(8, 3), 0, d), other())
        assert hash(op(rational(), other())) == hash(direct) == hash(op(other(), rational()))


_NONZERO = st.fractions(-20, 20, max_denominator=6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(st.fractions(-20, 20, max_denominator=6), _NONZERO, st.sampled_from([2, 3, 5, F(13, 2)]),
       _POSITIVE, _NONZERO, _POSITIVE)
def test_a_value_has_one_form_that_no_operation_changes(a, b, d, q, v, r):
    # the rational v spelled as itself, in the radicands d and d q^2, and
    # with the square radicand r^2 as (v - b r) + b sqrt(r^2); the
    # irrational a + b sqrt(d) spelled in the radicands d and d q^2
    rational = [QuadraticRational(v), QuadraticRational(v, 0, d), QuadraticRational(v, 0, d * q * q),
                QuadraticRational(v - b * r, b, r * r)]
    irrational = [QuadraticRational(a, b, d), QuadraticRational(a, b / q, d * q * q)]
    assert {repr(x) for x in rational} == {"QuadraticRational(%s)" % v}
    for spellings in (rational, irrational):
        first = spellings[0]
        assert {scalar_to_str(x) for x in spellings} == {scalar_to_str(first)}
        assert {hash(x) for x in spellings} == {hash(first)}
        assert all(x == first and first == x for x in spellings)
    assert scalar_to_str(rational[0]) == scalar_to_str(v) and hash(rational[0]) == hash(v)
    operands = [(x, rational[0]) for x in rational] + [(x, irrational[0]) for x in irrational]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq, operator.lt):
        for x, x0 in operands:
            for y, y0 in operands:
                before = repr(x), repr(y)
                assert op(x, y) == op(x0, y0)
                assert (repr(x), repr(y)) == before


def test_scalar_string_roundtrip():
    assert scalar_to_str(F(3, 2)) == "3/2"
    assert scalar_from_str("3/2") == F(3, 2)
    assert scalar_from_str("-7") == F(-7)
    assert scalar_from_str("1.25e-3") == F(1, 800)
    assert scalar_from_str(" 0.5 ") == F(1, 2)
    for text in ("inf", "-inf", "nan", "Infinity", "1/0", "abc", "", "0x10"):
        with pytest.raises(ValueError):
            scalar_from_str(text)


_RATIONALS = st.fractions(-(10**6), 10**6, max_denominator=10**6)


@settings(max_examples=400, deadline=None)
@given(_RATIONALS, _RATIONALS, st.fractions(F(1, 1000), 1000, max_denominator=1000), st.integers(-70, 70))
# decimal exponents -16, -15, 49 and 50 of sqrt2 10^e, where the layout
# switches between fixed and exponent notation, and negative values
@example(F(0), F(1), F(2), -16)
@example(F(0), F(-1), F(2), -15)
@example(F(0), F(1), F(2), 49)
@example(F(0), F(-1), F(2), 50)
@example(F(-1), F(0), F(1), 50)
@example(F(1, 3), F(0), F(1), -16)
# just below a power of ten: rounding carries into a new digit
@example(F(10), F(-1, 10**60), F(2), 0)
@example(F(-10), F(1, 10**60), F(2), 0)
@example(F(10), F(-1, 10**60), F(1), 48)
@example(F(0), F(1), F(10**98 - 1, 10**98), 0)
# just below a tie at the 51st digit: rounds down, also where the root
# sqrt(j^2 + 1) lies just above an integer (j = 10^100)
@example(1 + F(5, 10**50), F(-1, 10**120), F(2), 0)
@example(1 + F(5, 10**50) + 10**100, F(-1), F(10**200 + 1), 0)
def test_decimal_str_matches_mpmath_nstr(a, b, d, e):
    # a + b sqrt(d) times 10^e against mpmath.nstr(x, 50) at 1100 bits,
    # where the mpf's own rounding moves no digit that prints
    scale = F(10) ** e
    x = QuadraticRational(a * scale, b * scale, d)
    with mpmath.workprec(1100):
        mpf = mpmath.mpf
        oracle = (mpf(x.a.numerator) / x.a.denominator
                  + mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(mpf(d.numerator) / d.denominator))
        assert decimal_str(x) == mpmath.nstr(oracle, 50)
    if b == 0:
        assert decimal_str(x.a) == decimal_str(x)


def test_decimal_str_rounds_a_tie_away_from_zero():
    # only a rational ties; mpmath.nstr rounds an exact tie up in magnitude too
    tie = 1 + F(5, 10**50)
    assert decimal_str(tie) == "1.0000000000000000000000000000000000000000000000001"
    assert decimal_str(-tie) == "-1.0000000000000000000000000000000000000000000000001"
    assert decimal_str(QuadraticRational(tie, 1, 4) - 2) == decimal_str(tie)


def test_poly_from_json_is_exact():
    assert Poly.from_json(["0.5", 2, 0.25, "1e-3"]) == Poly([F(1, 2), F(2), F(1, 4), F(1, 1000)])
    for bad in (["inf"], [float("nan")], [None], [[1]], [True]):
        with pytest.raises(ValueError):
            Poly.from_json(bad)


# ---------------------------------------------------------------------------
# the field rule


def test_field_of_is_exact_only_when_every_scalar_is():
    q = QuadraticRational(1, 1, 2)
    exact = field_of(3, Fraction(1, 2), q)
    assert exact(3) == Fraction(3) and isinstance(exact(3), Fraction)
    assert exact(q) is q
    assert field_of() is exact
    for xs in ((mpmath.mpf(2),), (1, mpmath.mpf(2)), (q, 0.5)):
        assert field_of(*xs) is field_of(mpmath.mpf(1))
    with mpmath.workprec(128):
        assert field_of(q, mpmath.mpf(1))(q) == q.to_mpf()
