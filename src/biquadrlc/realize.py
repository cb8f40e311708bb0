"""Realizability classification and closed-form seven-element synthesis.

Classification of a canonical target k(s+z)^2/(s+p)^2 proceeds in a fixed
order and reports every condition it evaluates:

1. positive-realness: p^2 - 6zp + z^2 <= 0;
2. four-element realizability: p = 3z or p = z/3;
3. five-element realizability: p/z in (1/3, 3), p = (2+sqrt2)z, or
   p = z/(2+sqrt2), the algebraic points via the exact surrogates
   p^2 - 4zp + 2z^2 = 0 and 2p^2 - 4zp + z^2 = 0;
4. the seven-element catalog conditions (fig3a, n4a, n5a), first on the
   parameters themselves and then on their inv image.  Every condition
   depends only on eta = p/z; inv and dual both send eta to 1/eta and gdu
   keeps it, so these two passes close the catalog under the transform
   group (an inv hit is synthesized for the inverted parameters and the
   network is mapped back through inv).

The three synthesizers return fully valued seven-element networks:

* fig3a: p1 is the unique positive root of
  (3z-p) p1^2 - 2p(p-z) p1 + p^2 (p-3z) = 0 (the root product is -p^2 < 0,
  so exactly one positive root exists), and the element values follow the
  closed forms  R1 = q/p1, R2 = mq/(q-m p1), C1 = (q-m p1)/q^2,
  R21 = alpha, L21 = alpha/(2p+p1), L22 = alpha*beta/gamma, C21 = 1/beta
  with  alpha = k(p-z)(2p+p1)(p^2+zp-2zp1)/(2p^4),
        beta  = 2k(p-z)(-z p1^2 + p(p-z) p1 + z p^2)/p^3,
        gamma = k p1 (p-z)(p^2+zp-2zp1)/(2p^2),
        q = k z^2 p1 / p^2 and m = k - alpha.
* n4a: applies when 16p^4 - 40zp^3 + 31z^2p^2 - 10z^3p + z^4 = 0 and
  p < z/(2+sqrt5) (surrogate p^2 + 4zp - z^2 < 0); p1 is the common root of
  two quadratics, and  R1 = m, L1 = m/(p+p1), C1 = (p+p1)/(m p p1) feed the
  three-element half while C21 = 1/alpha, C22, R21, L21 follow from
  alpha = k(p1+2z-p), beta = k(2zp1+z^2-p1 p), gamma = k p1 (z^2-p^2), m=k.
* n5a: applies on the degree-10 condition with the same bound; p1 is the
  common root of a cubic and a quartic, with
  q = p1 p/(p1+p), gamma = k p1 z^2, alpha = k p1 z^2/(p(p+2p1)),
  beta = 2k p1 z^2 (p+p1)^2/((p+2p1)^2 p) and R1 = m, C1 = 1/(mq),
  L1 = m/(p1+p).

n4a and n5a share one body; both find p1 with ``_common_root``.
``synthesize`` is the one synthesize-and-verify path, used by ``classify``
and by the CLI's ``synth`` with and without ``--config``: it maps the target
through an optional transform, synthesizes, maps the network back and
re-verifies it with ``verify_numeric``, raising RuntimeError when it fails.

Every condition is a polynomial in eta = p/z (z normalized to 1).  An
equality is decided exactly (value == 0) wherever an exact input can satisfy
it: Fraction inputs on the rational loci (p = 3z, p = z/3 and the lemma
conditions) and QuadraticRational inputs on every locus.  The band |value| <=
``ratpoly.working_tol()`` decides the rest: Fraction inputs on the irrational
loci (eta = 2 + sqrt2, 1/(2 + sqrt2), the n4a and n5a roots), so that
isolating-interval midpoints (see n4a_root_interval / n5a_root_interval) and
long decimal literals can be fed back in, and every mpf input.  That one rule,
max(1e-20, 2^(16 - bits)) at the working precision, is also the default
``tol`` (``tol=None``) of ``classify``, ``synthesize`` and ``verify_numeric``.
A target the band puts on the n4a or n5a locus lies off it by up to the band,
so the re-verification decides: a network that misses the target by more
than ``tol`` rejects it (NotRealizableError).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .biquad import PR_POLY, CanonicalBiquad, pole_zero_ratio, to_rational_fn, transform_params
from .check import verify_numeric
from .network import SPNet, apply_transform, build_config, canonical_config_id, to_netlist_json
from .ratpoly import (
    Poly,
    QuadraticRational,
    _Record,
    _exact_sqrt,
    _setfield,
    field_of,
    gcd,
    is_exact_scalar,
    isolate_root,
    load_mpmath,
    scalar_to_str,
    squarefree_part,
    sturm_count,
    to_mpf,
    workprec,
    working_tol,
)

__all__ = [
    "RealizationClass",
    "ConditionRecord",
    "RealizationReport",
    "NotRealizableError",
    "classify",
    "four_element_condition",
    "five_element_condition",
    "check_fig3a_condition",
    "check_n4a_condition",
    "check_n5a_condition",
    "synth_fig3a",
    "synth_n4a",
    "synth_n5a",
    "synthesize",
    "lemma_three_element",
    "lemma_four_element",
    "lemma_five_element_two_reactive",
    "fig3a_p1_quadratic",
    "n4a_p1_system",
    "n5a_p1_system",
    "n4a_root_interval",
    "n5a_root_interval",
    "count_roots_below_sqrt5_bound",
]

# condition polynomials in eta = p/z (z normalized to 1), ascending degree
FIG3A_QUARTIC = Poly([Fraction(5), Fraction(-14), Fraction(6), Fraction(-6), Fraction(1)])
N4A_QUARTIC = Poly([Fraction(1), Fraction(-10), Fraction(31), Fraction(-40), Fraction(16)])
N5A_DEGREE10 = Poly(
    [
        Fraction(2),
        Fraction(-28),
        Fraction(161),
        Fraction(-524),
        Fraction(1064),
        Fraction(-1372),
        Fraction(1066),
        Fraction(-476),
        Fraction(118),
        Fraction(-16),
        Fraction(1),
    ]
)
# the two five-reactive loci of the catalog, by report name
_LOCI = {"n4a": N4A_QUARTIC, "n5a": N5A_DEGREE10}
# eta < 1/(2+sqrt5)  <=>  eta^2 + 4 eta - 1 < 0
SQRT5_BOUND_POLY = Poly([Fraction(-1), Fraction(4), Fraction(1)])
# eta = 2 + sqrt2  <=>  eta^2 - 4 eta + 2 = 0 (also vanishes at 2 - sqrt2,
# which lies inside (1/3, 3) anyway)
FIVE_SURROGATE_HI = Poly([Fraction(2), Fraction(-4), Fraction(1)])
# eta = 1/(2+sqrt2)  <=>  2 eta^2 - 4 eta + 1 = 0
FIVE_SURROGATE_LO = Poly([Fraction(1), Fraction(-4), Fraction(2)])


class NotRealizableError(ValueError):
    """The requested configuration's condition does not hold."""


class RealizationClass(Enum):
    NOT_POSITIVE_REAL = "NotPositiveReal"
    FOUR_ELEMENT = "FourElement"
    FIVE_ELEMENT = "FiveElement"
    SEVEN_ELEMENT_CATALOG = "SevenElementCatalog"
    UNKNOWN_WITHIN_SCOPE = "UnknownWithinScope"


class ConditionRecord(_Record):
    __slots__ = ("name", "value", "passed")

    def __init__(self, name: str, value: str, passed: bool):
        _setfield(self, "name", name)
        _setfield(self, "value", value)
        _setfield(self, "passed", passed)


class RealizationReport(_Record, mutable=True):
    __slots__ = (
        "target", "klass", "config", "transform", "conditions", "network", "residual", "precision_bits"
    )

    def __init__(
        self,
        target: CanonicalBiquad,
        klass: RealizationClass,
        config: Optional[str],
        transform: Optional[str],
        conditions: List[ConditionRecord],
        network: Optional[SPNet],
        residual: Optional[object],
        precision_bits: int,
    ):
        self.target = target
        self.klass = klass
        self.config = config
        self.transform = transform
        self.conditions = conditions
        self.network = network
        self.residual = residual
        self.precision_bits = precision_bits

    def to_json(self) -> dict:
        out = {
            "class": self.klass.value,
            "config": self.config,
            "transform": self.transform,
            "conditions": [
                {"name": c.name, "value": c.value, "pass": c.passed}
                for c in self.conditions
            ],
            "network": None if self.network is None else to_netlist_json(self.network),
            "residual": None if self.residual is None else scalar_to_str(self.residual),
            "precision_bits": self.precision_bits,
        }
        return out


# ---------------------------------------------------------------------------
# scalar predicates


def _eq_zero(value, rational_locus: bool = True) -> bool:
    """Whether a condition value is 0: with ``== 0`` for a QuadraticRational
    value and for an exact value on a locus with rational points, else within
    the band |value| <= ``working_tol()``, max(1e-20, 2^(16 - bits)) at the
    working precision.  A rational value on an irrational locus
    (``rational_locus=False``) is never 0 there, so the band lets callers
    supply isolating-interval midpoints or long decimal literals of its roots.
    """
    if isinstance(value, QuadraticRational) or (rational_locus and is_exact_scalar(value)):
        return value == 0
    f = field_of(value)
    return abs(f(value)) <= f(working_tol())


def _record(name, value, passed) -> ConditionRecord:
    return ConditionRecord(name, scalar_to_str(value), bool(passed))


# ---------------------------------------------------------------------------
# realizability conditions


def _pr_records(z, p):
    eta = pole_zero_ratio(z, p)
    val = PR_POLY.eval(eta)
    passed = val <= 0
    return passed, [_record("positive_real[eta^2-6eta+1<=0]", val, passed)]


def four_element_condition(z, p) -> Tuple[bool, List[ConditionRecord]]:
    """p = 3z or p = z/3, exactly for exact eta, else within ``_eq_zero``'s band."""
    eta = pole_zero_ratio(z, p)
    hi = eta - 3
    lo = 3 * eta - 1
    recs = [
        _record("four_element[eta=3]", hi, _eq_zero(hi)),
        _record("four_element[eta=1/3]", lo, _eq_zero(lo)),
    ]
    return recs[0].passed or recs[1].passed, recs


def five_element_condition(z, p) -> Tuple[bool, List[ConditionRecord]]:
    """p/z in (1/3, 3), or p = (2+sqrt2)z, or p = z/(2+sqrt2)."""
    eta = pole_zero_ratio(z, p)
    in_interval = (3 * eta - 1 > 0) and (eta - 3 < 0)
    hi = FIVE_SURROGATE_HI.eval(eta)
    lo = FIVE_SURROGATE_LO.eval(eta)
    recs = [
        _record("five_element[1/3<eta<3]", eta, in_interval),
        _record("five_element[eta=2+sqrt2]", hi, _eq_zero(hi, False) and eta > 1),
        _record("five_element[eta=1/(2+sqrt2)]", lo, _eq_zero(lo, False) and eta < 1),
    ]
    return any(r.passed for r in recs), recs


def _fig3a_records(z, p):
    eta = pole_zero_ratio(z, p)
    sign_val = (eta - 1) * (eta - 3)
    quartic_val = FIG3A_QUARTIC.eval(eta)
    ok = sign_val > 0 and quartic_val < 0
    recs = [
        _record("fig3a[(eta-1)(eta-3)>0]", sign_val, sign_val > 0),
        _record("fig3a[quartic(eta)<0]", quartic_val, quartic_val < 0),
    ]
    return ok, recs


def check_fig3a_condition(z, p) -> bool:
    """(p-z)(p-3z) > 0 and p^4 - 6zp^3 + 6z^2p^2 - 14z^3p + 5z^4 < 0."""
    return _fig3a_records(z, p)[0]


def _root_locus_records(tag, z, p):
    eta = pole_zero_ratio(z, p)
    poly_val = _LOCI[tag].eval(eta)
    bound_val = SQRT5_BOUND_POLY.eval(eta)
    on_locus = _eq_zero(poly_val, False)
    ok = on_locus and bound_val < 0
    recs = [
        _record("%s[condition_poly(eta)=0]" % tag, poly_val, on_locus),
        _record("%s[eta<1/(2+sqrt5)]" % tag, bound_val, bound_val < 0),
    ]
    return ok, recs


def check_n4a_condition(z, p) -> bool:
    """16p^4 - 40zp^3 + 31z^2p^2 - 10z^3p + z^4 = 0 with p < z/(2+sqrt5)."""
    return _root_locus_records("n4a", z, p)[0]


def check_n5a_condition(z, p) -> bool:
    """Degree-10 condition polynomial = 0 with p < z/(2+sqrt5)."""
    return _root_locus_records("n5a", z, p)[0]


# ---------------------------------------------------------------------------
# p1 systems (coefficients in any ring with +,-,*: scalars or Poly)


def fig3a_p1_quadratic(z, p) -> Poly:
    """(3z-p) p1^2 - 2p(p-z) p1 + p^2(p-3z), ascending in p1."""
    return Poly([p * p * (p - 3 * z), -2 * p * (p - z), 3 * z - p])


def n4a_p1_system(z, p) -> Tuple[Poly, Poly]:
    """The two p1-quadratics whose common root drives the n4a synthesis."""
    f = Poly([-(p * p) * (p - 2 * z), z * (4 * p - z), 2 * p])
    g = Poly(
        [
            -(p**4 - 5 * z * z * p * p + 4 * z**3 * p - z**4),
            2 * p * z * (2 * p - z),
            2 * p * p - z * z,
        ]
    )
    return f, g


def n5a_p1_system(z, p) -> Tuple[Poly, Poly]:
    """The p1 cubic and quartic whose common root drives the n5a synthesis."""
    f = Poly(
        [
            -(p**3) * (p - 2 * z),
            -p * (3 * p * p - 6 * z * p + z * z),
            -(p * p - 4 * z * p + z * z),
            2 * p,
        ]
    )
    g = Poly(
        [
            z * z * p**4,
            -(p**3) * (p + z) * (p - 3 * z),
            -2 * p * p * (2 * p * p - 5 * z * p - z * z),
            -2 * p * (2 * p * p - 8 * z * p + z * z),
            2 * z * (4 * p - z),
        ]
    )
    return f, g


# ---------------------------------------------------------------------------
# root isolation for the n4a / n5a condition loci


def count_roots_below_sqrt5_bound(poly: Poly) -> int:
    """Distinct real roots of poly in (0, 1/(2+sqrt5)), exactly.

    The endpoint 1/(2+sqrt5) = sqrt5 - 2 is the exact QuadraticRational.
    Rejects polynomials sharing a root with the endpoint minimal polynomial,
    where the half-open convention would be ambiguous.
    """
    if gcd(squarefree_part(poly), SQRT5_BOUND_POLY).degree > 0:
        raise ValueError("polynomial vanishes at the interval endpoint")
    return sturm_count(poly, Fraction(0), QuadraticRational(-2, 1, 5))


def _isolating_interval_on_locus(poly: Poly, width) -> Tuple[Fraction, Fraction]:
    if count_roots_below_sqrt5_bound(poly) != 1:
        raise ValueError("condition polynomial does not have a unique root in range")
    under, _ = isolate_root(SQRT5_BOUND_POLY, Fraction(0), Fraction(1), Fraction(1, 2**40))
    if sturm_count(poly, Fraction(0), under) != 1:
        raise RuntimeError("root lies between the endpoint approximations")
    return isolate_root(poly, Fraction(0), under, width)


def n4a_root_interval(width=Fraction(1, 10**30)) -> Tuple[Fraction, Fraction]:
    """Isolating interval for the unique n4a condition root in
    (0, 1/(2+sqrt5)), refined to the requested width (z = 1)."""
    return _isolating_interval_on_locus(N4A_QUARTIC, Fraction(width))


def n5a_root_interval(width=Fraction(1, 10**30)) -> Tuple[Fraction, Fraction]:
    """Isolating interval for the unique n5a condition root (z = 1)."""
    return _isolating_interval_on_locus(N5A_DEGREE10, Fraction(width))


# ---------------------------------------------------------------------------
# synthesis


def _nonpositive(values: dict) -> str:
    return ", ".join(sorted(name for name, v in values.items() if not v > 0))


def _positive_or_bug(values: dict, context: str) -> None:
    bad = _nonpositive(values)
    if bad:
        raise RuntimeError(
            "internal inconsistency in %s: nonpositive element value(s) %s" % (context, bad)
        )


def synth_fig3a(b: CanonicalBiquad, precision_bits: int = 256) -> SPNet:
    """Closed-form fig3a synthesis (seven elements, four reactive).

    The inputs pick the field.  Rational k, z, p (ints, Fractions, or
    QuadraticRationals with b = 0) give exact element values in Q(sqrt d),
    d = 2(p^2 - 4pz + 5z^2): QuadraticRationals, or Fractions where d is a
    rational square, so the network verifies exactly at any precision.  Any
    other input (an mpf, or a quadratic irrational, whose sqrt d would be a
    nested radical) gives mpf values at ``precision_bits``; one that lies
    within rounding of the boundary, where an element value rounds to 0 or
    below, raises NotRealizableError.
    """
    with workprec(precision_bits):
        if not check_fig3a_condition(b.z, b.p):
            raise NotRealizableError(
                "fig3a condition fails for z=%s, p=%s" % (b.z, b.p)
            )

    def values_at(k, z, p, sqrt) -> dict:
        # p1 is a root of fig3a_p1_quadratic c2 p1^2 + c1 p1 + c0, whose
        # discriminant is (2p)^2 d; sqrt maps d = 2(p^2 - 4pz + 5z^2) to sqrt(d)
        c0, c1, c2 = fig3a_p1_quadratic(z, p).coeffs
        sq = sqrt((c1 * c1 - 4 * c0 * c2) / (4 * p * p))
        roots = [(-c1 + s * 2 * p * sq) / (2 * c2) for s in (1, -1)]
        positive = [r for r in roots if r > 0]
        if len(positive) != 1:
            raise RuntimeError("expected exactly one positive p1 root, found %d" % len(positive))
        p1 = positive[0]
        alpha = k * (p - z) * (2 * p + p1) * (p * p + z * p - 2 * z * p1) / (2 * p**4)
        beta = 2 * k * (p - z) * (-z * p1 * p1 + p * (p - z) * p1 + z * p * p) / p**3
        gamma = k * p1 * (p - z) * (p * p + z * p - 2 * z * p1) / (2 * p * p)
        q = k * z * z * p1 / (p * p)
        m = k - alpha
        return {
            "R1": q / p1,
            "R2": m * q / (q - m * p1),
            "C1": (q - m * p1) / (q * q),
            "R21": alpha,
            "L21": alpha / (2 * p + p1),
            "L22": alpha * beta / gamma,
            "C21": 1 / beta,
        }

    rational = [v.a if isinstance(v, QuadraticRational) and v.b == 0 else v for v in (b.k, b.z, b.p)]
    if all(isinstance(v, (int, Fraction)) for v in rational):

        def exact_sqrt(d):
            # adjoining sqrt(d) only gives a field when d is not a rational square
            root = _exact_sqrt(d)
            return QuadraticRational(0, 1, d) if root is None else root

        values = values_at(*map(Fraction, rational), exact_sqrt)
        _positive_or_bug(values, "fig3a synthesis")
    else:
        # near p = 3z, p1 and then R2 and C1 come from differences of nearly
        # equal terms, which lose about twice the bits of |p/z - 3|: the mpf
        # path works with that many more bits, then rounds
        with workprec(precision_bits):
            lost = 2 * max(0, -load_mpmath().mag(to_mpf(pole_zero_ratio(b.z, b.p) - 3)))
        with workprec(precision_bits + lost + 16):
            values = values_at(*(to_mpf(v) for v in (b.k, b.z, b.p)), load_mpmath().sqrt)
        with workprec(precision_bits):
            values = {name: +v for name, v in values.items()}
        # R2 vanishes on the boundary quartic(eta) = 0 (alpha = k there, so
        # m = 0): an input that passes the condition by rounding alone can
        # round R2 to 0 or below
        bad = _nonpositive(values)
        if bad:
            raise NotRealizableError(
                "fig3a element value(s) %s round to 0 or below at %d bits: the target "
                "lies within rounding of the fig3a boundary quartic(eta) = 0"
                % (bad, precision_bits)
            )
    return build_config("fig3a", values)


def _newton_polish(poly: Poly, x0, iters: int = 60):
    d = poly.derivative()
    x = x0
    for _ in range(iters):
        fx = poly.eval(x)
        dx = d.eval(x)
        if dx == 0:
            break
        step = fx / dx
        x = x - step
        if abs(step) <= abs(x) * to_mpf(10) ** (-(load_mpmath().mp.prec // 3)):
            fx = poly.eval(x)
            dx = d.eval(x)
            if dx != 0:
                x = x - fx / dx
            break
    return x


def _common_root(f: Poly, g: Poly):
    """Near-common root of two inexact polynomials via the Euclidean chain.

    The chain is run down to a linear remainder whose root seeds a Newton
    polish on the lower-degree input; both inputs are then required to
    nearly vanish there.
    """
    a, b = (f, g) if f.degree >= g.degree else (g, f)
    while b.degree > 1:
        a, b = b, a % b
    if b.degree != 1:
        raise NotRealizableError("p1 elimination degenerated; no common root")
    candidate = -b.coeffs[0] / b.coeffs[1]
    low = f if f.degree <= g.degree else g
    root = _newton_polish(low, candidate)
    scale_f = max(abs(c) for c in f.coeffs)
    scale_g = max(abs(c) for c in g.coeffs)
    if abs(f.eval(root)) > scale_f * to_mpf("1e-10") or abs(g.eval(root)) > scale_g * to_mpf("1e-10"):
        raise NotRealizableError("the two p1 systems share no root at this p")
    return root


def _synth_on_root_locus(tag, p1_system, b: CanonicalBiquad, precision_bits) -> SPNet:
    """The n4a / n5a synthesis: p1 is the positive common root of the two
    p1 polynomials of ``p1_system``."""
    with workprec(precision_bits):
        if not _root_locus_records(tag, b.z, b.p)[0]:
            raise NotRealizableError("%s condition fails for z=%s, p=%s" % (tag, b.z, b.p))
        k, z, p = (to_mpf(v) for v in (b.k, b.z, b.p))
        p1 = _common_root(*p1_system(z, p))
        if not p1 > 0:
            raise NotRealizableError("common p1 root is not positive")
        m = k
        if tag == "n4a":
            alpha = k * (p1 + 2 * z - p)
            beta = k * (2 * z * p1 + z * z - p1 * p)
            gamma = k * p1 * (z - p) * (z + p)
            values = {"R1": m, "L1": m / (p + p1), "C1": (p + p1) / (m * p * p1)}
        else:
            q = p1 * p / (p1 + p)
            gamma = k * p1 * z * z
            alpha = k * p1 * z * z / (p * (p + 2 * p1))
            beta = 2 * k * p1 * z * z * (p + p1) ** 2 / ((p + 2 * p1) ** 2 * p)
            values = {"R1": m, "C1": 1 / (m * q), "L1": m / (p1 + p)}
        d = 2 * alpha * p + alpha * p1 - beta
        values.update(
            {
                "C21": 1 / alpha,
                "C22": d / (alpha * beta),
                "R21": alpha * alpha / d,
                "L21": alpha * alpha * beta / (gamma * d),
            }
        )
        _positive_or_bug(values, "%s synthesis" % tag)
        return build_config(tag, values)


def synth_n4a(b: CanonicalBiquad, precision_bits: int = 256) -> SPNet:
    """Closed-form n4a synthesis (seven elements, five reactive)."""
    return _synth_on_root_locus("n4a", n4a_p1_system, b, precision_bits)


def synth_n5a(b: CanonicalBiquad, precision_bits: int = 256) -> SPNet:
    """Closed-form n5a synthesis (seven elements, five reactive)."""
    return _synth_on_root_locus("n5a", n5a_p1_system, b, precision_bits)


# the seven-element catalog in classification order: report name ->
# (condition records, synthesizer)
_CATALOG = {
    "fig3a": (_fig3a_records, synth_fig3a),
    "n4a": (lambda z, p: _root_locus_records("n4a", z, p), synth_n4a),
    "n5a": (lambda z, p: _root_locus_records("n5a", z, p), synth_n5a),
}


def _report_name(config_id: str) -> str:
    """The catalog's report name for any spelling (n4a, FIG4A, ...)."""
    key = canonical_config_id(config_id)
    for name in _CATALOG:
        if canonical_config_id(name) == key:
            return name
    raise KeyError("no synthesizer for configuration %r" % (config_id,))


def synth_config(config_id: str, b: CanonicalBiquad, precision_bits: int = 256) -> SPNet:
    return _CATALOG[_report_name(config_id)][1](b, precision_bits=precision_bits)


def synthesize(
    b: CanonicalBiquad,
    config: str,
    transform: Optional[str] = None,
    precision_bits: int = 256,
    tol=None,
) -> Tuple[SPNet, object]:
    """Synthesize ``config`` for b and re-verify the network against b.

    With a ``transform`` the configuration is synthesized for the
    transformed parameters and the network is mapped back through the same
    transform.  Returns (network, residual).  Raises NotRealizableError when
    the configuration's condition fails, when an inexact fig3a target lies
    so close to its boundary that an element value rounds to 0 or below, or
    when an n4a/n5a network misses the target by more than ``tol`` at
    ``precision_bits``: every input those irrational loci accept lies off
    them by up to the band.  A fig3a network that does not verify is a
    fault of the program (RuntimeError).
    """
    tol = working_tol(precision_bits) if tol is None else tol
    with workprec(precision_bits):
        bt = b if transform is None else transform_params(b, transform)
        net_t = synth_config(config, bt, precision_bits=precision_bits)
        network = net_t if transform is None else apply_transform(net_t, transform)
        target_rf = to_rational_fn(b)
    ok, residual = verify_numeric(network, target_rf, tol=tol, precision_bits=precision_bits)
    if not ok:
        if _report_name(config) in _LOCI:
            raise NotRealizableError(
                "the target lies within the %g band of the %s locus, but the network "
                "synthesized for it misses it (residual %s, tolerance %s)"
                % (working_tol(precision_bits), config, scalar_to_str(residual), scalar_to_str(tol))
            )
        raise RuntimeError(
            "synthesized network failed verification (residual %s)" % scalar_to_str(residual)
        )
    return network, residual


# ---------------------------------------------------------------------------
# classification


def classify(
    b: CanonicalBiquad,
    precision_bits: int = 256,
    tol=None,
) -> RealizationReport:
    """Classify a canonical biquadratic target and synthesize when the
    seven-element catalog (closed under inv/dual/gdu) applies.

    Every condition consulted appears in the report, in the fixed order
    positive-real, four-element, five-element, fig3a, n4a, n5a, then
    fig3a, n4a, n5a on the inv image (names suffixed ``[inv]``): 18
    records.  The class is the first hit.  All conditions depend only on
    eta = p/z, and a transform that inverts exactly one of s and Z (inv,
    dual) maps eta to 1/eta while gdu fixes it, so the dual and gdu images
    would repeat the inv and untransformed records; a hit on the inv image
    reports transform ``inv``.  Raises what ``synthesize`` raises for a
    catalog hit whose network does not verify.
    """
    conditions: List[ConditionRecord] = []
    with workprec(precision_bits):
        pr_ok, recs = _pr_records(b.z, b.p)
        conditions.extend(recs)
        four_ok, recs = four_element_condition(b.z, b.p)
        conditions.extend(recs)
        five_ok, recs = five_element_condition(b.z, b.p)
        conditions.extend(recs)

        catalog_hit: Optional[Tuple[str, Optional[str]]] = None
        for t in (None, "inv"):
            # the parameters synthesize will use: with mpf inputs, 1/eta
            # rounded another way can fall on the other side of a boundary
            bt = b if t is None else transform_params(b, t)
            for name, (records, _) in _CATALOG.items():
                ok, recs = records(bt.z, bt.p)
                if t is not None:
                    recs = [ConditionRecord("%s[%s]" % (r.name, t), r.value, r.passed) for r in recs]
                conditions.extend(recs)
                if ok and catalog_hit is None:
                    catalog_hit = (name, t)

    network = None
    residual = None
    config = None
    transform = None
    if not pr_ok:
        klass = RealizationClass.NOT_POSITIVE_REAL
    elif four_ok:
        klass = RealizationClass.FOUR_ELEMENT
    elif five_ok:
        klass = RealizationClass.FIVE_ELEMENT
    elif catalog_hit is not None:
        klass = RealizationClass.SEVEN_ELEMENT_CATALOG
        config, transform = catalog_hit
        network, residual = synthesize(b, config, transform, precision_bits=precision_bits, tol=tol)
    else:
        klass = RealizationClass.UNKNOWN_WITHIN_SCOPE
    return RealizationReport(
        target=b,
        klass=klass,
        config=config,
        transform=transform,
        conditions=conditions,
        network=network,
        residual=residual,
        precision_bits=precision_bits,
    )


# ---------------------------------------------------------------------------
# the three / four / five element lemma evaluators


def _first_hit(conds) -> Tuple[bool, Optional[int]]:
    """A lemma's verdict: (True, the number of its first condition that holds) or (False, None)."""
    hit = next((i for i, ok in enumerate(conds, start=1) if ok), None)
    return hit is not None, hit


def lemma_three_element(f) -> Tuple[bool, Optional[int]]:
    """Three-element realizability of (a s^2 + b s + g)/(s+p)^2.

    Conditions, first hit reported: 1. a = 0 and g = 0; 2. b = 0 and
    a p^2 - g = 0; 3. g = 0 and a p - 2b = 0; 4. a = 0 and 2bp - g = 0;
    5. a p^2 - b p + g = 0 (common factor with the denominator).
    """
    a, bb, g, p = f.alpha, f.beta, f.gamma, f.p
    conds = [
        _eq_zero(a) and _eq_zero(g),
        _eq_zero(bb) and _eq_zero(a * p * p - g),
        _eq_zero(g) and _eq_zero(a * p - 2 * bb),
        _eq_zero(a) and _eq_zero(2 * bb * p - g),
        _eq_zero(a * p * p - bb * p + g),
    ]
    return _first_hit(conds)


def _lemma_polys(a, bb, g, p):
    """The four polynomials of lemma_four_element's conditions 5 and 4 (= 0)
    and lemma_five_element_two_reactive's 1 to 4 (< 0), two per sign of a p^2 - g."""
    return (
        a * p * p + 3 * g - 2 * bb * p,
        a * a * p * p + bb * bb - 2 * a * bb * p - a * g,
        3 * a * p * p + g - 2 * bb * p,
        bb * bb * p * p + g * g - a * g * p * p - 2 * bb * g * p,
    )


def lemma_four_element(f) -> Tuple[bool, Optional[int]]:
    """Four-element realizability; requires lemma_three_element false."""
    if lemma_three_element(f)[0]:
        raise ValueError("four-element lemma requires the three-element condition false")
    a, bb, g, p = f.alpha, f.beta, f.gamma, f.p
    pos = a > 0 and bb > 0 and g > 0
    above1, above2, below1, below2 = _lemma_polys(a, bb, g, p)
    conds = [
        _eq_zero(a) and g < 2 * bb * p,
        _eq_zero(g) and a * p < 2 * bb,
        pos and _eq_zero(a * p * p - g),
        pos and a * p * p < g and (_eq_zero(below1) or _eq_zero(below2)),
        pos and a * p * p > g and (_eq_zero(above1) or _eq_zero(above2)),
        pos
        and _eq_zero(
            a * a * p**4 - 2 * a * bb * p**3 + 6 * a * g * p * p - 2 * bb * g * p + g * g
        ),
    ]
    return _first_hit(conds)


def lemma_five_element_two_reactive(f) -> Tuple[bool, Optional[int]]:
    """Two-reactive five-element realizability; requires strictly positive
    numerator coefficients and both prior lemma conditions false."""
    a, bb, g, p = f.alpha, f.beta, f.gamma, f.p
    if not (a > 0 and bb > 0 and g > 0):
        raise ValueError("five-element lemma requires alpha, beta, gamma > 0")
    if lemma_three_element(f)[0]:
        raise ValueError("five-element lemma requires the three-element condition false")
    if lemma_four_element(f)[0]:
        raise ValueError("five-element lemma requires the four-element condition false")
    above1, above2, below1, below2 = _lemma_polys(a, bb, g, p)
    conds = [
        a * p * p > g and above1 < 0,
        a * p * p > g and above2 < 0,
        a * p * p < g and below1 < 0,
        a * p * p < g and below2 < 0,
    ]
    return _first_hit(conds)
