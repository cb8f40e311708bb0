"""Target impedance types and positive-realness.

Three forms are used throughout:

* ``CanonicalBiquad``:  Z(s) = k (s+z)^2 / (s+p)^2 with k, z, p > 0, p != z;
* ``GeneralBiquad``:    Z(s) = (A s^2 + B s + C) / (D s^2 + E s + F);
* ``PoleSquaredForm``:  F(s) = (a s^2 + b s + g) / (s+p)^2, nonnegative
  numerator coefficients (zero coefficients are meaningful here).

Positive-realness of the general form is the classical biquadratic test
(sqrt(AF) - sqrt(CD))^2 <= BE, evaluated exactly by squaring (no floating
square roots); for the canonical form it collapses to p^2 - 6zp + z^2 <= 0,
i.e. p/z in [3 - 2*sqrt(2), 3 + 2*sqrt(2)].

The parameter action of the network transforms (``network.TRANSFORMS``):
inverting s maps (k, z, p) to (k z^2/p^2, 1/z, 1/p), since
k(1 + zs)^2/(1 + ps)^2 is that form; inverting Z maps it to (1/k, p, z).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

from .network import transform_inverts
from .ratpoly import (
    Poly,
    RationalFn,
    _Record,
    _setfield,
    field_of,
    is_exact_scalar,
    scalar_from_str,
    scalar_to_str,
)

__all__ = [
    "CanonicalBiquad",
    "GeneralBiquad",
    "PoleSquaredForm",
    "canonical_to_general",
    "pole_squared_to_general",
    "is_positive_real",
    "canonical_positive_real",
    "pole_zero_ratio",
    "transform_params",
    "to_rational_fn",
    "target_from_json",
    "target_to_json",
]


def _positive(name, value):
    if not value > 0:
        raise ValueError("%s must be strictly positive" % name)


def _nonnegative(name, value):
    if value < 0:
        raise ValueError("%s must be nonnegative" % name)


class CanonicalBiquad(_Record):
    """Z(s) = k (s+z)^2 / (s+p)^2, double zero at -z and double pole at -p."""

    __slots__ = ("k", "z", "p")

    def __init__(self, k, z, p):
        _positive("k", k)
        _positive("z", z)
        _positive("p", p)
        if p == z:
            raise ValueError("p != z is required (otherwise Z is a resistor)")
        _setfield(self, "k", k)
        _setfield(self, "z", z)
        _setfield(self, "p", p)

    def is_exact(self) -> bool:
        return all(is_exact_scalar(v) for v in (self.k, self.z, self.p))


class GeneralBiquad(_Record):
    """Z(s) = (A s^2 + B s + C) / (D s^2 + E s + F)."""

    __slots__ = ("A", "B", "C", "D", "E", "F")

    def __init__(self, A, B, C, D, E, F):
        for name, value in zip(self.__slots__, (A, B, C, D, E, F)):
            _nonnegative(name, value)
            _setfield(self, name, value)
        if A == 0 and B == 0 and C == 0:
            raise ValueError("numerator is identically zero")
        if D == 0 and E == 0 and F == 0:
            raise ValueError("denominator is identically zero")

    def coeffs(self) -> Tuple:
        return (self.A, self.B, self.C, self.D, self.E, self.F)


class PoleSquaredForm(_Record):
    """F(s) = (alpha s^2 + beta s + gamma) / (s+p)^2."""

    __slots__ = ("alpha", "beta", "gamma", "p")

    def __init__(self, alpha, beta, gamma, p):
        _nonnegative("alpha", alpha)
        _nonnegative("beta", beta)
        _nonnegative("gamma", gamma)
        _positive("p", p)
        if alpha == 0 and beta == 0 and gamma == 0:
            raise ValueError("numerator is identically zero")
        _setfield(self, "alpha", alpha)
        _setfield(self, "beta", beta)
        _setfield(self, "gamma", gamma)
        _setfield(self, "p", p)


Target = Union[CanonicalBiquad, GeneralBiquad, PoleSquaredForm]


def canonical_to_general(b: CanonicalBiquad, x) -> GeneralBiquad:
    """Expand k(s+z)^2/(s+p)^2 with an arbitrary common scale x > 0."""
    _positive("x", x)
    return GeneralBiquad(
        A=b.k * x,
        B=2 * b.k * b.z * x,
        C=b.k * b.z * b.z * x,
        D=x,
        E=2 * b.p * x,
        F=b.p * b.p * x,
    )


def pole_squared_to_general(f: PoleSquaredForm) -> GeneralBiquad:
    """Expand (alpha s^2 + beta s + gamma)/(s+p)^2 into the general form."""
    return GeneralBiquad(
        A=f.alpha,
        B=f.beta,
        C=f.gamma,
        D=one_like(f.p),
        E=2 * f.p,
        F=f.p * f.p,
    )


def is_positive_real(g: GeneralBiquad) -> bool:
    """Exact biquadratic positive-real test (sqrt(AF)-sqrt(CD))^2 <= BE.

    Equivalent to AF + CD - BE <= 2 sqrt(AF*CD); evaluated by squaring when
    the left side is positive, so no irrational intermediates appear.
    """
    lhs = g.A * g.F + g.C * g.D - g.B * g.E
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * (g.A * g.F) * (g.C * g.D)


# eta^2 - 6 eta + 1 in eta = p/z; the canonical form is positive real
# exactly where it is <= 0
PR_POLY = Poly([Fraction(1), Fraction(-6), Fraction(1)])


def canonical_positive_real(b: CanonicalBiquad) -> bool:
    """Positive-realness of the canonical form: p^2 - 6zp + z^2 <= 0,
    decided as PR_POLY(p/z) <= 0."""
    return PR_POLY.eval(pole_zero_ratio(b.z, b.p)) <= 0


def pole_zero_ratio(z, p):
    """eta = p/z, exact when both are exact, else an mpf at working precision.

    Every realizability condition of the canonical form is a condition on eta.
    """
    f = field_of(z, p)
    return f(p) / f(z)


def transform_params(b: CanonicalBiquad, t: str) -> CanonicalBiquad:
    """Parameter action of the network transform t, in ``field_of`` the
    parameters; each is an involution."""
    inv_s, inv_z = transform_inverts(t)
    f = field_of(b.k, b.z, b.p)
    k, z, p = f(b.k), f(b.z), f(b.p)
    if inv_s:
        k, z, p = k * z * z / (p * p), 1 / z, 1 / p
    if inv_z:
        k, z, p = 1 / k, p, z
    return CanonicalBiquad(k, z, p)


def to_rational_fn(target: Target) -> RationalFn:
    """Reduced rational function for any of the three target forms, in
    ``field_of`` its parameters."""
    if isinstance(target, CanonicalBiquad):
        f = field_of(target.k, target.z, target.p)
        num = Poly([f(target.z), f(1)]) ** 2 * f(target.k)
        return RationalFn(num, Poly([f(target.p), f(1)]) ** 2)
    if isinstance(target, PoleSquaredForm):
        target = pole_squared_to_general(target)
    if isinstance(target, GeneralBiquad):
        f = field_of(*target.coeffs())
        A, B, C, D, E, F = (f(c) for c in target.coeffs())
        return RationalFn(Poly([C, B, A]), Poly([F, E, D]))
    raise TypeError("unsupported target %r" % (target,))


def one_like(x):
    """Multiplicative unit of x's ring: a constant Poly for a Poly, else 1 in
    ``field_of(x)``."""
    if isinstance(x, Poly):
        return Poly.constant(Fraction(1))
    return field_of(x)(1)


# ---------------------------------------------------------------------------
# JSON


def target_to_json(target: Target) -> dict:
    if isinstance(target, CanonicalBiquad):
        return {
            "k": scalar_to_str(target.k),
            "z": scalar_to_str(target.z),
            "p": scalar_to_str(target.p),
        }
    if isinstance(target, GeneralBiquad):
        return {name: scalar_to_str(getattr(target, name)) for name in "ABCDEF"}
    if isinstance(target, PoleSquaredForm):
        return {
            "alpha": scalar_to_str(target.alpha),
            "beta": scalar_to_str(target.beta),
            "gamma": scalar_to_str(target.gamma),
            "p": scalar_to_str(target.p),
        }
    raise TypeError("unsupported target %r" % (target,))


def target_from_json(data: dict) -> Union[Target, RationalFn]:
    """Parse a target: canonical {k,z,p}, general {A..F}, pole-squared
    {alpha,beta,gamma,p}, or a raw rational function {num,den}."""
    if not isinstance(data, dict):
        raise ValueError("a target must be a JSON object")
    keys = set(data)
    parse = lambda name: scalar_from_str(str(data[name]))
    if keys >= {"k", "z", "p"}:
        return CanonicalBiquad(parse("k"), parse("z"), parse("p"))
    if keys >= set("ABCDEF"):
        return GeneralBiquad(*(parse(name) for name in "ABCDEF"))
    if keys >= {"alpha", "beta", "gamma", "p"}:
        return PoleSquaredForm(parse("alpha"), parse("beta"), parse("gamma"), parse("p"))
    if keys >= {"num", "den"}:
        return RationalFn.from_json(data)
    raise ValueError("unrecognized target JSON keys: %s" % sorted(keys))
