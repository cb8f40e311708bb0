"""The p1 eliminations of the seven-element catalog analysis, kept as test
oracles for the resultant and the condition polynomials.

Each entry pairs a p1 system (two polynomials in p1 whose coefficients are
polynomials in z and p) with the factorization its resultant is expected to
have: cofactor(z, p) * homogenize(factor)**power, where ``factor`` is a
univariate condition polynomial in eta = p/z.  The n4a and n5a entries use
the library's own ``N4A_QUARTIC`` and ``N5A_DEGREE10``, so an identity that
holds shows that the polynomial ``classify`` decides on is the factor.  The
other three come from eliminations whose lemmas conclude elsewhere; no
realizability decision is drawn from them.

The z, p arguments may be scalars or nested ``Poly`` values (a bivariate
elimination over Q[p][z]).
"""

from fractions import Fraction
from typing import Callable, NamedTuple

from biquadrlc.biquad import one_like
from biquadrlc.ratpoly import Poly
from biquadrlc.realize import N4A_QUARTIC, N5A_DEGREE10, n4a_p1_system, n5a_p1_system


def _poly(*coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


OCTIC = _poly(-1, 16, -102, 336, -617, 624, -312, 48, 8)
SEXTIC = _poly(2, -12, 21, -28, 20, -8, 1)
QUARTIC = _poly(1, -8, 18, -12, 2)


def homogenize(poly: Poly, z, p):
    """sum c_i p^i z^(d-i): poly(p/z) with z^d cleared."""
    d = poly.degree
    return sum(c * p**i * z ** (d - i) for i, c in enumerate(poly.coeffs))


def octic_system(z, p):
    f = Poly([-(2 * p * p - 4 * z * p + z * z), 2 * p, one_like(p)])
    g = Poly([2 * p**3 * (p - 2 * z), -4 * p**3, p * p - 4 * z * p + z * z])
    return f, g


def sextic_system(z, p):
    f = Poly(
        [
            -p * p * (p * p - 2 * z * p + 2 * z * z),
            -p * (p * p - 2 * z * p + 3 * z * z),
            (p - z) * (p + z),
        ]
    )
    g = Poly([z * z * p, -(p * p - 2 * z * p - z * z), 2 * z])
    return f, g


def quartic_system(z, p):
    f = Poly(
        [
            -2 * p**3 * (p - 2 * z),
            -2 * p * (2 * p * p - 4 * z * p + z * z),
            z * (4 * p - z),
            2 * p,
        ]
    )
    g = Poly(
        [
            2 * z * z * p**3,
            -2 * p**3 * (p - 2 * z),
            -2 * p * (p * p - 4 * z * p + z * z),
            z * (4 * p - z),
        ]
    )
    return f, g


class Elimination(NamedTuple):
    system: Callable
    cofactor: Callable
    factor: Poly
    power: int

    def expected(self, z, p):
        """The expected resultant of ``system(z, p)`` in p1, up to sign (for
        n5a the published form, see below)."""
        return self.cofactor(z, p) * homogenize(self.factor, z, p) ** self.power


ELIMINATIONS = {
    "n4a": Elimination(n4a_p1_system, lambda z, p: z * z * (p + z) * (p - z) ** 3, N4A_QUARTIC, 1),
    # the published value pads the cubic to formal degree 4, an extra factor
    # lc(g) = 2z(4p - z) relative to the Sylvester resultant
    "n5a": Elimination(
        n5a_p1_system, lambda z, p: -4 * z**3 * p**10 * (4 * p - z), N5A_DEGREE10, 1
    ),
    "octic": Elimination(octic_system, lambda z, p: 1, OCTIC, 1),
    "sextic": Elimination(sextic_system, lambda z, p: -(p**4), SEXTIC, 1),
    "quartic_squared": Elimination(quartic_system, lambda z, p: -4 * p**6 * z**4, QUARTIC, 2),
}
