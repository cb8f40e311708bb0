"""Verification oracles: exact and numeric impedance matching.

Every check follows one rule: the unreduced coefficients of Z(s) from
``network.impedance_coeffs``, in the one field that ``ratpoly.field_of``
picks for the element values and target coefficients (exact when every one
is exact, mpf at the working precision otherwise), are divided by den's
leading coefficient and cross-multiplied against the target, num_Z * den_T
vs num_T * den_Z.  A common factor of num_Z and den_Z multiplies both
products, so no gcd is taken.  The residual is the maximum relative error
over the products' coefficients, with an absolute fallback of 1e-30 for
coefficients that vanish: 0 exactly when the network realizes the target,
and otherwise the same, to mpf rounding, for an exact network and its mpf
twin.

This module needs no numpy, so classification, synthesis and the CLI
commands that verify their answers run without it; only the fitter in
``verify`` loads it.  mpmath comes in through ``ratpoly`` when an inexact
coefficient needs an mpf: exact verification never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .network import SPNet, _leaf_values, impedance_coeffs, leaves
from .ratpoly import Poly, RationalFn, field_of, is_exact_scalar, workprec, working_tol

__all__ = ["verify_exact", "verify_numeric", "coefficient_residual"]

ZERO_COEFF_FLOOR = Fraction(1, 10**30)


def _pad(coeffs, n):
    return list(coeffs) + [0] * (n - len(coeffs))


def coefficient_residual(a: Poly, b: Poly):
    """Max relative coefficient error between two polynomials, in the field
    of their coefficients (``ratpoly.field_of``).

    Exact inputs give an exact Fraction or QuadraticRational (0 iff equal);
    any inexact coefficient gives an mpf at the current working precision.
    """
    n = max(len(a.coeffs), len(b.coeffs), 1)
    field = field_of(*a.coeffs, *b.coeffs)
    floor = field(ZERO_COEFF_FLOOR)
    worst = field(0)
    for x, y in zip(_pad(a.coeffs, n), _pad(b.coeffs, n)):
        x, y = field(x), field(y)
        denom = max(abs(x), abs(y), floor)
        worst = max(worst, abs(x - y) / denom)
    return worst


def _certify(net: SPNet, values: list, target: RationalFn, tol) -> Tuple[bool, object]:
    """(residual <= tol, residual) of the network with leaf values ``values``
    (in ``leaves(net)`` order) against the target, by the module's rule."""
    f = field_of(*values, *target.num.coeffs, *target.den.coeffs)
    num, den = impedance_coeffs(net, [f(v) for v in values])
    znum, zden = (Poly(c / den[-1] for c in poly) for poly in (num, den))
    tnum, tden = (Poly(f(c) for c in poly.coeffs) for poly in (target.num, target.den))
    residual = coefficient_residual(znum * tden, tnum * zden)
    g = field_of(residual, tol)
    return g(residual) <= g(tol), residual


def verify_exact(net: SPNet, target: RationalFn) -> bool:
    """True iff ``verify_numeric``'s residual of the network is exactly 0.

    All element values and target coefficients must be exact; use
    verify_numeric otherwise.
    """
    if any(not is_exact_scalar(lf.value) for lf in leaves(net)):
        raise ValueError("verify_exact requires exact element values")
    if not target.is_exact():
        raise ValueError("verify_exact requires an exact target")
    return verify_numeric(net, target)[1] == 0


def verify_numeric(
    net: SPNet,
    target: RationalFn,
    tol=None,
    precision_bits: int = 256,
) -> Tuple[bool, object]:
    """Residual check of the network's impedance against the target.

    Returns (ok, residual) with residual the max relative coefficient error
    of the cross-multiplied forms of the module's rule, in the field of the
    element values and target coefficients: an exactly matching network of
    exact values reports residual 0.
    """
    tol = working_tol(precision_bits) if tol is None else tol
    with workprec(precision_bits):
        return _certify(net, _leaf_values(net), target, tol)
