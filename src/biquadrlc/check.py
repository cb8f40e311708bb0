"""Verification oracles: exact and numeric impedance matching.

The numeric residual metric is the maximum relative error over the
coefficients of the cross-multiplied forms num_Z * den_T vs num_T * den_Z
(both sides already carry monic denominators), with an absolute fallback of
1e-30 for coefficients that vanish.  Cross-multiplication makes the metric
insensitive to unreduced common factors, which inexact impedance computation
cannot cancel.

This module needs only mpmath, so classification, synthesis and the CLI
commands that verify their answers run without numpy or scipy; only the
fitter in ``verify`` loads those.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from mpmath import mp

from .network import SPNet, impedance, leaves
from .ratpoly import Poly, QuadraticRational, RationalFn, is_exact_scalar, to_mpf

__all__ = ["verify_exact", "verify_numeric", "coefficient_residual"]

ZERO_COEFF_FLOOR = Fraction(1, 10**30)


def _pad(coeffs, n):
    return list(coeffs) + [0] * (n - len(coeffs))


def _exact_field(x):
    """Exact scalar in a field: rationals as Fraction (so ints never divide
    to float), quadratic-extension values as they are."""
    return x if isinstance(x, QuadraticRational) else Fraction(x)


def coefficient_residual(a: Poly, b: Poly, numeric: bool):
    """Max relative coefficient error between two polynomials.

    Exact inputs give an exact Fraction or QuadraticRational (0 iff equal);
    numeric inputs give an mpf at the current working precision.
    """
    n = max(len(a.coeffs), len(b.coeffs), 1)
    field = to_mpf if numeric else _exact_field
    floor = field(ZERO_COEFF_FLOOR)
    worst = field(0)
    for x, y in zip(_pad(a.coeffs, n), _pad(b.coeffs, n)):
        x, y = field(x), field(y)
        denom = max(abs(x), abs(y), floor)
        worst = max(worst, abs(x - y) / denom)
    return worst


def verify_exact(net: SPNet, target: RationalFn) -> bool:
    """True iff impedance(net) equals the target as reduced rational fns.

    All element values and target coefficients must be exact; use
    verify_numeric otherwise.
    """
    if any(not is_exact_scalar(lf.value) for lf in leaves(net)):
        raise ValueError("verify_exact requires exact element values")
    if not target.is_exact():
        raise ValueError("verify_exact requires an exact target")
    z = impedance(net)
    return z.num * target.den == target.num * z.den


def verify_numeric(
    net: SPNet,
    target: RationalFn,
    tol=Fraction(1, 10**20),
    precision_bits: int = 256,
) -> Tuple[bool, object]:
    """Residual check of impedance(net) against the target.

    Returns (ok, residual) with residual the max relative coefficient error
    of the cross-multiplied monic-denominator forms.  Exact inputs short-cut
    to exact arithmetic, so an exactly matching network reports residual 0.
    """
    exact = target.is_exact() and all(is_exact_scalar(lf.value) for lf in leaves(net))
    if exact:
        z = impedance(net)
        residual = coefficient_residual(z.num * target.den, target.num * z.den, False)
        if isinstance(tol, (int, Fraction)):
            return residual <= tol, residual
        return to_mpf(residual) <= to_mpf(tol), residual
    with mp.workprec(precision_bits):
        z = impedance(net)
        tnum = Poly([to_mpf(c) for c in target.num.coeffs])
        tden = Poly([to_mpf(c) for c in target.den.coeffs])
        znum = Poly([to_mpf(c) for c in z.num.coeffs])
        zden = Poly([to_mpf(c) for c in z.den.coeffs])
        residual = coefficient_residual(znum * tden, tnum * zden, True)
        return residual <= to_mpf(tol), residual
