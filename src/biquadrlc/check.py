"""Verification oracles: exact and numeric impedance matching.

Both work in the one field that ``ratpoly.field_of`` picks for the
coefficients they compare: exact when every one is exact, mpf at the working
precision otherwise.

The numeric residual metric is the maximum relative error over the
coefficients of the cross-multiplied forms num_Z * den_T vs num_T * den_Z
(both sides already carry monic denominators), with an absolute fallback of
1e-30 for coefficients that vanish.  Cross-multiplication makes the metric
insensitive to unreduced common factors, which inexact impedance computation
cannot cancel.

This module needs no numpy, so classification, synthesis and the CLI
commands that verify their answers run without it; only the fitter in
``verify`` loads it.  mpmath comes in through ``ratpoly`` when an inexact
coefficient needs an mpf: exact verification never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .network import SPNet, impedance, leaves
from .ratpoly import Poly, RationalFn, field_of, is_exact_scalar, workprec

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
    of the cross-multiplied monic-denominator forms, in the field of the
    impedance and target coefficients: an exactly matching network of exact
    values reports residual 0.
    """
    with workprec(precision_bits):
        z = impedance(net)
        polys = (z.num, z.den, target.num, target.den)
        f = field_of(*(c for poly in polys for c in poly.coeffs))
        znum, zden, tnum, tden = (Poly([f(c) for c in poly.coeffs]) for poly in polys)
        residual = coefficient_residual(znum * tden, tnum * zden)
        g = field_of(residual, tol)
        return g(residual) <= g(tol), residual
