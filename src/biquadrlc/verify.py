"""Verification oracles: exact and numeric impedance matching, plus a
brute-force enumerate-and-fit falsification harness for small networks.

The numeric residual metric is the maximum relative error over the
coefficients of the cross-multiplied forms num_Z * den_T vs num_T * den_Z
(both sides already carry monic denominators), with an absolute fallback of
1e-30 for coefficients that vanish.  Cross-multiplication makes the metric
insensitive to unreduced common factors, which inexact impedance computation
cannot cancel.

Fitting is damped least squares on log-element values (positivity for free),
multistarted with a deterministic seed; a failed fit means "not found within
the budget", never "not realizable".  Each template is compiled once into a
monomial table by running the impedance builder that ``network.impedance``
uses on symbolic leaf values; the fit evaluates its residual and exact
Jacobian from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

import numpy as np
from mpmath import mp, mpf
from scipy.optimize import least_squares

from .network import (
    Leaf,
    SPNet,
    enumerate_labeled,
    leaves,
    impedance,
    impedance_coeffs,
    map_leaves,
    parse_filters,
    to_netlist_json,
)
from .ratpoly import Poly, QuadraticRational, RationalFn, is_exact_scalar, to_mpf

__all__ = [
    "verify_exact",
    "verify_numeric",
    "coefficient_residual",
    "FitResult",
    "fit_topology",
    "falsify_small",
]

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
    if numeric:
        ac = [to_mpf(c) for c in _pad(a.coeffs, n)]
        bc = [to_mpf(c) for c in _pad(b.coeffs, n)]
        floor = mpf(10) ** -30
        worst = mpf(0)
        for x, y in zip(ac, bc):
            denom = max(abs(x), abs(y), floor)
            worst = max(worst, abs(x - y) / denom)
        return worst
    worst = Fraction(0)
    for x, y in zip(_pad(a.coeffs, n), _pad(b.coeffs, n)):
        x, y = _exact_field(x), _exact_field(y)
        denom = max(abs(x), abs(y), ZERO_COEFF_FLOOR)
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


@dataclass
class FitResult:
    """Outcome of ``fit_topology``.  ``iterations`` counts every evaluation
    over all starts: residual evaluations (nfev) plus Jacobian evaluations
    (njev)."""

    success: bool
    values: Dict[str, float]
    residual: float
    iterations: int


def _slot_names(template: SPNet) -> List[str]:
    counters = {"R": 0, "L": 0, "C": 0}
    names = []
    for lf in leaves(template):
        counters[lf.kind] += 1
        names.append("%s%d" % (lf.kind, counters[lf.kind]))
    return names


def _instantiate(template: SPNet, values: Iterable) -> SPNet:
    it = iter(values)
    return map_leaves(template, lambda lf: Leaf(lf.kind, next(it)))


THETA_CLIP = 200.0  # |log value| bound, so one element value cannot overflow


def _theta_values(theta: np.ndarray) -> np.ndarray:
    """Element values of log-values theta, clipped so exp cannot overflow."""
    return np.exp(np.clip(theta, -THETA_CLIP, THETA_CLIP))


class _Multilinear:
    """Integer polynomial in the leaf values, multilinear because every leaf
    of a series-parallel tree sits in one subtree: a dict from leaf bitmask
    to count.  It supports what ``impedance_coeffs`` applies to a leaf value:
    ``+``, ``*`` (of disjoint subtrees), ``0 * v`` and ``v / v``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[int, int]):
        self.terms = terms

    def __add__(self, other: "_Multilinear") -> "_Multilinear":
        terms = dict(self.terms)
        for mask, count in other.terms.items():
            terms[mask] = terms.get(mask, 0) + count
        return _Multilinear(terms)

    def __mul__(self, other: "_Multilinear") -> "_Multilinear":
        terms: Dict[int, int] = {}
        for a, x in self.terms.items():
            for b, y in other.terms.items():
                terms[a | b] = terms.get(a | b, 0) + x * y
        return _Multilinear(terms)

    def __rmul__(self, k: int) -> "_Multilinear":
        if k != 0:
            return NotImplemented
        return _Multilinear({})

    def __truediv__(self, other: "_Multilinear") -> "_Multilinear":
        if other is not self:
            return NotImplemented
        return _Multilinear({0: 1})


class _CompiledTemplate:
    """Fit residual of a template against a float target, with its exact
    Jacobian, on log element values theta.

    ``impedance_coeffs`` runs once on ``_Multilinear`` leaves, giving every
    coefficient of num and den as a sum of leaf-value monomials.  The table
    holds the monomials' exponent matrix E (monomials x leaves, 0/1) and one
    linear map from monomial values to the cross-multiplied num * tden
    (first ``size`` rows) and tnum * den (last ``size`` rows); the integer
    monomial weights are folded into the map.  With mono = exp(E @
    clip(theta)), the residual is (lhs - rhs) / scale for scale the largest
    |coefficient| of either side, and d mono / d theta_i = mono * E[:, i]
    (zero for a clipped theta_i).
    """

    def __init__(self, template: SPNet, tnum: np.ndarray, tden: np.ndarray):
        n = len(leaves(template))
        num, den = impedance_coeffs(template, [_Multilinear({1 << i: 1}) for i in range(n)])
        masks = sorted({mask for c in num + den for mask in c.terms})
        column = {mask: j for j, mask in enumerate(masks)}
        self.exponents = np.array([[(mask >> i) & 1 for i in range(n)] for mask in masks], dtype=float)
        self.size = max(len(num) + len(tden), len(den) + len(tnum)) - 1

        def cross(poly, t):
            """Map from monomial values to the coefficients of poly * t."""
            out = np.zeros((self.size, len(masks)))
            for i, c in enumerate(poly):
                for mask, count in c.terms.items():
                    out[i:i + len(t), column[mask]] += count * t
            return out

        self.sides_map = np.vstack([cross(num, tden), cross(den, tnum)])
        self.diff_map = self.sides_map[: self.size] - self.sides_map[self.size:]
        self._key = None

    def _evaluate(self, theta: np.ndarray) -> None:
        """Monomials and both sides at theta; fun and jac share one call."""
        key = theta.tobytes()
        if key == self._key:
            return
        self._key = key
        clipped = np.clip(theta, -THETA_CLIP, THETA_CLIP)
        self._free = clipped == theta
        # exp overflows to inf on far-out starts, and inf * 0 in the map
        # gives nan; both end in the finiteness check, which is the report
        with np.errstate(over="ignore", invalid="ignore"):
            self._mono = np.exp(self.exponents @ clipped)
            sides = self.sides_map @ self._mono
            # argmax takes the first maximum: lhs sets the scale on a tie
            k = int(np.abs(sides).argmax())
            self._scale = max(abs(sides[k]), 1e-300)
            self._out = (sides[: self.size] - sides[self.size:]) / self._scale
        self._finite = bool(np.isfinite(self._out).all())
        if not self._finite:
            return
        # d scale / d mono: the signed map row of the coefficient that sets
        # the scale, or zero at the 1e-300 floor
        if self._scale == abs(sides[k]):
            self._scale_row = np.sign(sides[k]) * self.sides_map[k]
        else:
            self._scale_row = np.zeros(len(self._mono))

    def residual(self, theta: np.ndarray) -> np.ndarray:
        self._evaluate(theta)
        if not self._finite:
            return np.full(self.size, 1e6)
        return self._out.copy()

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        self._evaluate(theta)
        if not self._finite:
            return np.zeros((self.size, len(self._free)))
        dmono = self._mono[:, None] * (self.exponents * self._free)
        dscale = self._scale_row @ dmono
        return (self.diff_map @ dmono - self._out[:, None] * dscale) / self._scale


def fit_topology(
    template: SPNet,
    target: RationalFn,
    budget: int = 6000,
    starts: int = 32,
    seed: int = 0,
    tol=Fraction(1, 10**8),
    precision_bits: int = 128,
) -> FitResult:
    """Fit positive element values so the template realizes the target.

    Damped least squares on log-values with the compiled template's exact
    Jacobian; ``starts`` deterministic random multistarts share the
    evaluation ``budget``.  Success is certified by verify_numeric at
    ``tol``, so a success here always re-verifies.
    """
    n = len(leaves(template))
    if n < 1:
        raise ValueError("template has no element slots")
    tnum = np.array([float(c) for c in target.num.coeffs])
    tden = np.array([float(c) for c in target.den.coeffs])
    compiled = _CompiledTemplate(template, tnum, tden)

    rng = np.random.default_rng(seed)
    per_start = max(budget // max(starts, 1), 40)
    best_theta = None
    best_cost = np.inf
    evals = 0
    method = "lm" if compiled.size >= n else "trf"
    for _ in range(starts):
        x0 = rng.normal(0.0, 2.0, n)
        try:
            res = least_squares(
                compiled.residual,
                x0,
                jac=compiled.jacobian,
                method=method,
                max_nfev=per_start,
                xtol=1e-15,
                ftol=1e-15,
                gtol=1e-15,
            )
        except Exception:
            continue
        evals += res.nfev + (res.njev or 0)
        cost = float(np.max(np.abs(res.fun)))
        if cost < best_cost:
            best_cost = cost
            best_theta = res.x
        if cost < 1e-14:
            break
    if best_theta is None:
        return FitResult(False, {}, float("inf"), evals)
    values = _theta_values(best_theta).tolist()
    named = dict(zip(_slot_names(template), values))
    if not all(np.isfinite(v) and v > 0 for v in values):
        return FitResult(False, named, float("inf"), evals)
    net = _instantiate(template, [mpf(v) for v in values])
    ok, residual = verify_numeric(net, target, tol=tol, precision_bits=precision_bits)
    return FitResult(bool(ok), named, float(residual), evals)


# ---------------------------------------------------------------------------
# falsification harness


DEFAULT_FALSIFY_FILTERS = ("cutset", "reactive-arm", "mergeable")


def falsify_small(
    target: RationalFn,
    n_max: int,
    budget: int = 4000,
    seed: int = 0,
    tol=Fraction(1, 10**8),
    filters: Tuple[str, ...] = DEFAULT_FALSIFY_FILTERS,
    starts: int = 24,
    stop_at_first_success: bool = False,
) -> dict:
    """Exhaustive multistart fitting over all labeled topologies up to n_max.

    Topologies failing a structural filter are skipped and reported as
    filtered (they cannot realize a biquadratic with finite nonzero Z(0) and
    Z(inf)).  A uniform residual floor is evidence consistent with
    non-realizability, not a proof.
    """
    if n_max > 5:
        raise ValueError("falsification brute force is limited to 5 elements")
    preds = parse_filters(filters)
    entries = []
    best = None
    any_success = False
    index = 0
    for n in range(1, n_max + 1):
        for labeled in enumerate_labeled(n):
            entry = {
                "topology": to_netlist_json(labeled),
                "elements": n,
                "filtered": False,
                "filter": None,
                "best_residual": None,
                "success": False,
                "values": None,
                "evaluations": 0,
            }
            skip = None
            for name, pred in preds:
                if not pred(labeled):
                    skip = name
                    break
            if skip is not None:
                entry["filtered"] = True
                entry["filter"] = skip
                entries.append(entry)
                continue
            fit = fit_topology(
                labeled,
                target,
                budget=budget,
                starts=starts,
                seed=seed * 1000003 + index,
                tol=tol,
            )
            index += 1
            entry["best_residual"] = fit.residual
            entry["success"] = fit.success
            entry["evaluations"] = fit.iterations
            if fit.success:
                entry["values"] = fit.values
                any_success = True
            if best is None or (
                fit.residual is not None and fit.residual < best
            ):
                best = fit.residual
            entries.append(entry)
            if any_success and stop_at_first_success:
                return {
                    "entries": entries,
                    "any_success": True,
                    "best_residual": best,
                    "complete": False,
                }
    return {
        "entries": entries,
        "any_success": any_success,
        "best_residual": best,
        "complete": True,
    }
