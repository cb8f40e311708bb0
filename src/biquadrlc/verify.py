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
the budget", never "not realizable".  Templates are evaluated in float
through the same impedance builder that ``network.impedance`` uses.
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


def _theta_values(theta: np.ndarray) -> np.ndarray:
    """Element values of log-values theta, clipped so exp cannot overflow."""
    return np.exp(np.clip(theta, -200.0, 200.0))


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

    Damped least squares on log-values; ``starts`` deterministic random
    multistarts share the evaluation ``budget``.  Success is certified by
    verify_numeric at ``tol``, so a success here always re-verifies.
    """
    slot_leaves = leaves(template)
    n = len(slot_leaves)
    if n < 1:
        raise ValueError("template has no element slots")
    tnum = np.array([float(c) for c in target.num.coeffs])
    tden = np.array([float(c) for c in target.den.coeffs])

    def residual_vec(theta):
        num, den = impedance_coeffs(template, _theta_values(theta).tolist())
        lhs = np.convolve(num, tden)
        rhs = np.convolve(tnum, den)
        m = max(len(lhs), len(rhs))
        lhs = np.pad(lhs, (0, m - len(lhs)))
        rhs = np.pad(rhs, (0, m - len(rhs)))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        out = (lhs - rhs) / scale
        if not np.all(np.isfinite(out)):
            return np.full(m, 1e6)
        return out

    rng = np.random.default_rng(seed)
    per_start = max(budget // max(starts, 1), 40)
    best_theta = None
    best_cost = np.inf
    evals = 0
    m = len(residual_vec(np.zeros(n)))
    method = "lm" if m >= n else "trf"
    for _ in range(starts):
        x0 = rng.normal(0.0, 2.0, n)
        try:
            res = least_squares(
                residual_vec, x0, method=method, max_nfev=per_start, xtol=1e-15, ftol=1e-15, gtol=1e-15
            )
        except Exception:
            continue
        evals += res.nfev
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
