"""Fitting and falsification: a multistart least-squares fitter and a
brute-force enumerate-and-fit harness for small networks.  The verification
oracles live in ``check``, which this module re-exports.

Fitting is damped least squares on log-element values (positivity for free),
multistarted with a deterministic seed; a failed fit means "not found within
the budget", never "not realizable".  Each template is compiled once into a
monomial table by running the impedance builder that ``network.impedance``
uses on symbolic leaf values.  ``least_squares``, MINPACK ``lmder``'s
Levenberg-Marquardt written in numpy, advances all starts of a template as
one batch on the residuals and exact Jacobians of that table.

Only this module loads numpy.  Nothing else in the package imports it at
load time: the package root serves the fitting names on first access, and
of the CLI commands only ``falsify`` imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple

import numpy as np
from mpmath import mp, mpf

from .check import coefficient_residual, verify_exact, verify_numeric
from .network import (
    Leaf,
    SPNet,
    enumerate_labeled,
    leaves,
    impedance_coeffs,
    map_leaves,
    parse_filters,
    to_netlist_json,
)
from .ratpoly import RationalFn, to_mpf

__all__ = [
    "verify_exact",
    "verify_numeric",
    "coefficient_residual",
    "FitResult",
    "fit_topology",
    "falsify_small",
]


@dataclass
class FitResult:
    """Outcome of ``fit_topology``.  ``iterations`` counts every evaluation
    over all starts: residual evaluations (nfev) plus Jacobian evaluations
    (njev), and the one or two of ``_to_limit``."""

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
FIT_PRECISION_BITS = 128  # working precision of the target conversion and the re-verification


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
    Jacobian, on a batch of log element values theta (one row per start).

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
        self.size = max(len(num) + len(tden) - 1, len(den) + len(tnum) - 1)

        def cross(poly, t):
            """Map from monomial values to the coefficients of poly * t."""
            out = np.zeros((self.size, len(masks)))
            for i, c in enumerate(poly):
                for mask, count in c.terms.items():
                    out[i:i + len(t), column[mask]] += count * t
            return out

        self.sides_map = np.vstack([cross(num, tden), cross(den, tnum)])
        self.diff_map = self.sides_map[: self.size] - self.sides_map[self.size:]

    def _evaluate(self, theta: np.ndarray):
        """The clipped theta, monomials, both sides, scale and residual of
        every row, and which rows are finite."""
        clipped = np.minimum(np.maximum(theta, -THETA_CLIP), THETA_CLIP)
        # exp overflows to inf on far-out starts, and inf * 0 in the map
        # gives nan; both end in the finiteness check, which is the report
        with np.errstate(over="ignore", invalid="ignore"):
            mono = np.exp(clipped @ self.exponents.T)
            sides = mono @ self.sides_map.T
            scale = np.maximum(np.abs(sides).max(axis=1), 1e-300)
            out = (sides[:, : self.size] - sides[:, self.size:]) / scale[:, None]
        finite = np.isfinite(out).all(axis=1)
        return clipped, mono, sides, scale, out, finite

    def residual(self, theta: np.ndarray) -> np.ndarray:
        """Residuals (B x size) of a batch theta (B x n)."""
        *_, out, finite = self._evaluate(theta)
        out[~finite] = 1e6
        return out

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """Jacobians (B x size x n) of a batch theta (B x n); zero on rows
        whose residual is not finite."""
        clipped, mono, sides, scale, out, finite = self._evaluate(theta)
        if not finite.all():
            rows = finite[:, None]
            mono, sides, out = (np.where(rows, a, 0.0) for a in (mono, sides, out))
            scale = np.where(finite, scale, 1.0)
        # d scale / d mono: the signed map row of the coefficient that sets
        # the scale (argmax takes the first maximum: lhs on a tie), or zero
        # at the 1e-300 floor
        k = np.abs(sides).argmax(axis=1)
        top = sides[np.arange(len(k)), k]
        scale_row = (np.sign(top) * (np.abs(top) == scale))[:, None] * self.sides_map[k]
        dmono = mono[:, :, None] * (self.exponents * (clipped == theta)[:, None, :])
        grad = self.diff_map - out[:, :, None] * scale_row[:, None, :]
        return grad @ dmono / scale[:, None, None]


def _check_budget(budget: int, starts: int) -> None:
    # every start evaluates its initial point and at least one step
    if starts < 1 or budget < 2 * starts:
        raise ValueError("starts must be at least 1 and budget at least 2 * starts, "
                         "got starts=%s, budget=%s" % (starts, budget))


EXACT_FIT = 1e-14  # a start whose largest |residual| falls below this ends the batch


class LMResult(NamedTuple):
    """Outcome of ``least_squares``: the last accepted point of every start,
    its residuals and the evaluation counts summed over the starts."""

    x: np.ndarray
    fun: np.ndarray
    nfev: int
    njev: int


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


_TINY = np.finfo(float).tiny


def _lm_step(s, sg, delta, par):
    """MINPACK ``lmpar`` (Moré 1978) for each row, in the SVD of the scaled
    Jacobian instead of its QR: the Levenberg-Marquardt parameter, the
    step's coefficients on the right singular vectors and their norm.

    s are the singular values (zero where dropped) and sg = s * U^T f, so
    the step for parameter lam is p = -sg / (s^2 + lam) in that basis.  The
    Gauss-Newton step (lam = 0) is taken where it is no longer than 1.1
    delta.  Elsewhere Newton's iteration on 1/|p| = 1/delta starts from
    ``par``, the row's last parameter, and runs until |p| is within 10% of
    delta, or ten times.  1/|p| is concave in lam, so the iterate from
    lam = 0 is a lower bound on the root, which keeps lam from falling
    below it."""
    s2 = np.where(s > 0, s * s, np.inf)
    lam = np.zeros(len(s))
    t = s2
    active = np.ones(len(s), dtype=bool)
    for i in range(11):
        p = sg / t
        pp = p * p
        pn2 = np.add.reduce(pp, axis=1)
        pnorm = np.sqrt(pn2)
        fp = pnorm - delta
        active &= np.abs(fp) > 0.1 * delta
        if i == 0:
            active &= fp > 0  # the Gauss-Newton step
        if i == 10 or not active.any():
            break
        # Newton's correction fp / delta * |p|^2 / sum(p^2 / (s^2 + lam))
        step = lam + fp * pn2 / (delta * np.add.reduce(pp / t, axis=1) + _TINY)
        if i == 0:
            lower = step
            step = np.maximum(par, lower)
        lam = np.where(active, np.maximum(lower, step), lam)
        t = s2 + lam[:, None]
    return lam, p, pnorm


def least_squares(fun, x0, jac, max_nfev, xtol, ftol, gtol) -> LMResult:
    """Levenberg-Marquardt on a batch of starts, the rows of ``x0``.

    ``fun`` maps a (B x n) batch to its (B x m) residuals and ``jac`` to the
    (B x m x n) Jacobians.  Each start follows MINPACK ``lmder`` (Moré, LNM
    630, 1978) with ``factor`` 100 and the scaling D the running maximum of
    the Jacobian's column norms: its own trust radius and parameter, step
    acceptance, stop tests on ``xtol``, ``ftol`` and ``gtol`` and at most
    ``max_nfev`` residual evaluations.  Each round evaluates one trial step
    of every running start in one call, and the Jacobians of those whose
    step was accepted in another; finished starts leave the batch, and once
    any start's largest |residual| is below ``EXACT_FIT`` the whole batch
    stops.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    result_x, result_f = x.copy(), f.copy()
    nfev, njev, evaluations = len(x), 0, 1  # evaluations: of each running start

    def linearize(x, f, fsq, scale):
        """At the rows x: the new scaling, the singular values s and
        s * U^T f of the scaled Jacobian, its right singular vectors divided
        by the scaling, and where the gradient test stops."""
        J = jac(x)
        colnorm = np.sqrt(np.add.reduce(J * J, axis=1))
        # lmder starts D at the column norms, with 1 for a zero column
        scale = np.where(colnorm > 0, colnorm, 1.0) if scale is None else np.maximum(scale, colnorm)
        # cosine between f and each column of J
        cosine = np.abs(np.add.reduce(J * f[:, :, None], axis=1))
        cosine /= np.maximum(np.sqrt(fsq)[:, None] * colnorm, _TINY)
        U, s, Vt = np.linalg.svd(J / scale[:, None, :], full_matrices=False)
        # as in lmder, only vanishing singular values count as zero, so that
        # steps go on along a column that fades towards the theta clip; the
        # floor keeps |step|^2 finite in _lm_step for |f| of order 1
        s = s * (s > 1e-75)
        sg = s * np.add.reduce(U * f[:, :, None], axis=1)
        return scale, s, sg, Vt / scale[:, None, :], cosine.max(axis=1) <= gtol

    state = None
    if not (np.abs(f).max(axis=1) < EXACT_FIT).any():
        fsq = np.add.reduce(f * f, axis=1)
        scale, s, sg, Vs, done = linearize(x, f, fsq, None)
        njev += len(x)
        xnorm = _norms(scale * x)
        delta = np.where(xnorm > 0, 100.0 * xnorm, 100.0)
        state = [np.arange(len(x)), x, f, fsq, xnorm, scale, s, sg, Vs, delta,
                 np.zeros(len(x)), np.ones(len(x), dtype=bool)]
    while state is not None:
        if done.any():
            result_x[state[0][done]], result_f[state[0][done]] = state[1][done], state[2][done]
            state = [a[~done] for a in state]
            if not len(state[0]):
                break
        start, x, f, fsq, xnorm, scale, s, sg, Vs, delta, par, first = state
        par, p, pnorm = _lm_step(s, sg, delta, par)
        if first.any():  # lmder's first iteration: no radius beyond the first step
            delta = np.where(first, np.minimum(delta, pnorm), delta)
        xt = x - (p[:, None, :] @ Vs)[:, 0, :]
        ft = fun(xt)
        nfev += len(x)
        evaluations += 1
        fsq1 = np.add.reduce(ft * ft, axis=1)
        # actual and predicted reductions of |f|^2 and the directional
        # derivative -slope, relative to |f|^2.  lmder sets the actual one to
        # -1 where |ft| >= 10 |f|; there the ratio is negative and the shrink
        # factor clamped to 0.1 either way, as slope <= 1 for an LM step
        actred = 1.0 - fsq1 / fsq
        fitted = np.add.reduce((s * p) ** 2, axis=1) / fsq
        damping = par * pnorm * pnorm / fsq
        slope = fitted + damping
        prered = slope + damping
        ratio = actred / np.maximum(prered, _TINY)
        # lmder's update of the radius and the parameter
        shrink = np.maximum(0.5 * slope / np.maximum(slope - 0.5 * np.minimum(actred, 0.0), _TINY), 0.1)
        low = ratio <= 0.25
        grow = (par == 0) | (ratio >= 0.75)
        delta = np.where(low, shrink * np.minimum(delta, 10.0 * pnorm), np.where(grow, 2.0 * pnorm, delta))
        par = np.where(low, par / shrink, np.where(grow, 0.5 * par, par))
        accept = ratio >= 1e-4
        np.copyto(x, xt, where=accept[:, None])
        np.copyto(f, ft, where=accept[:, None])
        fsq = np.where(accept, fsq1, fsq)
        xnorm = np.where(accept, _norms(scale * x), xnorm)
        first &= ~accept
        done = ((np.abs(actred) <= ftol) & (prered <= ftol) & (ratio <= 2.0)) | (delta <= xtol * xnorm)
        if evaluations >= max_nfev or (np.abs(f).max(axis=1) < EXACT_FIT).any():
            done[:] = True
        state = [start, x, f, fsq, xnorm, scale, s, sg, Vs, delta, par, first]
        j = accept & ~done
        if j.any():
            scale[j], s[j], sg[j], Vs[j], done[j] = linearize(x[j], f[j], fsq[j], scale[j])
            njev += int(j.sum())
    return LMResult(result_x, result_f, nfev, njev)


def _to_limit(compiled: _CompiledTemplate, theta: np.ndarray, cost: float):
    """The fitted log-values with the elements that run off to 0 or infinity
    taken to the clip, and the evaluations that took.

    Such elements (alone, or several with a fixed product or ratio) change
    the residual less and less, so a start stops at an arbitrary depth,
    where the certification may still see them.  Their Jacobian columns
    have faded; their log-values are shifted outwards together until the
    largest reaches the clip, where the limit network is, if that leaves
    the residual within a relative 1e-9 or an exact fit."""
    theta = np.clip(theta, -THETA_CLIP, THETA_CLIP)
    colnorm = np.abs(compiled.jacobian(theta[None])[0]).max(axis=0)
    inside = (colnorm <= 1e-8 * colnorm.max()) & (np.abs(theta) < THETA_CLIP)
    if not inside.any():
        return theta, 1
    trial = theta + inside * np.sign(theta) * (THETA_CLIP - np.abs(theta[inside]).max())
    if np.abs(compiled.residual(trial[None])).max() <= max(cost * (1 + 1e-9), EXACT_FIT):
        theta = trial
    return theta, 2


def fit_topology(
    template: SPNet,
    target: RationalFn,
    budget: int = 6000,
    starts: int = 32,
    seed: int = 0,
    tol=Fraction(1, 10**8),
) -> FitResult:
    """Fit positive element values so the template realizes the target.

    Levenberg-Marquardt on log-values (``least_squares``) with the compiled
    template's exact Jacobian; ``starts`` deterministic random multistarts
    run as one batch and each has ``budget // starts`` residual evaluations
    (Jacobian evaluations, at most one fewer per start, come on top).  The
    best start's elements that run off to 0 or infinity go to the clip
    (``_to_limit``).  Success is certified by verify_numeric at
    ``FIT_PRECISION_BITS`` and ``tol``, so a success here always
    re-verifies.  Raises ValueError when the budget is below two
    evaluations per start.
    """
    _check_budget(budget, starts)
    n = len(leaves(template))
    if n < 1:
        raise ValueError("template has no element slots")
    with mp.workprec(FIT_PRECISION_BITS):
        tnum, tden = (np.array([float(to_mpf(c)) for c in poly.coeffs])
                      for poly in (target.num, target.den))
    compiled = _CompiledTemplate(template, tnum, tden)

    x0 = np.random.default_rng(seed).normal(0.0, 2.0, (starts, n))
    res = least_squares(compiled.residual, x0, jac=compiled.jacobian, max_nfev=budget // starts,
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    costs = np.abs(res.fun).max(axis=1)
    best = int(costs.argmin())  # the first start with the smallest largest |residual|
    theta, evals = _to_limit(compiled, res.x[best], costs[best])
    evals += res.nfev + res.njev
    values = np.exp(theta).tolist()  # theta is clipped, so no value overflows
    named = dict(zip(_slot_names(template), values))
    net = _instantiate(template, [mpf(v) for v in values])
    ok, residual = verify_numeric(net, target, tol=tol, precision_bits=FIT_PRECISION_BITS)
    return FitResult(bool(ok), named, float(residual), evals)


# ---------------------------------------------------------------------------
# falsification harness


FALSIFY_FILTERS = ("cutset", "reactive-arm", "mergeable")


def falsify_small(
    target: RationalFn,
    n_max: int,
    budget: int = 4000,
    seed: int = 0,
    tol=Fraction(1, 10**8),
    starts: int = 24,
    stop_at_first_success: bool = False,
) -> dict:
    """Exhaustive multistart fitting over all labeled topologies up to n_max.

    Topologies failing a ``FALSIFY_FILTERS`` filter are skipped and reported
    as filtered (they cannot realize a biquadratic with finite nonzero Z(0)
    and Z(inf)).  A uniform residual floor is evidence consistent with
    non-realizability, not a proof.  ``budget`` bounds the residual
    evaluations of each fit (see ``fit_topology``).  Raises ValueError for
    n_max outside 1..5, for a start count below 1 and for a budget below
    two evaluations per start.
    """
    if not 1 <= n_max <= 5:
        raise ValueError("n_max must be between 1 and 5 (the brute force's limit)")
    _check_budget(budget, starts)
    preds = parse_filters(FALSIFY_FILTERS)
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
