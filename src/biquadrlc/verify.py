"""Fitting and falsification: a multistart least-squares fitter and a
brute-force enumerate-and-fit harness for small networks.  The verification
oracles live in ``check``, which this module re-exports.

Fitting is damped least squares on log-element values (positivity for free),
multistarted with a deterministic seed; a failed fit means "not found within
the budget", never "not realizable".  A template's starts are N(0, 2^2)
draws of ``random.Random(seed).gauss``, row by row (``_starts``): a seeded
``random.Random`` depends on CPython alone, where NumPy lets a Generator's
streams change between releases (NEP 19), and ``numpy.random`` would bring
``secrets``, ``hmac`` and OpenSSL's ``_hashlib`` into the process, which
``falsify`` loads none of.  Each template is compiled into a
table of monomial terms by running the impedance builder that
``network.impedance`` uses on symbolic leaf values.  ``least_squares``,
MINPACK ``lmder``'s Levenberg-Marquardt written in numpy, advances the
starts of many templates as one batch on the residuals and exact Jacobians
of a stack of these tables against the target (``_CompiledTemplate``), each
Jacobian taken from the evaluation that accepted its point:
``falsify_small`` fits all its templates in one call (at most ``BATCH_ROWS``
starts in flight), and ``fit_topology`` is the case of one template.  Every
template keeps its own seed, budget, early exit and evaluation count; a
certified success stops the templates after it.

A start stops, as in MINPACK, when a step changes its sum of squares or its
scaled point by at most ``SETTLED`` = 1e-8 relative (``ftol``, ``xtol``),
when the residuals are orthogonal to every Jacobian column to within a
cosine of 1e-15 (``gtol``), at an exact fit or at its budget.  A start
stopped that early may leave an element that runs off to 0 or infinity at
some depth, from which ``_to_limit`` takes it to the clip, and the limit
network can certify at residual 1 or just below (a cross-multiplied
coefficient vanished or flipped sign), a degenerate limit that the fit's
scaled objective does not see.  So while the smallest certified residual
is within ``DEGENERATE`` = 1e-3 of 1 or above, ``_fit`` also certifies the
next distinct minima in fit-cost order, up to ``CERTIFICATIONS`` in all,
and reports the smallest certified residual.  Measured with the earlier
starts from ``numpy.random`` and a fallback only at 1 or more: against
10^-10 this took a floor problem at n <= 3 about a fifth fewer rounds,
moved no n <= 5 floor of (s+1)^2/(s+2)^2 or (s+1)^2/(s+3)^2 (seeds 0 and
7) up by more than 0.1%, and lowered five of their floors of 1.0 to
0.73-0.89; 1e-8 was the ceiling: at 3e-8 one of these floors rose by 12%,
at 1e-7 one by 32%.  Certification is exact, by the one rule of ``check``:
the template's unreduced impedance coefficients at the fitted floats, taken
as the values they store, against the target that ``_exact_target`` gives
(as for the filter premises), with no network built per certification; the
residual's nearest float is reported.

What does not depend on the target is prepared once per process and cached:
the terms of each template, and for ``falsify_small`` the labelings of each
size with their filter verdicts (``ends-order`` among them, spelled with the
target's order).  The first call in a process pays for them
(a one-shot CLI call always does); the reports do not share the cached
objects.

Only this module loads numpy, and not ``numpy.random``.  Nothing else in
the package imports it at load time: the package root serves the fitting
names on first access, and of the CLI commands only ``falsify`` imports it.
"""

from __future__ import annotations

import functools
import operator
import random
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .check import _certify, coefficient_residual, verify_exact, verify_numeric
from .network import SPNet, _symbolic_coeffs, enumerate_labeled, leaves, parse_filters, to_netlist_json
from .ratpoly import Poly, RationalFn, _Record, _exact_value, _positive_roots, _sturm_chain, decimal_str, gcd

__all__ = [
    "verify_exact",
    "verify_numeric",
    "coefficient_residual",
    "FitResult",
    "fit_topology",
    "falsify_small",
]


class FitResult(_Record, mutable=True):
    """Outcome of ``fit_topology``: ``residual`` is the float nearest to the
    exact residual of ``values``.  ``iterations`` counts all evaluations:
    residual (nfev) and Jacobian (njev) ones, and those of ``_to_limit``."""

    __slots__ = ("success", "values", "residual", "iterations")

    def __init__(self, success: bool, values: Dict[str, float], residual: float, iterations: int):
        self.success = success
        self.values = values
        self.residual = residual
        self.iterations = iterations


def _slot_names(template: SPNet) -> List[str]:
    counters = {"R": 0, "L": 0, "C": 0}
    names = []
    for lf in leaves(template):
        counters[lf.kind] += 1
        names.append("%s%d" % (lf.kind, counters[lf.kind]))
    return names


THETA_CLIP = 200.0  # |log value| bound, so one element value cannot overflow


@functools.lru_cache(maxsize=4096)  # every labeling up to five elements fits
def _term_table(template: SPNet):
    """A template's coefficients of num and den as monomial terms in its leaf
    values, from ``impedance_coeffs`` run once on ``_Multilinear`` leaves
    (``network._symbolic_coeffs``):
    the terms' exponents (0/1 per leaf), integer weights, coefficient
    numbers and whether they add to den, and the lengths of num and den.
    Cached per process, as it does not depend on the target."""
    n = len(leaves(template))
    num, den = _symbolic_coeffs(template)
    terms = [(side, i, mask, count) for side, poly in enumerate((num, den))
             for i, c in enumerate(poly) for mask, count in c.terms.items()]
    exponents = np.array([[(mask >> j) & 1 for j in range(n)] for _, _, mask, _ in terms], dtype=float)
    side, index, _, weight = (np.array(column) for column in zip(*terms))
    table = exponents.reshape(len(terms), n), weight, index, side.astype(bool)
    for array in table:  # shared by every caller
        array.flags.writeable = False
    return table + (len(num), len(den))


class _Point(NamedTuple):
    """A batch as ``_CompiledTemplate.evaluate`` leaves it for ``jacobian_at``."""

    rows: np.ndarray
    exponents: np.ndarray  # the rows' exponent tables
    unclipped: np.ndarray
    terms: np.ndarray
    sides: np.ndarray
    scale: np.ndarray
    out: np.ndarray
    finite: object  # which rows are finite, or None for all


class _CompiledTemplate:
    """Fit residuals of one template or a stack of templates against a float
    target, with their exact Jacobians, on a batch of log element values
    theta: one row per start, evaluated against the template that ``rows``
    names for it (every row against the first template if ``rows`` is None).

    ``impedance_coeffs`` runs once per template on ``_Multilinear`` leaves
    (``_term_table``, cached per process), giving every coefficient of num
    and den as a sum of leaf-value monomials.  A template's table lists
    these terms: the monomial's exponents (0/1 per leaf), its integer weight
    and the coefficient it adds to.  With term = weight * exp(exponents @
    clip(theta)), the coefficients are sums of terms, one map shared by all
    templates cross-multiplies them into num * tden (first ``size`` rows)
    and tnum * den (last ``size`` rows), and the residual is (lhs - rhs) /
    scale for scale the largest |coefficient| of either side.  d term / d
    theta_i = term * exponents_i (zero for a clipped theta_i).

    The sums add each coefficient's terms in order (``np.bincount``), and
    that order matters, because the fits follow rounding-level changes into
    other minima: a matrix from the terms straight to both sides sums in
    another order and moves some floors by more than 1%, and a dense matrix
    from the terms to the coefficients that keeps the order does terms x
    coefficients work per row, more than the scatter at five elements.
    ``evaluate`` returns the residuals of a batch and the point that
    ``jacobian_at`` continues from, so that the Jacobian of a point just
    evaluated costs no second evaluation.  Every call takes its rows'
    tables from the stack, and ``jacobian_at`` differentiates only the rows
    that it selects: a row's sums do not depend on the rows beside it.  Its
    products with the cross-multiplication map do, because one BLAS product
    takes the whole batch and rounds a row differently among other rows; so
    a row's last bits depend on the batch's composition, not only on the
    stack's padding.

    The stack pads every table with zeros to the largest term count, num
    and den length and element count: a padded term has weight 0, padded
    coefficients give residual rows 0 = 0, and a padded element is in no
    term, so its Jacobian column is zero.
    """

    def __init__(self, templates: Sequence[SPNet], tnum: np.ndarray, tden: np.ndarray):
        tables = [_term_table(template) for template in templates]
        self.elements = [exponents.shape[1] for exponents, *_ in tables]
        n_num = max(num_len for *_, num_len, _ in tables)
        n_den = max(den_len for *_, den_len in tables)
        self.size = max(n_num + len(tden) - 1, n_den + len(tnum) - 1)
        self.cross = np.zeros((n_num + n_den, 2 * self.size))
        for i in range(n_num):
            self.cross[i, i:i + len(tden)] = tden
        for i in range(n_den):
            self.cross[n_num + i, self.size + i:self.size + i + len(tnum)] = tnum
        self.diff_cross = self.cross[:, : self.size] - self.cross[:, self.size:]
        shape = (len(tables), max(len(weight) for _, weight, *_ in tables))
        self.exponents = np.zeros(shape + (max(self.elements),))
        self.weight, self.position = np.zeros(shape), np.zeros(shape, dtype=np.intp)
        self.real_rows = np.zeros((len(tables), self.size))
        for t, (exponents, weight, index, den, num_len, den_len) in enumerate(tables):
            k, n = exponents.shape
            self.exponents[t, :k, :n], self.weight[t, :k] = exponents, weight
            self.position[t, :k] = index + n_num * den
            self.real_rows[t, : max(num_len + len(tden), den_len + len(tnum)) - 1] = 1.0

    def _slots(self, rows: np.ndarray, n: int) -> np.ndarray:
        """Where ``np.bincount`` adds the terms of a batch whose rows name
        these templates: for n = 1 coefficient i of row b is entry b * width
        + i, and for n elements d coefficient i / d theta_j of row b is
        entry (b * n + j) * width + i."""
        width = len(self.cross)
        offsets = width * np.arange(len(rows) * n).reshape(len(rows), 1, n)
        return (self.position.take(rows, axis=0)[:, :, None] + offsets).ravel()

    def evaluate(self, theta: np.ndarray, rows=None):
        """Residuals (B x size) of a batch theta (B x n), and the point from
        which ``jacobian_at`` continues.  A row whose residual is not finite
        reads 1e6 on the template's real entries."""
        if rows is None:
            rows = np.zeros(len(theta), dtype=np.intp)
        exponents = self.exponents.take(rows, axis=0)
        clipped = np.minimum(np.maximum(theta, -THETA_CLIP), THETA_CLIP)
        # exp overflows to inf on far-out starts, and inf * 0 in the sums
        # gives nan; both end in the finiteness check, which is the report
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self.weight.take(rows, axis=0) * np.exp(np.einsum("bkn,bn->bk", exponents, clipped))
            coeffs = np.bincount(self._slots(rows, 1), terms.ravel(), len(theta) * len(self.cross))
            sides = coeffs.reshape(len(theta), -1) @ self.cross
            scale = np.maximum(np.abs(sides).max(axis=1), 1e-300)
            out = (sides[:, : self.size] - sides[:, self.size:]) / scale[:, None]
        finite = None
        if not np.isfinite(out).all():
            finite = np.isfinite(out).all(axis=1)
            out[~finite] = 1e6 * self.real_rows[rows[~finite]]
        return out, _Point(rows, exponents, clipped == theta, terms, sides, scale, out, finite)

    def jacobian_at(self, point: _Point, index=None) -> np.ndarray:
        """Jacobians (B x size x n) of the rows ``index`` (an index array,
        or None for all) of an evaluated batch; zero on rows whose residual
        is not finite."""
        if index is not None:
            point = _Point(*(None if a is None else a.take(index, axis=0) for a in point))
        rows, exponents, unclipped, terms, sides, scale, out, finite = point
        with np.errstate(over="ignore", invalid="ignore"):
            # d coefficient / d theta_j: the sum of the coefficient's terms
            # that hold j, zero for a clipped theta_j
            (count, n), width = unclipped.shape, len(self.cross)
            dcoeffs = np.bincount(self._slots(rows, n), (terms[:, :, None] * exponents).ravel(), count * n * width)
            dcoeffs = dcoeffs.reshape(count, n, width)
            dcoeffs *= unclipped[:, :, None]
            # d scale / d theta: the signed derivative of the coefficient of
            # either side that sets the scale (argmax takes the first maximum:
            # lhs on a tie), or zero at the 1e-300 floor
            k = np.abs(sides).argmax(axis=1)
            top = sides[np.arange(len(k)), k]
            sign = np.sign(top) * (np.abs(top) == scale)
            dscale = np.einsum("bji,ib->bj", dcoeffs, self.cross[:, k]) * sign[:, None]
            jac = (dcoeffs.reshape(-1, width) @ self.diff_cross).reshape(len(k), n, self.size)
            jac -= dscale[:, :, None] * out[:, None, :]
            jac /= scale[:, None, None]
        if finite is not None:
            jac[~finite] = 0.0
        return jac.transpose(0, 2, 1)

    def residual(self, theta: np.ndarray, rows=None) -> np.ndarray:
        """Residuals (B x size) of a batch theta (B x n)."""
        return self.evaluate(theta, rows)[0]

    def jacobian(self, theta: np.ndarray, rows=None) -> np.ndarray:
        """Jacobians (B x size x n) of a batch theta (B x n)."""
        return self.jacobian_at(self.evaluate(theta, rows)[1])


def _check_fit(budget: int, starts: int, seed: int) -> int:
    """The seed as an int, once the arguments of a fit are checked."""
    # every start evaluates its initial point and at least one step
    if starts < 1 or budget < 2 * starts:
        raise ValueError("starts must be at least 1 and budget at least 2 * starts, "
                         "got starts=%s, budget=%s" % (starts, budget))
    # random.Random would take abs() of a negative seed and hash a float
    try:
        index = operator.index(seed)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError("seed must be a non-negative integer, got %r" % (seed,))
    return index


def _starts(seed: int, starts: int, n: int) -> List[List[float]]:
    """The initial log-values of a template's starts, one list of n per
    start: N(0, 2^2) draws of ``random.Random(seed)``, row by row."""
    gauss = random.Random(seed).gauss
    return [[gauss(0.0, 2.0) for _ in range(n)] for _ in range(starts)]


# Starts that least_squares advances together at most.  A round costs about
# 200 numpy calls whatever its size, so fitting templates side by side saves
# rounds; the arrays of a round, and the process's peak memory, grow with the
# rows.  The 3 templates of up to three elements that the filters keep for a
# double-root target (72 starts) run in one batch.  With more templates,
# most starts stop within a few dozen rounds and the next templates take
# their place, so 144 rows (6 templates of 24 starts) fitted 12 templates
# about as fast as 288 rows at once.
BATCH_ROWS = 144
EXACT_FIT = 1e-14  # a start whose largest |residual| falls below this ends its template's fit
SAME_COST = 1e-9  # relative band in which _to_limit takes two costs (largest |residual|) as equal
DEGENERATE = 1e-3  # a certified residual within this of 1, or above, is a degenerate limit (_fit)
SETTLED = 1e-8  # ftol and xtol of every start: the loosest that keeps the floors (module docstring)
CERTIFICATIONS = 3  # minima that _fit certifies at most per template, past a degenerate best one


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
    tenth = 0.1 * delta
    for i in range(11):
        p = sg / t
        pp = p * p
        pn2 = np.add.reduce(pp, axis=1)
        pnorm = np.sqrt(pn2)
        fp = pnorm - delta
        # |fp| > delta / 10, and at first also fp > 0 (else the Gauss-Newton step)
        active = fp > tenth if i == 0 else active & (np.abs(fp) > tenth)
        if i == 10 or not active.any():
            break
        # Newton's correction fp / delta * |p|^2 / sum(p^2 / (s^2 + lam))
        step = fp * pn2 / (delta * np.add.reduce(pp / t, axis=1) + _TINY)
        if i == 0:
            lower = step
            step = np.maximum(par, lower)
        else:
            step += lam
        lam = np.where(active, np.maximum(lower, step), lam)
        t = s2 + lam[:, None]
    return lam, p, pnorm


def least_squares(fun, x0, jac, rows, max_nfev, xtol, ftol, gtol, finish=None) -> LMResult:
    """Levenberg-Marquardt on a batch of starts, the rows of ``x0``; start i
    fits template ``rows[i]``, and the starts of a template are adjacent,
    in template order.

    ``fun`` maps a (B x n) batch and the templates of its rows to the
    (B x m) residuals and a point, and ``jac`` maps a point and an index
    array of its rows (None for all of them) to their (B' x m x n)
    Jacobians, so that the Jacobian of an accepted step reuses the
    evaluation that accepted it.  Each start follows MINPACK ``lmder``
    (Moré, LNM 630, 1978) with ``factor`` 100 and the scaling D the running
    maximum of the Jacobian's column norms: its own trust radius and
    parameter, step acceptance, stop tests on ``xtol``, ``ftol`` and
    ``gtol`` and at most ``max_nfev`` residual evaluations.  ``_fit``
    passes ``SETTLED`` (1e-8) as ``xtol`` and ``ftol``, and 1e-15 as
    ``gtol``.  Each round evaluates one trial step of every running start
    in one call, and takes the Jacobians of those whose step was accepted
    from that evaluation; finished starts leave the batch.  The starts of a template join it
    together, in template order, as soon as at most ``BATCH_ROWS``
    starts are then running (or none).  Once a start's largest |residual|
    is below ``EXACT_FIT``, the other starts of its template stop.

    When the last start of template t stops, ``finish(t, x, f, evaluations)``
    gets its starts' last points, residuals and summed residual and Jacobian
    evaluations, once per template (in template order among the templates
    whose last starts stop together), before the Jacobians of the starts
    that run on.  If it returns True, the templates after t stop at once,
    so their starts take no further evaluation, and no more of them join.
    """
    x0 = np.asarray(x0, dtype=float)
    rows = np.asarray(rows)
    result_x, result_f = x0.copy(), None
    nfev, njev = np.zeros(len(x0), dtype=int), np.zeros(len(x0), dtype=int)
    stopped = np.zeros(len(x0), dtype=bool)
    queued, limit = 0, np.inf  # the next start to join; the templates above limit are stopped

    def exact_stop(rows, f):
        """Which starts stop because a start of their template fits exactly."""
        exact = np.abs(f).max(axis=1) < EXACT_FIT
        return np.isin(rows, rows[exact]) if exact.any() else exact

    def stop(index):
        """Stop the starts at index and finish the templates they end, in template order."""
        nonlocal limit
        stopped[index] = True
        for t in sorted(set(rows[index].tolist())):
            own = slice(np.searchsorted(rows, t), np.searchsorted(rows, t, side="right"))
            if finish is not None and t <= limit and stopped[own].all() and finish(
                    t, result_x[own], result_f[own], int(nfev[own].sum() + njev[own].sum())):
                limit = t

    def retire(state, index):
        """Keep the last accepted points and evaluation counts of the running
        starts, and stop those at index; a template that they finish may
        stop the templates after it.  Stopped starts leave at the next
        compaction."""
        if len(index):
            start, _, x, f, *_, count = state
            result_x[start], result_f[start], nfev[start] = x, f, count
            stop(start.take(index))

    def linearize(point, index, f, fsq, scale):
        """At the rows ``index`` of an evaluated point, whose residuals are
        f: the new scaling, the singular values s and s * U^T f of the
        scaled Jacobian, its right singular vectors divided by the scaling,
        and where the gradient test stops."""
        J = jac(point, index)
        colnorm = np.sqrt(np.einsum("bmn,bmn->bn", J, J))
        # lmder starts D at the column norms, with 1 for a zero column
        scale = np.where(colnorm > 0, colnorm, 1.0) if scale is None else np.maximum(scale, colnorm)
        # cosine between f and each column of J
        cosine = np.abs(np.einsum("bmn,bm->bn", J, f))
        cosine /= np.maximum(np.sqrt(fsq)[:, None] * colnorm, _TINY)
        J /= scale[:, None, :]
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        # as in lmder, only vanishing singular values count as zero, so that
        # steps go on along a column that fades towards the theta clip; the
        # floor keeps |step|^2 finite in _lm_step for |f| of order 1
        s = s * (s > 1e-75)
        sg = s * np.einsum("bmn,bm->bn", U, f)
        return scale, s, sg, Vt / scale[:, None, :], cosine.max(axis=1) <= gtol

    def join(first, last):
        """The state of starts first..last-1 at their initial points, less
        those that stop at once, or None."""
        nonlocal result_f
        x, r = x0[first:last], rows[first:last]
        f, point = fun(x, r)
        if result_f is None:
            result_f = np.full((len(x0), f.shape[1]), np.inf)  # inf: a start that never ran
        result_f[first:last] = f
        nfev[first:last] = 1
        exact = exact_stop(r, f)
        stop(first + np.flatnonzero(exact))
        live = np.flatnonzero(~exact & (r <= limit))  # a certified success stops the templates after it
        if not len(live):
            return None
        start = first + live
        x, f, r = x.take(live, axis=0), f.take(live, axis=0), r.take(live)
        fsq = np.add.reduce(f * f, axis=1)
        scale, s, sg, Vs, settled = linearize(point, live, f, fsq, None)
        njev[start] = 1
        xnorm = _norms(scale * x)
        delta = np.where(xnorm > 0, 100.0 * xnorm, 100.0)
        state = [start, r, x, f, fsq, xnorm, scale, s, sg, Vs, delta, np.zeros(len(x)),
                 np.ones(len(x), dtype=bool), np.ones(len(x), dtype=int)]
        retire(state, np.flatnonzero(settled))
        return state

    # the arrays of the running starts, one row each: start, template, x, f,
    # fsq, xnorm, scale, s, sg, Vs, delta, par, first, count
    state = None
    while True:
        if state is not None:  # the one compaction: the stopped starts leave
            keep = np.flatnonzero(~stopped.take(state[0]) & (state[1] <= limit))
            if len(keep) < len(state[0]):
                state = [a.take(keep, axis=0) for a in state]
        running = 0 if state is None else len(state[0])
        # the next templates join while they leave at most BATCH_ROWS running;
        # they come after the running ones, so their exact fits stop none of these
        last = queued
        while last < len(x0) and rows[last] <= limit:
            end = np.searchsorted(rows, rows[last], side="right")  # where the template's starts end
            if running + end - queued > BATCH_ROWS and (running or last > queued):
                break
            last = end
        if last > queued:
            new = join(queued, last)
            queued = last
            if new is not None:
                state = new if state is None else [np.concatenate(pair) for pair in zip(state, new)]
            continue
        if not running:
            break
        start, r, x, f, fsq, xnorm, scale, s, sg, Vs, delta, par, first, count = state
        lam, p, pnorm = _lm_step(s, sg, delta, par)
        firsts = first.any()
        if firsts:  # lmder's first iteration: no radius beyond the first step
            np.copyto(delta, np.minimum(delta, pnorm), where=first)
        xt = x - (p[:, None, :] @ Vs)[:, 0, :]
        ft, point = fun(xt, r)
        count += 1
        fsq1 = np.add.reduce(ft * ft, axis=1)
        # actual and predicted reductions of |f|^2 and the directional
        # derivative -slope, relative to |f|^2.  lmder sets the actual one to
        # -1 where |ft| >= 10 |f|; there the ratio is negative and the shrink
        # factor clamped to 0.1 either way, as slope <= 1 for an LM step
        actred = 1.0 - fsq1 / fsq
        fitted = np.add.reduce((s * p) ** 2, axis=1) / fsq
        damping = lam * pnorm * pnorm / fsq
        slope = fitted + damping
        prered = slope + damping
        ratio = actred / np.maximum(prered, _TINY)
        # lmder's update of the radius and the parameter, in place
        shrink = np.maximum(0.5 * slope / np.maximum(slope - 0.5 * np.minimum(actred, 0.0), _TINY), 0.1)
        low = ratio <= 0.25
        grow = (lam == 0) | (ratio >= 0.75)
        delta[:] = np.where(low, shrink * np.minimum(delta, 10.0 * pnorm), np.where(grow, 2.0 * pnorm, delta))
        par[:] = np.where(low, lam / shrink, np.where(grow, 0.5 * lam, lam))
        accept = ratio >= 1e-4
        np.copyto(x, xt, where=accept[:, None])
        np.copyto(f, ft, where=accept[:, None])
        np.copyto(fsq, fsq1, where=accept)
        np.copyto(xnorm, _norms(scale * x), where=accept)
        if firsts:
            first &= ~accept
        done = ((np.abs(actred) <= ftol) & (prered <= ftol) & (ratio <= 2.0)) | (delta <= xtol * xnorm)
        done |= (count >= max_nfev) | exact_stop(r, f)
        # the done starts stop first: a success that they certify stops the
        # templates after it before their starts take this round's Jacobians
        retire(state, np.flatnonzero(done))
        index = np.flatnonzero(accept & ~done & (r <= limit))
        if len(index):
            scale[index], s[index], sg[index], Vs[index], settled = linearize(
                point, index, f.take(index, axis=0), fsq.take(index), scale.take(index, axis=0))
            njev[start.take(index)] += 1
            retire(state, index[settled])
    return LMResult(result_x, result_f, int(nfev.sum()), int(njev.sum()))


def _to_limit(compiled: _CompiledTemplate, t: int, theta: np.ndarray, cost: float):
    """The log-values of template t fitted at theta with the elements that
    run off to 0 or infinity taken to the clip, and the evaluations that
    took.

    Such elements (alone, or several with a fixed product or ratio) change
    the residual less and less, so a start stops at an arbitrary depth,
    where the certification may still see them.  Their Jacobian columns
    have faded; their log-values are shifted outwards together until the
    largest reaches the clip, where the limit network is, if that leaves
    the residual within a relative ``SAME_COST`` or an exact fit."""
    rows, n = np.array([t]), compiled.elements[t]
    theta = np.clip(theta, -THETA_CLIP, THETA_CLIP)
    colnorm = np.abs(compiled.jacobian(theta[None], rows)[0]).max(axis=0)
    # the stack's padding columns are zero too, but hold no element
    inside = (colnorm <= 1e-8 * colnorm.max()) & (np.abs(theta) < THETA_CLIP)
    inside[n:] = False
    if not inside.any():
        return theta[:n], 1
    trial = theta + inside * np.sign(theta) * (THETA_CLIP - np.abs(theta[inside]).max())
    if np.abs(compiled.residual(trial[None], rows)).max() <= max(cost * (1 + SAME_COST), EXACT_FIT):
        theta = trial
    return theta[:n], 2


def _fit(templates: Sequence[SPNet], target: RationalFn, budget: int, starts: int, seeds: Sequence[int],
         tol, stop_at_first_success: bool = False) -> List[FitResult]:
    """Fit every template, each from its own seed, in one ``least_squares``
    batch of templates x starts (at most ``BATCH_ROWS`` starts in flight),
    and certify each fit as soon as its last start stops; with
    ``stop_at_first_success`` a certified success stops the templates after
    it, and the list ends at the first success.

    A fit certifies its starts in order of cost (largest |residual|), each
    at its limit (``_to_limit``): the first, and while the smallest
    certified residual is within ``DEGENERATE`` of 1 or above, the next
    distinct minimum, up to ``CERTIFICATIONS`` in all.  A start is the same
    minimum as one certified before when its cost is within a relative
    ``SAME_COST`` of that one's, or when the same elements ran off to the
    same ends (0 or infinity): such starts differ only in how deep they
    stopped, and certify alike.  The fit reports the smallest exactly
    certified residual, its values and every evaluation spent.  The target
    comes as ``_exact_target`` gives it.  No templates give no fits."""
    if not templates:
        return []
    tnum, tden = (np.array([float(c) for c in poly.coeffs]) for poly in (target.num, target.den))
    compiled = _CompiledTemplate(templates, tnum, tden)
    x0 = np.zeros((len(templates) * starts, compiled.exponents.shape[2]))
    for t, seed in enumerate(seeds):
        n = compiled.elements[t]
        x0[t * starts:(t + 1) * starts, :n] = _starts(seed, starts, n)
    fits: List[FitResult] = [None] * len(templates)  # every template up to the first success finishes

    def finish(t, x, f, evaluations):
        costs = np.abs(f).max(axis=1)
        fit, certified = None, []  # the cost and the run-off elements of each certified minimum
        for i in np.argsort(costs, kind="stable"):  # on a tie, the first start first
            theta, evals = _to_limit(compiled, t, x[i], costs[i])
            evaluations += evals
            # the elements beyond e^(+-THETA_CLIP / 2), which ran off to 0 (-1) or infinity (1)
            ends = tuple(np.round(theta / THETA_CLIP).tolist())
            if any(costs[i] <= cost * (1 + SAME_COST) or ends == other and any(ends)
                   for cost, other in certified):
                continue  # the same minimum as a certified one
            certified.append((costs[i], ends))
            values = np.exp(theta).tolist()  # theta is clipped, so no value overflows
            ok, residual = _certify(templates[t], [Fraction(v) for v in values], target, tol)
            if fit is None or float(residual) < fit.residual:
                fit = FitResult(bool(ok), dict(zip(_slot_names(templates[t]), values)), float(residual), 0)
            # a residual near 1 or above is a degenerate limit, which the
            # next distinct minimum may beat
            if fit.residual < 1 - DEGENERATE or len(certified) == CERTIFICATIONS:
                break
        fit.iterations = evaluations
        fits[t] = fit
        return stop_at_first_success and fit.success

    rows = np.repeat(np.arange(len(templates)), starts)
    least_squares(compiled.evaluate, x0, jac=compiled.jacobian_at, rows=rows, max_nfev=budget // starts,
                  xtol=SETTLED, ftol=SETTLED, gtol=1e-15, finish=finish)
    if stop_at_first_success:
        return fits[:next((t + 1 for t, fit in enumerate(fits) if fit.success), len(fits))]
    return fits


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
    (``_to_limit``); when that limit certifies at a degenerate residual
    (within ``DEGENERATE`` of 1 or above), the next distinct minima are
    certified too (``_fit``).  Success is certified
    exactly within ``tol``, so a success here always re-verifies.  This is
    the one-template case of ``_fit``, in which ``falsify_small`` fits all
    its templates side by side; its entry for the template equals this fit
    called with its budget, starts and seed (by default 4000, 24 and
    ``seed * 1000003 + index``, where index counts the labelings before it
    that the rules but ``ends-order`` keep, see ``falsify_small``; not this
    function's defaults), up to rounding that depends on the batch: on its
    composition, through the BLAS products that take a whole batch
    (``_CompiledTemplate``), and on its padding (every Jacobian is padded
    to the widest template of the batch, and LAPACK's SVD rounds a
    zero-padded matrix differently).
    Raises ValueError when the budget is below two evaluations per start
    and for a seed that is not a non-negative integer.
    """
    seed = _check_fit(budget, starts, seed)
    if not leaves(template):
        raise ValueError("template has no element slots")
    return _fit([template], _exact_target(target), budget, starts, [seed], tol)[0]


# ---------------------------------------------------------------------------
# falsification harness


# The falsify rules, in the order in which an entry names the first that it
# fails, and what a target must lack for each to apply: a pole or a zero of
# Z(s) at s = 0 or s = inf ("ends"), or there or elsewhere on the jw axis
# ("axis").  A network that fails one of the first four has such a pole or
# zero.  Merging two like siblings keeps Z, and A | (A + B) realizes what
# its twin A + (A | B) does (``network.has_twin``), so "mergeable" and
# "twin" apply to every target.  "ends-order" keeps the networks whose
# Z(0)-versus-Z(inf) order may be the target's, which needs finite nonzero
# ends; it comes last, so that the other rules alone set the seeds.
FALSIFY_FILTERS = ("cutset", "reactive-arm", "mergeable", "reactive-path", "reactive-branch", "twin", "ends-order")
_PREMISES = {
    "cutset": {("pole", "ends")},
    "reactive-arm": {("pole", "axis")},
    "reactive-path": {("zero", "ends")},
    "reactive-branch": {("zero", "axis")},
    "ends-order": {("pole", "ends"), ("zero", "ends")},
}


def _exact_target(target: RationalFn) -> RationalFn:
    """The target as its exact value, reduced: the one form in which the
    fitter takes it and ``_jw_axis_points`` decides the filter premises.
    Raises ValueError for a nonzero coefficient that float64, in which the
    fitter works, rounds to 0 or infinity."""
    target = RationalFn(*(Poly(_exact_value(c) for c in poly.coeffs) for poly in (target.num, target.den)))
    for name, poly in (("num", target.num), ("den", target.den)):
        for power, c in enumerate(poly.coeffs):
            try:
                fits = c == 0 or float(c) != 0  # float() rounds correctly and overflows past the top
            except OverflowError:
                fits = False
            if not fits:
                raise ValueError("the reduced target's %s coefficient of s^%d, %s, is not a finite nonzero "
                                 "float64, which the fitter works in" % (name, power, decimal_str(c)))
    return target


def _has_imaginary_root(p: Poly) -> bool:
    """Whether p(jw) = 0 for some real w > 0, decided exactly.

    For p(s) = E(s^2) + s O(s^2) and x = w^2, p(jw) = E(-x) + jw O(-x): the
    real and imaginary parts vanish together at the positive roots of the
    gcd of E(-x) and O(-x)."""
    even, odd = (Poly(c if k % 2 == 0 else -c for k, c in enumerate(p.coeffs[i::2])) for i in (0, 1))
    return bool(_positive_roots(_sturm_chain(gcd(even, odd))))


def _jw_axis_points(target: RationalFn) -> set:
    """Where a nonzero target, as ``_exact_target`` gives it, has a pole or
    a zero on the jw axis: the pairs of ``_PREMISES`` that it has."""
    out = set()
    for kind, p, q in (("pole", target.den, target.num), ("zero", target.num, target.den)):
        if p.coeffs[0] == 0 or q.degree > p.degree:  # at s = 0 or s = inf
            out |= {(kind, "ends"), (kind, "axis")}
        elif _has_imaginary_root(p):
            out.add((kind, "axis"))
    return out


def _ends_order_spec(target: RationalFn) -> str:
    """The ``ends-order`` filter spec of a target, as ``_exact_target``
    gives it, with finite nonzero Z(0) and Z(inf): the sign of Z(inf) -
    Z(0), decided exactly."""
    num, den = target.num.coeffs, target.den.coeffs
    gap = num[-1] / den[-1] - num[0] / den[0]
    return "ends-order=" + ("rising" if gap > 0 else "falling" if gap < 0 else "flat")


@functools.lru_cache(maxsize=None)  # n in 1..5, rules a subset of FALSIFY_FILTERS, ends-order spelled
def _labelings(n: int, rules: tuple) -> tuple:
    """The labelings of n elements, each with the first of ``rules`` (filter
    specs, as ``parse_filters`` takes them) that it fails, or None.  Cached
    per process, as they do not depend on the target beyond these specs."""
    preds = parse_filters(rules)
    return tuple((net, next((name for name, pred in preds if not pred(net)), None))
                 for net in enumerate_labeled(n))


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

    Each rule of ``FALSIFY_FILTERS`` applies when the target meets its
    premise, decided exactly on the reduced target (mpf coefficients taken
    as the dyadic rationals they are): ``cutset`` needs finite Z(0) and
    Z(inf), ``reactive-path`` nonzero Z(0) and Z(inf), ``reactive-arm`` no
    pole and ``reactive-branch`` no zero on the jw axis, s = 0 and s = inf
    included; ``mergeable`` and ``twin`` need nothing; ``ends-order``
    needs finite nonzero Z(0) and Z(inf), and takes the sign of Z(inf) -
    Z(0) from the target's coefficients.  A network that fails a rule that
    applies realizes nothing that a fitted network or a smaller one does
    not: under a jw-axis rule not the target, as its Z(s) has a pole or
    zero on the jw axis that the target lacks; with two like siblings only
    what the network with one of them does; as ``A | (A + B)`` only what
    its twin ``A + (A | B)`` does, which is fitted or filtered in turn;
    under ``ends-order`` not the target, as its Z(0) and Z(inf) are ordered
    otherwise at every positive value (``network.ends_order``).  So it is
    skipped and reported as filtered, with the first such rule in
    ``filter``; the report's ``filters`` lists the rules ``applied`` and
    those ``skipped`` because the target fails their premise.  The other
    networks are fitted side by side in one batch of templates x starts
    (``_fit``), each from seed ``seed * 1000003 + index``, where index
    counts the labelings before it that the applied rules but
    ``ends-order`` keep (so every rule but ``ends-order``, which is applied
    after seeding, shifts the seeds of the networks after those it
    filters).  When every labeling is filtered, nothing is fitted: the
    report is complete, without a success, and its ``best_residual`` is
    None, the exact answer that no network of at most ``n_max`` elements
    realizes the target.  Every entry is what ``fit_topology(net, target,
    budget, starts, seed * 1000003 + index, tol)`` gives for it (not its
    defaults: budget 6000, 32 starts and seed 0), up to rounding that depends on the batch: its
    BLAS products take the whole batch and round a row differently among
    other rows, and the stack pads every Jacobian to its widest template,
    which LAPACK's SVD rounds differently.  So an entry's ``evaluations``
    and the last digits of its ``best_residual`` also depend on the
    templates fitted beside it and on ``n_max``.  With
    ``stop_at_first_success`` a certified success stops the templates
    after it, and the report ends there.  A uniform residual floor is
    evidence consistent with non-realizability, not a proof.  ``budget``
    bounds the residual evaluations of each fit (see ``fit_topology``).
    Raises ValueError for n_max outside 1..5, for a start count below 1, for a
    budget below two evaluations per start, for a seed that is not a
    non-negative integer and for the target Z = 0, which no network of
    positive elements has.
    """
    if not 1 <= n_max <= 5:
        raise ValueError("n_max must be between 1 and 5 (the brute force's limit)")
    seed = _check_fit(budget, starts, seed)
    if target.num.is_zero:
        raise ValueError("the target Z = 0 is no network of positive elements")
    target = _exact_target(target)
    has = _jw_axis_points(target)
    applied = [name for name in FALSIFY_FILTERS if not _PREMISES.get(name, set()) & has]
    specs = {name: _ends_order_spec(target) if name == "ends-order" else name for name in applied}
    labeled = [(n, net, skip) for n in range(1, n_max + 1) for net, skip in _labelings(n, tuple(specs.values()))]
    # ends-order comes after seeding: a template's index counts what the other rules keep
    order = specs.get("ends-order")
    index = {net: i for i, net in enumerate(net for _, net, skip in labeled if skip in (None, order))}
    kept = [net for _, net, skip in labeled if skip is None]
    fits = _fit(kept, target, budget, starts, [seed * 1000003 + index[net] for net in kept], tol,
                stop_at_first_success)
    names = {spec: name for name, spec in specs.items()}
    entries, fitted = [], iter(fits)
    for n, net, skip in labeled:
        entry = {
            "topology": to_netlist_json(net),
            "elements": n,
            "filtered": skip is not None,
            "filter": names.get(skip),
            "best_residual": None,
            "success": False,
            "values": None,
            "evaluations": 0,
        }
        if skip is None:
            fit = next(fitted)
            entry.update(best_residual=fit.residual, success=fit.success, evaluations=fit.iterations,
                         values=fit.values if fit.success else None)
        entries.append(entry)
        if entry["success"] and stop_at_first_success:
            break
    any_success = any(fit.success for fit in fits)
    return {
        "entries": entries,
        "any_success": any_success,
        "best_residual": min((fit.residual for fit in fits), default=None),
        "complete": not (any_success and stop_at_first_success),
        "filters": {
            "applied": applied,
            "skipped": [name for name in FALSIFY_FILTERS if name not in specs],
        },
    }
