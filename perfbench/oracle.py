"""Independent output checks.

Nothing here calls biquadrlc: networks are read through their attributes
(``kind``/``value``/``children``), netlist JSON and SPICE listings are parsed
as text, and impedances are evaluated pointwise with mpmath at s = jw.  The
class of an exact target is decided from the README conditions in exact
arithmetic.  Every check returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

CHECK_DPS = 80
REL_TOL = mpf("1e-12")
FIT_REL_TOL = mpf("1e-5")

NOT_PR = "NotPositiveReal"
FOUR = "FourElement"
FIVE = "FiveElement"
CATALOG = "SevenElementCatalog"
UNKNOWN = "UnknownWithinScope"

# coefficients in eta = p/z, ascending; the n4a quartic is the README's
# 16p^4 - 40zp^3 + 31z^2p^2 - 10z^3p + z^4, the n5a polynomial is the
# paper's degree-10 analogue
N4A_LOCUS = (1, -10, 31, -40, 16)
N5A_LOCUS = (2, -28, 161, -524, 1064, -1372, 1066, -476, 118, -16, 1)

UNLABELED_SP_COUNTS = {1: 1, 2: 2, 3: 4, 4: 10, 5: 24}


# ---------------------------------------------------------------------------
# scalars


def to_mpf(x):
    """Any scalar the program or its JSON emits, as an mpf at CHECK_DPS."""
    if isinstance(x, mpf):
        return x
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return mpf(x.numerator) / x.denominator
    if isinstance(x, str):
        x = x.strip()
        if "/" in x:
            num, den = x.split("/")
            return mpf(int(num)) / int(den)
        return mpf(x)
    if all(hasattr(x, a) for a in ("a", "b", "d")):  # a + b*sqrt(d)
        return to_mpf(x.a) + to_mpf(x.b) * mpmath.sqrt(to_mpf(x.d))
    return mpf(x)


def horner(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# classification from the README conditions


def fig3a_holds(eta) -> bool:
    """(eta-1)(eta-3) > 0 and eta^4 - 6eta^3 + 6eta^2 - 14eta + 5 < 0."""
    return (eta - 1) * (eta - 3) > 0 and horner((5, -14, 6, -6, 1), eta) < 0


def expected_class(eta, locus=None):
    """(class, config, transform) that classify must report for eta = p/z.

    ``eta`` is a Fraction for exact targets; ``locus`` names the n4a/n5a
    condition root the target was placed on (an mpf midpoint of an exact
    isolating interval), optionally through eta -> 1/eta ("n4a:inv").
    Rational eta never lies on the irrational n4a/n5a loci.
    """
    third = Fraction(1, 3) if isinstance(eta, Fraction) else mpf(1) / 3
    if eta * eta - 6 * eta + 1 > 0:
        return NOT_PR, None, None
    if eta == 3 or eta == third:
        return FOUR, None, None
    if third < eta < 3:
        return FIVE, None, None
    config, _, via = (locus or "").partition(":")
    if fig3a_holds(eta):
        return CATALOG, "fig3a", None
    if config and not via:
        return CATALOG, config, None
    if fig3a_holds(1 / eta):
        return CATALOG, "fig3a", "inv"
    if config:
        return CATALOG, config, via
    return UNKNOWN, None, None


def exit_code_for(klass) -> int:
    return 1 if klass in (NOT_PR, UNKNOWN) else 0


def false_four_element(eta) -> bool:
    """An exact eta near 3 or 1/3 but off it: the equality band of the seed
    accepts it as FourElement (ROADMAP open item 3)."""
    return isinstance(eta, Fraction) and (
        0 < abs(eta - 3) <= Fraction(1, 10**20)
        or 0 < abs(3 * eta - 1) <= Fraction(1, 10**20)
    )


# ---------------------------------------------------------------------------
# networks: ("R"|"L"|"C", value) leaves and ("series"|"parallel", [kids])


def tree_from_spnet(net):
    if hasattr(net, "kind"):
        return (net.kind, net.value)
    tag = type(net).__name__.lower()
    if tag not in ("series", "parallel"):
        raise ValueError("not a network node: %r" % (net,))
    return (tag, [tree_from_spnet(c) for c in net.children])


def tree_from_json(data):
    if data["type"] == "element":
        return (data["kind"], data["value"])
    if data["type"] not in ("series", "parallel"):
        raise ValueError("unknown netlist node %r" % data["type"])
    return (data["type"], [tree_from_json(c) for c in data["children"]])


def tree_to_json(tree):
    tag, body = tree
    if tag in ("series", "parallel"):
        return {"type": tag, "children": [tree_to_json(c) for c in body]}
    return {"type": "element", "kind": tag, "value": str(body)}


def tree_leaves(tree):
    tag, body = tree
    if tag in ("series", "parallel"):
        return [lf for c in body for lf in tree_leaves(c)]
    return [tree]


def tree_impedance(tree, s):
    tag, body = tree
    if tag == "series":
        return sum((tree_impedance(c, s) for c in body), mpc(0))
    if tag == "parallel":
        return 1 / sum((1 / tree_impedance(c, s) for c in body), mpc(0))
    v = to_mpf(body)
    if not v > 0:
        raise ValueError("non-positive element value %s" % body)
    if tag == "R":
        return mpc(v)
    if tag == "L":
        return s * v
    if tag == "C":
        return 1 / (s * v)
    raise ValueError("unknown element kind %r" % tag)


def spice_impedance(text, s):
    """Driving-point impedance between nodes 1 and 0 of a SPICE-like listing
    (lines 'X<n> <node> <node> <value>'), by nodal analysis."""
    elements = []
    for line in text.strip().splitlines():
        parts = line.split()
        if len(parts) != 4 or parts[0][0] not in "RLC":
            raise ValueError("bad SPICE line %r" % line)
        elements.append((parts[0][0], int(parts[1]), int(parts[2]), to_mpf(parts[3])))
    nodes = sorted({n for _, a, b, _ in elements for n in (a, b)} - {0})
    if 1 not in nodes:
        raise ValueError("no element touches node 1")
    index = {n: i for i, n in enumerate(nodes)}
    y = mpmath.zeros(len(nodes), len(nodes))
    for kind, a, b, v in elements:
        g = 1 / v if kind == "R" else (1 / (s * v) if kind == "L" else s * v)
        for n in (a, b):
            if n:
                y[index[n], index[n]] += g
        if a and b:
            y[index[a], index[b]] -= g
            y[index[b], index[a]] -= g
    rhs = mpmath.zeros(len(nodes), 1)
    rhs[index[1]] = 1
    return mpmath.lu_solve(y, rhs)[index[1]], len(elements)


def probe_frequencies(lo, hi, n):
    """n log-spaced angular frequencies in [lo, hi], off by a transcendental
    offset so that no rational network has a pole or zero at one of them."""
    lo, hi = to_mpf(lo), to_mpf(hi)
    return [lo * (hi / lo) ** ((i + 1 / mpmath.pi) / n) for i in range(n)]


def sample_frequencies(z, p):
    """Five frequencies spanning both corner frequencies."""
    return probe_frequencies(min(z, p) / 10, max(z, p) * 10, 5)


def target_value(k, z, p, s):
    return k * (s + z) ** 2 / (s + p) ** 2


def _rel_err(a, b):
    return abs(a - b) / max(abs(b), mpf(10) ** -60)


def check_against_target(impedance_at, k, z, p, tol=REL_TOL):
    """impedance_at(s) must match k(s+z)^2/(s+p)^2 along the jw axis."""
    with mp.workdps(CHECK_DPS):
        k, z, p = to_mpf(k), to_mpf(z), to_mpf(p)
        for w in sample_frequencies(z, p):
            s = mpc(0, w)
            got = impedance_at(s)
            err = _rel_err(got, target_value(k, z, p, s))
            if not err <= tol:
                return "Z(j%s) off target by %s" % (mpmath.nstr(w, 5), mpmath.nstr(err, 3))
    return None


def check_tree(tree, k, z, p, elements=None, tol=REL_TOL):
    count = len(tree_leaves(tree))
    if elements is not None and count != elements:
        return "network has %d elements, expected %d" % (count, elements)
    try:
        return check_against_target(lambda s: tree_impedance(tree, s), k, z, p, tol)
    except (ValueError, ZeroDivisionError) as exc:
        return "network does not evaluate: %s" % exc


def check_spice(text, k, z, p, elements=7):
    try:
        _, count = spice_impedance(text, mpc(0, 1))
        if count != elements:
            return "SPICE listing has %d elements, expected %d" % (count, elements)
        return check_against_target(lambda s: spice_impedance(text, s)[0], k, z, p)
    except (ValueError, ZeroDivisionError) as exc:
        return "SPICE listing does not evaluate: %s" % exc


def rational_fn_value(num, den, s):
    return horner([to_mpf(c) for c in num], s) / horner([to_mpf(c) for c in den], s)


def check_rational_fn(num, den, tree):
    """A (num, den) coefficient pair must equal the network's impedance."""
    with mp.workdps(CHECK_DPS):
        for w in probe_frequencies(Fraction(1, 10), 40, 4):
            s = mpc(0, w)
            err = _rel_err(rational_fn_value(num, den, s), tree_impedance(tree, s))
            if not err <= REL_TOL:
                return "impedance coefficients off by %s at w=%s" % (
                    mpmath.nstr(err, 3),
                    mpmath.nstr(w, 3),
                )
    return None


def check_transform(op, original, transformed):
    """dual: Z'(s) Z(s) = 1; inv: Z'(s) = Z(1/s); gdu: Z'(s) Z(1/s) = 1.

    ``original`` and ``transformed`` map s to the impedance of each network.
    """
    with mp.workdps(CHECK_DPS):
        for w in probe_frequencies(Fraction(1, 10), 10, 3):
            s = mpc(0, w)
            zt = transformed(s)
            if op == "dual":
                err = _rel_err(zt * original(s), mpc(1))
            elif op == "inv":
                err = _rel_err(zt, original(1 / s))
            else:
                err = _rel_err(zt * original(1 / s), mpc(1))
            if not err <= REL_TOL:
                return "%s identity off by %s" % (op, mpmath.nstr(err, 3))
    return None


# ---------------------------------------------------------------------------
# exact algebra


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sylvester_resultant(f, g):
    """Resultant of two univariate polynomials (ascending Fraction lists) by
    Gaussian elimination on the Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[Fraction(0)] * i + list(reversed(f)) + [Fraction(0)] * (size - i - m - 1) for i in range(n)]
    rows += [[Fraction(0)] * i + list(reversed(g)) + [Fraction(0)] * (size - i - n - 1) for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                for c in range(col, size):
                    rows[r][c] -= factor * rows[col][c]
    return det


def eval_nested(x, point):
    """Value of a nested polynomial (objects with ``coeffs``, outermost
    variable first in ``point``) at a rational point."""
    if not hasattr(x, "coeffs"):
        return Fraction(x)
    var, rest = point[0], point[1:]
    return sum(
        (eval_nested(c, rest) * var**i for i, c in enumerate(x.coeffs)), Fraction(0)
    )


def check_bivariate_resultant(f, g, res, points):
    """res(z, p) must equal the resultant of f(z, p), g(z, p) in p1 at each
    point where specialization keeps both degrees."""
    checked = 0
    for point in points:
        fs = [eval_nested(c, point) for c in f.coeffs]
        gs = [eval_nested(c, point) for c in g.coeffs]
        if fs[-1] == 0 or gs[-1] == 0:
            continue
        if eval_nested(res, point) != sylvester_resultant(fs, gs):
            return "resultant differs at (z, p) = (%s, %s)" % point
        checked += 1
    if not checked:
        return "no usable evaluation point"
    return None


def check_locus_interval(interval, width, locus):
    """A certified isolating interval for the locus root in (0, 1/(2+sqrt5))."""
    lo, hi = interval
    if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
        return "interval endpoints are not exact rationals"
    if not 0 <= lo < hi or hi - lo > width:
        return "interval [%s, %s] is empty or wider than %s" % (lo, hi, width)
    if not hi * hi + 4 * hi - 1 < 0:
        return "interval reaches past 1/(2+sqrt5)"
    if horner(locus, lo) * horner(locus, hi) >= 0:
        return "condition polynomial has no sign change on the interval"
    return None


def count_roots_in(roots, lo, hi):
    return sum(1 for r in set(roots) if lo < r <= hi)


# ---------------------------------------------------------------------------
# falsification


def fitted_tree(entry):
    """The topology of a falsify entry with its fitted values filled in, in
    the harness's slot order (per-kind counters over leaves, depth first)."""
    values = entry["values"]
    counters = {"R": 0, "L": 0, "C": 0}

    def fill(node):
        if node["type"] == "element":
            counters[node["kind"]] += 1
            return (node["kind"], mpf(values["%s%d" % (node["kind"], counters[node["kind"]])]))
        return (node["type"], [fill(c) for c in node["children"]])

    return fill(entry["topology"])


def check_floor(report):
    fitted = [e for e in report["entries"] if not e["filtered"]]
    if report["any_success"]:
        return "a fit succeeded below the minimal element count"
    if not fitted or not report["complete"]:
        return "floor search fitted nothing or stopped early"
    return None


def check_success(report, k, z, p, elements):
    winners = [e for e in report["entries"] if e["success"]]
    if not report["any_success"] or not winners:
        return "no %d-element fit found" % elements
    winner = winners[0]
    if winner["elements"] != elements:
        return "first fit has %d elements, expected %d" % (winner["elements"], elements)
    return check_tree(fitted_tree(winner), k, z, p, elements, tol=FIT_REL_TOL)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))
