"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report including timings.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from biquadrlc.biquad import CanonicalBiquad, canonical_positive_real, to_rational_fn
from biquadrlc.network import (
    apply_transform,
    build_config,
    config_ids,
    config_slots,
    enumerate_topologies,
    impedance,
    leaves,
)
from biquadrlc.ratpoly import Poly, QuadraticRational, RationalFn, resultant
from biquadrlc.realize import (
    N4A_QUARTIC,
    N5A_DEGREE10,
    RealizationClass,
    check_fig3a_condition,
    classify,
    count_roots_below_sqrt5_bound,
    n4a_p1_system,
    n4a_root_interval,
    n5a_root_interval,
    synth_fig3a,
    synth_n4a,
    synth_n5a,
    five_element_condition,
)
from biquadrlc.verify import falsify_small, verify_numeric
from eliminations import ELIMINATIONS
from formulas import config_formula

F = Fraction


def _report(number: int, detail: str, elapsed: float) -> None:
    print("[criterion %2d] PASS  %s  (%.2fs)" % (number, detail, elapsed))


def test_criterion_01_four_element_boundary():
    t0 = time.perf_counter()
    for ratio in (F(1, 3), F(3)):
        rep = classify(CanonicalBiquad(F(1), F(1), ratio))
        assert rep.klass is RealizationClass.FOUR_ELEMENT, ratio
    eps = F(1, 10**6)
    for ratio in (F(1, 3) - eps, F(1, 3) + eps, F(3) - eps, F(3) + eps):
        rep = classify(CanonicalBiquad(F(1), F(1), ratio))
        assert rep.klass is not RealizationClass.FOUR_ELEMENT, ratio
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "FourElement exactly at p/z in {1/3, 3}, not at +-1e-6", elapsed)


def test_criterion_02_five_element_set():
    t0 = time.perf_counter()
    for ratio in (F(1, 2), F(9, 10), F(2), F(29, 10)):
        rep = classify(CanonicalBiquad(F(1), F(2), F(2) * ratio))
        assert rep.klass is RealizationClass.FIVE_ELEMENT, ratio
    # algebraic branch with an exact quadratic-extension witness built from
    # rational data: p = (2 + sqrt2) z and p = z/(2 + sqrt2)
    z = F(3, 2)
    p_hi = QuadraticRational(2, 1, 2) * z
    ok, records = five_element_condition(z, p_hi)
    assert ok
    branch = {r.name: r for r in records}["five_element[eta=2+sqrt2]"]
    assert branch.passed and branch.value == "0"
    assert classify(CanonicalBiquad(F(1), z, p_hi)).klass is RealizationClass.FIVE_ELEMENT
    p_lo = QuadraticRational(1, F(-1, 2), 2) * z  # z * (2 - sqrt2)/2 = z/(2+sqrt2)
    ok, records = five_element_condition(z, p_lo)
    assert ok
    branch = {r.name: r for r in records}["five_element[eta=1/(2+sqrt2)]"]
    assert branch.passed and branch.value == "0"
    for ratio in (F(16, 5), F(4)):
        rep = classify(CanonicalBiquad(F(1), F(1), ratio))
        assert rep.klass is not RealizationClass.FIVE_ELEMENT, ratio
    elapsed = time.perf_counter() - t0
    _report(2, "FiveElement set incl. exact (2+sqrt2) branches; NotFive at 3.2, 4", elapsed)


def test_criterion_03_fig3a_random_synthesis():
    t0 = time.perf_counter()
    rng = random.Random(1234)
    done = {"high": 0, "low": 0}
    target_counts = {"high": 100, "low": 100}
    tol = F(1, 10**20)
    worst = 0.0
    while done["high"] < target_counts["high"] or done["low"] < target_counts["low"]:
        branch = "high" if done["high"] < target_counts["high"] else "low"
        z = F(rng.randint(50, 200), 100)
        if branch == "high":
            ratio = F(rng.randint(30001, 58280), 10000)  # inside (3, 3+2sqrt2)
        else:
            ratio = F(rng.randint(1, 9999), 10000)
        p = z * ratio
        if not check_fig3a_condition(z, p):
            continue
        b = CanonicalBiquad(F(1), z, p)
        net = synth_fig3a(b, precision_bits=256)
        lfs = leaves(net)
        assert len(lfs) == 7
        assert all(lf.value > 0 for lf in lfs)
        ok, residual = verify_numeric(net, to_rational_fn(b), tol=tol, precision_bits=256)
        assert ok, (z, p, residual)
        worst = max(worst, float(residual))
        done[branch] += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "200 syntheses verified, worst residual %.2e <= 1e-20" % worst, elapsed)


def test_criterion_04_root_count_claims():
    t0 = time.perf_counter()
    assert count_roots_below_sqrt5_bound(N4A_QUARTIC) == 1
    assert count_roots_below_sqrt5_bound(N5A_DEGREE10) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(4, "both condition polynomials have exactly one root in (0, 1/(2+sqrt5))", elapsed)


def test_criterion_05_resultant_identity():
    t0 = time.perf_counter()
    # scalars in Q[p][z]: the identity is checked as full bivariate
    # polynomials, up to overall sign
    poly_p = Poly([Poly([F(0), F(1)])])
    poly_z = Poly([Poly.zero(), Poly.constant(F(1))])
    f, g = n4a_p1_system(poly_z, poly_p)
    res = resultant(f, g)
    expected = ELIMINATIONS["n4a"].expected(poly_z, poly_p)
    assert res == expected or res == -expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, "resultant in p1 equals z^2 (p+z)(p-z)^3 (quartic), up to sign", elapsed)


@pytest.mark.parametrize("which", ["n4a", "n5a"])
def test_criterion_06_synthesis_at_isolated_roots(which):
    t0 = time.perf_counter()
    width = F(1, 10**30)
    interval = n4a_root_interval(width) if which == "n4a" else n5a_root_interval(width)
    synth = synth_n4a if which == "n4a" else synth_n5a
    lo, hi = interval
    assert hi - lo <= width
    mid = (lo + hi) / 2
    with mp.workprec(256):
        p = mpf(mid.numerator) / mid.denominator
        b = CanonicalBiquad(mpf(1), mpf(1), p)
        net = synth(b, precision_bits=256)
        lfs = leaves(net)
        assert len(lfs) == 7 and all(lf.value > 0 for lf in lfs)
        ok, residual = verify_numeric(
            net, to_rational_fn(b), tol=F(1, 10**20), precision_bits=256
        )
        assert ok, residual
    elapsed = time.perf_counter() - t0
    _report(6, "%s synthesis at the isolated root, residual %.2e <= 1e-20"
            % (which, float(residual)), elapsed)


def _random_net(rng: random.Random, n_elements: int):
    from biquadrlc.network import Leaf, parallel, series

    pool = [
        Leaf(rng.choice(("R", "L", "C")), F(rng.randint(1, 9), rng.randint(1, 9)))
        for _ in range(n_elements)
    ]

    def build(items):
        if len(items) == 1:
            return items[0]
        k = rng.randint(1, len(items) - 1)
        left, right = build(items[:k]), build(items[k:])
        return series(left, right) if rng.random() < 0.5 else parallel(left, right)

    return build(pool)


def test_criterion_07_transform_identities():
    t0 = time.perf_counter()
    rng = random.Random(777)
    for _ in range(1000):
        net = _random_net(rng, rng.randint(1, 7))
        # Z_dual Z = 1, Z_inv(s) = Z(1/s) and Z_gdu(s) Z(1/s) = 1, cross-multiplied
        z = impedance(net)
        k = max(z.num.degree, z.den.degree)
        dual = apply_transform(net, "dual")
        zd = impedance(dual)
        assert zd.num * z.num == zd.den * z.den
        inv = apply_transform(net, "inv")
        zi = impedance(inv)
        assert zi.num * z.den.reversed(k) == zi.den * z.num.reversed(k)
        gdu = apply_transform(net, "gdu")
        zg = impedance(gdu)
        assert zg.num * z.num.reversed(k) == zg.den * z.den.reversed(k)
        assert dual == apply_transform(inv, "gdu")
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    _report(7, "1000 random nets: dual/inv/gdu identities exact; dual = gdu(inv)", elapsed)


def test_criterion_08_enumeration_counts():
    t0 = time.perf_counter()
    counts = [len(enumerate_topologies(n)) for n in range(1, 6)]
    assert counts == [1, 2, 4, 10, 24]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(8, "topology counts 1, 2, 4, 10, 24 for n = 1..5", elapsed)


def _pr_numeric_oracle(z: float, p: float, samples: int = 10**5) -> bool:
    w = np.concatenate(([0.0], np.logspace(-6, 6, samples - 1)))
    num = (1j * w + z) ** 2
    den = (1j * w + p) ** 2
    re = (num / den).real
    return bool(re.min() >= -1e-12)


def test_criterion_09_positive_real_boundary():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    boundary_hi = 3 + 2 * 2**0.5
    boundary_lo = 3 - 2 * 2**0.5
    checked = 0
    for i in range(500):
        z = F(rng.randint(20, 500), 100)
        pick = rng.random()
        if pick < 0.25:
            # near the positive-real boundary, offsets in [1e-3, 1e-1]
            base = boundary_hi if rng.random() < 0.5 else boundary_lo
            offset = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, -1)
            ratio = F(round((base + offset) * 10**6), 10**6)
            if ratio <= 0:
                continue
        else:
            ratio = F(round(10 ** rng.uniform(-1.3, 1.3) * 10**6), 10**6)
        p = z * ratio
        if p == z:
            continue
        b = CanonicalBiquad(F(1), z, p)
        expected = _pr_numeric_oracle(float(z), float(p))
        assert canonical_positive_real(b) == expected, (z, p)
        checked += 1
    assert checked >= 490
    elapsed = time.perf_counter() - t0
    _report(9, "%d random targets agree with the frequency-sweep oracle" % checked, elapsed)


def test_criterion_10_catalog_fidelity():
    t0 = time.perf_counter()
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s")

    # fully symbolic check of every cataloged configuration against its
    # closed-form impedance transcript
    def sym_impedance(net, table):
        from biquadrlc.network import Leaf, Series

        if isinstance(net, Leaf):
            v = table[id(net)]
            if net.kind == "R":
                return v
            if net.kind == "L":
                return v * s
            return 1 / (v * s)
        if isinstance(net, Series):
            return sum(sym_impedance(c, table) for c in net.children)
        return 1 / sum(1 / sym_impedance(c, table) for c in net.children)

    def primes(k):
        out, x = [], 2
        while len(out) < k:
            if all(x % q for q in out):
                out.append(x)
            x += 1
        return out

    def walk(net):
        from biquadrlc.network import Leaf

        if isinstance(net, Leaf):
            yield net
            return
        for c in net.children:
            yield from walk(c)

    for cid in config_ids():
        slots = config_slots(cid)
        syms = {name: sympy.Symbol(name, positive=True) for name, _ in slots}
        markers = {name: F(q) for name, q in zip(syms, primes(len(syms)))}
        net = build_config(cid, markers)
        table = {}
        used = set()
        for lf in walk(net):
            for name, marker in markers.items():
                if lf.value == marker and name not in used:
                    table[id(lf)] = syms[name]
                    used.add(name)
                    break
        formula = config_formula(cid, syms)
        num = sum(c * s**i for i, c in enumerate(formula.num.coeffs))
        den = sum(c * s**i for i, c in enumerate(formula.den.coeffs))
        # zero as a rational function iff the numerator over a common
        # denominator expands to zero (cancel's gcd takes five times longer)
        diff = sympy.together(sym_impedance(net, table) - num / den).as_numer_denom()[0]
        assert sympy.expand(diff) == 0, cid

    # quoted-coefficient spot checks of the transcripts themselves
    v = {"R21": F(3), "L21": F(5), "C21": F(7), "C22": F(11)}
    fig9a = config_formula("fig9a", v)
    assert fig9a == RationalFn(
        Poly([v["R21"], F(0), v["R21"] * v["L21"] * v["C22"]]),
        Poly(
            [
                F(1),
                v["R21"] * (v["C21"] + v["C22"]),
                v["L21"] * v["C22"],
                v["R21"] * v["L21"] * v["C21"] * v["C22"],
            ]
        ),
    )
    v8 = {"R1": F(2), "L1": F(3), "C1": F(5)}
    assert config_formula("fig8a", v8) == RationalFn(
        Poly([F(0), v8["R1"] * v8["L1"]]),
        Poly([v8["R1"], v8["L1"], v8["R1"] * v8["L1"] * v8["C1"]]),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(10, "all %d cataloged impedances match symbolically" % len(config_ids()), elapsed)


def test_criterion_11_minimality_falsification():
    t0 = time.perf_counter()
    target_12 = RationalFn(Poly([F(1), F(2), F(1)]), Poly([F(4), F(4), F(1)]))
    target_13 = RationalFn(Poly([F(1), F(2), F(1)]), Poly([F(9), F(6), F(1)]))

    floor_report = falsify_small(target_12, 3, seed=7)
    fitted = [e for e in floor_report["entries"] if not e["filtered"]]
    assert fitted, "every topology was filtered"
    floor = min(e["best_residual"] for e in fitted)
    assert not floor_report["any_success"]
    assert floor > 1e-6

    five_report = falsify_small(
        target_12, 5, seed=7, tol=F(1, 10**8), stop_at_first_success=True
    )
    assert five_report["any_success"]
    winner5 = next(e for e in five_report["entries"] if e["success"])
    assert winner5["elements"] == 5 and winner5["best_residual"] <= 1e-8

    four_report = falsify_small(
        target_13, 4, seed=7, tol=F(1, 10**8), stop_at_first_success=True
    )
    assert four_report["any_success"]
    winner4 = next(e for e in four_report["entries"] if e["success"])
    assert winner4["elements"] == 4 and winner4["best_residual"] <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        11,
        "<=3-element floor %.2e > 1e-6; 5- and 4-element fits found" % floor,
        elapsed,
    )
