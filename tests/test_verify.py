"""Tests for the verification oracles and the fitting harness."""

import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.network import Leaf, build_config, parallel, series
from biquadrlc.ratpoly import Poly, RationalFn
from biquadrlc.realize import synth_fig3a
from biquadrlc.verify import (
    falsify_small,
    fit_topology,
    verify_exact,
    verify_numeric,
)

F = Fraction


def P(*coeffs):
    return Poly([F(c) for c in coeffs])


def RF(num, den):
    return RationalFn(P(*num), P(*den))


def test_verify_exact_examples():
    net = series(Leaf("R", F(1)), Leaf("L", F(1)))
    assert verify_exact(net, RF((1, 1), (1,))) is True
    assert verify_exact(net, RF((2, 1), (1,))) is False


def test_verify_exact_fig8b_example():
    net = build_config("fig8b", {"R1": F(1), "L1": F(1), "C1": F(1)})
    assert verify_exact(net, RF((1, 0, 1), (1, 1, 1))) is True


def test_verify_exact_rejects_numeric_values():
    net = series(Leaf("R", mpf(1)), Leaf("L", mpf(1)))
    with pytest.raises(ValueError):
        verify_exact(net, RF((1, 1), (1,)))


def test_verify_numeric_exact_inputs_give_zero_residual():
    net = series(Leaf("R", F(1)), Leaf("L", F(1)))
    ok, residual = verify_numeric(net, RF((1, 1), (1,)))
    assert ok and residual == 0
    assert verify_exact(net, RF((1, 1), (1,))) == ok


def test_verify_numeric_perturbation_detected():
    base = {"R1": F(1), "L1": F(1), "C1": F(1)}
    target = RF((1, 0, 1), (1, 1, 1))
    good = build_config("fig8b", base)
    ok, residual = verify_numeric(good, target, tol=F(1, 10**6))
    assert ok and residual == 0
    perturbed = build_config("fig8b", {**base, "L1": F(101, 100)})
    ok, residual = verify_numeric(perturbed, target, tol=F(1, 10**6))
    assert not ok
    assert residual > F(1, 1000)


def test_verify_numeric_handles_unreduced_numeric_forms():
    # numeric values leave common factors uncancelled; the cross-multiplied
    # comparison must still accept them
    with mp.workprec(128):
        net = series(
            parallel(Leaf("R", mpf(1)), Leaf("C", mpf(1))),
            parallel(Leaf("R", mpf(2)), Leaf("C", mpf("0.5"))),
        )
        za = RF((1,), (1, 1))
        zb = RF((2,), (1, 1))
        target = za + zb
        ok, residual = verify_numeric(net, target, tol=F(1, 10**20), precision_bits=128)
        assert ok, residual


def test_verify_numeric_exact_quadratic_extension_values():
    # fig3a at (1, 1, 5) has element values in Q(sqrt 20); the exact
    # short-cut must compare them in their own field
    b = CanonicalBiquad(F(1), F(1), F(5))
    assert verify_numeric(synth_fig3a(b, exact=True), to_rational_fn(b)) == (True, 0)


def test_fit_series_rl():
    res = fit_topology(series(Leaf("R"), Leaf("L")), RF((1, 1), (1,)), seed=3)
    assert res.success
    assert res.residual <= 1e-8
    assert abs(res.values["R1"] - 1) < 1e-6 and abs(res.values["L1"] - 1) < 1e-6


def test_fit_parallel_rr_underdetermined():
    res = fit_topology(parallel(Leaf("R"), Leaf("R")), RationalFn.constant(F(1, 2)), seed=3)
    assert res.success and res.residual <= 1e-10
    r1, r2 = res.values["R1"], res.values["R2"]
    assert abs(r1 * r2 / (r1 + r2) - 0.5) < 1e-9


def test_fit_degree_obstruction_fails():
    res = fit_topology(series(Leaf("R"), Leaf("L")), RF((1,), (1, 1)), seed=3)
    assert not res.success


def test_fit_known_four_element_realization():
    # (s+1)^2/(s+3)^2 = R + (L || (R + C)) with values 1/9, 4/27, 8/9, 3/4
    tpl = series(Leaf("R"), parallel(Leaf("L"), series(Leaf("R"), Leaf("C"))))
    res = fit_topology(tpl, RF((1, 2, 1), (9, 6, 1)), seed=0)
    assert res.success and res.residual <= 1e-10


def test_verify_numeric_against_general_biquad_target():
    from biquadrlc.biquad import GeneralBiquad, to_rational_fn

    target = to_rational_fn(GeneralBiquad(*map(F, (1, 2, 1, 1, 6, 9))))
    net = series(
        Leaf("R", F(1, 9)),
        parallel(Leaf("L", F(4, 27)), series(Leaf("R", F(8, 9)), Leaf("C", F(3, 4)))),
    )
    ok, residual = verify_numeric(net, target)
    assert ok and residual == 0


def test_fit_final_values_use_the_residual_clip():
    # this start drives theta past the +-200 clip of the residual; the
    # final values must come from the same clipped step, without overflow
    target_12 = RF((1, 2, 1), (4, 4, 1))
    tpl = series(Leaf("R"), parallel(Leaf("R"), Leaf("L"), series(Leaf("R"), Leaf("L"))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = fit_topology(tpl, target_12, budget=4000, starts=24, seed=7000076, tol=F(1, 10**8))
    assert all(0 < v < float("inf") for v in res.values.values())


def test_falsify_small_respects_filters_and_reports():
    target = RF((1, 2, 1), (4, 4, 1))
    report = falsify_small(target, 2, seed=1)
    assert report["complete"]
    entries = report["entries"]
    assert all(
        set(e) >= {"topology", "filtered", "best_residual", "success"} for e in entries
    )
    filtered = [e for e in entries if e["filtered"]]
    assert filtered and all(e["filter"] is not None for e in filtered)
    # no 1-2 element network can realize a biquadratic with distinct
    # double pole and zero
    assert not report["any_success"]


def test_falsify_small_rejects_large_n():
    with pytest.raises(ValueError):
        falsify_small(RF((1,), (1,)), 6)
