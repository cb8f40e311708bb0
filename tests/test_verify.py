"""Tests for the verification oracles and the fitting harness."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.optimize._numdiff import approx_derivative

from biquadrlc import verify

from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.network import (
    Leaf,
    build_config,
    enumerate_labeled,
    impedance_coeffs,
    leaves,
    parallel,
    series,
)
from biquadrlc.ratpoly import Poly, RationalFn
from biquadrlc.realize import synth_fig3a
from biquadrlc.verify import (
    _CompiledTemplate,
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


TNUM_12, TDEN_12 = np.array([1.0, 2.0, 1.0]), np.array([4.0, 4.0, 1.0])


def _labeled_templates(n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_labeled(n)


def test_compiled_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for tpl in _labeled_templates(4):
        compiled = _CompiledTemplate(tpl, TNUM_12, TDEN_12)
        for _ in range(2):
            theta = rng.normal(0.0, 2.0, len(leaves(tpl)))
            jac = compiled.jacobian(theta)
            fd = approx_derivative(compiled.residual, theta, method="3-point")
            assert np.abs(jac - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-300), tpl


def test_compiled_residual_matches_float_builder():
    # the residual as it was formed before compilation: float impedance
    # coefficients, cross-multiplied by convolution, scaled by max |coeff|
    rng = np.random.default_rng(12)
    for tpl in _labeled_templates(4):
        compiled = _CompiledTemplate(tpl, TNUM_12, TDEN_12)
        theta = rng.normal(0.0, 2.0, len(leaves(tpl)))
        num, den = impedance_coeffs(tpl, np.exp(theta).tolist())
        lhs, rhs = np.convolve(num, TDEN_12), np.convolve(TNUM_12, den)
        m = max(len(lhs), len(rhs))
        lhs, rhs = np.pad(lhs, (0, m - len(lhs))), np.pad(rhs, (0, m - len(rhs)))
        expected = (lhs - rhs) / max(np.abs(lhs).max(), np.abs(rhs).max())
        assert compiled.size == m
        assert np.abs(compiled.residual(theta) - expected).max() <= 1e-12, tpl


def test_compiled_template_clips_theta_without_warnings():
    tpl = series(Leaf("R"), parallel(Leaf("R"), Leaf("L"), series(Leaf("R"), Leaf("L"))))
    compiled = _CompiledTemplate(tpl, TNUM_12, TDEN_12)
    theta = np.array([250.0, -0.3, 0.7, -320.0, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res, jac = compiled.residual(theta), compiled.jacobian(theta)
        assert np.all(np.isfinite(res)) and np.all(np.isfinite(jac))
        assert np.all(jac[:, [0, 3]] == 0) and np.any(jac[:, [1, 2, 4]] != 0)
        # four values at the clip: the degree-4 monomial exp(800) overflows,
        # which reads as the constant 1e6 residual with a zero Jacobian
        wide = _CompiledTemplate(
            parallel(Leaf("R"), Leaf("R"), Leaf("L"), Leaf("L")), TNUM_12, TDEN_12
        )
        far = np.full(4, 250.0)
        assert np.all(wide.residual(far) == 1e6)
        assert np.all(wide.jacobian(far) == 0)


def test_fit_counts_residual_and_jacobian_evaluations(monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        seen.append((res.nfev, res.njev))
        return res

    least_squares = verify.least_squares
    monkeypatch.setattr(verify, "least_squares", recording)
    tpl = series(Leaf("R"), parallel(Leaf("L"), series(Leaf("R"), Leaf("C"))))
    res = fit_topology(tpl, RF((1, 2, 1), (9, 6, 1)), seed=0)
    assert seen and all(njev for _, njev in seen)
    assert res.iterations == sum(nfev + njev for nfev, njev in seen)


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
