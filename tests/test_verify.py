"""Tests for the verification oracles and the fitting harness."""

import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from mpmath import mp, mpf

from biquadrlc import verify

from biquadrlc.biquad import CanonicalBiquad, PoleSquaredForm, to_rational_fn
from biquadrlc.network import (
    Leaf,
    Parallel,
    Series,
    apply_transform,
    build_config,
    canonical,
    ends_order,
    enumerate_labeled,
    from_netlist_json,
    has_twin,
    impedance_coeffs,
    leaves,
    parallel,
    series,
    to_netlist_json,
)
from biquadrlc.ratpoly import Poly, QuadraticRational, RationalFn, to_mpf
from biquadrlc.realize import lemma_four_element, lemma_three_element, synth_fig3a
from biquadrlc.verify import (
    EXACT_FIT,
    FALSIFY_FILTERS,
    SETTLED,
    _CompiledTemplate,
    _exact_target,
    coefficient_residual,
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


def _constant_resistance_example(value):
    # R + ((R1 + L) || (R1 + C)) with R1^2 = L / C: the pair is the constant
    # resistance R1, and its unreduced impedance carries the factor s + R1 / L
    return series(Leaf("R", value(F(2, 3))), parallel(series(Leaf("R", value(F(1, 4))), Leaf("L", value(F(5, 16)))),
                                                     series(Leaf("R", value(F(1, 4))), Leaf("C", value(F(5))))))


def test_an_exact_network_and_its_mpf_twin_give_one_residual():
    # one rule in both fields: the exact residual is what 256-bit mpf
    # computes, to its rounding, also where Z has a common factor
    target = RF((F(6, 5), F(9, 5), F(7, 5)), (F(4, 5), 1, 1))
    twins = [
        (_constant_resistance_example, target),
        (lambda value: build_config("fig8b", {"R1": value(F(1)), "L1": value(F(101, 100)), "C1": value(F(1))}),
         RF((1, 0, 1), (1, 1, 1))),
        (lambda value: series(Leaf("R", value(F(1, 3))), Leaf("L", value(F(2)))), RF((1, 1), (1,))),
    ]
    for network, goal in twins:
        ok, exact = verify_numeric(network(lambda v: v), goal)
        assert not ok and isinstance(exact, F)
        with mp.workprec(256):
            ok, inexact = verify_numeric(network(to_mpf), goal)
            assert not ok and abs(inexact - to_mpf(exact)) <= mpf(2) ** -240 * exact
    assert verify_numeric(_constant_resistance_example(lambda v: v), target)[1] == F(821, 1866)


def test_verify_numeric_exact_quadratic_extension_values():
    # fig3a at (1, 1, 5) has element values in Q(sqrt 20); the exact
    # short-cut must compare them in their own field
    b = CanonicalBiquad(F(1), F(1), F(5))
    assert verify_numeric(synth_fig3a(b), to_rational_fn(b)) == (True, 0)


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


def test_fit_takes_a_runaway_element_to_its_limit():
    # at eta = 5/9 the best parallel(R, L) is the limit L -> infinity (floor
    # 0.5564, as MINPACK finds); starts stop at different depths, and from
    # some of them the certification still sees the finite L (residual 1)
    target = to_rational_fn(CanonicalBiquad(F(113, 100), F(87, 100), F(87, 100) * F(5, 9)))
    for seed in range(4):
        res = fit_topology(parallel(Leaf("R"), Leaf("L")), target, budget=4000, starts=24, seed=seed)
        assert res.residual < 0.557 and res.values["L1"] == np.exp(verify.THETA_CLIP)


def test_fit_stops_late_enough_to_keep_a_floor_finite():
    # at eta = 3 the best start of R + (C || (R + L)) ends with R1 = 0.08 and
    # the floor 0.9199; a start stopped sooner (ftol = xtol = 1e-9) leaves R1
    # near e^-31, _to_limit takes it to the clip and the floor reads 1.0
    tpl = series(Leaf("R"), parallel(Leaf("C"), series(Leaf("R"), Leaf("L"))))
    res = fit_topology(tpl, RF((1, 2, 1), (9, 6, 1)), budget=4000, starts=24, seed=7000031)
    assert res.residual < 0.93


def test_a_degenerate_best_fit_gives_way_to_the_next_distinct_minimum(monkeypatch):
    # against (s+1)^2/(s+3)^2 the five cheapest starts of R || (C + (R || L))
    # let R1 run off to infinity, where the limit network certifies at
    # residual 1; past them, the next distinct minimum certifies at 0.7422.
    # falsify_small no longer fits it (its Z(inf) < Z(0), the target's
    # Z(0) < Z(inf)), so it is fitted alone from the seed that its entry
    # had: index 13 among the labelings of up to four elements that the
    # rules but ends-order keep
    target = RF((1, 2, 1), (9, 6, 1))
    tpl = parallel(Leaf("R"), series(Leaf("C"), parallel(Leaf("R"), Leaf("L"))))
    report = falsify_small(target, 4, seed=0)
    seeded = [e["topology"] for e in report["entries"] if e["filter"] in (None, "ends-order")]
    assert seeded.index(to_netlist_json(tpl)) == 13 and ends_order(tpl) == -1
    assert fit_topology(tpl, target, budget=4000, starts=24, seed=13).residual < 0.9
    # certifying only the best start leaves the degenerate limit
    monkeypatch.setattr(verify, "CERTIFICATIONS", 1)
    assert fit_topology(tpl, target, budget=4000, starts=24, seed=13).residual >= 1 - verify.DEGENERATE


TNUM_12, TDEN_12 = np.array([1.0, 2.0, 1.0]), np.array([4.0, 4.0, 1.0])


def _labeled_templates(n_max):
    for n in range(1, n_max + 1):
        yield from enumerate_labeled(n)


def _central_difference(residual, theta):
    """Jacobian of a batch residual at one theta by central differences,
    with the step eps^(1/3) max(1, |theta_i|) of a three-point scheme."""
    step = np.finfo(float).eps ** (1 / 3) * np.maximum(1.0, np.abs(theta))
    shifts = np.diag(step)
    return ((residual(theta + shifts) - residual(theta - shifts)) / (2 * step[:, None])).T


def test_compiled_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for tpl in _labeled_templates(4):
        compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
        thetas = rng.normal(0.0, 2.0, (2, len(leaves(tpl))))
        for theta, jac in zip(thetas, compiled.jacobian(thetas)):
            fd = _central_difference(compiled.residual, theta)
            assert np.abs(jac - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-300), tpl


def test_compiled_residual_matches_float_builder():
    # the residual as it was formed before compilation: float impedance
    # coefficients, cross-multiplied by convolution, scaled by max |coeff|
    rng = np.random.default_rng(12)
    for tpl in _labeled_templates(4):
        compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
        theta = rng.normal(0.0, 2.0, len(leaves(tpl)))
        num, den = impedance_coeffs(tpl, np.exp(theta).tolist())
        lhs, rhs = np.convolve(num, TDEN_12), np.convolve(TNUM_12, den)
        m = max(len(lhs), len(rhs))
        lhs, rhs = np.pad(lhs, (0, m - len(lhs))), np.pad(rhs, (0, m - len(rhs)))
        expected = (lhs - rhs) / max(np.abs(lhs).max(), np.abs(rhs).max())
        assert compiled.size == m
        assert np.abs(compiled.residual(theta[None])[0] - expected).max() <= 1e-12, tpl


def test_compiled_template_clips_theta_without_warnings():
    tpl = series(Leaf("R"), parallel(Leaf("R"), Leaf("L"), series(Leaf("R"), Leaf("L"))))
    compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
    theta = np.array([[250.0, -0.3, 0.7, -320.0, 1.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res, jac = compiled.residual(theta)[0], compiled.jacobian(theta)[0]
        assert np.all(np.isfinite(res)) and np.all(np.isfinite(jac))
        assert np.all(jac[:, [0, 3]] == 0) and np.any(jac[:, [1, 2, 4]] != 0)
        # four values at the clip: the degree-4 monomial exp(800) overflows,
        # which reads as the constant 1e6 residual with a zero Jacobian, and
        # leaves the other rows of the batch as they are
        wide = _CompiledTemplate(
            [parallel(Leaf("R"), Leaf("R"), Leaf("L"), Leaf("L"))], TNUM_12, TDEN_12
        )
        batch = np.array([np.full(4, 250.0), np.zeros(4)])
        res, jac = wide.residual(batch), wide.jacobian(batch)
        assert np.all(res[0] == 1e6) and np.all(jac[0] == 0)
        assert np.all(np.abs(res[1]) < 1) and np.any(jac[1] != 0)
        assert np.array_equal(res[1], wide.residual(batch[1:])[0])
        assert np.array_equal(jac[1], wide.jacobian(batch[1:])[0])


def test_stacked_template_rows_match_each_template_alone():
    # every template that falsify fits up to four elements against a
    # double-pole target of either order (the rules but ends-order), in one
    # stack: each row gives the residual and Jacobian of its template
    # compiled alone, on random, clipped and overflowing theta
    templates = [net for n in range(1, 5) for net in enumerate_labeled(n, FALSIFY_FILTERS[:-1])]
    stack = _CompiledTemplate(templates, TNUM_12, TDEN_12)
    rng = np.random.default_rng(13)
    overflows = 0
    for t, tpl in enumerate(templates):
        n = len(leaves(tpl))
        alone = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
        theta = np.vstack([rng.normal(0.0, 2.0, (2, n)), np.linspace(-320.0, 250.0, n), np.full(n, 250.0)])
        padded = np.zeros((len(theta), stack.exponents.shape[2]))
        padded[:, :n] = theta
        rows = np.full(len(theta), t)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res, jac = stack.residual(padded, rows), stack.jacobian(padded, rows)
            res_alone, jac_alone = alone.residual(theta), alone.jacobian(theta)
        m = alone.size
        assert not res[:, m:].any() and not jac[:, m:].any() and not jac[:, :, n:].any(), tpl
        for got, want in ((res[:, :m], res_alone), (jac[:, :m, :n], jac_alone)):
            scale = np.maximum(np.abs(want).max(axis=tuple(range(1, want.ndim))), 1e-300)
            error = np.abs(got - want).max(axis=tuple(range(1, want.ndim)))
            assert np.all(error <= 1e-12 * scale), tpl
        overflows += bool(np.all(res_alone[-1] == 1e6))
    assert overflows  # the degree-4 monomials at the clip overflow


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
    # plus the Jacobian with which _to_limit finds no element running off
    assert res.iterations == sum(nfev + njev for nfev, njev in seen) + 1


LM_TOLERANCES = dict(xtol=1e-15, ftol=1e-15, gtol=1e-15)


def _certified(tpl, theta, target):
    # as _fit certifies: the template's coefficients at the float values,
    # taken as the dyadic rationals they are
    values = [F(v) for v in np.exp(np.clip(theta, -verify.THETA_CLIP, verify.THETA_CLIP)).tolist()]
    return verify._certify(tpl, values, target, F(1, 10**8))[0]


@pytest.mark.parametrize("tolerances", [LM_TOLERANCES, dict(LM_TOLERANCES, xtol=SETTLED, ftol=SETTLED)],
                         ids=["1e-15", "SETTLED"])
def test_least_squares_floors_match_minpack(tolerances):
    # oracle: MINPACK lmder through scipy's leastsq, one start at a time from
    # the starts of the batch, with the same stop tests: 1e-15, and those
    # that _fit passes.  Every labeled template of up to three elements
    # against target_12: the batch's floor (smallest largest |residual| over
    # the starts) is within 1% of MINPACK's, and the best starts of the two
    # agree on certification
    optimize = pytest.importorskip("scipy.optimize")
    target = RF((1, 2, 1), (4, 4, 1))
    for index, tpl in enumerate(_labeled_templates(3)):
        compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
        fun = lambda theta: compiled.residual(theta[None])[0]
        jac = lambda theta: compiled.jacobian(theta[None])[0]
        x0 = np.random.default_rng(index).normal(0.0, 2.0, (24, len(leaves(tpl))))
        mine = verify.least_squares(
            compiled.evaluate, x0, jac=compiled.jacobian_at, rows=np.zeros(24, dtype=int), max_nfev=166,
            **tolerances
        )
        # full_output returns quietly at maxfev; the covariance it adds
        # overflows on nearly singular fits
        with np.errstate(over="ignore", invalid="ignore"):
            theirs = np.array([
                optimize.leastsq(fun, start, Dfun=jac, full_output=True, maxfev=166, factor=100,
                                 **tolerances)[0]
                for start in x0
            ])
        costs_mine = np.abs(mine.fun).max(axis=1)
        costs_theirs = np.abs(compiled.residual(theirs)).max(axis=1)
        assert costs_mine.min() <= 1.01 * costs_theirs.min(), tpl
        assert _certified(tpl, mine.x[costs_mine.argmin()], target) == _certified(
            tpl, theirs[costs_theirs.argmin()], target
        ), tpl


def test_least_squares_returns_quietly_at_max_nfev():
    tpl = series(Leaf("R"), parallel(Leaf("L"), series(Leaf("R"), Leaf("C"))))
    compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = verify.least_squares(
            compiled.evaluate, np.zeros((1, 4)), jac=compiled.jacobian_at, rows=[0], max_nfev=5, **LM_TOLERANCES
        )
    assert res.nfev == 5 and np.all(np.isfinite(res.x))


def test_least_squares_nearly_singular_fit_without_warnings():
    # L in series with L leaves the Jacobian nearly singular at the end of
    # this start
    tpl = series(Leaf("L"), parallel(Leaf("C"), series(Leaf("L"), Leaf("L"))))
    compiled = _CompiledTemplate([tpl], TNUM_12, TDEN_12)
    x0 = np.array([[4.3959535249554795, -0.052437645904107856, 0.7424995359827122, -0.6326354866328311]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = verify.least_squares(
            compiled.evaluate, x0, jac=compiled.jacobian_at, rows=[0], max_nfev=166, **LM_TOLERANCES
        )
    assert np.all(np.isfinite(res.fun))


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


_BATCH_TARGETS = [
    RF((1, 2, 1), (4, 4, 1)),  # target_12: FiveElement, no fit of up to four succeeds
    to_rational_fn(CanonicalBiquad(1, 1, 3)),  # eta = 3: FourElement
    to_rational_fn(CanonicalBiquad(1, 3, 1)),  # eta = 1/3: FourElement
]


@pytest.mark.parametrize("target", _BATCH_TARGETS)
def test_falsify_batch_gives_the_fits_of_each_template_alone(target):
    # falsify_small fits all its templates in shared batches; each entry must
    # be what fit_topology gives for the template alone from the same seed,
    # up to the rounding that the batch's padding changes
    report = falsify_small(target, 4)
    assert [e["topology"] for e in report["entries"]] == [
        to_netlist_json(net) for net in _labeled_templates(4)
    ]
    # a template's seed index counts the labelings that the rules but
    # ends-order keep
    seeded = [e for e in report["entries"] if e["filter"] in (None, "ends-order")]
    fitted = [e for e in report["entries"] if not e["filtered"]]
    alone = [
        fit_topology(from_netlist_json(e["topology"]), target, budget=4000, starts=24, seed=index)
        for index, e in enumerate(seeded) if not e["filtered"]
    ]
    assert report["any_success"] == any(fit.success for fit in alone)
    for entry, fit in zip(fitted, alone):
        assert entry["success"] == fit.success, entry["topology"]
        if not fit.success:
            assert abs(entry["best_residual"] - fit.residual) <= 0.01 * fit.residual, entry["topology"]
    # stopping at the first success reports the prefix of the full report
    stopped = falsify_small(target, 4, stop_at_first_success=True)
    wins = [i for i, e in enumerate(report["entries"]) if e["success"]]
    end = wins[0] + 1 if wins else len(report["entries"])
    assert stopped["entries"] == report["entries"][:end]
    assert stopped["any_success"] == report["any_success"]
    assert stopped["complete"] == (not wins)


def test_uncertified_exact_fits_stop_only_their_own_template(monkeypatch):
    # with tol 0 no fit certifies, so at eta = 3 the exact fits (largest
    # |residual| below EXACT_FIT in floats) stop no other template: one
    # least_squares call gives the full report
    calls = []

    def recording(*args, **kwargs):
        res = least_squares(*args, **kwargs)
        calls.append(res)
        return res

    least_squares = verify.least_squares
    monkeypatch.setattr(verify, "least_squares", recording)
    target = to_rational_fn(CanonicalBiquad(1, 1, 3))
    stopped = falsify_small(target, 4, tol=0, stop_at_first_success=True)
    assert len(calls) == 1
    full = falsify_small(target, 4, tol=0)
    assert not stopped["any_success"] and stopped["complete"]
    assert len(stopped["entries"]) == len(full["entries"])
    exact = 0
    for a, b in zip(stopped["entries"], full["entries"]):
        assert a["topology"] == b["topology"] and not a["success"] and not b["success"]
        if not a["filtered"]:
            floors = a["best_residual"], b["best_residual"]
            if max(floors) < 1e-12:
                exact += 1
            else:
                assert abs(floors[0] - floors[1]) <= 0.01 * floors[1], a["topology"]
    assert exact  # the report holds exact fits that did not certify
    for res in calls:
        assert type(res.nfev) is int and type(res.njev) is int


_ETA_3_FOUR = series(Leaf("R"), parallel(Leaf("L"), series(Leaf("R"), Leaf("C"))))  # realizes eta = 3
_ETA_3_OTHERS = [
    series(Leaf("R"), parallel(Leaf("L"), Leaf("C"))),
    parallel(Leaf("R"), series(Leaf("L"), Leaf("C"))),
    series(Leaf("R"), parallel(Leaf("R"), Leaf("L")), Leaf("C")),
]


# the falsify rules but twin and ends-order: they keep a set closed under
# inv, dual and gdu
DUAL_PAIRED_FILTERS = ("cutset", "reactive-arm", "mergeable", "reactive-path", "reactive-branch")
# the falsify rules with ends-order spelled for a target with Z(0) < Z(inf)
RISING_RULES = FALSIFY_FILTERS[:-1] + ("ends-order=rising",)


def test_evaluate_reads_a_rows_array_changed_in_place():
    # each call gathers the tables of the templates that its rows name now,
    # so a rows array changed between two calls gives what a copy gives
    templates = [net for n in range(1, 4) for net in enumerate_labeled(n, DUAL_PAIRED_FILTERS)]
    stack = _CompiledTemplate(templates, TNUM_12, TDEN_12)
    theta = np.random.default_rng(14).normal(0.0, 2.0, (4, stack.exponents.shape[2]))
    rows = np.zeros(len(theta), dtype=np.intp)
    stack.evaluate(theta, rows)
    rows[:] = [1, 2, 3, len(templates) - 1]
    res, point = stack.evaluate(theta, rows)
    fresh, fresh_point = stack.evaluate(theta, rows.copy())
    assert np.array_equal(res, fresh)
    assert np.array_equal(stack.jacobian_at(point), stack.jacobian_at(fresh_point))
    assert not np.array_equal(res, stack.residual(theta))  # the rows name other templates than 0


def _eta_3_batch(templates, starts=6):
    """The compiled templates against eta = 3, their rows and seeded starts
    (template t from seed t)."""
    target = to_rational_fn(CanonicalBiquad(1, 1, 3))
    tnum, tden = (np.array([float(c) for c in poly.coeffs]) for poly in (target.num, target.den))
    compiled = _CompiledTemplate(templates, tnum, tden)
    rows = np.repeat(np.arange(len(templates)), starts)
    x0 = np.zeros((len(rows), 4))
    for t, tpl in enumerate(templates):
        x0[t * starts:(t + 1) * starts, :len(leaves(tpl))] = np.random.default_rng(t).normal(
            0.0, 2.0, (starts, len(leaves(tpl))))
    return compiled, rows, x0


def test_least_squares_finishes_each_template_once():
    # four templates against eta = 3; one start of template 1 begins at its
    # exact fit R + (L | (R + C)) = 1/9, 4/27, 8/9, 3/4, so template 1
    # finishes as it joins, ahead of the others
    starts = 6
    compiled, rows, x0 = _eta_3_batch(_ETA_3_OTHERS[:1] + [_ETA_3_FOUR] + _ETA_3_OTHERS[1:], starts)
    x0[starts + 2] = np.log([1 / 9, 4 / 27, 8 / 9, 3 / 4])

    def run(success):
        seen = []

        def finish(t, x, f, evaluations):
            seen.append((t, x.copy(), f.copy(), evaluations))
            return t == success

        res = verify.least_squares(compiled.evaluate, x0, jac=compiled.jacobian_at, rows=rows, max_nfev=40,
                                   finish=finish, **LM_TOLERANCES)
        return res, seen

    res, seen = run(None)
    assert sorted(t for t, *_ in seen) == [0, 1, 2, 3]
    for t, x, f, evaluations in seen:
        own = slice(t * starts, (t + 1) * starts)
        assert np.array_equal(x, res.x[own]) and np.array_equal(f, res.fun[own])
        assert type(evaluations) is int
    assert sum(e for *_, e in seen) == res.nfev + res.njev
    # the exact fit stops its own template's starts at their first
    # evaluation, and the later templates run on
    evaluations = {t: e for t, *_, e in seen}
    assert evaluations[1] == starts and evaluations[2] > 2 * starts and evaluations[3] > 2 * starts
    # a True return from template 1 stops templates 2 and 3, which are not
    # finished; template 0 runs on
    stopped, seen = run(1)
    assert [t for t, *_ in seen] == [1, 0]
    assert stopped.nfev + stopped.njev < res.nfev + res.njev


def test_a_certified_success_spares_the_later_templates_their_jacobians():
    # template 0, R + (L | (R + C)), fits eta = 3 exactly in a round in which
    # the other templates' starts run on: once finish certifies it, those
    # starts take no Jacobian, and template 0 finishes as it does when no
    # success stops anything
    compiled, rows, x0 = _eta_3_batch([_ETA_3_FOUR] + _ETA_3_OTHERS)

    def run(certify):
        events = []

        def fun(x, r):
            events.append(("fun", r.copy()))
            return compiled.evaluate(x, r)

        def jac(point, index):
            events.append(("jac", point.rows.copy() if index is None else point.rows[index]))
            return compiled.jacobian_at(point, index)

        def finish(t, x, f, evaluations):
            ok = certify and np.abs(f).max(axis=1).min() < EXACT_FIT
            events.append(("finish", t, ok, x.copy(), f.copy(), evaluations))
            return ok

        res = verify.least_squares(fun, x0, jac=jac, rows=rows, max_nfev=40, finish=finish, **LM_TOLERANCES)
        return res, events

    stopped, events = run(True)
    success = next(i for i, e in enumerate(events) if e[0] == "finish" and e[2])
    assert events[success][1] == 0
    round_start = max(i for i in range(success) if events[i][0] == "fun")
    assert (events[round_start][1] > 0).any()  # the later templates ran in that round
    assert all(e[0] != "jac" or (e[1] == 0).all() for e in events[round_start:])
    full, full_events = run(False)
    alone = next(e for e in full_events if e[0] == "finish" and e[1] == 0)
    for a, b in zip(events[success][3:], alone[3:]):
        assert np.array_equal(a, b)
    assert stopped.njev < full.njev


def test_falsify_filters_keep_the_labelings_no_image_rules_out():
    # the rules and their duals keep a set closed under inv, dual and gdu;
    # twin keeps A + (A | B) but not its dual and gdu images, which are
    # twins A' | (A' + B'), so from three elements on the six rules keep a
    # set closed under inv only
    assert FALSIFY_FILTERS == DUAL_PAIRED_FILTERS + ("twin", "ends-order")
    for rules, counts, closed in ((DUAL_PAIRED_FILTERS, [1, 0, 4, 14, 80], ("inv", "dual", "gdu")),
                                  (FALSIFY_FILTERS[:-1], [1, 0, 2, 12, 53], ("inv",))):
        assert [len(enumerate_labeled(n, rules)) for n in range(1, 6)] == counts
        for n in range(1, 6):
            kept = set(enumerate_labeled(n, rules))
            for op in ("inv", "dual", "gdu"):
                images = {apply_transform(net, op) for net in kept}
                assert (images == kept) == (op in closed or n < 3), (rules, n, op)
    # ends-order transforms as the target's order does: inv swaps Z(0) and
    # Z(inf), dual takes 1/Z, so both reverse the order and gdu keeps it;
    # so an image of a kept labeling is kept for the image target
    for n in range(1, 6):
        for net in enumerate_labeled(n):
            verdict = ends_order(net)
            for op, sign in (("inv", -1), ("dual", -1), ("gdu", 1)):
                image = ends_order(apply_transform(net, op))
                assert image == (None if verdict is None else sign * verdict), (net, op)
    image_order = {"rising": "falling", "flat": "flat", "falling": "rising"}
    for order, counts in (("rising", [0, 0, 1, 5, 27]), ("flat", [1, 0, 0, 6, 17]), ("falling", [0, 0, 1, 5, 27])):
        rules = DUAL_PAIRED_FILTERS + ("ends-order=" + order,)
        for n in range(1, 6):
            kept = set(enumerate_labeled(n, rules))
            for op in ("inv", "dual", "gdu"):
                spelled = order if op == "gdu" else image_order[order]
                images = {apply_transform(net, op) for net in kept}
                assert images == set(enumerate_labeled(n, DUAL_PAIRED_FILTERS + ("ends-order=" + spelled,)))
        assert [len(enumerate_labeled(n, FALSIFY_FILTERS[:-1] + ("ends-order=" + order,)))
                for n in range(1, 6)] == counts


def _rewrite_twin(net):
    """``net`` with one sub-network A | (A + B) rewritten into its twin
    A + (A | B), canonical; ``net`` itself if it has none."""
    if isinstance(net, Leaf):
        return net
    kids = list(net.children)
    if isinstance(net, Parallel):
        for i, arm in enumerate(kids):
            if isinstance(arm, Series) and len(arm.children) == 2 and all(isinstance(x, Leaf) for x in arm.children):
                for a, b in (arm.children, arm.children[::-1]):
                    if a.kind != b.kind and a in kids:
                        rest = kids[:i] + kids[i + 1:]
                        rest.remove(a)
                        twin = Series((a, Parallel((a, b))))
                        return canonical(Parallel(tuple(rest) + (twin,)) if rest else twin)
    for i, kid in enumerate(kids):
        rewritten = _rewrite_twin(kid)
        if rewritten != kid:
            kids[i] = rewritten
            return canonical(type(net)(tuple(kids)))
    return net


def test_every_twin_rewrites_to_a_network_of_its_size_that_is_fitted_or_mergeable():
    # so the twin rule skips no impedance that falsify would fit: each
    # A | (A + B) rewritten into A + (A | B), repeatedly, ends on a
    # labeling of the same size that the rules keep, or on one with like
    # siblings, which realizes what a smaller network does; ends-order,
    # applied after twin, names none of the twins, and a twin's order is
    # that of the network it rewrites to, as both realize one set of Z(s)
    for n, filtered in zip(range(1, 6), [0, 0, 2, 2, 27]):
        verdicts = dict(verify._labelings(n, FALSIFY_FILTERS[:-1]))
        ordered = dict(verify._labelings(n, RISING_RULES))
        twins = [net for net, rule in verdicts.items() if rule == "twin"]
        assert len(twins) == filtered and twins == [net for net, rule in ordered.items() if rule == "twin"]
        for twin in twins:
            net = twin
            for _ in range(n):
                if not has_twin(net):
                    break
                net = _rewrite_twin(net)
            assert verdicts.get(net, "another size") in (None, "mergeable"), net
            if verdicts.get(net, "another size") is None:
                assert ends_order(twin) == ends_order(net), net


def _end_impedance(net, values, at_infinity):
    """Z(0), or Z(inf) with ``at_infinity``, of net at the given leaf values
    (in ``leaves`` order), exact: each L is a short and each C an open
    circuit at s = 0, and the reverse at s = inf; None for infinity."""
    it = iter(values)

    def walk(n):
        if isinstance(n, Leaf):
            value = next(it)
            if n.kind == "R":
                return value
            return None if (n.kind == "L") == at_infinity else F(0)
        parts = [walk(child) for child in n.children]
        if isinstance(n, Series):
            return None if None in parts else sum(parts)
        if F(0) in parts:
            return F(0)
        conductance = sum(1 / part for part in parts if part is not None)
        return None if conductance == 0 else 1 / conductance

    return walk(net)


def test_a_decided_ends_order_holds_at_exact_values():
    # so the ends-order rule drops no network that can realize the target:
    # at random positive values, Z(0) and Z(inf), evaluated exactly from the
    # tree alone, are finite, nonzero and ordered as the verdict says, and
    # an end at 0 or infinity leaves the order undecided
    rng = np.random.default_rng(34)
    decided = 0
    for n in range(1, 6):
        for net in enumerate_labeled(n):
            verdict = ends_order(net)
            decided += verdict is not None
            for _ in range(3):
                values = [F(int(a), int(b)) for a, b in rng.integers(1, 10**6, (n, 2))]
                z0, zinf = (_end_impedance(net, values, end) for end in (False, True))
                if z0 in (None, 0) or zinf in (None, 0):
                    assert verdict is None, net
                elif verdict is not None:
                    assert (zinf > z0) - (zinf < z0) == verdict, (net, values)
    # of the 2279 labelings, 451 have finite nonzero ends, and 30 of those
    # an order that the coefficients leave open
    assert decided == 421


def test_the_ends_order_of_small_templates():
    R, L, C = Leaf("R"), Leaf("L"), Leaf("C")
    assert ends_order(R) == 0 and ends_order(L) is None and ends_order(C) is None
    assert ends_order(series(R, parallel(R, L))) == 1  # Z(0) = R1 < R1 + R2 = Z(inf)
    assert ends_order(series(R, parallel(R, C))) == -1
    assert ends_order(series(R, parallel(R, L, C))) == 0  # Z(0) = Z(inf) = R1
    # R | (R + L) | (R + C): Z(0) = R1 | R2 and Z(inf) = R1 | R3, not ordered
    assert ends_order(parallel(R, series(R, L), series(R, C))) is None


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_falsify_fits_the_one_template_of_the_targets_order_from_its_seed(seed):
    # at eta = 2 (Z(0) = 1/4 < 1 = Z(inf)) the n <= 3 labelings that the
    # other rules keep are R, R + (R | L) and R + (R | C), at indices 0, 1
    # and 2; ends-order fits R + (R | L) alone, from the seed of index 1
    R, L, C = Leaf("R"), Leaf("L"), Leaf("C")
    for eta, template, index in ((2, series(R, parallel(R, L)), 1), (F(1, 2), series(R, parallel(R, C)), 2)):
        target = to_rational_fn(CanonicalBiquad(1, 1, eta))
        report = falsify_small(target, 3, seed=seed)
        fitted = [e for e in report["entries"] if not e["filtered"]]
        assert [e["topology"] for e in fitted] == [to_netlist_json(template)]
        assert [e["topology"] for e in report["entries"] if e["filter"] == "ends-order"] == [
            to_netlist_json(net) for net in (R, series(R, parallel(R, L)), series(R, parallel(R, C))) if net != template]
        fit = fit_topology(template, target, 4000, 24, seed * 1000003 + index)
        assert (fitted[0]["best_residual"], fitted[0]["success"], fitted[0]["evaluations"]) == (
            fit.residual, fit.success, fit.iterations)
        assert report["best_residual"] == fit.residual and report["filters"]["applied"][-1] == "ends-order"


def test_a_report_with_every_labeling_filtered_is_complete_without_a_floor():
    # at n <= 2 a double-pole target keeps only R, which ends-order drops:
    # nothing is fitted, and that no network of at most two elements
    # realizes the target is then an exact answer
    for eta in (2, F(1, 3)):
        target = to_rational_fn(CanonicalBiquad(1, 1, eta))
        for stop in (False, True):
            report = falsify_small(target, 2, stop_at_first_success=stop)
            assert report["best_residual"] is None and report["any_success"] is False and report["complete"]
            assert all(e["filtered"] and e["best_residual"] is None for e in report["entries"])
            assert report["entries"][0]["filter"] == "ends-order" and len(report["entries"]) == 15
    assert verify._fit([], to_rational_fn(CanonicalBiquad(1, 1, 2)), 4000, 24, [], F(1, 10**8)) == []


def test_filter_premises_are_decided_exactly_on_the_reduced_target():
    # as falsify_small decides them: on the target that _exact_target gives
    def premises(target):
        return verify._jw_axis_points(_exact_target(target))

    ends = {("pole", "ends"), ("pole", "axis")}
    assert premises(RF((1, 1), (1,))) == ends  # Z(inf) = inf
    assert premises(RF((1, 1), (0, 1))) == ends  # Z(0) = inf
    assert premises(RF((0, 2), (1, 2, 1))) == {("zero", "ends"), ("zero", "axis")}
    # poles at s = +-j, read from mpf coefficients as from Fractions
    poles = RationalFn(Poly([mpf(1), mpf(1), mpf(1)]), Poly([mpf(1), mpf(0), mpf(1)]))
    assert premises(poles) == premises(RF((1, 1, 1), (1, 0, 1))) == {("pole", "axis")}
    assert premises(RF((1, 0, 1), (1, 1, 1))) == {("zero", "axis")}
    # (s^2 + 1)(s + 1) / (s + 1)^3 reduces to (s^2 + 1) / (s + 1)^2
    assert premises(RF((1, 1, 1, 1), (1, 3, 3, 1))) == {("zero", "axis")}
    # s^2 - 1 has real roots only, and (s + 2)^2 none on the axis
    assert premises(RF((-1, 0, 1), (4, 4, 1))) == set()
    # an mpf coefficient is the dyadic rational it stores: a damping of
    # 2^-100 takes the poles off the axis
    with mp.workprec(128):
        damped = RationalFn(Poly([mpf(1), mpf(1), mpf(1)]), Poly([mpf(1), mpf(2) ** -100, mpf(1)]))
    assert premises(damped) == set()


_SKIPPED_RULE_TARGETS = [
    # (num, den, n_max, the first success, the rules that do not hold for the target)
    ((1, 1), (1,), 2, series(Leaf("R"), Leaf("L")), ["cutset", "reactive-arm", "ends-order"]),  # Z(inf) = inf
    ((1, 1, 1), (1, 0, 1), 3, series(Leaf("R"), parallel(Leaf("L"), Leaf("C"))), ["reactive-arm"]),
    ((1, 0, 1), (1, 1, 1), 3, parallel(Leaf("R"), series(Leaf("L"), Leaf("C"))), ["reactive-branch"]),
]


@pytest.mark.parametrize("num, den, n_max, winner, skipped", _SKIPPED_RULE_TARGETS)
def test_falsify_skips_the_rules_whose_premise_fails(num, den, n_max, winner, skipped):
    # R + L realizes s + 1, R + (L | C) realizes (s^2 + s + 1)/(s^2 + 1) and
    # R | (L + C) its reciprocal; the rules that these break must not run
    report = falsify_small(RF(num, den), n_max, stop_at_first_success=True)
    assert report["any_success"]
    assert report["entries"][-1]["topology"] == to_netlist_json(winner)
    assert report["filters"] == {"applied": [f for f in FALSIFY_FILTERS if f not in skipped], "skipped": skipped}
    assert not {e["filter"] for e in report["entries"]} & set(skipped)


def test_falsify_small_rejects_the_zero_target():
    # Z = 0 is no network of positive elements: at the log-value clip a fit
    # would certify a limit network that does not exist
    for zero in (RF((0,), (1,)), RationalFn(Poly([mpf(0)]), Poly([mpf(1), mpf(2)]))):
        with pytest.raises(ValueError, match="Z = 0"):
            falsify_small(zero, 3)


@pytest.mark.parametrize("k, z, p, coefficient", [
    (F(10**400), 1, 2, "num coefficient of s^0, 1.0e+400"),
    (1, F(10**200), F(2 * 10**200), "num coefficient of s^0, 1.0e+400"),
    (F(1, 10**400), 1, 2, "num coefficient of s^0, 1.0e-400"),
    (mpf("1e-400"), 1, 2, "num coefficient of s^0, 9.99"),
])
def test_falsify_and_fit_reject_a_target_outside_float64(k, z, p, coefficient):
    # the fitter works in float64: a coefficient that overflows, or rounds
    # to 0 and would make the target Z = 0, is invalid input, named
    target = to_rational_fn(CanonicalBiquad(k, z, p))
    with pytest.raises(ValueError, match=re.escape(coefficient)):
        falsify_small(target, 2)
    with pytest.raises(ValueError, match="float64"):
        fit_topology(series(Leaf("R"), Leaf("L")), target)


@pytest.mark.parametrize("special", ["inf", "-inf", "nan"])
def test_falsify_and_fit_reject_an_infinite_or_nan_coefficient(special):
    # an mpf inf or nan stores mantissa 0: read as the value 0, this target
    # would be (1 + s^2)/(s + 2)^2, whose premises the filters would decide
    target = RationalFn(Poly([1, mpf(special), 1]), Poly([4, 4, 1]))
    with pytest.raises(ValueError, match="has no exact value"):
        falsify_small(target, 2)
    with pytest.raises(ValueError, match="has no exact value"):
        fit_topology(series(Leaf("R"), Leaf("L")), target)


def test_the_float64_range_of_the_target_is_decided_exactly():
    # a coefficient fits where float() gives a finite nonzero float64
    tiny, huge = F(1, 2**1075), F(2**1024 - 2**970)
    for c in (tiny, tiny * (1 + F(1, 2**60)), huge, huge - 1, QuadraticRational(huge, -1, 2)):
        try:
            fits = float(c) != 0
        except OverflowError:
            fits = False
        assert fits == (c not in (tiny, huge))
        if fits:
            assert _exact_target(RationalFn(Poly([c]), Poly([F(1)]))).num.coeffs == (c,)
        else:
            with pytest.raises(ValueError, match="float64"):
                _exact_target(RationalFn(Poly([-c]), Poly([F(1)])))


def test_a_quadratic_irrational_target_with_a_zero_coefficient_fits():
    # (1 + sqrt2)(s^2 + 1) / (s + 1): its s^1 coefficient is a zero
    # QuadraticRational, which lies inside float64's range like any zero
    target = RationalFn(Poly([1, 0, 1]) * QuadraticRational(1, 1, 2), Poly([1, 1]))
    assert _exact_target(target) == target
    assert fit_topology(series(Leaf("R"), Leaf("L")), target).residual > 0
    assert falsify_small(target, 2)["entries"]


def test_falsify_takes_the_float64_range_of_the_reduced_target():
    # num and den scaled by 10^400 alike: the reduced target is s + 1
    scale = 10**400
    report = falsify_small(RF((scale, scale), (scale,)), 2, stop_at_first_success=True)
    assert report["any_success"]


def test_falsify_small_rejects_large_n():
    with pytest.raises(ValueError):
        falsify_small(RF((1,), (1,)), 6)


def test_falsify_and_fit_reject_nonsense_counts():
    target = RF((1,), (1,))
    for n_max in (0, -1):
        with pytest.raises(ValueError):
            falsify_small(target, n_max)
    for counts in ({"budget": 0}, {"budget": -5}, {"starts": 0}, {"budget": 47}):
        with pytest.raises(ValueError):
            falsify_small(target, 1, **counts)
        with pytest.raises(ValueError):
            fit_topology(series(Leaf("R"), Leaf("L")), target, **counts)


@pytest.mark.parametrize("seed", [-1, -1000003, 1.0, 0.5, "0", None])
def test_falsify_and_fit_reject_a_seed_that_is_not_a_non_negative_integer(seed):
    # random.Random would take abs() of a negative seed and hash the others
    target = RF((1,), (1,))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        falsify_small(target, 1, seed=seed)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        fit_topology(series(Leaf("R"), Leaf("L")), target, seed=seed)


def test_a_numpy_integer_seed_fits_as_the_int():
    target = RF((1, 2, 1), (4, 4, 1))
    assert falsify_small(target, 2, seed=np.int64(3)) == falsify_small(target, 2, seed=3)


def test_the_starts_are_the_standard_librarys_gaussian_stream():
    # N(0, 2^2) from random.Random(seed), row by row: a change to CPython's
    # gauss() or to the seeds that falsify_small gives its templates
    # (seed * 1000003 + index) changes every fit, and fails here first
    assert verify._starts(0, 1, 3) == [[1.8834308093613288, -2.7931562094022997, -1.3594288961568421]]
    assert verify._starts(1000003, 1, 3) == [[-1.7482137049164292, -0.17500224725224328, 1.7690789752139358]]
    rows = verify._starts(0, 2, 3)
    assert rows[0] == verify._starts(0, 1, 3)[0] and len(rows[1]) == 3


def test_verify_numeric_takes_the_field_of_net_and_target():
    net = series(Leaf("R", 1), Leaf("L", 1))
    # an exact net against an mpf target compares in mpf
    ok, residual = verify_numeric(net, RationalFn(Poly([mpf(1), mpf(1)]), Poly([mpf(1)])))
    assert ok and isinstance(residual, mpf) and residual == 0
    # QuadraticRational values against a Fraction target stay exact, so a
    # zero tolerance holds
    q = QuadraticRational(1, 1, 2)
    qnet = series(Leaf("R", q), Leaf("R", 3 - q), Leaf("L", 1))
    ok, residual = verify_numeric(qnet, RF((3, 1), (1,)), tol=0)
    assert ok and residual == 0 and not isinstance(residual, mpf)
    # an exact residual is compared with an mpf tolerance in mpf
    ok, residual = verify_numeric(Leaf("R", 2), RF((3,), (1,)), tol=mpf("0.5"))
    assert ok and residual == F(1, 3)
    ok, _ = verify_numeric(Leaf("R", 2), RF((3,), (1,)), tol=mpf("0.3"))
    assert not ok


def test_coefficient_residual_takes_the_field_of_its_coefficients():
    exact = coefficient_residual(Poly([1, 2]), Poly([1, F(3)]))
    assert exact == F(1, 3) and isinstance(exact, Fraction)
    with mp.workprec(128):
        numeric = coefficient_residual(Poly([mpf(1), mpf(2)]), Poly([1, F(3)]))
        assert isinstance(numeric, mpf) and abs(numeric - mpf(1) / 3) <= mpf(2) ** -120


def test_budget_bounds_residual_evaluations():
    # every start evaluates its initial point and at least one step, with
    # one Jacobian evaluation fewer than residual evaluations at most
    target = RF((1, 2, 1), (4, 4, 1))
    report = falsify_small(target, 3, budget=48)
    fitted = [e for e in report["entries"] if not e["filtered"]]
    assert fitted and all(e["evaluations"] < 96 for e in fitted)


def test_an_mpf_target_and_its_exact_twin_give_one_report():
    # the fitter takes an mpf coefficient as the dyadic rational it stores,
    # as the filter premises do: the Fraction of each gives the same report
    with mp.workprec(128):
        biquad = CanonicalBiquad(mpf(1), mpf(1) / 3, mpf(7) / 9)
        target = to_rational_fn(biquad)
    twin = RationalFn(*(Poly([F(c.man) * F(2) ** c.exp for c in poly.coeffs]) for poly in (target.num, target.den)))
    assert twin.num.coeffs[0] != F(1, 9)  # 1/9 rounded to 128 bits
    report = falsify_small(target, 3, seed=3)
    assert any(not e["filtered"] for e in report["entries"])
    assert report == falsify_small(twin, 3, seed=3)


def test_quadratic_rational_target_fits():
    # eta = 2 + sqrt2 exactly: five elements, so no fit of three succeeds
    report = falsify_small(to_rational_fn(CanonicalBiquad(1, 1, QuadraticRational(2, 1, 2))), 3)
    assert report["complete"] and not report["any_success"]
    target = to_rational_fn(CanonicalBiquad(1, 1, QuadraticRational(3, 2, 2)))
    assert not fit_topology(series(Leaf("R"), Leaf("L")), target).success


# rational targets (alpha s^2 + beta s + gamma)/(s+p)^2 on the lemma
# conditions, gamma solved for where the condition is linear in it, with
# (element count, condition number)
_LEMMA_TARGETS = [
    (PoleSquaredForm(0, 2, 0, 1), (3, 1)),  # alpha = gamma = 0
    (PoleSquaredForm(1, 0, 1 * 2**2, 2), (3, 2)),  # beta = 0, gamma = alpha p^2
    (PoleSquaredForm(2, 1, 0, 1), (3, 3)),  # gamma = 0, alpha p = 2 beta
    (PoleSquaredForm(0, 1, 2 * 1 * 3, 3), (3, 4)),  # alpha = 0, gamma = 2 beta p
    (PoleSquaredForm(1, 3, 3 * 1 - 1 * 1**2, 1), (3, 5)),  # gamma = beta p - alpha p^2
    (PoleSquaredForm(1, 1, 1 * 1**2, 1), (4, 3)),  # gamma = alpha p^2
    (PoleSquaredForm(1, F(5, 2), 2 * F(5, 2) - 3, 1), (4, 4)),  # gamma = 2 beta p - 3 alpha p^2
    # off every three- and four-element locus (on five-element condition 1)
    (PoleSquaredForm(1, 5, F(1, 2), 1), None),
]


def _smallest_lemma(target):
    ok, i = lemma_three_element(target)
    if ok:
        return 3, i
    ok, i = lemma_four_element(target)
    return (4, i) if ok else None


@pytest.mark.parametrize("target, lemma", _LEMMA_TARGETS)
def test_lemmas_agree_with_the_falsifier(target, lemma):
    # the first fit that succeeds has the lemma's element count, and off the
    # loci no fit of up to four elements succeeds
    assert _smallest_lemma(target) == lemma
    size = 4 if lemma is None else lemma[0]
    report = falsify_small(to_rational_fn(target), size, stop_at_first_success=True)
    wins = [e["elements"] for e in report["entries"] if e["success"]]
    assert wins == ([] if lemma is None else [size])


SRC = Path(__file__).resolve().parent.parent / "src"
FALSIFY_T12 = """
import json
from fractions import Fraction as F
from biquadrlc.ratpoly import Poly, RationalFn
from biquadrlc.verify import falsify_small
target = RationalFn(Poly([F(1), F(2), F(1)]), Poly([F(4), F(4), F(1)]))
print(json.dumps(falsify_small(target, 3, seed=7)))
"""


def _fresh_stdout(args, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def test_cached_preparation_leaves_reports_as_in_a_fresh_process():
    # falsify_small keeps the labelings, their verdicts and the templates'
    # terms per process: after other targets, and after their reports are
    # mutated, target_12 gets the report of a fresh process
    fresh = json.loads(_fresh_stdout(["-c", FALSIFY_T12], 0))
    for other in (RF((1, 1), (1,)), to_rational_fn(CanonicalBiquad(1, 1, 3)), RF((1, 2, 1), (4, 4, 1))):
        report = falsify_small(other, 3, seed=7)
        for entry in report["entries"]:
            entry["topology"].clear()
            entry["filter"] = "mutated"
        report["entries"].clear()
        report["filters"]["applied"].append("mutated")
    target = RF((1, 2, 1), (4, 4, 1))
    assert json.loads(json.dumps(falsify_small(target, 3, seed=7))) == fresh


def test_fits_repeat_across_processes_and_hash_seeds():
    # the report, evaluation counts and last digits included, depends on the
    # seed alone: not on the process or its hash seed
    first, second = (json.loads(_fresh_stdout(["-c", FALSIFY_T12], h)) for h in (0, 1))
    assert first == second
    target = json.dumps({"num": ["1", "2", "1"], "den": ["4", "4", "1"]})
    cli = ["-m", "biquadrlc.cli", "falsify", "--target", target, "--nmax", "2"]
    assert _fresh_stdout(cli, 0) == _fresh_stdout(cli, 1)
    # the path on which a certified success stops the templates after it
    eta_3 = json.dumps({"k": "1", "z": "1", "p": "3"})
    cli = ["-m", "biquadrlc.cli", "falsify", "--target", eta_3, "--nmax", "4", "--stop-at-first-success"]
    assert _fresh_stdout(cli, 0) == _fresh_stdout(cli, 1)


def test_a_full_falsify_run_prints_the_same_bytes_at_any_hash_seed():
    # every template of up to four elements, no early exit
    eta_3 = json.dumps({"k": "1", "z": "1", "p": "3"})
    cli = ["-m", "biquadrlc.cli", "falsify", "--target", eta_3, "--nmax", "4"]
    assert _fresh_stdout(cli, 0) == _fresh_stdout(cli, 1)


def test_floor_report_is_independent_of_the_hash_seed():
    # set and dict orders follow PYTHONHASHSEED; the fits must not
    first, second = (json.loads(_fresh_stdout(["-c", FALSIFY_T12], h)) for h in (0, 12345))
    assert first == second
