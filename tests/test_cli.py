"""CLI tests (in-process via main(), and in a subprocess where the
process's own streams matter)."""

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquadrlc import realize
from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.check import verify_exact, verify_numeric
from biquadrlc.cli import MAX_PRECISION_BITS, main
from biquadrlc.network import from_netlist_json
from biquadrlc.ratpoly import working_tol, workprec
from biquadrlc.realize import N4A_QUARTIC
from boundaries import BOUNDARIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_classify_four_element(capsys):
    code, data = run_json(capsys, "classify", "--k", "1", "--z", "1", "--p", "3")
    assert code == 0
    assert data["class"] == "FourElement"


def test_classify_rejects_p_equal_z(capsys):
    code = main(["classify", "--k", "1", "--z", "1", "--p", "1"])
    assert code == 2


def test_classify_not_positive_real_exit(capsys):
    code, data = run_json(capsys, "classify", "--k", "1", "--z", "1", "--p", "6")
    assert code == 1
    assert data["class"] == "NotPositiveReal"


def test_classify_unknown_exit(capsys):
    code, data = run_json(capsys, "classify", "--k", "1", "--z", "1", "--p", "5.5")
    assert code == 1
    assert data["class"] == "UnknownWithinScope"


def test_enumerate_counts(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert data["count"] == 10


def test_enumerate_labeled_filters(capsys):
    code, data = run_json(
        capsys,
        "enumerate",
        "--n",
        "3",
        "--filters",
        "cutset,reactive-arm,mergeable,reactive-count=2,min-resistors=1",
    )
    assert code == 0
    assert data["count"] == 4


@pytest.mark.parametrize("count", ["-1", "x", "1_0", "+2", "", " 3", "2.0", "\u0663"])
@pytest.mark.parametrize("name", ["min-resistors", "reactive-count"])
def test_enumerate_filter_counts_must_be_plain_digits(capsys, name, count):
    spec = "%s=%s" % (name, count)
    assert main(["enumerate", "--n", "3", "--filters", "cutset," + spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "filter %r: expected %s=N with N a count in plain digits" % (spec.strip(), name)
    }


def test_enumerate_filter_counts_read_plain_digits(capsys):
    _, plain = run_json(capsys, "enumerate", "--n", "3", "--filters", "reactive-count=2,min-resistors=1")
    _, padded = run_json(capsys, "enumerate", "--n", "3", "--filters", "reactive-count=02,min-resistors=001")
    assert plain["count"] == padded["count"] > 0
    _, none = run_json(capsys, "enumerate", "--n", "3", "--filters", "min-resistors=4")
    assert none["count"] == 0


def test_synth_verify_roundtrip(capsys):
    code, data = run_json(capsys, "synth", "--k", "1", "--z", "1", "--p", "5")
    assert code == 0
    assert data["config"] == "fig3a"
    netlist = json.dumps(data["netlist"])
    target = json.dumps({"k": "1", "z": "1", "p": "5"})
    code, result = run_json(capsys, "verify", netlist, "--target", target)
    assert code == 0
    assert result["ok"] is True


def test_verify_reports_the_residual_of_the_unreduced_impedance(capsys):
    # R + ((R1 + L) || (R1 + C)) with R1^2 = L / C: Z has the common factor
    # s + 4/5, which the residual keeps, as the same network's mpf twin does
    element = lambda kind, value: {"type": "element", "kind": kind, "value": value}
    arm = lambda kind, value: {"type": "series", "children": [element("R", "1/4"), element(kind, value)]}
    netlist = {"type": "series", "children": [
        element("R", "2/3"), {"type": "parallel", "children": [arm("L", "5/16"), arm("C", "5")]}]}
    target = {"num": ["6/5", "9/5", "7/5"], "den": ["4/5", "1", "1"]}
    code, result = run_json(capsys, "verify", json.dumps(netlist), "--target", json.dumps(target))
    assert (code, result) == (1, {"ok": False, "residual": "821/1866"})


def test_synth_forced_config_rejects(capsys):
    code = main(["synth", "--k", "1", "--z", "1", "--p", "2", "--config", "fig3a"])
    assert code == 1


def test_synth_no_closed_form_for_five_element(capsys):
    code, data = run_json(capsys, "synth", "--k", "1", "--z", "1", "--p", "2")
    assert code == 1
    assert "error" in data


def test_impedance_inline_netlist(capsys):
    netlist = json.dumps(
        {
            "type": "series",
            "children": [
                {"type": "element", "kind": "R", "value": "1"},
                {"type": "element", "kind": "L", "value": "1"},
            ],
        }
    )
    code, data = run_json(capsys, "impedance", netlist)
    assert code == 0
    assert data == {"num": ["1", "1"], "den": ["1"]}


def test_transform_dual_twice_is_identity(capsys):
    netlist = json.dumps(
        {
            "type": "series",
            "children": [
                {"type": "element", "kind": "R", "value": "2"},
                {"type": "element", "kind": "L", "value": "3"},
            ],
        }
    )
    code, once = run_json(capsys, "transform", "--op", "dual", netlist)
    assert code == 0
    code, twice = run_json(capsys, "transform", "--op", "dual", json.dumps(once["netlist"]))
    assert code == 0
    assert json.dumps(twice["netlist"], sort_keys=True) == json.dumps(
        json.loads(netlist), sort_keys=True
    )


def test_roots_count_and_isolation(capsys):
    poly = json.dumps(N4A_QUARTIC.to_json())
    code, data = run_json(
        capsys, "roots", "--poly", poly, "--lo", "0.15", "--hi", "0.2", "--width", "1e-12"
    )
    assert code == 0
    assert data["count"] == 1
    lo, hi = data["interval"]
    assert "/" in lo or "." in lo  # exact rational endpoints
    assert float(data["midpoint"]) == pytest.approx(0.175002518, abs=1e-8)


@pytest.mark.parametrize("bits", ["64", "256"])
def test_roots_prints_the_readme_midpoint_at_every_precision(capsys, bits):
    # the exact midpoint's 50 digits, from integers, whatever the precision
    code, data = run_json(capsys, "--precision-bits", bits, "roots", "--poly", '["1","-10","31","-40","16"]',
                          "--lo", "0.15", "--hi", "0.2")
    assert code == 0
    assert data["midpoint"] == "0.17500251816359951415268532946331786130145343931541"


@pytest.mark.parametrize("lo, count", [("1.5", 0), ("0", 1), ("-2", 2)])
@pytest.mark.parametrize("width", ["0", "-1", "-1e-30"])
def test_roots_with_a_width_that_is_not_positive_is_invalid_input(capsys, lo, count, width):
    # whatever the window holds: x^2 - 2 has 0, 1 or 2 roots in (lo, 2]
    capsys.readouterr()
    poly = '["-2","0","1"]'
    code, data = run_json(capsys, "roots", "--poly", poly, "--lo", lo, "--hi", "2")
    assert (code, data["count"]) == (0, count)
    assert main(["roots", "--poly", poly, "--lo", lo, "--hi", "2", "--width", width]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "width must be positive"}


def test_roots_leaves_out_a_root_at_lo(capsys):
    # x^2 - x: (0, 2] holds the one root 1, though 0 is a root too
    code, data = run_json(capsys, "roots", "--poly", '["0","-1","1"]', "--lo", "0", "--hi", "2")
    assert (code, data["count"]) == (0, 1)
    lo, hi = (Fraction(v) for v in data["interval"])
    assert 0 < lo <= 1 <= hi <= 2


@pytest.mark.parametrize("lo, count", [("-3/2", 2), ("-1e-3", 1), ("-1", 1), ("-0.5", 1)])
def test_a_negative_value_in_any_form_is_a_value(capsys, lo, count):
    # argparse alone reads only "-1" and "-0.5" as numbers, and "-3/2" or
    # "-1e-3" as an unknown option; x^2 - 2 has its roots at -1.414 and 1.414
    code, data = run_json(capsys, "roots", "--poly", '["-2","0","1"]', "--lo", lo, "--hi", "2")
    assert (code, data["count"]) == (0, count)
    assert run_json(capsys, "roots", "--poly", '["-2","0","1"]', "--lo=" + lo, "--hi", "2") == (code, data)


@pytest.mark.parametrize("argv, message", [
    (["classify", "--k", "1"], "the following arguments are required: --z, --p"),
    (["--precision-bits", "abc", "classify", "--k", "1", "--z", "1", "--p", "5"],
     "argument --precision-bits: invalid int value: 'abc'"),
    (["classify", "--k", "1", "--z", "1", "--p", "5", "--bogus"], "unrecognized arguments: --bogus"),
    (["roots", "--poly", "[]", "--lo", "-x", "--hi", "1"], "argument --lo: expected one argument"),
    ([], "the following arguments are required: command"),
])
def test_a_usage_error_is_invalid_input(capsys, argv, message):
    # one JSON line on stderr and exit 2, as for any other invalid input
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and json.loads(captured.err) == {"error": message}


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: biquadrlc roots") and captured.err == ""


def test_pr_check(capsys):
    code, data = run_json(capsys, "pr-check", "--target", json.dumps({"k": "1", "z": "1", "p": "3"}))
    assert code == 0 and data["positive_real"] is True
    code, data = run_json(capsys, "pr-check", "--target", json.dumps({"k": "1", "z": "1", "p": "6"}))
    assert code == 1 and data["positive_real"] is False


def test_falsify_cli_small(capsys):
    target = json.dumps({"num": ["1", "2", "1"], "den": ["4", "4", "1"]})
    code, data = run_json(capsys, "falsify", "--target", target, "--nmax", "2")
    assert code == 0
    assert data["any_success"] is False


def test_falsify_runs_only_the_filters_whose_premise_holds(capsys):
    # Z = s + 1 is R + L: its pole at s = inf switches off the three rules
    # that assume finite Z(0) and Z(inf), one of which dropped R + L
    target = json.dumps({"num": ["1", "1"], "den": ["1"]})
    code, data = run_json(capsys, "falsify", "--target", target, "--nmax", "2")
    assert code == 0 and data["any_success"] is True
    assert data["filters"]["skipped"] == ["cutset", "reactive-arm", "ends-order"]
    wins = [e for e in data["entries"] if e["success"]]
    assert [w["topology"]["type"] for w in wins] == ["series"]


def test_falsify_with_every_labeling_filtered_exits_0_without_a_floor(capsys):
    # at n <= 2 the rules leave only R for eta = 2, and ends-order drops it:
    # that no network of at most two elements realizes the target is exact
    target = json.dumps({"k": "1", "z": "1", "p": "2"})
    code, data = run_json(capsys, "falsify", "--target", target, "--nmax", "2")
    assert code == 0 and data["best_residual"] is None and data["any_success"] is False and data["complete"]
    assert data["filters"]["applied"][-1] == "ends-order" and all(e["filtered"] for e in data["entries"])


def test_enumerate_spells_the_ends_order_rule(capsys):
    rules = "cutset,reactive-arm,mergeable,reactive-path,reactive-branch,twin"
    counts = [run_json(capsys, "enumerate", "--n", "5", "--filters", rules + order)[1]["count"]
              for order in ("", ",ends-order=rising", ",ends-order=flat", ",ends-order=falling")]
    assert counts == [53, 27, 17, 27]
    assert main(["enumerate", "--n", "3", "--filters", "ends-order=up"]) == 2
    assert "ends-order=rising, flat or falling" in json.loads(capsys.readouterr().err)["error"]


def test_falsify_rejects_the_zero_target(capsys):
    # Z = 0 is no network of positive elements; a fit at the log-value clip
    # would certify a limit network that does not exist
    code = main(["falsify", "--target", json.dumps({"num": ["0"], "den": ["1"]}), "--nmax", "3"])
    assert code == 2
    assert "Z = 0" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("target", [{"k": "1e400", "z": "1", "p": "2"}, {"k": "1", "z": "1e200", "p": "2e200"},
                                    {"k": "1e-400", "z": "1", "p": "2"}])
def test_falsify_of_a_target_outside_float64_is_invalid_input(capsys, target):
    # one JSON error line, no traceback, exit 2
    capsys.readouterr()
    assert main(["falsify", "--target", json.dumps(target), "--nmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "float64" in json.loads(captured.err)["error"]


def test_falsify_with_a_negative_seed_is_invalid_input(capsys):
    capsys.readouterr()
    target = json.dumps({"k": "1", "z": "1", "p": "2"})
    assert main(["falsify", "--target", target, "--nmax", "2", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "seed must be a non-negative integer" in json.loads(captured.err)["error"]


def test_falsify_defaults_to_a_tolerance_a_fit_can_meet(capsys):
    # the fits are float64, certified at 128 bits: without --tol, falsify
    # takes falsify_small's 1e-8, not the 1e-20 of the other commands
    falsify = ["falsify", "--target", json.dumps({"k": "1", "z": "1", "p": "3"}), "--nmax", "4",
               "--stop-at-first-success"]
    code, data = run_json(capsys, *falsify)
    assert code == 0 and data["any_success"] is True and data["complete"] is False
    assert data["entries"][-1]["success"] and data["entries"][-1]["elements"] == 4
    # a --tol given before or after the subcommand still applies
    for argv in (["--tol", "1e-20"] + falsify, falsify + ["--tol", "1e-20"]):
        code, data = run_json(capsys, *argv)
        assert code == 0 and data["any_success"] is False


def test_synth_n4a_from_decimal_root_literal(capsys):
    # a long exact-decimal approximation of the condition root is accepted
    # by the |value| <= 1e-20 equality convention
    import mpmath
    from mpmath import mp

    from biquadrlc.realize import n4a_root_interval

    lo, hi = n4a_root_interval()
    mid = (lo + hi) / 2
    with mp.workprec(256):
        p_str = mpmath.nstr(mpmath.mpf(mid.numerator) / mid.denominator, 45)
    code, data = run_json(
        capsys, "synth", "--k", "1", "--z", "1", "--p", p_str, "--config", "n4a"
    )
    assert code == 0
    assert float(data["residual"]) <= 1e-20


def test_spice_format_output(capsys):
    code, out = run(capsys, "--format", "spice", "synth", "--k", "1", "--z", "1", "--p", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].split()[1:3] == ["1", "2"]


def test_file_path_inputs(tmp_path, capsys):
    netlist = {
        "type": "series",
        "children": [
            {"type": "element", "kind": "R", "value": "1"},
            {"type": "element", "kind": "L", "value": "1"},
        ],
    }
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(netlist))
    target_file = tmp_path / "target.json"
    target_file.write_text(json.dumps({"num": ["1", "1"], "den": ["1"]}))
    code, data = run_json(capsys, "verify", str(net_file), "--target", str(target_file))
    assert code == 0 and data["ok"] is True
    assert main(["verify", str(tmp_path / "missing.json"), "--target", str(target_file)]) == 2


def test_precision_bits_flag_flows_through(capsys):
    code, data = run_json(
        capsys, "synth", "--k", "1", "--z", "1", "--p", "5", "--precision-bits", "128"
    )
    assert code == 0
    assert data["precision_bits"] == 128
    assert float(data["residual"]) <= 1e-30
    assert main(["--precision-bits", "32", "classify", "--k", "1", "--z", "1", "--p", "3"]) == 2


def test_transform_spice_format(capsys):
    netlist = json.dumps(
        {
            "type": "series",
            "children": [
                {"type": "element", "kind": "R", "value": "2"},
                {"type": "element", "kind": "L", "value": "3"},
            ],
        }
    )
    code, out = run(capsys, "--format", "spice", "transform", "--op", "dual", netlist)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    kinds = {ln[0] for ln in lines}
    assert kinds == {"R", "C"}


def test_output_is_deterministic(capsys):
    # diff-stable output: identical invocations produce identical bytes
    a = run(capsys, "classify", "--k", "1", "--z", "1", "--p", "5")
    b = run(capsys, "classify", "--k", "1", "--z", "1", "--p", "5")
    assert a == b
    target = json.dumps({"num": ["1", "2", "1"], "den": ["4", "4", "1"]})
    fa = run(capsys, "--seed", "3", "falsify", "--target", target, "--nmax", "2")
    fb = run(capsys, "--seed", "3", "falsify", "--target", target, "--nmax", "2")
    assert fa == fb


def test_invalid_inputs_exit_2(capsys):
    assert main(["classify", "--k", "abc", "--z", "1", "--p", "3"]) == 2
    assert main(["impedance", "{not json"]) == 2
    assert main(["enumerate", "--n", "99"]) == 2
    assert main(["roots", "--poly", "[]", "--lo", "0", "--hi", "1"]) == 2
    # a leaf kind outside R/L/C, a value on an unlabeled slot or a value that
    # is not > 0 is rejected where the netlist is parsed
    capsys.readouterr()
    for kind, value in (("R", "-3"), ("X", None), ("X", "1"), (None, "2"), ("R", "-1"),
                        ("R", "0"), ("L", 0)):
        bad_netlist = json.dumps({"type": "element", "kind": kind, "value": value})
        for command in (["impedance"], ["transform", "--op", "inv"], ["transform", "--op", "dual"],
                        ["transform", "--op", "gdu"]):
            assert main(command + [bad_netlist]) == 2, (command, kind, value)
            assert "invalid netlist" in json.loads(capsys.readouterr().err)["error"]
    falsify = ["falsify", "--target", json.dumps({"num": ["1"], "den": ["1"]})]
    for counts in (["--nmax", "0"], ["--nmax", "-1"], ["--nmax", "6"],
                   ["--nmax", "1", "--budget", "0"], ["--nmax", "1", "--budget", "-5"],
                   ["--nmax", "1", "--budget", "47"]):
        assert main(falsify + counts) == 2, counts


@pytest.mark.parametrize("p", ["5", "1/5"])
@pytest.mark.parametrize("command", ["classify", "synth"])
def test_precision_64_synthesis_self_verifies(capsys, command, p):
    # 64 bits is the documented minimum; the default tolerance follows it
    code, data = run_json(capsys, "--precision-bits", "64", command, "--k", "1", "--z", "1", "--p", p)
    assert code == 0
    net = from_netlist_json(data["network" if command == "classify" else "netlist"])
    target = to_rational_fn(CanonicalBiquad(Fraction(1), Fraction(1), Fraction(p)))
    ok, residual = verify_numeric(net, target, tol=working_tol(64), precision_bits=64)
    assert ok and residual > 0


# p/z of rational fig3a targets, directly (p/z > 3) and through inv (p/z < 1/3)
RATIONAL_FIG3A = ["5", "1/5", "31/7", "4", "9/2", "7/2", "21/4", "1/4", "2/7", "3/10", "53/10", "16/5", "5/16"]
K_Z = [("1", "1"), ("3", "7/5"), ("137/100", "211/100"), ("2/9", "5")]


@pytest.mark.parametrize("bits", ["64", "128", "256", str(MAX_PRECISION_BITS)])
def test_rational_catalog_targets_verify_exactly_at_every_precision(capsys, bits):
    # each p/z with two of the (k, z) pairs, every pair with every p/z twice
    for i, eta in enumerate(RATIONAL_FIG3A):
        for k, z in (K_Z[i % 4], K_Z[(i + 2) % 4]):
            p = str(Fraction(eta) * Fraction(z))
            target = ["--k", k, "--z", z, "--p", p]
            for command in ("classify", "synth"):
                code, data = run_json(capsys, "--precision-bits", bits, command, *target)
                assert (code, data["config"], data["residual"]) == (0, "fig3a", "0"), (command, target)
            b = CanonicalBiquad(*(Fraction(v) for v in (k, z, p)))
            assert verify_exact(realize.classify(b, precision_bits=int(bits)).network, to_rational_fn(b))


def test_default_tol_follows_precision():
    assert working_tol(64) == Fraction(1, 2**48)
    assert working_tol(82) == Fraction(1, 2**66)
    for bits in (83, 128, 256, 1024):
        assert working_tol(bits) == Fraction(1, 10**20)
    # without bits, the working precision
    for bits in (64, 256):
        with workprec(bits):
            assert working_tol() == working_tol(bits)


@pytest.mark.parametrize("bits", ["128", "256"])
@pytest.mark.parametrize("config, p", [("n4a", "0.17500251816359951415"),
                                       ("n5a", "0.18540003985756203903")])
def test_band_accepted_decimal_off_the_locus_exits_1(capsys, config, p, bits):
    # 20 digits put p inside the 1e-20 band of the locus, but too far off it
    # for the synthesized network to verify within the default 1e-20
    target = ["--k", "1", "--z", "1", "--p", p]
    for argv in (["classify"] + target, ["synth"] + target + ["--config", config]):
        assert main(["--precision-bits", bits] + argv) == 1, argv
        captured = capsys.readouterr()
        error = json.loads(captured.err or captured.out)["error"]
        assert "band of the %s locus" % config in error


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(BOUNDARIES)),
    st.sampled_from(["classify", "synth"]),
    st.integers(64, 256),
    st.integers(6, 60),
    st.one_of(st.just(0), st.integers(3, 80)),
    st.sampled_from([1, -1]),
)
def test_decimals_near_every_boundary_end_in_a_documented_exit_code(name, command, bits, places, digits,
                                                                    sign):
    # p a decimal of `places` significant digits of eta, or of eta 10^-digits
    # off it relatively: exit 0 with a class on either side of the boundary
    # (and a network from synth), or exit 1 with a negative class, a class
    # that synth has no network for, or a target that the band puts on an
    # n4a/n5a locus and that its network misses; never 2 or 3
    eta_at, on_boundary, near = BOUNDARIES[name]
    with mpmath.mp.workprec(300):
        eta = eta_at() * (1 + sign * (mpmath.mpf(10) ** -digits if digits else 0))
        p = mpmath.nstr(eta, places, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--precision-bits", str(bits), command, "--k", "1", "--z", "1", "--p", p])
    if err.getvalue():
        assert code == 1 and out.getvalue() == ""
        assert on_boundary and "band of the %s locus" % on_boundary[1] in json.loads(err.getvalue())["error"]
        return
    data = json.loads(out.getvalue())
    if command == "classify":
        assert data["class"] in near
        assert code == (1 if data["class"] in ("NotPositiveReal", "UnknownWithinScope") else 0)
    elif code == 1:
        assert data["class"] in near and data["error"].startswith("no closed-form synthesis")
    else:
        assert code == 0 and data["config"] in ("fig3a", "n4a", "n5a") and data["netlist"]


def test_failed_self_verification_exits_3(capsys, monkeypatch):
    # a rational catalog target verifies exactly at every precision, so no
    # documented input fails the re-verification: the failure is injected
    verify = realize.verify_numeric
    monkeypatch.setattr(realize, "verify_numeric", lambda *args, **kw: (False, verify(*args, **kw)[1]))
    target = ["--k", "1", "--z", "1", "--p", "5"]
    for argv in (["synth"] + target, ["synth"] + target + ["--config", "fig3a"], ["classify"] + target):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed verification" in json.loads(captured.err)["error"]


def _leaf(value):
    return json.dumps({"type": "element", "kind": "R", "value": value})


# every numeric entry point, with {} where the number goes; an R = inf leaf
# under "verify-netlist-value" must not verify
NUMERIC_ENTRY_POINTS = {
    "k": ["classify", "--k={}", "--z=1", "--p=5"],
    "z": ["synth", "--k=1", "--z={}", "--p=5"],
    "p": ["classify", "--k=1", "--z=1", "--p={}"],
    "tol": ["--tol={}", "classify", "--k=1", "--z=1", "--p=5"],
    "roots-lo": ["roots", '--poly=["-1","0","4"]', "--lo={}", "--hi=0.2"],
    "roots-hi": ["roots", '--poly=["-1","0","4"]', "--lo=0.15", "--hi={}"],
    "roots-width": ["roots", '--poly=["-1","0","4"]', "--lo=0", "--hi=1", "--width={}"],
    "roots-poly": ["roots", '--poly=["-1","{}","1"]', "--lo=0", "--hi=1"],
    "netlist-value": ["impedance", _leaf("{}")],
    "verify-netlist-value": ["verify", _leaf("{}"), '--target={"num":["1"],"den":["1"]}'],
    "target-canonical": ["verify", _leaf("1"), '--target={"k":"{}","z":"1","p":"5"}'],
    "target-general": ["pr-check", '--target={"A":"1","B":"{}","C":"1","D":"1","E":"1","F":"1"}'],
    "target-pole-squared": ["pr-check", '--target={"alpha":"1","beta":"1","gamma":"{}","p":"2"}'],
    "target-num": ["verify", _leaf("1"), '--target={"num":["{}"],"den":["1"]}'],
    "target-den": ["falsify", '--target={"num":["1"],"den":["{}"]}', "--nmax=1"],
}


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity", "1/0", "abc"])
@pytest.mark.parametrize("entry", sorted(NUMERIC_ENTRY_POINTS))
def test_unparseable_numbers_exit_2(capsys, entry, text):
    # an exception escaping main() would fail the test with its traceback
    argv = [arg.replace("{}", text) for arg in NUMERIC_ENTRY_POINTS[entry]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["impedance", "[1]"],
        ["pr-check", "--target", "[{}]"],
        ["verify", '{"type":"series","children":[]}', "--target", '{"k":"1","z":"1","p":"5"}'],
        ["impedance", '{"type":"series","children":5}'],
        ["verify", _leaf("1"), "--target", '{"num":5,"den":["1"]}'],
    ],
)
def test_malformed_json_exits_2(capsys, argv):
    # an exception escaping main() would fail the test with its traceback
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    assert "Traceback" not in captured.err


def test_numeric_entry_points_accept_their_valid_forms(capsys):
    # the templates above are well formed: a valid number in each slot does
    # not exit 2
    for entry, template in sorted(NUMERIC_ENTRY_POINTS.items()):
        argv = [arg.replace("{}", "0.1" if entry == "roots-lo" else "0.25") for arg in template]
        assert main(argv) in (0, 1), entry
        capsys.readouterr()


def test_decimal_netlist_values_are_exact(capsys):
    code, data = run_json(capsys, "impedance", _leaf("0.5"))
    assert code == 0
    assert data == {"num": ["1/2"], "den": ["1"]}


def _nested_netlist(depth):
    # a series chain ``depth`` levels deep, written out as text: json.dumps
    # would itself exceed the recursion limit
    return '{"type":"series","children":[' * depth + _leaf("1") + ("," + _leaf("1") + "]}") * depth


@pytest.mark.parametrize("depth", [600, 2000])
@pytest.mark.parametrize("command", ["impedance", "verify", "transform"])
def test_a_netlist_nested_too_deeply_is_invalid_input(capsys, command, depth):
    # too deep for json.loads, or for the library's own walk of the tree:
    # invalid input, exit 2 with one JSON line, not an internal fault (3)
    netlist = _nested_netlist(depth)
    argv = {"impedance": ["impedance", netlist], "transform": ["transform", "--op", "inv", netlist],
            "verify": ["verify", netlist, "--target", '{"k":"1","z":"1","p":"5"}']}[command]
    code, out, err = in_process(capsys, argv)
    assert (code, out) == (2, b"")
    lines = err.decode().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"].startswith("input nested too deeply")


def test_exact_values_above_the_int_to_str_limit_print(capsys):
    # a 2001-digit p: the condition values have more than Python's 4300 digits
    code, data = run_json(capsys, "classify", "--k", "1", "--z", "1", "--p", "1e2000")
    assert (code, data["class"], len(data["conditions"])) == (1, "NotPositiveReal", 18)
    assert data["target"]["p"] == "1" + "0" * 2000
    assert max(len(c["value"]) for c in data["conditions"]) > 4300
    code, data = run_json(capsys, "impedance", _leaf("1e5000"))
    assert (code, data) == (0, {"num": ["1" + "0" * 5000], "den": ["1"]})
    code, data = run_json(capsys, "synth", "--k", "1", "--z", "1", "--p", "1e5000", "--config", "fig3a")
    assert (code, data) == (1, {"error": "fig3a condition fails for z=1, p=1" + "0" * 5000})


# ---------------------------------------------------------------------------
# the process: ``python -m biquadrlc.cli`` and the console script end in
# ``run_and_exit``, which runs the atexit handlers, flushes and calls os._exit

ROOT = Path(__file__).resolve().parent.parent
# buffered streams, as a shell gives them: PYTHONUNBUFFERED would hide a
# missing flush
PROCESS_ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
PROCESS_ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
FIG3A_TARGET = ["--k", "1", "--z", "1", "--p", "5"]


def cli_process(argv):
    return subprocess.run([sys.executable, "-m", "biquadrlc.cli"] + argv, env=PROCESS_ENV, capture_output=True)


def in_process(capsys, argv):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def readme_commands():
    """The command lines of the README's CLI block, a placeholder netlist
    replaced by the network that ``synth`` gives for the fig3a target."""
    text = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()]
    assert len(commands) >= 12 and all(commands)
    return commands


def fill_netlist(argv, capsys):
    if not any(arg.startswith("<") for arg in argv):
        return argv
    capsys.readouterr()
    _, synth = run_json(capsys, "synth", *FIG3A_TARGET)
    netlist = json.dumps(synth["netlist"])
    return [netlist if arg.startswith("<") else arg for arg in argv]


PROCESS_COMMANDS = readme_commands() + [
    ["classify", "--k", "1", "--z", "1", "--p", "6"],  # exit 1
    ["classify", "--k", "1", "--z", "1", "--p", "1"],  # exit 2
    ["--precision-bits", "64", "--tol", "1e-20", "synth"] + FIG3A_TARGET,  # exit 0: residual 0 at any precision
    ["--precision-bits", str(MAX_PRECISION_BITS + 1), "classify"] + FIG3A_TARGET,  # exit 2
    ["roots", "--poly", '["-2","0","1"]', "--lo", "-3/2", "--hi", "2"],  # exit 0: a negative value
    ["classify", "--k", "1"],  # exit 2: a usage error
    ["--precision-bits", "abc", "classify"] + FIG3A_TARGET,  # exit 2: a usage error
]


SUBCOMMANDS = {"classify", "synth", "impedance", "transform", "verify", "enumerate", "roots", "pr-check", "falsify"}


@pytest.mark.parametrize("argv", PROCESS_COMMANDS, ids=[
    "%02d-%s" % (i, next(arg for arg in argv if arg in SUBCOMMANDS)) for i, argv in enumerate(PROCESS_COMMANDS)])
def test_a_process_prints_and_exits_as_main_returns(capsys, argv):
    argv = fill_netlist(argv, capsys)
    proc = cli_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, argv)


def test_the_process_commands_cover_every_exit_code_but_141(capsys):
    # nor 3: no documented input makes the program fail its own checks, as
    # rational catalog targets verify exactly at every precision, so
    # test_failed_self_verification_exits_3 injects the failure
    assert {main(fill_netlist(argv, capsys)) for argv in PROCESS_COMMANDS} == {0, 1, 2}


def test_the_console_script_exits_through_run_and_exit(capsys):
    # the wrapper that pip writes for [project.scripts]: import the entry
    # point and sys.exit() what it returns
    entry = re.search(r'^biquadrlc = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert entry.groups() == ("biquadrlc.cli", "run_and_exit")
    wrapper = "import sys; from %s import %s as entry; sys.argv[0] = 'biquadrlc'; sys.exit(entry())" % entry.groups()
    for argv in (["classify"] + FIG3A_TARGET, ["pr-check", "--target", '{"k":"1","z":"1","p":"6"}'],
                 ["classify", "--k", "1", "--z", "1", "--p", "1"]):
        proc = subprocess.run([sys.executable, "-c", wrapper] + argv, env=PROCESS_ENV, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process(capsys, argv)


def test_an_output_larger_than_a_pipe_buffer_arrives_whole(capsys):
    proc = cli_process(["enumerate", "--n", "7"])
    assert proc.returncode == 0 and proc.stderr == b""
    assert len(proc.stdout) == 233061
    assert proc.stdout == in_process(capsys, ["enumerate", "--n", "7"])[1]
    assert json.loads(proc.stdout)["count"] == len(json.loads(proc.stdout)["topologies"])


def test_closed_stdout_exits_quietly():
    # a reader that is gone before the output is written, as with
    # ``enumerate --n 4 | head -c 10``: no traceback, the documented code
    proc = subprocess.Popen([sys.executable, "-m", "biquadrlc.cli", "enumerate", "--n", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=PROCESS_ENV)
    proc.stdout.close()  # before the child can have written anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_closed_stdout_with_the_output_still_in_the_buffer_exits_quietly():
    # ``enumerate --n 2`` fits in the stream's buffer: the write succeeds and
    # each flush that follows fails again
    proc = subprocess.Popen([sys.executable, "-m", "biquadrlc.cli", "enumerate", "--n", "2"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=PROCESS_ENV)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


@pytest.mark.parametrize("argv", [["enumerate", "--n", "2"], ["classify", "--k", "1", "--z", "1", "--p", "3"],
                                  ["--format", "spice", "synth"] + FIG3A_TARGET])
def test_stdout_closed_at_start_exits_141_quietly(argv):
    # ``>&-``: the interpreter starts with sys.stdout set to None
    command = "exec %s -m biquadrlc.cli %s >&-" % (shlex.quote(sys.executable), shlex.join(argv))
    proc = subprocess.run(["sh", "-c", command], env=PROCESS_ENV, capture_output=True)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_stdout_closed_at_start_still_reports_invalid_input():
    command = "exec %s -m biquadrlc.cli classify --k 1 --z 1 --p 1 >&-" % shlex.quote(sys.executable)
    proc = subprocess.run(["sh", "-c", command], env=PROCESS_ENV, capture_output=True)
    assert proc.returncode == 2 and "error" in json.loads(proc.stderr)


@pytest.mark.parametrize("argv", [["classify", "--k", "1", "--z", "1", "--p", "1"],
                                  ["falsify", "--target", '{"num":["0"],"den":["1"]}', "--nmax", "3"],
                                  ["classify", "--k", "1"]])
def test_stderr_closed_at_start_keeps_the_exit_code_of_invalid_input(argv):
    # ``2>&-``: sys.stderr wraps a descriptor that fails on write, and the
    # error line that cannot be written must not turn exit 2 into 1
    command = "exec %s -m biquadrlc.cli %s 2>&-" % (shlex.quote(sys.executable), shlex.join(argv))
    proc = subprocess.run(["sh", "-c", command], env=PROCESS_ENV, capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_a_reader_that_leaves_early_gets_exit_141_and_an_empty_stderr():
    # ``enumerate --n 7 | head -c 1``: more than a pipe buffer is still to
    # be written when the reader goes
    proc = subprocess.Popen([sys.executable, "-m", "biquadrlc.cli", "enumerate", "--n", "7"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=PROCESS_ENV)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


ATEXIT_PROBE = """
import atexit, runpy, sys
def goodbye():
    sys.stdout.write("stdout after main\\n")
    sys.stderr.write("stderr after main")  # no newline: held in the buffer
atexit.register(goodbye)
class Teardown:
    def __del__(self):  # runs when the interpreter's teardown clears this module
        sys.stderr.write("torn down")
kept = Teardown()
sys.argv = ["biquadrlc"] + sys.argv[1:]
runpy.run_module("biquadrlc.cli", run_name="__main__", alter_sys=True)
"""


def test_a_process_runs_atexit_handlers_then_flushes_and_skips_teardown(capsys):
    argv = ["pr-check", "--target", '{"k":"1","z":"1","p":"6"}']
    proc = subprocess.run([sys.executable, "-c", ATEXIT_PROBE] + argv, env=PROCESS_ENV, capture_output=True)
    code, out, err = in_process(capsys, argv)
    assert proc.returncode == code == 1
    assert proc.stdout == out + b"stdout after main\n"
    assert proc.stderr == err + b"stderr after main"


@pytest.mark.parametrize("command", ["classify", "synth"])
def test_precision_bits_has_a_maximum(capsys, command):
    assert main(["--precision-bits", str(MAX_PRECISION_BITS), command] + FIG3A_TARGET) == 0
    capsys.readouterr()
    assert main(["--precision-bits", str(MAX_PRECISION_BITS + 1), command] + FIG3A_TARGET) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "--precision-bits must be <= %d" % MAX_PRECISION_BITS}


def test_a_full_mantissa_at_the_maximum_precision_prints():
    # an mpf prints as the dyadic rational it stores, from integers, at any
    # precision: the cap no longer guards the print (ROADMAP item 17 decides it)
    import mpmath

    from biquadrlc.ratpoly import scalar_to_str, workprec

    mantissas = [2**MAX_PRECISION_BITS - 1, 2 ** (MAX_PRECISION_BITS - 1) + 1]
    with workprec(MAX_PRECISION_BITS):
        for man in mantissas:
            for magnitude in (-100000, -MAX_PRECISION_BITS, -3501, 3501, MAX_PRECISION_BITS, 100000):
                x = mpmath.mpf((man, magnitude - MAX_PRECISION_BITS))
                assert x.man == man
                assert len(scalar_to_str(x)) < 60
