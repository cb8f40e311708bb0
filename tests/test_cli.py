"""CLI tests (in-process via main(), and in a subprocess where the
process's own streams matter)."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.check import verify_numeric
from biquadrlc.cli import _default_tol, main
from biquadrlc.network import from_netlist_json
from biquadrlc.realize import N4A_QUARTIC


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
    # Z = s + 1 is R + L: its pole at s = inf switches off the two rules
    # that assume finite Z(0) and Z(inf), one of which dropped R + L
    target = json.dumps({"num": ["1", "1"], "den": ["1"]})
    code, data = run_json(capsys, "falsify", "--target", target, "--nmax", "2")
    assert code == 0 and data["any_success"] is True
    assert data["filters"]["skipped"] == ["cutset", "reactive-arm"]
    wins = [e for e in data["entries"] if e["success"]]
    assert [w["topology"]["type"] for w in wins] == ["series"]


def test_falsify_rejects_the_zero_target(capsys):
    # Z = 0 is no network of positive elements; a fit at the log-value clip
    # would certify a limit network that does not exist
    code = main(["falsify", "--target", json.dumps({"num": ["0"], "den": ["1"]}), "--nmax", "3"])
    assert code == 2
    assert "Z = 0" in json.loads(capsys.readouterr().err)["error"]


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
    ok, residual = verify_numeric(net, target, tol=_default_tol(64), precision_bits=64)
    assert ok and residual > 0


def test_default_tol_follows_precision():
    assert _default_tol(64) == Fraction(1, 2**48)
    for bits in (83, 128, 256, 1024):
        assert _default_tol(bits) == Fraction(1, 10**20)


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


def test_failed_self_verification_exits_3(capsys):
    argv = ["--precision-bits", "64", "--tol", "1e-20", "synth", "--k", "1", "--z", "1", "--p", "5"]
    for config in ([], ["--config", "fig3a"]):
        assert main(argv + config) == 3
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


def test_closed_stdout_exits_quietly():
    # a reader that is gone before the output is written, as with
    # ``enumerate --n 4 | head -c 10``: no traceback, the documented code
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "biquadrlc.cli", "enumerate", "--n", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # before the child can have written anything
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err
