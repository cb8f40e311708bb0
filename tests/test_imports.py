"""Which modules the package, the CLI and each kind of command load:
mpmath only once a value needs an mpf (never in the fitter, which certifies
exactly), numpy only with the fitter in
``verify``, scipy, a test oracle, never, and neither ``dataclasses`` nor
``inspect`` beyond what a bare interpreter has.  Checked in a fresh
interpreter, by the modules it has loaded, so the tests do not depend on
timings.  Loading mpmath late changes no output: a command prints the same
whether mpmath comes in on its way or was there before, and a caller's own
mpmath precision survives the library.

Also: every library name the benchmark binds exists, so a rename that would
crash ``perfbench`` fails here first."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

NET = '{"type":"series","children":[{"type":"element","kind":"R","value":"3"},{"type":"element","kind":"L","value":"2/5"}]}'
ROOTS = ["roots", "--poly", '["-2", "0", "1"]', "--lo", "0", "--hi", "2"]
# commands whose values stay exact, and the exit code of each
EXACT_COMMANDS = [
    (["impedance", NET], 0),
    (["transform", "--op", "gdu", NET], 0),
    (["verify", NET, "--target", '{"num": ["3", "2/5"], "den": ["1"]}'], 0),
    (["enumerate", "--n", "3"], 0),
    (["pr-check", "--target", '{"k": "1", "z": "1", "p": "6"}'], 1),
    (["pr-check", "--target", '{"alpha": "1", "beta": "1", "gamma": "1", "p": "2"}'], 0),
    (["classify", "--k", "1", "--z", "1", "--p", "2"], 0),
    (["roots", "--poly", '["-2", "0", "1"]', "--lo", "0", "--hi", "1"], 0),
    # a rational catalog target: fig3a values in Q(sqrt d), d = 2(p^2 - 4pz + 5z^2),
    # printed from integers, directly and through inv
    (["classify", "--k", "1", "--z", "1", "--p", "5"], 0),
    (["synth", "--k", "1", "--z", "1", "--p", "1/5"], 0),
    # d = (26/7)^2 at p = 31/7: every value rational, and no guard bits computed
    (["synth", "--k", "1", "--z", "1", "--p", "31/7"], 0),
    # a root to isolate, its rational midpoint printed from integers
    (ROOTS, 0),
]
# commands that print or verify an mpf: at the n4a interval midpoint,
# classify and synth synthesize n4a in mpf
N4A_TARGET = ["--k", "1", "--z", "1", "--p", "0.17500251816359951415268532946279524095174451899433"]
NUMERIC_COMMANDS = [["classify"] + N4A_TARGET, ["synth"] + N4A_TARGET]

PROBE = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in ("mpmath", "numpy", "scipy") if m in sys.modules)
import biquadrlc, biquadrlc.cli
report = {"after_import": loaded()}
with contextlib.redirect_stdout(io.StringIO()):
    report["codes"] = [biquadrlc.cli.main(argv) for argv in json.loads(sys.argv[1])]
report["after_commands"] = loaded()
report["modules"] = sorted(sys.modules)
from biquadrlc import verify
report["served"] = {
    name: getattr(biquadrlc, name) is getattr(verify, name)
    for name in ("fit_topology", "falsify_small", "FitResult")
}
namespace = {}
exec("from biquadrlc import *", namespace)
report["unbound"] = [name for name in biquadrlc.__all__ if name not in namespace]
print(json.dumps(report))
"""


def _fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


def _probe(commands):
    return json.loads(_fresh(PROBE, json.dumps(commands)))


def test_package_and_cli_load_without_numpy_and_scipy():
    # nor mpmath: every value of these commands stays exact
    report = _probe([argv for argv, _ in EXACT_COMMANDS])
    assert report["after_import"] == []
    assert report["codes"] == [code for _, code in EXACT_COMMANDS]
    assert report["after_commands"] == []
    assert report["served"] == {"fit_topology": True, "falsify_small": True, "FitResult": True}
    assert report["unbound"] == []


BARE = 'import sys; print(" ".join(sorted(sys.modules)))'


def test_package_and_cli_load_neither_dataclasses_nor_inspect():
    # the value types are plain classes; counted on top of what a bare
    # interpreter loads, so that what ``site`` brings in does not matter
    bare = set(_fresh(BARE).split())
    report = _probe([argv for argv, _ in EXACT_COMMANDS])
    assert report["codes"] == [code for _, code in EXACT_COMMANDS]
    added = set(report["modules"]) - bare
    assert "biquadrlc.cli" in added
    assert sorted(added & {"dataclasses", "inspect"}) == []


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS, ids=lambda argv: argv[0])
def test_numeric_commands_load_mpmath_but_not_numpy(argv):
    report = _probe([argv])
    assert report["after_import"] == []
    assert report["codes"] == [0]
    assert report["after_commands"] == ["mpmath"]


EXACT_FIG3A_PROBE = """
import json, sys
from fractions import Fraction
from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.check import verify_exact
from biquadrlc.realize import synth_fig3a
target = CanonicalBiquad(1, 1, Fraction(31, 7))
ok = verify_exact(synth_fig3a(target), to_rational_fn(target))
print(json.dumps({"ok": ok, "mpmath": "mpmath" in sys.modules}))
"""


def test_exact_fig3a_synthesis_of_rational_values_loads_no_mpmath():
    # at p = 31/7 the radicand 2(p^2 - 4pz + 5z^2) = (26/7)^2 is a square,
    # so every element value is rational; rational inputs take the exact
    # path, and the guard bits of the mpf path are not computed on it
    assert json.loads(_fresh(EXACT_FIG3A_PROBE)) == {"ok": True, "mpmath": False}


FALSIFY_PROBE = """
import contextlib, io, json, sys
import biquadrlc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = biquadrlc.cli.main(["falsify", "--target", '{"k": "1", "z": "1", "p": "3"}', "--nmax", "2"])
print(json.dumps({"code": code, "loaded": sorted(m for m in ("mpmath", "numpy", "scipy") if m in sys.modules)}))
"""


def test_falsify_loads_numpy_but_not_scipy():
    # nor mpmath: the fitter certifies a rational target exactly
    assert json.loads(_fresh(FALSIFY_PROBE)) == {"code": 0, "loaded": ["numpy"]}


QUADRATIC_FALSIFY_PROBE = """
import json, sys
from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
from biquadrlc.ratpoly import QuadraticRational
from biquadrlc.verify import falsify_small
report = falsify_small(to_rational_fn(CanonicalBiquad(1, 1, QuadraticRational(2, 1, 2))), 3)
fitted = [e["best_residual"] for e in report["entries"] if not e["filtered"]]
print(json.dumps({"fitted": bool(fitted), "floats": all(type(r) is float for r in fitted),
                  "mpmath": "mpmath" in sys.modules}))
"""


def test_falsify_of_a_quadratic_irrational_target_loads_no_mpmath():
    # eta = 2 + sqrt2: the target's floats and the certified residuals come
    # from integer arithmetic in Q(sqrt2)
    assert json.loads(_fresh(QUADRATIC_FALSIFY_PROBE)) == {"fitted": True, "floats": True, "mpmath": False}


CLI_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "preloaded":
    import mpmath
from biquadrlc.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(json.loads(sys.argv[2]))
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""

PRECISION_COMMANDS = [
    pytest.param(["--precision-bits", bits, "--format", fmt, command, "--k", "1", "--z", "1", "--p", p],
                 id="%s-%s-%s" % (command, bits, fmt))
    for bits in ("64", "128", "256")
    for fmt in ("json", "text", "spice")
    for command, p in (("classify", "5"), ("synth", "1/5"))
] + [pytest.param(["--precision-bits", bits] + ROOTS, id="roots-" + bits) for bits in ("64", "256")] + [
    # the command that loads mpmath late
    pytest.param(["--precision-bits", bits] + NUMERIC_COMMANDS[0], id="classify-n4a-" + bits) for bits in ("64", "256")
]


@pytest.mark.parametrize("argv", PRECISION_COMMANDS)
def test_output_is_the_same_whether_mpmath_was_loaded_before(argv):
    # the fresh process loads mpmath inside the command, at the precision
    # that the command's workprec recorded; the other has it from the start
    late, early = (json.loads(_fresh(CLI_PROBE, side, json.dumps(argv))) for side in ("fresh", "preloaded"))
    assert late == early
    assert late[0] == 0 and late[1] and not late[2]


WORKPREC_PROBE = """
import json, sys
from biquadrlc.ratpoly import to_mpf, workprec
seen = []
with workprec(200):
    with workprec(80):
        assert "mpmath" not in sys.modules
        one_third = to_mpf(1) / 3
        from mpmath import mp
        seen.append(mp.prec)
        with workprec(100):
            seen.append(mp.prec)
        seen.append(mp.prec)
    seen.append(mp.prec)
seen.append(mp.prec)
with workprec(300):
    seen.append(mp.prec)
seen.append(mp.prec)
print(json.dumps({"precisions": seen, "one_third": one_third == mp.mpf(1) / 3}))
"""


def test_workprec_applies_the_innermost_precision_on_the_first_load():
    # mpmath's default, 53 bits, is back outside the contexts
    report = json.loads(_fresh(WORKPREC_PROBE))
    assert report["precisions"] == [80, 100, 80, 200, 53, 300, 53]
    assert report["one_third"] is False  # made at 80 bits, not 53


def test_a_callers_mpmath_precision_survives_the_library():
    from mpmath import mp

    from biquadrlc.biquad import CanonicalBiquad, to_rational_fn
    from biquadrlc.check import verify_numeric
    from biquadrlc.realize import classify

    saved = mp.prec
    try:
        mp.prec = 100
        target = CanonicalBiquad(Fraction(1), Fraction(1), Fraction(5))
        report = classify(target, precision_bits=256)
        assert mp.prec == 100
        ok, _ = verify_numeric(report.network, to_rational_fn(target), precision_bits=128)
        assert ok and mp.prec == 100
    finally:
        mp.prec = saved


def test_names_the_benchmark_binds_exist():
    if not TRACER.exists():
        pytest.skip("no perfbench checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for module, fns in tracer.TRACED.items() for name in fns]
    # called directly by the workloads, besides the traced ones
    names += [("realize", "_common_root"), ("realize", "n4a_p1_system"), ("realize", "n5a_p1_system")]
    missing = [
        "%s.%s" % (module, name)
        for module, name in names
        if not callable(getattr(importlib.import_module("biquadrlc." + module), name, None))
    ]
    assert missing == []
