"""The package and the CLI load mpmath only; numpy comes with the fitter in
``verify``, and nothing loads scipy, which is a test oracle.  Checked in a
fresh interpreter, by the modules it has loaded, so the test does not depend
on timings.

Also: every library name the benchmark binds exists, so a rename that would
crash ``perfbench`` fails here first."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"

PROBE = """
import contextlib, io, json, sys
import biquadrlc, biquadrlc.cli
report = {"after_import": sorted(m for m in ("numpy", "scipy") if m in sys.modules)}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [biquadrlc.cli.main(argv) for argv in (
        ["classify", "--k", "1", "--z", "1", "--p", "5"],
        ["synth", "--k", "1", "--z", "1", "--p", "1/5"],
        ["pr-check", "--target", '{"alpha": "1", "beta": "1", "gamma": "1", "p": "2"}'],
    )]
report["codes"] = codes
report["after_commands"] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
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


def test_package_and_cli_load_without_numpy_and_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["after_commands"] == []
    assert report["served"] == {"fit_topology": True, "falsify_small": True, "FitResult": True}
    assert report["unbound"] == []


FALSIFY_PROBE = """
import contextlib, io, json, sys
import biquadrlc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = biquadrlc.cli.main(["falsify", "--target", '{"k": "1", "z": "1", "p": "3"}', "--nmax", "2"])
print(json.dumps({"code": code, "loaded": sorted(m for m in ("numpy", "scipy") if m in sys.modules)}))
"""


def test_falsify_loads_numpy_but_not_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", FALSIFY_PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout) == {"code": 0, "loaded": ["numpy"]}


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
