"""The package and the CLI load mpmath only; numpy and scipy come with the
fitter in ``verify``.  Checked in a fresh interpreter, by the modules it has
loaded, so the test does not depend on timings."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
