"""The biquadrlc benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src``;
nothing is installed.  Every worker process gets single-threaded BLAS/OpenMP
and a bytecode cache under ``.bench_build/`` that the first run fills, so
CLI processes never race on ``__pycache__`` and nothing is written outside
the checkout.

BENCHMARK.json lists cli-session and falsify with 30-second runs, which is
all a full set of runs may take; classify-sweep and exact-algebra run the
same way by hand.

With ``--trace 0`` the run starts the worker five times and reports the
median set-up time, then measures the last worker's closed loop: one
client, single-threaded, each operation waiting for the previous one.
A run ends at the cycle boundary nearest to ``--seconds`` (see
``worker.run_ops``), so every run has the workload's mix.  ``ops_per_s``
is the operations that returned without an exception or timeout over the
time spent inside operations (abandoned ones included; checks run off the
clock).  Beside the median latency, the run prints the median of each
operation kind.
With ``--trace 1`` one worker reports per-layer metrics from spans around
every call into each module (see tracer.py) and the tracing overhead.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json
names.  Every failed timed operation counts in ``failed`` and
``fail_ratio``.  ``correct`` is false when any failure, timed or probed, is
not an instance of a known defect: the two of ROADMAP open item 3 (a false
FourElement on exact inputs within 1e-20 of eta = 3 or 1/3; verification
failing at ``--precision-bits 64`` with the default tolerance) and the two
this benchmark found in mpf classification on the n4a/n5a loci (see
``ClassifySweep.known_defect``).  The listed workloads time only inputs the
program gets right, so that runs agree on ``failed``; cli-session probes
the inputs of the two CLI defects after the timed phase and prints what
they gave apart from the counts.  Details, machine info and workload
properties go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 5
RUN_BUDGET_S = 170.0
WORKLOADS = ("cli-session", "classify-sweep", "exact-algebra", "falsify")

# which per-layer metrics should move which end-to-end metric, per workload
LAYER_MOVES = {
    "cli-session": "startup.* -> latency_p50_ms, ops_per_s; cli.work_ms -> latency_p50_ms by its small share only",
    "classify-sweep": "realize.classify*, realize.synth_config.*, network.impedance.mpf, network.apply_transform, "
    "network.build_config, verify.verify_numeric, biquad.* -> ops_per_s, latency_p50_ms; startup.* -> setup_s",
    "exact-algebra": "realize.n4a/n5a_root_interval, ratpoly.*, network.impedance.exact, verify.verify_exact "
    "-> ops_per_s, latency_p50_ms; startup.* -> setup_s",
    "falsify": "verify.falsify_small, verify.fit_topology, verify.least_squares, verify.fit.residual_*, "
    "network.enumerate_labeled, network.violates_cutset_rule -> ops_per_s, latency_p50_ms; setup_s should not "
    "move with startup.* (falsify needs scipy)",
}


class RunError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(OUT / "pycache"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def run_worker(args, deadline, setup_only, tag):
    """Start a worker and wait for it; returns (set-up seconds, result)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", str(OUT / ("spans-%s-seed%d.json" % (args.workload, args.seed))),
    ] + (["--setup-only"] if setup_only else [])
    log = OUT / ("worker-%s-%s.log" % (args.workload, tag))
    with open(log, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True, env=worker_env(), cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError("worker %s timed out" % tag)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        tail = log.read_text().strip().splitlines()[-5:]
        raise RunError("worker %s failed (exit %s): %s" % (tag, proc.returncode, " | ".join(tail)))
    setup_s = float(lines[0].split()[1]) - spawned
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def machine_info(seed):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        cpu = ""
    import mpmath

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "seed": seed,
        "commit": git_commit(),
        "load_generator": "closed loop, 1 client, single-threaded",
    }


def git_commit():
    """HEAD of the checkout read from .git; a plain export has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "biquadrlc" / "__init__.py").is_file():
        print("perfbench: no biquadrlc sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            _, result = run_worker(args, deadline, False, "trace")
            setups = []
        else:
            setups = [run_worker(args, deadline, True, "setup%d" % i)[0] for i in range(SETUP_RUNS - 1)]
            setup_s, result = run_worker(args, deadline, False, "run")
            setups.append(setup_s)
    except RunError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    attempted = result["attempted"]
    failures = result["failures"]
    failed = sum(failures.values())
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    metrics["fail_ratio"] = failed / attempted if attempted else None
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if metrics.get(m["name"]) is None]
    if missing or not attempted:
        print("perfbench: no value for %s" % ", ".join(missing or ["attempted"]), file=sys.stderr)
        return 1

    info = machine_info(args.seed)
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "properties": result["properties"],
        "setup_samples_s": setups,
        "failures": failures,
        "failure_examples": result["examples"],
        "known_defect_probes": result["probes"],
        "metrics": metrics,
        "layer_moves": LAYER_MOVES[args.workload],
    }
    detail_path = OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    detail_path.write_text(json.dumps(detail, indent=1, sort_keys=True))

    print("perfbench %s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("machine  " + " ".join("%s=%s" % kv for kv in info.items()))
    print("workload " + " ".join("%s=%s" % (k, fmt(v)) for k, v in result["properties"].items()))
    if args.trace:
        print("per-layer metrics, per operation (%d traced operations):" % attempted)
        for name in sorted(metrics):
            print("  %-52s %s" % (name, fmt(metrics[name])))
        print("layer -> end-to-end: " + LAYER_MOVES[args.workload])
    else:
        units = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                 "fail_ratio": "1", "peak_rss_mb": "MB"}
        notes = {
            "setup_s": "median of %d: %s" % (len(setups), ", ".join("%.4f" % s for s in setups)),
            "ops_per_s": "%d of %d completed in %.2f s inside operations (checks run off the clock)" % (
                metrics["completed"], attempted, metrics["busy_s"]
            ),
            "latency_p50_ms": "%d samples; per kind: %s" % (
                metrics["samples"],
                ", ".join(
                    "%s %s" % (name.split(".", 1)[1], fmt(value))
                    for name, value in sorted(metrics.items())
                    if name.startswith("latency_p50_ms.")
                ),
            ),
            "latency_tail_ms": "p%s, %s samples beyond" % (
                fmt(metrics.get("latency_tail_percentile")), fmt(metrics.get("latency_tail_beyond"))
            ) if "latency_tail_ms" in metrics else "omitted: too few samples for 10 beyond any percentile",
            "fail_ratio": "%d of %d failed: %s" % (
                failed, attempted, ", ".join("%s %d" % kv for kv in sorted(failures.items())) or "none"
            ),
        }
        for name, unit in units.items():
            print("  %-16s %-12s %-4s %s" % (name, fmt(metrics.get(name)), unit, notes.get(name, "")))
    for label, example in sorted(result["examples"].items()):
        print("  failure %s, e.g. %s" % (label, example[:300]))
    probes = result["probes"]
    if probes and probes["attempted"]:
        print("known-defect probes (off the clock, not in the counts above): %d of %d failed: %s" % (
            sum(probes["failures"].values()), probes["attempted"],
            ", ".join("%s %d" % kv for kv in sorted(probes["failures"].items())) or "none",
        ))
        for label, example in sorted(probes["examples"].items()):
            print("  probe %s, e.g. %s" % (label, example[:300]))
    print("details  %s" % detail_path.relative_to(ROOT))
    print(
        json.dumps(
            {
                "correct": failures.get("unexpected", 0) == 0
                and not (result["probes"] or {}).get("failures", {}).get("unexpected"),
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
