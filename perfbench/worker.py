"""One benchmark worker process (started by run.py).

The worker imports the program from the checkout's ``src``, builds its
workload from the seed, warms up and prints ``READY`` with the time on the
system-wide monotonic clock: that is the end of set-up.  With
``--setup-only`` it stops there.  Otherwise it runs the closed loop (one
client, each operation waits for the last) and prints one JSON line with
its measurements.  With ``--trace 1`` it first measures interpreter start
and import in fresh processes, runs half the time untraced, then replays
the same operations with every traced public function wrapped in spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
STARTUP_PACKAGES = ("scipy", "numpy", "mpmath", "biquadrlc")


def load_program():
    import biquadrlc
    from biquadrlc import biquad, network, ratpoly, realize, verify

    src = ROOT / "src"
    if Path(biquadrlc.__file__).resolve().parent.parent != src:
        raise SystemExit("biquadrlc was imported from %s, not from %s" % (biquadrlc.__file__, src))
    return types.SimpleNamespace(biquad=biquad, network=network, ratpoly=ratpoly, realize=realize, verify=verify)


def make_workload(name, seed, in_process_cli):
    if name == "cli-session":
        if in_process_cli:
            mods = load_program()
            from biquadrlc import cli

            invoke = lambda argv: workloads.run_cli_in_process(cli, argv)
        else:
            mods = None
            invoke = lambda argv: workloads.run_cli_subprocess(argv, dict(os.environ), ROOT)
        return workloads.CliSession(seed, mods, invoke)
    return workloads.WORKLOADS[name](seed, load_program())


def warm_up(workload):
    """Fill the program's caches and lazy imports before the clock starts;
    a failing warm-up aborts the run."""
    m = workload.m
    if isinstance(workload, workloads.CliSession) and m is None:
        ops = workload.warm_up_ops()[:1]  # one process: a fresh process per command is the point
    elif isinstance(workload, workloads.Falsify):
        m.network.enumerate_topologies(4)
        target = m.biquad.to_rational_fn(m.biquad.CanonicalBiquad(1, 1, 2))
        m.verify.falsify_small(target, 2)
        ops = []
    else:
        ops = workload.warm_up_ops()
    done = run_ops(workload, [ops])
    if done.failures["unexpected"]:
        raise SystemExit("warm-up failed: %s" % done.examples["unexpected"])
    workload.counts.clear()


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so that no ``except Exception``
    inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


class Pass(types.SimpleNamespace):
    """What one pass of the closed loop measured and found."""

    def latencies(self, kind=None):
        """Times of the operations that ended, abandoned ones excluded."""
        return [t for k, t, status in self.samples if status != "timeout" and kind in (None, k)]

    @property
    def completed(self):
        """Operations that returned without an exception or a timeout."""
        return sum(1 for _, _, status in self.samples if status == "ok")

    @property
    def busy_s(self):
        """Time inside operations, abandoned and raising ones included: the
        pass's wall time less the checks and preparation off the clock."""
        return sum(t for _, t, _ in self.samples)


def run_ops(workload, cycles, seconds=None, count=None, tracer=None):
    """Closed loop over whole cycles of operations for about ``seconds``,
    or over the first ``count`` operations.  After the first cycle, another
    starts only if, at the last cycle's pace, the run would end nearer to
    ``seconds`` than it is now, so a cycle longer than half the run does
    not double the run.

    Each operation is timed alone; its output is checked afterwards, off
    the clock.  An operation still running after the workload's timeout is
    abandoned: it counts as attempted and failed and has no latency, but
    its time counts as time spent on operations.
    """
    samples, outcomes, failures = [], [], Counter()
    examples = {}
    deadline = perf_counter() + seconds if seconds is not None else None
    cycle_start = None
    signal.signal(signal.SIGALRM, _alarm)
    for op, starts_cycle in ((op, i == 0) for cycle in cycles for i, op in enumerate(cycle)):
        if count is not None and len(outcomes) >= count:
            break
        if deadline is not None and starts_cycle:
            now = perf_counter()
            if cycle_start is not None and now + (now - cycle_start) - deadline > deadline - now:
                break
            cycle_start = now
        output = error = None
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, workload.op_timeout_s)
        try:
            output = op.run() if tracer is None else tracer.span("op." + op.kind, op.run)
        except (OpTimeout, Exception) as exc:  # the run goes on; the operation failed
            error = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.stack.clear()
        if isinstance(error, OpTimeout):
            samples.append((op.kind, elapsed, "timeout"))
            reason = "timeout after %gs" % workload.op_timeout_s
        elif error is not None:
            samples.append((op.kind, elapsed, "raised"))
            reason = "uncaught %s: %s" % (type(error).__name__, error)
        else:
            samples.append((op.kind, elapsed, "ok"))
            try:
                reason = op.check(output)
            except Exception as exc:  # a malformed output the checker chokes on
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        workload.observe(op, output)
        outcomes.append(reason or "ok")
        if reason:
            label = workload.known_defect(op, output, reason) or "unexpected"
            failures[label] += 1
            inputs = op.meta.get("argv") or op.meta.get("locus") or op.meta.get("eta") or ""
            examples.setdefault(label, "%s %s: %s" % (op.kind, inputs, reason))
    return Pass(samples=samples, outcomes=outcomes, failures=failures, examples=examples)


def latency_summary(done):
    ordered = sorted(done.latencies())
    n = len(ordered)
    out = {"latency_p50_ms": statistics.median(ordered) * 1e3, "samples": n}
    for kind in sorted({k for k, _, _ in done.samples}):
        times = done.latencies(kind)
        if times:
            out["latency_p50_ms.%s" % kind] = statistics.median(times) * 1e3
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            out["latency_tail_ms"] = ordered[rank - 1] * 1e3
            out["latency_tail_percentile"] = q
            out["latency_tail_beyond"] = n - rank
            break
    return out


def peak_rss_mb(cli_children):
    who = resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _wall(argv):
    start = perf_counter()
    subprocess.run(argv, env=dict(os.environ), cwd=ROOT, check=True, capture_output=True)
    return perf_counter() - start


def _import_times(stderr):
    """Per-package self time and the cumulative import of the package, in
    ms, from ``python -X importtime`` output."""
    self_us, import_us = Counter(), 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not match:
            continue
        own, cumulative, indent, name = int(match[1]), int(match[2]), match[3], match[4]
        top = name.split(".")[0]
        if top in STARTUP_PACKAGES:
            self_us[top] += own
        if top == "biquadrlc" and len(indent) == 1:
            import_us += cumulative
    out = {"startup.import_ms": import_us / 1e3}
    for package in STARTUP_PACKAGES:
        key = "biquadrlc_self" if package == "biquadrlc" else package
        out["startup.import.%s_ms" % key] = self_us[package] / 1e3
    return out


def startup_metrics(repeats=3):
    """Interpreter start and the import of the CLI, in fresh processes."""
    interpreter = [_wall([sys.executable, "-c", "pass"]) for _ in range(repeats + 2)]
    probes = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import biquadrlc.cli"],
            env=dict(os.environ),
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        probes.append(_import_times(proc.stderr))
    out = {"startup.interpreter_ms": statistics.median(interpreter) * 1e3}
    for key in probes[0]:
        out[key] = statistics.median(p[key] for p in probes)
    return out


def timed_run(workload, seconds):
    start = perf_counter()
    done = run_ops(workload, workload.cycles(), seconds=seconds)
    wall = perf_counter() - start
    result = latency_summary(done)
    result.update(
        ops_per_s=done.completed / done.busy_s,
        completed=done.completed,
        phase_wall_s=wall,
        busy_s=done.busy_s,
        peak_rss_mb=peak_rss_mb(isinstance(workload, workloads.CliSession)),
    )
    return result, done


def traced_run(workload, seconds, spans_path):
    metrics = startup_metrics()
    untraced = run_ops(workload, workload.cycles(), seconds=seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.counts.clear()
    traced = run_ops(workload, workload.cycles(), count=len(untraced.outcomes), tracer=tracer)
    changed = sum(1 for a, b in zip(untraced.outcomes, traced.outcomes) if a != b)
    if changed:
        traced.failures["unexpected"] += changed
        traced.examples.setdefault("unexpected", "%d outcomes changed under tracing" % changed)
    metrics.update(tracer.metrics(len(traced.outcomes)))
    for kind in sorted({k for k, _, _ in untraced.samples}):
        times = untraced.latencies(kind)  # untraced, so free of the spans' overhead
        metrics["op.%s.p50_ms" % kind] = statistics.median(times) * 1e3 if times else None
    metrics["trace.overhead_pct"] = (traced.busy_s / untraced.busy_s - 1) * 100
    metrics["trace.operations"] = len(traced.outcomes)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}, fh)
    return metrics, traced


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, in_process_cli=bool(args.trace))
    warm_up(workload)
    print("READY %.9f" % time.monotonic(), flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        metrics, done = traced_run(workload, args.seconds, args.spans)
    else:
        metrics, done = timed_run(workload, args.seconds)
    properties = workload.properties()
    # known defects are probed after the clock stops and reported apart
    probes = run_ops(workload, [workload.defect_probes()]) if not args.trace else None
    print(
        json.dumps(
            {
                "metrics": metrics,
                "attempted": len(done.outcomes),
                "failures": dict(done.failures),
                "examples": done.examples,
                "properties": properties,
                "probes": probes and {
                    "attempted": len(probes.outcomes),
                    "failures": dict(probes.failures),
                    "examples": probes.examples,
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
