"""Tests of the benchmark itself: every metric BENCHMARK.json names is
emitted with its unit, and the independent checker rejects wrong answers.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from biquadrlc import biquad, network, realize  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_spec_lists_the_workloads_run_py_accepts():
    import run

    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["cli-session", "classify-sweep", "exact-algebra", "falsify"])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "fail_ratio", "peak_rss_mb"):
            assert name in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("classify-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fig3a():
    b = biquad.CanonicalBiquad(F(1), F(1), F(5))
    return b, oracle.tree_from_spnet(realize.synth_fig3a(b))


def _perturbed(tree):
    tag, body = tree
    if tag in ("series", "parallel"):
        return (tag, [_perturbed(body[0])] + body[1:])
    return (tag, oracle.to_mpf(body) * (1 + oracle.mpf("1e-9")))


def test_checker_accepts_the_synthesis_and_rejects_a_perturbed_element():
    b, tree = _fig3a()
    assert oracle.check_tree(tree, b.k, b.z, b.p, 7) is None
    assert oracle.check_tree(_perturbed(tree), b.k, b.z, b.p, 7) is not None
    assert oracle.check_tree(tree, b.k, b.z, b.p * (1 + F(1, 10**9)), 7) is not None


def test_checker_rejects_a_perturbed_spice_listing():
    b, _ = _fig3a()
    listing = network.to_spice(realize.synth_fig3a(b))
    assert oracle.check_spice(listing, b.k, b.z, b.p) is None
    lines = listing.splitlines()
    name, a, c, value = lines[0].split()
    lines[0] = " ".join((name, a, c, str(oracle.to_mpf(value) * (1 + oracle.mpf("1e-9")))))
    assert oracle.check_spice("\n".join(lines), b.k, b.z, b.p) is not None


def test_class_oracle_follows_the_readme_conditions():
    assert oracle.expected_class(F(3)) == (oracle.FOUR, None, None)
    assert oracle.expected_class(F(1, 3)) == (oracle.FOUR, None, None)
    assert oracle.expected_class(F(2)) == (oracle.FIVE, None, None)
    assert oracle.expected_class(F(5)) == (oracle.CATALOG, "fig3a", None)
    assert oracle.expected_class(F(1, 5)) == (oracle.CATALOG, "fig3a", "inv")
    assert oracle.expected_class(F(57, 10)) == (oracle.UNKNOWN, None, None)
    assert oracle.expected_class(F(7)) == (oracle.NOT_PR, None, None)
    near = F(3) + F(1, 10**25)
    assert oracle.expected_class(near) == (oracle.CATALOG, "fig3a", None)
    assert oracle.false_four_element(near) and not oracle.false_four_element(F(3))


class _Mods:
    biquad, network, realize = biquad, network, realize


def test_classify_check_rejects_a_wrong_class_and_labels_the_known_defect():
    sweep = workloads.ClassifySweep.__new__(workloads.ClassifySweep)
    sweep.m = _Mods
    import random

    op = sweep._classify(random.Random(1), F(3) + F(1, 10**25), "boundary")
    report = op.run()
    reason = op.check(report)
    assert reason and "FourElement" in reason  # the seed's false FourElement
    assert sweep.known_defect(op, report, reason) == "false-four-element"

    op = sweep._classify(random.Random(1), F(2), "sweep")
    report = op.run()
    assert op.check(report) is None
    report.klass = realize.RealizationClass.FOUR_ELEMENT
    reason = op.check(report)
    assert reason and sweep.known_defect(op, report, reason) is None


def test_cli_checks_reject_wrong_outputs():
    import random

    session = workloads.CliSession(1, None, None)
    rng = random.Random(4)
    op = session.make_synth(rng, 0)
    while op.meta["fmt"] != "json":
        op = session.make_synth(rng, 0)
    argv = op.meta["argv"]
    k, z, p = (F(argv[argv.index(flag) + 1]) for flag in ("--k", "--z", "--p"))
    net = realize.classify(biquad.CanonicalBiquad(k, z, p)).network
    good = json.dumps({"netlist": network.to_netlist_json(net), "config": "fig3a"})
    bad_net = oracle.tree_to_json(_perturbed(oracle.tree_from_spnet(net)))
    bad = json.dumps({"netlist": bad_net, "config": "fig3a"})
    assert op.check((0, good, "")) is None
    assert op.check((0, bad, "")) is not None
    assert op.check((1, "", "Traceback (most recent call last):\nRuntimeError: x")) is not None

    op = session.make_pr_check(rng, 0)
    target = json.loads(op.meta["argv"][op.meta["argv"].index("--target") + 1])
    eta = F(target["p"]) / F(target["z"])
    truth = eta * eta - 6 * eta + 1 <= 0
    assert op.check((0 if truth else 1, json.dumps({"positive_real": truth}), "")) is None
    assert op.check((0 if truth else 1, json.dumps({"positive_real": not truth}), "")) is not None


def test_falsify_checks_reject_a_bad_fit():
    tree = ("series", [("R", F(1)), ("parallel", [("L", F(1)), ("C", F(1))])])
    topology = {"type": "series", "children": [
        {"type": "element", "kind": "R", "value": None},
        {"type": "parallel", "children": [
            {"type": "element", "kind": "L", "value": None},
            {"type": "element", "kind": "C", "value": None},
        ]},
    ]}
    entry = {"filtered": False, "success": True, "elements": 3, "topology": topology, "values": {"R1": 1.0, "L1": 1.0, "C1": 1.0}}
    report = {"entries": [entry], "any_success": True, "complete": False}
    assert oracle.check_success(report, 1, 1, 2, 3) is not None  # not k(s+1)^2/(s+2)^2
    assert oracle.check_floor(report) is not None
    assert oracle.check_tree(tree, 1, 1, 2) is not None


def test_every_falsify_cycle_has_both_floor_sides_and_both_success_targets():
    cycles = workloads.Falsify(3, None).cycles()
    for _ in range(3):
        mix = sorted((op.kind, op.meta["eta"] > 1) for op in next(cycles))
        assert mix == [("floor", False)] * 4 + [("floor", True)] * 4 + [("success", False), ("success", True)]


def test_ops_per_s_counts_completed_operations_over_all_operation_time():
    import worker

    done = worker.Pass(samples=[("a", 1.0, "ok"), ("a", 0.5, "timeout"), ("b", 0.25, "raised")])
    assert done.completed == 1 and done.busy_s == 1.75
    assert done.latencies() == [1.0, 0.25] and done.latencies("a") == [1.0]


def test_cli_session_times_no_known_defect_input_and_probes_each():
    session = workloads.CliSession(5, None, None)
    cycles = session.cycles()
    timed = [op for _ in range(20) for op in next(cycles)]
    assert not any(op.meta["prec"] == 64 for op in timed)
    assert not any(oracle.false_four_element(op.meta.get("eta")) for op in timed)
    probes = session.defect_probes()
    assert sum(oracle.false_four_element(op.meta.get("eta")) for op in probes) == 2
    assert [op.meta["prec"] for op in probes if op.kind == "synth"] == [64]
