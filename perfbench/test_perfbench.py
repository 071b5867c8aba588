"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import concurrent.futures
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TIMED = ("toric", "wlp", "cm-scan", "catalog")

# The layers each workload is built to load, and those it must not enter
# except through its closing verify-paper command.
INTENDED = {
    "toric": ("exactalg.SparseEliminator.add", "toricideal."),
    "wlp": ("exactalg.integer_rank", "togliatti."),
    "cm-scan": ("semigroups.",),
    "catalog": ("cli.main", "hilbert.", "resolution.", "actions."),
}
BYPASSED = {
    "toric": ("exactalg.integer_rank", "togliatti.", "semigroups."),
    "wlp": ("exactalg.SparseEliminator.add", "toricideal.", "semigroups."),
    "cm-scan": ("exactalg.integer_rank", "exactalg.SparseEliminator.add",
                "toricideal.", "togliatti.", "actions.", "hilbert.",
                "resolution."),
}


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_command_list(workload):
    first = [c.to_dict() for c in workloads.commands(workload, 5)]
    again = [c.to_dict() for c in workloads.commands(workload, 5)]
    other = [c.to_dict() for c in workloads.commands(workload, 6)]
    assert first == again
    assert first != other
    argvs = [tuple(c["argv"]) for c in first]
    assert len(set(argvs)) == len(argvs), "a command repeats within a pass"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_reference_key_is_committed(workload):
    reference = json.loads((HERE / "reference.json").read_text())
    for cmd in workloads.commands(workload, 9):
        assert cmd.ref in reference


def test_action_classes_are_disjoint_and_complete():
    # 3 * (0,1,5) = (0,3,1) mod 7, so (7; 0,1,5) is in the class of
    # (0,1,3); four distinct weights of order 5 form a single class
    assert workloads.action_classes(3, 7) == [(0, 1, 2), (0, 1, 3)]
    assert workloads.action_classes(4, 5) == [(0, 1, 2, 3)]


def test_member_check_resums_the_decomposition():
    cmd = workloads._member_query("cubic", (8, 3, 4), workloads.random.Random(0))
    report = {"semigroup": {"dim": 3, "generators": [[5, 0, 0], [3, 1, 1],
                                                     [0, 2, 3]]},
              "member_query": {"vector": [8, 3, 4], "member": True,
                               "decomposition": [0, 1]}}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert checks.examine(cmd.to_dict(), text)[2] == [
        "decomposition re-sums to [8, 1, 1], not [8, 3, 4]"]
    report["member_query"]["decomposition"] = [1, 0, 2]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert checks.examine(cmd.to_dict(), text)[2] == []


def test_a_changed_report_is_a_mismatch():
    bench = run.Run("catalog", 1, 0, False)
    good = {"error": None, "status": 0, "raw_sha256": "x", "problems": []}
    results = []
    for cmd in bench.commands:
        ref = bench.reference[cmd.ref]
        results.append(dict(good, status=ref["exit"], sha256=ref["sha256"]))
    bench.check(results)
    assert bench.mismatches == []
    results[3] = dict(results[3], sha256="0" * 64)
    bench.check(results)
    assert len(bench.mismatches) == 1


def test_tracer_rebinds_every_holder_and_keeps_stacks_per_thread():
    from gt_toolkit import actions, togliatti, exactalg
    original = exactalg.integer_rank
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert togliatti.integer_rank is exactalg.integer_rank
        assert togliatti.integer_rank is not original
        jobs = [actions.CyclicAction(d, (0, 1, 2, 3)) for d in (5, 6, 7, 8)]
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            for result in pool.map(togliatti.classify, jobs):
                assert result.is_gt_system in (True, False)
    finally:
        tracer.uninstall()
    assert togliatti.integer_rank is original
    stats = tracer.stats
    assert stats["exactalg.integer_rank"]["calls"] == 4
    assert stats["togliatti.wlp_fails_in_degree"]["calls"] == 4
    for layer in stats.values():
        assert 0 <= layer["self_ns"] <= layer["total_ns"]
    assert (stats["togliatti.wlp_fails_in_degree"]["total_ns"]
            >= stats["exactalg.integer_rank"]["total_ns"])


def traced_layers(workload: str, only_verify: bool = False) -> dict:
    bench = run.Run(workload, 2, 0, True)
    if only_verify:
        bench.commands = [workloads.VERIFY]
    try:
        bench.prepare()
        record = bench.one_pass(True)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    assert bench.mismatches == [] and not bench.failures
    return record["layers"]


@pytest.fixture(scope="module")
def verify_only():
    return traced_layers("catalog", only_verify=True)


def _matches(layer, prefixes):
    return any(layer == p or (p.endswith(".") and layer.startswith(p))
               for p in prefixes)


@pytest.mark.parametrize("workload", TIMED)
def test_intended_layers_hold_most_self_time(workload, verify_only):
    layers = traced_layers(workload)
    own = {name: s["self_ns"] - verify_only.get(name, {}).get("self_ns", 0)
           for name, s in layers.items()}
    intended = sum(v for k, v in own.items() if _matches(k, INTENDED[workload]))
    assert intended > 0.5 * sum(own.values())
    for name in BYPASSED.get(workload, ()):
        for layer, stats in layers.items():
            if _matches(layer, (name,)):
                assert stats["calls"] == verify_only[layer]["calls"], layer


@pytest.mark.parametrize("trace", (0, 1))
def test_one_command_prints_every_declared_metric(trace):
    spec = benchmark_spec()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "4", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "toric",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
