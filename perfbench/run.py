"""Seeded end-to-end and per-layer benchmark of the gt-toolkit CLI.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the root of a checkout.  The command list of the workload is
generated from the seed and sent through gt_toolkit.cli.main by a fresh
interpreter per pass, one command after another.  Passes repeat until
--seconds is spent.  With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics; with --trace 1 one untraced pass is followed
by traced passes and the object holds the per-layer metrics.  Every
report is checked against reference.json; the exit status is 1 when a
report mismatches and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import DOCUMENTED_EXITS  # noqa: E402
from speed import EXPONENT, REFERENCE_S  # noqa: E402

SETUP_PROBES = 11
HARD_LIMIT_S = 170  # every run ends within 180 s


def child_env() -> dict:
    """Pinned environment of every child interpreter."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GT_TOOLKIT_") and k != "PYTHONPATH"}
    env.update(GT_TOOLKIT_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(SRC))
    return env


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "seed": seed, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class RunError(Exception):
    """The benchmark could not complete a measurement."""


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed = workload, seed
        self.seconds, self.trace = seconds, trace
        self.commands = workloads.commands(workload, seed)
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.dir = WORK / f"run-{os.getpid()}"
        self.env = child_env()
        self.started = self.measure_start = time.perf_counter()
        self.pass_count = 0
        self.mismatches: list[str] = []
        self.failures: Counter = Counter()
        self.raw_hashes: dict[int, str] = {}
        self.attempted = 0

    def remaining(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 1:
            raise RunError("time limit reached")
        return left

    def prepare(self) -> None:
        self.dir.mkdir(parents=True)
        for cmd in self.commands:
            for name, text in cmd.files:
                (self.dir / name).write_text(text, encoding="utf-8")
        with open(self.dir / "plan.json", "w", encoding="utf-8") as fh:
            json.dump([c.to_dict() for c in self.commands], fh)

    def child(self, argv: list[str]) -> subprocess.CompletedProcess:
        try:
            done = subprocess.run([sys.executable, *argv], cwd=self.dir,
                                  env=self.env, capture_output=True,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"child timed out: {argv[0]}") from exc
        if done.returncode != 0:
            raise RunError(f"child {argv[0]} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
        return done

    def setup_time(self) -> tuple[float, float]:
        """Interpreter start until gt_toolkit.cli is imported: scaled, raw."""
        begin = time.perf_counter_ns()
        ready, kernel = map(int, self.child(
            [str(HERE / "setup_probe.py")]).stdout.split())
        raw = (ready - begin) / 1e9
        return raw * (REFERENCE_S * 1e9 / kernel) ** EXPONENT, raw

    def one_pass(self, traced: bool) -> dict:
        self.pass_count += 1
        result = self.dir / f"pass{self.pass_count}.json"
        self.child([str(HERE / "pass_runner.py"), "plan.json", result.name,
                    "1" if traced else "0"])
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
        self.check(record["results"])
        return record

    def check(self, results: list[dict]) -> None:
        for i, (cmd, res) in enumerate(zip(self.commands, results)):
            self.attempted += 1
            label = " ".join(cmd.argv)
            if (res["error"] is not None
                    or res["status"] not in DOCUMENTED_EXITS):
                self.failures[res["error"] or f"exit {res['status']}"] += 1
                continue
            first = self.raw_hashes.setdefault(i, res["raw_sha256"])
            if first != res["raw_sha256"]:
                self.mismatches.append(f"{label}: stdout differs between "
                                       "passes")
            ref = self.reference.get(cmd.ref)
            got = {"exit": res["status"], "sha256": res["sha256"]}
            if ref != got:
                self.mismatches.append(f"{label}: got {got}, reference "
                                       f"{cmd.ref} is {ref}")
            self.mismatches += [f"{label}: {p}" for p in res["problems"]]

    def passes(self, traced: bool, records: list) -> None:
        """Run passes until the next one would overrun --seconds."""
        durations = []
        while True:
            begin = time.perf_counter()
            records.append(self.one_pass(traced))
            durations.append(time.perf_counter() - begin)
            spent = time.perf_counter() - self.measure_start
            if spent + statistics.median(durations) > self.seconds:
                return

    def execute(self) -> dict:
        self.prepare()
        setup = [self.setup_time() for _ in range(SETUP_PROBES)]
        self.measure_start = time.perf_counter()
        plain, traced = [], []
        if self.trace:
            plain.append(self.one_pass(False))
            self.passes(True, traced)
        else:
            self.passes(False, plain)
        # a command's latency is its median over the passes, which drops
        # the host's short stalls; the percentiles run over the command list
        latencies = sorted(
            statistics.median(r["ns"] * r["scale"] for r in runs) / 1e6
            for runs in zip(*(rec["results"] for rec in plain)))
        e2e = {
            "wall_s": (statistics.median(map(wall, plain)), "s"),
            "setup_s": (statistics.median(s for s, _ in setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            "MiB"),
            "cmd_p50_ms": (statistics.median(latencies), "ms"),
            "cmd_p90_ms": (nearest_rank(latencies, 0.9), "ms"),
        }
        layers = None
        if traced:
            per_pass = [layer_metrics(rec["layers"], pass_scale(rec))
                        for rec in traced]
            layers = {name: (statistics.median(p[name][0] for p in per_pass),
                             unit) for name, (_, unit) in per_pass[0].items()}
            overhead = (statistics.median(map(wall, traced))
                        / e2e["wall_s"][0] - 1)
            layers["trace_overhead_frac"] = (overhead, "ratio")
        unscaled = {"wall_s": statistics.median(map(raw_wall, plain)),
                    "setup_s": statistics.median(r for _, r in setup)}
        return {"e2e": e2e, "layers": layers, "unscaled": unscaled,
                "pass_ms": [[(r["ns"] / 1e6, r["scale"])
                             for r in rec["results"]] for rec in plain],
                "passes": {"untraced": len(plain), "traced": len(traced)},
                "commands_per_pass": len(self.commands)}


def wall(record: dict) -> float:
    """Pass time at the reference speed: the sum of scaled latencies."""
    return sum(r["ns"] * r["scale"] for r in record["results"]) / 1e9


def raw_wall(record: dict) -> float:
    return sum(r["ns"] for r in record["results"]) / 1e9


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def pass_scale(record: dict) -> float:
    return statistics.median(r["scale"] for r in record["results"])


def layer_metrics(stats: dict, scale: float = 1.0) -> dict:
    """The per-layer metrics of one traced pass, with their units.

    Times are multiplied by scale, the pass's median speed factor.
    """
    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def self_s(layer):
        return (get(layer, "self_ns") * scale / 1e9, "s")

    def calls(layer):
        return (get(layer, "calls"), "count")

    def ratio(layer, key):
        n = get(layer, "calls")
        return (get(layer, key) / n if n else 0.0, "ratio")

    rank = "exactalg.integer_rank"
    add = "exactalg.SparseEliminator.add"
    inv = "actions.invariant_monomials"
    member = "semigroups.member"
    trung = "semigroups.trung_cm_check"
    out = {
        "cli.main.self_s": self_s("cli.main"),
        f"{rank}.calls": calls(rank),
        f"{rank}.self_s": self_s(rank),
        f"{rank}.cells": (get(rank, "cells"), "count"),
        f"{add}.calls": calls(add),
        f"{add}.self_s": self_s(add),
        f"{add}.useful_ratio": ratio(add, "useful"),
        "togliatti.quotient_basis.calls": calls("togliatti.quotient_basis"),
        "togliatti.quotient_basis.self_s": self_s("togliatti.quotient_basis"),
        "togliatti.wlp_fails_in_degree.calls":
            calls("togliatti.wlp_fails_in_degree"),
        "toricideal.fiber_partition.self_s":
            self_s("toricideal.fiber_partition"),
        "toricideal.fiber_partition.multisets":
            (get("toricideal.fiber_partition", "multisets"), "count"),
        "toricideal.minimal_generators.self_s":
            self_s("toricideal.minimal_generators"),
        f"{inv}.calls": calls(inv),
        f"{inv}.repeat_ratio": ratio(inv, "repeats"),
        f"{inv}.self_s": self_s(inv),
        "actions.count_invariants.self_s": self_s("actions.count_invariants"),
    }
    for layer in ("hilbert.hf_by_counting", "hilbert.hf_reduced",
                  "hilbert.surface_profile", "resolution.betti_table",
                  "resolution.generator_counts",
                  "resolution.series_from_betti"):
        out[f"{layer}.self_s"] = self_s(layer)
    out.update({
        f"{member}.calls": calls(member),
        f"{member}.self_s": self_s(member),
        f"{member}.member_ratio": ratio(member, "members"),
        "semigroups.lattice_member.calls": calls("semigroups.lattice_member"),
        "semigroups.lattice_member.self_s":
            self_s("semigroups.lattice_member"),
        f"{trung}.self_s": self_s(trung),
        f"{trung}.lattice_points": (get(trung, "lattice_points"), "count"),
        f"{trung}.pair_hits": (get(trung, "pair_hits"), "count"),
        "semigroups.is_normal_up_to.self_s":
            self_s("semigroups.is_normal_up_to"),
        "verify.run_reference_checks.total_s":
            (get("verify.run_reference_checks", "total_ns") * scale / 1e9,
             "s"),
    })
    return out


def report(run: Run, measured: dict, env: dict) -> dict:
    """Print every metric with its unit; return the result object."""
    failed = sum(run.failures.values())
    correct = not run.mismatches
    print(f"workload {run.workload}: seed {run.seed}, "
          f"{measured['commands_per_pass']} commands per pass, "
          f"{measured['passes']['untraced']} untraced and "
          f"{measured['passes']['traced']} traced passes")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    chosen = measured["layers"] if run.trace else measured["e2e"]
    shown = dict(measured["e2e"])
    shown["failed_frac"] = (failed / run.attempted, "ratio")
    if run.trace:
        shown.update(measured["layers"])
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, value in measured["unscaled"].items():
        print(f"  unscaled {name} = {value:.6g} s")
    for kind, count in sorted(run.failures.items()):
        print(f"  failure x{count}: {kind}")
    for line in run.mismatches[:20]:
        print(f"  MISMATCH {line}")
    record = {"workload": run.workload, "env": env, "trace": run.trace,
              "correct": correct, "attempted": run.attempted,
              "failed": failed, "failures": dict(run.failures),
              "mismatches": run.mismatches, "unscaled": measured["unscaled"],
              "pass_ms": measured["pass_ms"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in shown.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    return {"correct": correct, "attempted": run.attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in chosen.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gt_toolkit" / "cli.py").is_file():
        print(f"error: no gt_toolkit sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        measured = run.execute()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    result = report(run, measured, environment(args.seed))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
