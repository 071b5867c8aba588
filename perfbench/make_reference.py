"""Regenerate reference.json: the canonical report hash of every command.

usage: python3 perfbench/make_reference.py

Runs one untraced pass of every workload with seed 1 and records, per
reference key, the exit code and the sha256 of the canonical JSON report.
The keys do not depend on the seed, so the file checks every seed.  Run it
only in a change that alters reports on purpose, and say so there.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    reference: dict = {}
    for name in workloads.WORKLOADS:
        bench = run.Run(name, 1, 0, False)
        try:
            bench.prepare()
            bench.reference = {}
            record = bench.one_pass(False)
        finally:
            shutil.rmtree(bench.dir, ignore_errors=True)
        for cmd, res in zip(bench.commands, record["results"]):
            if res["error"] is not None or res["problems"]:
                print(f"skipped {' '.join(cmd.argv)}: "
                      f"{res['error'] or res['problems']}", file=sys.stderr)
                continue
            entry = {"exit": res["status"], "sha256": res["sha256"]}
            if reference.setdefault(cmd.ref, entry) != entry:
                print(f"error: {cmd.ref} has two canonical reports",
                      file=sys.stderr)
                return 1
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    print(f"{len(reference)} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
