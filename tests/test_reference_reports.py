"""Every benchmark command's report, byte for byte, against reference.json.

The benchmark under perfbench/ records, per reference key, the exit code
and the sha256 of the canonical JSON report of every command it sends.
These tests run the seed-1 command list of each workload through cli.main
in process and compare, so a report change shows here key by key.  The
benchmark's own modules and hash file are read, never copied or edited.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from gt_toolkit import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))


def test_seed_one_covers_every_reference_key():
    refs = {cmd.ref for name in workloads.WORKLOADS
            for cmd in workloads.commands(name, 1)}
    assert refs == set(REFERENCE)
    assert len(REFERENCE) == 459


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_match_reference(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for cmd in workloads.commands(workload, 1):
        for name, text in cmd.files:
            (tmp_path / name).write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(list(cmd.argv))
        _, canonical, problems = checks.examine(cmd.to_dict(), out.getvalue())
        got = {"exit": status, "sha256": canonical}
        if problems or got != REFERENCE[cmd.ref]:
            mismatches.append((" ".join(cmd.argv), cmd.ref, problems))
    assert mismatches == []
