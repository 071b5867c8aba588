"""Checks of one command's report that need no reference.

The pass runner applies them to every command's stdout after the timed
loop; the benchmark then compares the canonical hash with reference.json.
"""

from __future__ import annotations

import hashlib
import json

# Exit codes the CLI documents; anything else counts as a failure.
DOCUMENTED_EXITS = (0, 1, 2, 3)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _dump(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def examine(cmd: dict, text: str) -> tuple[str, str, list[str]]:
    """Raw hash, canonical hash and problems of one command's stdout.

    The canonical report is the one the reference holds: echoed action
    weights are replaced by the canonical weights of the class, and a
    member query is checked here and removed, since its vector is
    seed-drawn.
    """
    raw = sha256(text)
    if not text:
        return raw, raw, []
    try:
        report = json.loads(text)
    except ValueError as exc:
        return raw, raw, [f"stdout is not JSON: {exc}"]
    problems = []
    if _dump(report) != text:
        problems.append("JSON report is not byte-stable")
    if cmd["action"] is not None:
        if report.get("action") != cmd["action"]:
            problems.append(f"report echoes action {report.get('action')}, "
                            f"sent {cmd['action']}")
        else:
            report["action"]["weights"] = cmd["canonical_weights"]
    if cmd["query"] is not None:
        problems += _check_member(cmd, report.pop("member_query", None),
                                  report.get("semigroup", {}))
    return raw, sha256(_dump(report)), problems


def _check_member(cmd: dict, answer, semigroup: dict) -> list[str]:
    """Re-sum a reported decomposition from the generators in the report."""
    if not isinstance(answer, dict):
        return ["report has no member_query"]
    if answer.get("vector") != cmd["query"]:
        return [f"member query echoes {answer.get('vector')}"]
    if answer.get("member") is not True:
        return [f"member({cmd['query']}) = {answer.get('member')}, "
                "expected True for a sum of generators"]
    gens = semigroup.get("generators", [])
    total = [0] * len(cmd["query"])
    try:
        for index in answer["decomposition"]:
            for k, c in enumerate(gens[index]):
                total[k] += c
    except (IndexError, KeyError, TypeError) as exc:
        return [f"malformed decomposition: {exc!r}"]
    if total != cmd["query"]:
        return [f"decomposition re-sums to {total}, not {cmd['query']}"]
    return []
