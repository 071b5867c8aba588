"""cli._parse against a copy of the argparse declarations it replaced.

The oracle below is the argument parser the CLI used before it read its
arguments from cli._COMMANDS, kept here only as a reference.  Over every
argv the benchmark workloads send, every literal argv of test_cli.py and
a list of edge cases, both must give the same namespace, both must
reject the argv, or both must ask for help.  The differences kept on
purpose are pinned by test_deliberate_differences_from_argparse.
"""

import argparse
import ast
import contextlib
import io
from pathlib import Path

import pytest

from gt_toolkit import cli
from test_reference_reports import workloads

TEST_CLI = Path(__file__).resolve().parent / "test_cli.py"


class _Rejected(Exception):
    pass


class _Oracle(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(message)


def _oracle() -> _Oracle:
    parser = _Oracle(prog="gt-toolkit")
    common = _Oracle(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default="table")
    common.add_argument("--output", default=None)
    action = _Oracle(add_help=False)
    action.add_argument("d", type=cli._int, nargs="?")
    action.add_argument("weights", nargs="?")
    action.add_argument("--file", default=None)
    surface = _Oracle(add_help=False)
    surface.add_argument("a", type=cli._int)
    surface.add_argument("b", type=cli._int)
    surface.add_argument("d", type=cli._int)
    bounded = _Oracle(add_help=False)
    bounded.add_argument("--bound", type=cli._int, default=6)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Oracle)

    def command(name, parents, run):
        p = sub.add_parser(name, parents=parents)
        p.set_defaults(run=run)
        return p

    command("invariants", [common, action], cli._cmd_invariants).add_argument(
        "--t", type=cli._int, default=1, dest="horizon")
    command("classify", [common, action], cli._cmd_classify)
    command("hilbert", [common, surface], cli._cmd_hilbert).add_argument(
        "--t", type=cli._int, default=6, dest="horizon")
    command("betti", [common, surface], cli._cmd_betti)
    command("ideal", [common, action], cli._cmd_ideal)
    p = command("semigroup", [common, bounded], cli._cmd_semigroup)
    p.add_argument("file")
    p.add_argument("--member", default=None)
    command("h3t", [common, bounded], cli._cmd_h3t).add_argument(
        "t", type=cli._int)
    p = command("hk", [common, bounded], cli._cmd_hk)
    p.add_argument("k", type=cli._int)
    p.add_argument("tprime", type=cli._int)
    command("verify-paper", [common], cli._cmd_verify)
    return parser


ORACLE = _oracle()


def _by_oracle(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            parsed = vars(ORACLE.parse_args(argv))
    except _Rejected:
        return ("rejected",)
    except SystemExit as exc:
        assert exc.code == 0, argv
        return ("help",)
    del parsed["command"]  # the subcommand's name, which no handler reads
    return ("ok", parsed)


def _by_table(argv):
    try:
        parsed = cli._parse(argv)
    except ValueError:
        return ("rejected",)
    if isinstance(parsed, str):
        return ("help",)
    return ("ok", vars(parsed))


def _workload_argvs():
    return [list(cmd.argv) for name in workloads.WORKLOADS
            for cmd in workloads.commands(name, 1)]


def _literal_argvs():
    """Every literal argv in test_cli.py: a list, tuple or run(capsys,
    ...) call that starts with a command name.  A computed element, such
    as a tmp_path, reads as a file name."""
    found = []
    for node in ast.walk(ast.parse(TEST_CLI.read_text("utf-8"))):
        if isinstance(node, (ast.List, ast.Tuple)):
            items = node.elts
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "run"):
            items = node.args[1:]
        else:
            continue
        if (not items or any(isinstance(e, ast.Starred) for e in items)
                or not isinstance(items[0], ast.Constant)
                or items[0].value not in (*cli._COMMANDS, "nonsense")):
            continue
        found.append([e.value if isinstance(e, ast.Constant)
                      and isinstance(e.value, str) else "input.json"
                      for e in items])
    return found


EDGE_CASES = [
    [], [""], ["-h"], ["--help"], ["--he"], ["nonsense"], ["hilber"],
    ["--format", "json", "hilbert", "1", "2", "3"],
    ["hilbert", "-h"], ["hk", "2", "1", "--help"], ["semigroup", "--h"],
    ["verify-paper"], ["verify-paper", "x"], ["verify-paper", "--format"],
    # = forms and unique prefixes
    ["hilbert", "1", "2", "3", "--t=4"],
    ["hilbert", "1", "2", "3", "--t="],
    ["betti", "1", "4", "8", "--form=json"],
    ["betti", "1", "4", "8", "--f", "json"],
    ["h3t", "2", "--bo", "3"],
    ["h3t", "2", "--b=3"],
    ["hk", "2", "1", "--o", "out.txt"],
    ["semigroup", "H.json", "--mem", "4,3,3"],
    ["semigroup", "H.json", "--member=4,3,3", "--bound=2"],
    ["semigroup", "H.json", "--member="],
    ["classify", "--file=a.json"],
    ["classify", "5", "0,1,3", "--output="],
    # ambiguous prefixes and unknown options
    ["classify", "5", "0,1,3", "--f", "json"],
    ["invariants", "--fi", "a.json"],
    ["invariants", "5", "0,1,3", "--fo", "json"],
    ["classify", "5", "0,1,3", "--bogus"],
    ["classify", "5", "0,1,3", "-x"],
    ["classify", "5", "0,1,3", "--bogus=1"],
    ["hilbert", "1", "2", "3", "-t", "4"],
    ["hilbert", "1", "2", "3", "--=x"],
    ["hilbert", "1", "2", "3", "-hx"],
    ["hilbert", "1", "2", "3", "---t", "4"],
    ["h3t", "2", "--member", "1"],
    # signed integers as positionals and values
    ["hk", "-2", "1"], ["hk", "+2", "-1"], ["h3t", "-5"], ["h3t", "+5"],
    ["classify", "+5", "0,+1,3"], ["classify", "-5", "0,1,3"],
    ["h3t", "2", "--bound", "-3"], ["hilbert", "1", "2", "3", "--t", "+2"],
    ["h3t", "-1.5"], ["h3t", "-.5"], ["h3t", "-5x"], ["classify", "5", "-1,2"],
    ["semigroup", "-"], ["semigroup", ""], ["h3t", "", "--bound", "2"],
    ["semigroup", "a file.json"], ["semigroup", "-a file.json"],
    # options before, between and after the positionals
    ["hilbert", "--t", "2", "1", "2", "3"],
    ["hilbert", "1", "--t", "2", "2", "3"],
    ["hilbert", "1", "2", "--format", "json", "3", "--t", "5"],
    ["hk", "2", "--bound", "3", "1"],
    ["hk", "--bound", "3", "2", "1"],
    ["semigroup", "--member", "1,2", "H.json"],
    ["invariants", "--t", "2", "5", "0,1,3"],
    ["classify", "--format", "json", "5", "0,1,3"],
    ["classify", "--file", "a.json", "5", "0,1,3"],
    # repeated options: the last one wins
    ["betti", "1", "4", "8", "--format", "json", "--format", "table"],
    ["h3t", "2", "--bound", "3", "--bo", "4", "--bound=5"],
    # missing and extra positionals
    ["hilbert"], ["hilbert", "1"], ["hilbert", "1", "2"],
    ["hilbert", "1", "2", "3", "4"], ["hk", "2"], ["hk", "2", "1", "0"],
    ["h3t"], ["semigroup"], ["semigroup", "a.json", "b.json"], ["classify"],
    ["classify", "5"], ["classify", "5", "0,1,3", "7"], ["invariants"],
    # bad values
    ["hilbert", "1", "2", "3", "--format", "xml"],
    ["hilbert", "1", "2", "3", "--format=xml"],
    ["hilbert", "1", "2", "3", "--format", ""],
    ["hilbert", "x", "2", "3"],
    ["hilbert", "1", "2", "3", "--t"],
    ["h3t", "2", "--bound"],
    ["hilbert", "1", "2", "3", "--t", "1_0"],
    ["hk", "\u0968", "1"],
    ["classify", "1_3", "0,1,3"],
    ["h3t", "2", "--bound", "\u0663"],
]


def _corpus():
    seen, out = set(), []
    for argv in _workload_argvs() + _literal_argvs() + EDGE_CASES:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(argv)
    return out


def test_parse_matches_the_argparse_declarations():
    assert len(_workload_argvs()) > 400 and len(_literal_argvs()) > 50
    outcomes = {"ok": 0, "rejected": 0, "help": 0}
    mismatches = []
    for argv in _corpus():
        expected, got = _by_oracle(argv), _by_table(argv)
        outcomes[expected[0]] += 1
        if got != expected:
            mismatches.append((argv, expected, got))
    assert mismatches == []
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize("argv, namespace", [
    # a value is the next argument, whatever it starts with; argparse
    # takes "-1,2" for an option and says "expected one argument"
    (["semigroup", "H.json", "--member", "-1,2"], {"member": "-1,2"}),
    (["classify", "5", "0,1,3", "--output", "-x"], {"output": "-x"}),
    (["hilbert", "1", "2", "3", "--output", "-h"], {"output": "-h"}),
    # d and weights are read wherever they stand; argparse fills both
    # optional positionals at the first one and rejects the second
    (["classify", "5", "--format", "json", "0,1,3"],
     {"d": 5, "weights": "0,1,3", "format": "json"}),
    (["invariants", "5", "--t", "2", "0,1,3"],
     {"d": 5, "weights": "0,1,3", "horizon": 2}),
    # "--" is an unknown argument, not the end of the options
    (["classify", "5", "--", "0,1,3"], None),
    (["h3t", "--", "2"], None),
    # an unknown argument is reported where it stands; argparse reports
    # it after the help that a later -h asks for
    (["hilbert", "--bogus", "-h"], None),
    (["hilbert", "1", "2", "3", "4", "-h"], None),
    # --help=x prints the help; argparse rejects the value
    (["hilbert", "--help=x"], "help"),
])
def test_deliberate_differences_from_argparse(argv, namespace):
    expected, got = _by_oracle(argv), _by_table(argv)
    assert got != expected
    if namespace is None:
        assert got == ("rejected",)
    elif namespace == "help":
        assert got == ("help",)
    else:
        assert expected == ("rejected",)
        assert got[0] == "ok"
        assert {k: got[1][k] for k in namespace} == namespace


def test_no_flag_is_a_prefix_of_another():
    # _parse takes every flag that starts with what was typed, so a flag
    # that prefixed another could not be typed out in full
    for name, (_, _, spec) in cli._COMMANDS.items():
        flags = [k for k in spec if k[0] == "-"] + list(cli._HELP)
        for f in flags:
            assert [g for g in flags if g.startswith(f)] == [f], (name, f)
