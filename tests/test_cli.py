"""Tests of the command-line front end.

cli_digests.json pins CLI bytes by sha256: its "stdout" map keys each
argv, words joined by spaces, to its stdout, and its "stderr" map keys
each failure case to its error line.  A change that alters a report on
purpose rewrites the "stdout" map from the current code with

    PYTHONPATH=src python3 tests/test_cli.py

which runs each argv of the map with FILE standing for a file that
holds CUBIC_FILE in a temporary directory, and leaves "stderr" as it
is.  Name each digest that changed.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import OrderedDict
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from gt_toolkit import (cli, resolution, semigroups, togliatti, toricideal,
                        verify)
from gt_toolkit.actions import (CyclicAction, format_monomial,
                                invariant_monomials, mu_d)
from gt_toolkit.hilbert import hf_closed_form, surface_profile
from gt_toolkit.semigroups import _apery, make_hk
from surfaces import surface_triples

README = Path(__file__).resolve().parents[1] / "README.md"
DIGESTS_FILE = Path(__file__).with_name("cli_digests.json")
DIGESTS = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_hilbert_table(capsys):
    status, out, _ = run(capsys, "hilbert", "1", "2", "3", "--t", "4")
    assert status == 0
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    values = [int(r.split("|")[1].split()[0]) for r in rows]
    assert values == [1, 4, 10, 19, 31]


def test_classify_output(capsys):
    status, out, _ = run(capsys, "classify", "5", "0,1,3")
    assert status == 0
    assert "is_gt_system = True" in out
    assert "kernel dimension 1" in out


def test_h3t_verified(capsys):
    status, out, _ = run(capsys, "h3t", "2", "--bound", "6")
    assert status == 0
    assert "verified-up-to-bound" in out
    assert "witness [3, 3, 0]" in out  # H_6 is not normal


def test_h3t_huge_bound_is_counted_not_scanned(capsys):
    # H_9 is Cohen-Macaulay, so the CM scan's cost does not grow with
    # the bound
    status, out, _ = run(capsys, "h3t", "3", "--bound", "1000000000")
    assert status == 0
    assert "CM certification: verified-up-to-bound (bound 1000000000" in out


def test_json_round_trip(tmp_path, capsys):
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps(CUBIC_FILE))
    for argv in (["hilbert", "1", "2", "3"], ["betti", "1", "4", "8"],
                 ["ideal", "5", "0,1,3"], ["classify", "3", "0,1,2"],
                 ["invariants", "7", "0,1,3", "--t", "3"],
                 ["semigroup", str(path), "--member", "14,10,6"],
                 ["h3t", "2"], ["hk", "2", "1"], ["verify-paper"]):
        status, out, _ = run(capsys, *argv, "--format", "json")
        assert status == 0, argv
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out


# every value as the writer must see it: empty containers at several
# depths, tuples, booleans among integers, integers past a machine word,
# strings that need escapes, and the types the writer hands to json.dumps
EDGE_VALUES = [
    {}, [], (), [[]], [{}], {"a": {}}, {"a": [[[], {}]]}, [[[[]]]],
    (1, (2, ())), [True, 1, False, 0, None], True, False, None, 0, -1,
    -(2 ** 64) - 1, 2 ** 64 + 1, 3 ** 200, "", "plain",
    'quote " backslash \\ slash /', "\x00\x01\b\f\n\r\t\x1f\x7f",
    "caf\u00e9 \u00fc \u4e2d\u6587 \U0001f600 \u2028",
    {"z": 1, "a": [1, -2, 3], "\u00e9": None, '"': "\\", "": ()},
    {1: "int key", 2: [3, {"x": ()}]}, {True: 1, False: 2}, {2: 0, 1.5: 1},
    OrderedDict([("b", 1), ("a", [2])]), [1.5, 1.0, -0.0, float("inf"), 1e300],
]

_TEXT = 'ab"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600 '


def _random_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 5)
    if kind == 0:
        return rng.randint(-20, 20)
    if kind == 1:
        return rng.randint(-2 ** 100, 2 ** 100)
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4):
        return "".join(rng.choices(_TEXT, k=rng.randrange(5)))
    values = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 5:
        return values
    if kind == 6:
        return tuple(values)
    if kind == 7 and values:
        return {rng.randint(-5, 5): v for v in values}
    return {"".join(rng.choices(_TEXT, k=rng.randrange(4))): v
            for v in values}


def test_json_writer_matches_json_dumps():
    cases = [outer for v in EDGE_VALUES for outer in (v, [v], {"k": [1, v]})]
    rng = random.Random(2030)
    cases += [_random_value(rng, 0) for _ in range(2000)]
    for value in cases:
        assert cli._json_text(value) == json.dumps(value, indent=2,
                                                   sort_keys=True), value


@pytest.mark.parametrize("value", [
    {1, 2}, Fraction(1, 3), b"bytes", object(), {"a": [1, {2}]},
    [(1, Fraction(1, 2))], {(1, 2): 3}, {1: 0, "a": 1}])
def test_json_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_report_integers_past_the_digit_limit(capsys, monkeypatch, fmt):
    # Betti numbers of d = 29,001 pass Python's 4,300-digit int-to-str
    # limit; a 5,000-digit numerator coefficient stands in for them
    big = 10 ** 5000 - 1
    real = cli.series_from_betti
    monkeypatch.setattr(
        cli, "series_from_betti", lambda table: real(table)._replace(
            numerator=(big, *real(table).numerator)))
    limit = sys.get_int_max_str_digits()
    status, out, err = run(capsys, "betti", "1", "4", "8", "--format", fmt)
    assert (status, err) == (0, "")
    assert "9" * 5000 in out
    # the limit is lifted only while the report is written
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(ValueError):
        str(big)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_semigroup_witness_past_the_digit_limit(tmp_path, capsys, fmt):
    # a cm-scan set scaled by c: no input coordinate has more than 4,300
    # digits, but the CM witness (7c, 3c, 0) has 4,301
    c = 15 * 10 ** 4298
    generators = [[c * x for x in gen] for gen in (
        (5, 0, 0), (4, 1, 0), (4, 0, 1), (1, 4, 0), (0, 5, 0), (0, 3, 2),
        (0, 0, 5))]
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps({"dim": 3, "generators": generators}))
    status, out, err = run(capsys, "semigroup", str(path), "--bound", "2",
                           "--format", fmt)
    assert (status, err) == (0, "")
    assert "105" + "0" * 4298 in out


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "ideal", "6", "0,1,3")
    _, second, _ = run(capsys, "ideal", "6", "0,1,3")
    assert first == second


# the invariants reports whose stdout cli_digests.json pins
INVARIANTS_REPORTS = [(d, weights, horizon, fmt)
                      for d, weights, horizon in (("8", "0,3,5", "3"),
                                                  ("4", "0,1,2,3", "2"))
                      for fmt in ("table", "json")]


@pytest.mark.parametrize("d, weights, horizon, fmt", INVARIANTS_REPORTS)
def test_invariants_report(capsys, d, weights, horizon, fmt):
    argv = ["invariants", d, weights, "--t", horizon]
    argv += ["--format", "json"] if fmt == "json" else []
    status, out, _ = run(capsys, *argv)
    assert status == 0
    action = CyclicAction(int(d), tuple(map(int, weights.split(","))))
    if fmt == "json":
        entries = [(e["t"], e["degree"], e["count"],
                    tuple(map(tuple, e["monomials"])))
                   for e in json.loads(out)["invariants"]]
    else:
        lines = out.splitlines()[1:]
        entries = []
        for head, pretty in zip(lines[::2], lines[1::2]):
            t, degree, count = (int(f.split("=")[1]) for f in head.split())
            entries.append((t, degree, count, pretty.split()))
    assert [e[0] for e in entries] == list(range(1, int(horizon) + 1))
    for t, degree, count, monomials in entries:
        assert degree == t * action.d
        assert count == len(monomials)
        expected = invariant_monomials(action, t)
        assert monomials == (expected if fmt == "json" else
                             [format_monomial(m) for m in expected])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS["stdout"][" ".join(argv)]


def test_usage_errors(capsys):
    assert run(capsys, "hilbert", "2", "1", "3")[0] == 1
    assert run(capsys, "classify", "4", "0,2")[0] == 1  # gcd violation
    assert run(capsys, "classify", "5", "0,x")[0] == 1
    assert run(capsys, "semigroup", "/nonexistent.json")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "invariants", "5", "0,1,3", "--t", "0")[0] == 1


def test_invariants_listing(capsys):
    status, out, _ = run(capsys, "invariants", "8", "0,3,5")
    assert status == 0
    assert "count=7" in out
    assert "x0^6*x1*x2" in out


def test_semigroup_file(tmp_path, capsys):
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps({
        "dim": 3,
        "generators": [[5, 0, 0], [0, 5, 0], [0, 0, 5], [3, 1, 1],
                       [2, 2, 1], [1, 3, 1]],
    }))
    status, out, _ = run(capsys, "semigroup", str(path), "--bound", "6",
                         "--member", "4,3,3")
    assert status == 0
    assert "counterexample" in out
    assert "member [4, 3, 3]: False" in out


def test_action_file_input(tmp_path, capsys):
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"d": 5, "weights": [0, 1, 3]}))
    status, out, _ = run(capsys, "classify", "--file", str(path))
    assert status == 0 and "is_gt_system = True" in out
    # exactly one input source
    assert run(capsys, "classify", "5", "0,1,3", "--file", str(path))[0] == 1
    assert run(capsys, "classify")[0] == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status, out, _ = run(capsys, "hilbert", "1", "2", "3",
                         "--format", "json", "--output", str(target))
    assert status == 0 and out == ""
    parsed = json.loads(target.read_text())
    assert parsed["profile"]["theta"] == 3


def test_catalog_note_does_not_change_exit_code(capsys):
    status, out, _ = run(capsys, "hilbert", "1", "3", "6")
    assert status == 0
    assert "note: published catalogue" in out
    assert "FLAG" not in out


def test_internal_discrepancy_exit_code(capsys, monkeypatch):
    # force one route to disagree; the report must flag it and exit 2
    monkeypatch.setattr(cli, "hf_reduced", lambda a, b, d, t: 0)
    status, out, _ = run(capsys, "hilbert", "1", "2", "3", "--t", "1")
    assert status == 2
    assert "FLAG" in out


@pytest.mark.parametrize("data", [
    {"d": 5.7, "weights": [0, 1, 3.2]},
    {"d": 5, "weights": [0, 1, 3.2]},
    {"d": 5.0, "weights": [0, 1, 3]},
    {"d": 5, "weights": [0, True, 3]},
    {"d": True, "weights": [0, 1]},
    {"d": 5, "weights": [0, "1", 3]},
    {"d": 5, "weights": "013"},
    {"d": 5},
    [5, 0, 1, 3],
])
def test_action_file_rejects_non_integers(tmp_path, capsys, data):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    for command in ("ideal", "classify", "invariants"):
        status, out, err = run(capsys, command, "--file", str(path))
        assert (status, out) == (1, ""), (command, data)
        assert err.startswith("error: ")


@pytest.mark.parametrize("data", [
    {"generators": [[3.7, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]]},
    {"generators": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, True]]},
    {"dim": 3.0, "generators": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
    {"dim": True, "generators": [[1]]},
    {"dim": 3, "generators": [[3, 0, 0], "030"]},
    {"dim": 3},
    [[3, 0, 0], [0, 3, 0]],
])
def test_semigroup_file_rejects_non_integers(tmp_path, capsys, data):
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps(data))
    status, out, err = run(capsys, "semigroup", str(path), "--bound", "2")
    assert (status, out) == (1, ""), data
    assert err.startswith("error: ")


def test_cross_check_failure_exits_with_discrepancy(capsys, monkeypatch):
    # a cross-check that fails inside a computation is a discrepancy,
    # reported on one stderr line, never a traceback or a partial report
    count = toricideal.count_invariants
    monkeypatch.setattr(toricideal, "count_invariants",
                        lambda action, j: 0 if j == 2 else count(action, j))
    status, out, err = run(capsys, "ideal", "5", "0,1,3")
    assert status == 2
    assert out == ""
    assert err.startswith("internal discrepancy: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["hilbert", "betti"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_parity_fault_exits_with_discrepancy(capsys, monkeypatch, command,
                                             fmt):
    # theta = d (mod 2) makes every surface invariant a whole half; a
    # theta off by one is a defect, reported on one stderr line
    profile = surface_profile(1, 3, 7)
    faulty = profile._replace(theta=profile.theta + 1)
    monkeypatch.setattr(cli, "surface_profile", lambda a, b, d: faulty)
    status, out, err = run(capsys, command, "1", "3", "7", "--format", fmt)
    assert (status, out) == (2, "")
    assert err == ("internal discrepancy: "
                   "theta and d must have the same parity\n")


@pytest.mark.parametrize("fault, t", [
    *(("miscount", t) for t in (1, 2, 3, 4)), ("lost", 1), ("repeated", 1)])
def test_graph_check_failure_exits_with_discrepancy(capsys, monkeypatch,
                                                    fault, t):
    # each degree t = 1 to 4 checks the size of its table of t-fold
    # generator sums against the counted HF(t); degree 1 also catches a
    # generator list that lost a generator or repeats one
    if fault == "miscount":
        count = toricideal.count_invariants
        monkeypatch.setattr(toricideal, "count_invariants",
                            lambda action, j: count(action, j) + (j == t))
    else:
        enumerator = toricideal.invariant_monomials

        def faulty(action, j):
            basis = enumerator(action, j)
            if j != t:
                return basis
            return basis[:-1] if fault == "lost" else basis + basis[-1:]

        monkeypatch.setattr(toricideal, "invariant_monomials", faulty)
    status, out, err = run(capsys, "ideal", "5", "0,1,3")
    assert (status, out) == (2, "")
    assert err.startswith("internal discrepancy: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command, t", [("classify", 1), ("invariants", 2)])
def test_count_check_failure_exits_with_discrepancy(capsys, monkeypatch,
                                                    command, t):
    # classify compares the mu_d that its rank test enumerated, and
    # invariants each enumerated count, with the counted one
    if command == "classify":
        count = togliatti.mu_d
        monkeypatch.setattr(togliatti, "mu_d",
                            lambda action: count(action) + 1)
        argv = ("classify", "5", "0,1,3")
    else:
        count = cli.count_invariants
        monkeypatch.setattr(cli, "count_invariants",
                            lambda action, j: count(action, j) + (j == t))
        argv = ("invariants", "5", "0,1,3", "--t", "3")
    for fmt in ("table", "json"):
        status, out, err = run(capsys, *argv, "--format", fmt)
        assert (status, out) == (2, "")
        assert err == ("internal discrepancy: "
                       f"degree-{t} invariants miscounted\n")


def test_ideal_json_formats_no_table_text(capsys, monkeypatch):
    calls = {"_binomial_str": 0, "format_monomial": 0}
    for name in calls:
        real = getattr(cli, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, counted)
    status, out, _ = run(capsys, "ideal", "6", "0,1,2,4", "--format", "json")
    assert status == 0 and json.loads(out)["counts"]["quadrics"] > 0
    assert calls == {"_binomial_str": 0, "format_monomial": 0}
    # the wrappers do count: the table run formats every binomial
    run(capsys, "ideal", "6", "0,1,2,4")
    assert calls["_binomial_str"] > 0 and calls["format_monomial"] > 0


def _pinned_run(argv, file):
    """Exit status and stdout sha256 of argv, FILE standing for file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main([file if a == "FILE" else a for a in argv])
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


# every record that a subcommand's text reads is pinned in cli_digests.json
@pytest.mark.parametrize("argv, digest", [
    (tuple(argv.split()), digest)
    for argv, digest in DIGESTS["stdout"].items()])
def test_table_bytes_are_pinned(tmp_path, argv, digest):
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps(CUBIC_FILE))
    assert _pinned_run(argv, str(path)) == (0, digest)


def _view_argvs():
    yield from (tuple(argv.split()) for argv in DIGESTS["stdout"])
    for a, b, d in surface_triples(11):
        yield "hilbert", str(a), str(b), str(d)
        yield "betti", str(a), str(b), str(d)
    # c = 10: JSON lists the rank keys as "1,1", "10,2", "2,1", ...
    yield "betti", "7", "13", "14"
    for d, weights in ((5, "0,1,3"), (7, "0,2,3"), (8, "0,3,5"),
                       (4, "0,1,2,3"), (5, "0,1,2,4"), (6, "0,1,3,5")):
        yield "classify", str(d), weights
        yield "ideal", str(d), weights
    yield from (("h3t", "3"), ("hk", "3", "2"),
                ("semigroup", "FILE", "--member", "14,10,6", "--bound", "4"))


def test_table_is_a_view_of_the_report(tmp_path, capsys, monkeypatch):
    # each command's table text is its renderer applied to the report
    # that its JSON output parses back to
    monkeypatch.chdir(tmp_path)
    Path("FILE").write_text(json.dumps(CUBIC_FILE))
    for argv in _view_argvs():
        status, table, _ = run(capsys, *argv, "--format", "table")
        json_status, out, _ = run(capsys, *argv, "--format", "json")
        args = cli._parse(list(argv))
        render = args.run(args)[1]
        assert json_status == status, argv
        assert "\n".join(render(json.loads(out))) + "\n" == table, argv


def test_verify_paper(capsys):
    status, out, _ = run(capsys, "verify-paper")
    assert status == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)


def _fixture(name, key, value):
    """Replace one entry of a verify fixture for one test."""
    return lambda monkeypatch: monkeypatch.setitem(getattr(verify, name),
                                                   key, value)


def _during(check, callee, alter):
    """While verify._check_<check> runs, and only then, pass every result
    of verify.<callee>(*args) through alter(result, *args)."""
    def mutate(monkeypatch):
        index = [f.__name__ for f in verify.CHECKS].index(f"_check_{check}")
        real_check, real_callee = verify.CHECKS[index], getattr(verify, callee)

        def mutated_check():
            setattr(verify, callee,
                    lambda *args: alter(real_callee(*args), *args))
            try:
                return real_check()
            finally:
                setattr(verify, callee, real_callee)

        checks = list(verify.CHECKS)
        checks[index] = mutated_check
        monkeypatch.setattr(verify, "CHECKS", checks)
    return mutate


def _when(condition, change):
    return lambda result, *args: (change(result) if condition(*args)
                                  else result)


# one mutation per reference check: the check's name, the mutation and,
# for a check that compares dicts, the key of the one entry it changes
REFERENCE_MUTATIONS = [
    pytest.param("invariant monomial sets",
                 _fixture("INVARIANT_SETS", (3, (0, 1, 2), 1),
                          {(3, 0, 0), (0, 3, 0), (0, 0, 3)}),
                 (3, (0, 1, 2), 1), id="invariant_sets"),
    pytest.param("generator counts mu_d",
                 _fixture("MU_D_VALUES", (5, (0, 1, 3)), 6),
                 (5, (0, 1, 3)), id="mu_d"),
    pytest.param("Hilbert function values",
                 _fixture("HF_VALUES", (4, (0, 1, 2, 3)), {1: 10, 2: 44}),
                 (4, (0, 1, 2, 3)), id="hf_values"),
    pytest.param("threefold first Betti number (12 quadrics)",
                 _during("threefold_b11", "ideal_dimension",
                         lambda n, action, j: n + 1),
                 None, id="threefold_b11"),
    pytest.param("cubic surface b(1,1)=0 and b(1,2)=1",
                 _during("cubic_b1", "minimal_generators",
                         lambda g, action: g._replace(cubics=g.cubics * 2)),
                 None, id="cubic_b1"),
    pytest.param("EGZ factorization examples",
                 _during("egz", "egz_factor",
                         _when(lambda action, v: v == (4, 1, 1),
                               lambda parts: parts[:-1])),
                 (4, 1, 1), id="egz"),
    pytest.param("WLP failure",
                 _during("wlp", "wlp_fails_in_degree",
                         _when(lambda action, j: action.d == 3,
                               lambda c: c._replace(kernel_dimension=2))),
                 None, id="wlp"),
    pytest.param("GT classification families",
                 _during("classification_families", "classify",
                         _when(lambda action: action.d == 6,
                               lambda r: r._replace(is_gt_system=False))),
                 (6, (0, 1, 2)), id="classification_families"),
    pytest.param("surface profiles (lambda, mu, theta)",
                 _fixture("PROFILE_VALUES", (3, 5, 8), (7, -2, 5)),
                 (3, 5, 8), id="profiles"),
    pytest.param("surface invariants",
                 _fixture("SURFACE_INVARIANT_VALUES", (1, 3, 5), (5, 2, 3)),
                 (1, 3, 5), id="surface_invariants"),
    pytest.param("reduced-system counts",
                 _during("reduced_counts", "hf_reduced",
                         lambda n, a, b, d, t: n + (d == 8)),
                 None, id="reduced_counts"),
    pytest.param("Hilbert series numerators",
                 _fixture("SERIES_NUMERATORS", (2, 3, 6), (1, 4, 2)),
                 (2, 3, 6), id="series"),
    pytest.param("Betti tables",
                 _fixture("BETTI_TABLES", "d=6 codim 3",
                          ((1, 2, 6), {(1, 1): 4, (2, 1): 2, (2, 2): 3,
                                       (3, 2): 3})),
                 "d=6 codim 3", id="betti"),
    pytest.param("generator count formulas",
                 _fixture("GENERATOR_COUNT_VALUES", (1, 3, 5), (1, 3)),
                 (1, 3, 5), id="generator_counts"),
    pytest.param("cubic surface ideal",
                 _during("cubic_ideal", "minimal_generators",
                         lambda g, action: g._replace(
                             cubics=(((0, 0, 0), g.cubics[0][1]),))),
                 None, id="cubic_ideal"),
    pytest.param("toric ideal dimensions",
                 _during("ideal_dimensions", "ideal_dimension",
                         lambda n, action, j: n + (action.d == 5)),
                 None, id="ideal_dimensions"),
    pytest.param("shifted family generators",
                 _fixture("H3T_GENERATORS", 3,
                          verify.H3T_GENERATORS[3] - {(3, 3, 3)}),
                 3, id="h3t_generators"),
    pytest.param("membership facts",
                 _during("membership_facts", "member",
                         _when(lambda H, w: w == (0, 15, 9),
                               lambda m: m._replace(member=True))),
                 (0, 15, 9), id="membership_facts"),
    pytest.param("normality witness",
                 _during("normality", "is_normal_up_to",
                         _when(lambda H, bound: H.degree == 5,
                               lambda r: r._replace(normal_up_to_bound=False,
                                                    witness=(5, 5, 5)))),
                 (5, (0, 1, 3)), id="normality"),
    pytest.param("one-zero-coordinate membership lemma",
                 _during("lemma_two_zero", "lemma_two_zero_check",
                         lambda ok, t, box: ok and t != 2),
                 2, id="lemma_two_zero"),
    pytest.param("CM certification of the shifted family",
                 _during("trung_families", "trung_cm_check",
                         _when(lambda H, bound: H == make_hk(2, 2),
                               lambda r: r._replace(status="counterexample"))),
                 "hk(2, 2)", id="trung_families"),
    pytest.param("CM certification of GT semigroups",
                 _during("trung_gt", "trung_cm_check",
                         _when(lambda H, bound: H.degree == 5,
                               lambda r: r._replace(status="counterexample"))),
                 (5, (0, 1, 3)), id="trung_gt"),
    pytest.param("non-aCM counterexample",
                 _during("non_acm_counterexample", "member",
                         lambda m, H, w: m._replace(member=True)),
                 None, id="non_acm_counterexample"),
    pytest.param("non-aCM counterexample",
                 _during("non_acm_counterexample", "trung_cm_check",
                         lambda r, H, bound: r._replace(
                             status="verified-up-to-bound", witness=None)),
                 None, id="non_acm_without_witness"),
    pytest.param("published catalogue notes",
                 _during("catalog_notes", "catalog_notes",
                         lambda notes, profile: notes or ("spurious",)),
                 (1, 2, 6), id="catalog_notes"),
]


@pytest.mark.parametrize("name, mutate, key", REFERENCE_MUTATIONS)
def test_each_reference_check_reports_its_own_failure(capsys, monkeypatch,
                                                      name, mutate, key):
    mutate(monkeypatch)
    status, out, _ = run(capsys, "verify-paper")
    assert status == 3
    failed = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith(f"FAIL  {name}  [got ")
    status, out, _ = run(capsys, "verify-paper", "--format", "json")
    report = json.loads(out)
    assert status == 3
    assert (report["failed"], report["passed"]) == (1, 23)
    # a check that compares dicts shows only the entry that differs
    (check,) = [c for c in report["checks"] if not c["ok"]]
    got, expected = check["detail"].removeprefix("got ").split(", expected ")
    if key is not None:
        assert list(ast.literal_eval(got)) == [key], check["detail"]
        assert list(ast.literal_eval(expected)) == [key], check["detail"]


def test_classification_families_classify_each_action_once(monkeypatch):
    calls = []
    real = verify.classify
    monkeypatch.setattr(verify, "classify",
                        lambda action: calls.append(action) or real(action))
    assert verify._check_classification_families().ok
    assert len(calls) == len(set(calls)) == 8


def test_output_does_not_depend_on_the_hash_seed():
    # sets are printed in hash order; a str hash changes with the seed
    failing = ("import sys; from gt_toolkit import cli, verify; "
               "verify.H3T_GENERATORS[2] = {(6, 0, 0)}; "
               "sys.exit(cli.main(['verify-paper', '--format', 'json']))")
    src = str(Path(cli.__file__).resolve().parents[1])
    for args, expected_status in (
            (["-m", "gt_toolkit.cli", "verify-paper", "--format", "json"], 0),
            (["-m", "gt_toolkit.cli", "ideal", "5", "0,1,2,3",
              "--format", "json"], 0),
            (["-c", failing], 3)):
        runs = [subprocess.run([sys.executable, *args], capture_output=True,
                               env=dict(os.environ, PYTHONPATH=src,
                                        PYTHONHASHSEED=seed))
                for seed in ("0", "1")]
        assert [r.returncode for r in runs] == [expected_status] * 2, args
        assert runs[0].stdout == runs[1].stdout, args


@pytest.mark.parametrize("command", ["hilbert", "betti"])
def test_inconsistent_profile_is_flagged(capsys, monkeypatch, command):
    # a profile whose count disagrees with theta is flagged: the report
    # is written in full, with its flag, and exits 2; hilbert's
    # invariants block keeps the theta formula's mu_d beside the count
    stale = surface_profile(1, 3, 6)._replace(mu_d=8)
    monkeypatch.setattr(cli, "surface_profile", lambda a, b, d: stale)
    status, out, err = run(capsys, command, "1", "3", "6", "--format", "json")
    report = json.loads(out)
    assert (status, err) == (2, "")
    assert report["profile"]["mu_d"] == 8
    assert report["profile"]["consistent"] is False
    assert report["flags"][0] == stale.flags[0]
    if command == "hilbert":
        assert report["invariants"]["mu_d"] == 7


def test_surface_reports_pin_invariants_and_closed_form(capsys):
    for d in range(3, 13):
        for a in range(1, d):
            for b in range(a + 1, d):
                if gcd(a, b, d) != 1:
                    continue
                p = surface_profile(a, b, d)
                args = (str(a), str(b), str(d), "--format", "json")
                status, out, _ = run(capsys, "hilbert", *args)
                assert status == 0, (a, b, d)
                report = json.loads(out)
                assert report["invariants"] == {
                    "mu_d": (d + p.theta + 2) // 2, "degree": d,
                    "codim": p.codim, "cm_type": p.cm_type, "reg": 3,
                }, (a, b, d)
                table = report["hilbert"]["table"]
                for t, row in enumerate(report["routes"]):
                    assert row["closed_form"] == hf_closed_form(p, t) \
                        == table[t], (a, b, d, t)
                status, out, _ = run(capsys, "betti", *args)
                assert status == 0, (a, b, d)
                counted = mu_d(CyclicAction(d, (0, a, b)))
                assert json.loads(out)["betti"]["mu_d"] == counted, (a, b, d)


def test_out_of_memory_is_one_error_line():
    # only the child runs under the cap: 64 MiB of address space, about
    # three times what the interpreter and the package take.  The degree
    # 300000 invariants of d = 3 number about 1.5e10, so listing them
    # reaches the cap within a second or two.
    resource = pytest.importorskip("resource")
    cap = 64 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "gt_toolkit.cli",
                           "invariants", "3", "0,1,2", "--t", "100000"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=limit)
    assert done.returncode == cli.OUT_OF_MEMORY == 4
    assert (done.stdout, done.stderr) == ("", "error: out of memory\n")
    assert hashlib.sha256(done.stderr.encode()).hexdigest() == \
        DIGESTS["stderr"]["out-of-memory"]
    assert "| 4    | out of memory" in README.read_text(encoding="utf-8")


def test_closed_stdout_is_one_error_line():
    # the pipe's read end is closed before the child starts, so the
    # write of the report fails whatever its size or timing; the
    # 143,920-byte report would also outgrow a 64 KiB pipe buffer
    src = str(Path(cli.__file__).resolve().parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "gt_toolkit.cli",
                               "ideal", "8", "0,1,2,3,5", "--format", "json"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert done.returncode == cli.BROKEN_PIPE == 141
    assert done.stderr == \
        "error: stdout was closed before the report was written\n"
    assert hashlib.sha256(done.stderr.encode()).hexdigest() == \
        DIGESTS["stderr"]["closed-stdout"]
    assert "| 141  | stdout was closed" in README.read_text(encoding="utf-8")


def test_interrupt_is_one_error_line(capsys, monkeypatch):
    # a KeyboardInterrupt raised inside the computation, as SIGINT
    # raises it, ends the command with one stderr line and no report
    def interrupted(action):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "minimal_generators", interrupted)
    status, out, err = run(capsys, "ideal", "10", "0,1,2,3,4,5,6")
    assert (status, out) == (cli.INTERRUPTED, "") and status == 130
    assert err == "error: interrupted\n"
    assert hashlib.sha256(err.encode()).hexdigest() == \
        DIGESTS["stderr"]["interrupted"]
    assert "| 130  | interrupted" in README.read_text(encoding="utf-8")


def test_readme_hilbert_example_is_verbatim(capsys):
    prompt = "$ gt-toolkit hilbert 1 3 6 --t 3\n"
    text = README.read_text(encoding="utf-8")
    start = text.index(prompt) + len(prompt)
    block = text[start:text.index("```", start)]
    status, out, _ = run(capsys, "hilbert", "1", "3", "6", "--t", "3")
    assert status == 0
    assert out == block


def test_semigroup_member_deep_query(tmp_path, capsys):
    # a sum of 1500 generators, past the depth of any recursive search
    generators = [[5, 0, 0], [0, 5, 0], [0, 0, 5], [3, 1, 1], [2, 2, 1],
                  [1, 3, 1]]
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps({"dim": 3, "generators": generators}))
    status, out, err = run(capsys, "semigroup", str(path), "--bound", "1",
                           "--member", "2819,2747,1934", "--format", "json")
    assert status == 0 and err == ""
    report = json.loads(out)
    answer = report["member_query"]
    assert answer["member"] is True
    gens = report["semigroup"]["generators"]
    total = [sum(gens[i][k] for i in answer["decomposition"])
             for k in range(3)]
    assert total == [2819, 2747, 1934]


def test_semigroup_member_with_big_integer_coordinates(tmp_path, capsys):
    # the cubic set scaled by 2**64 + 1: coordinates past any machine word
    c = 2 ** 64 + 1
    generators = [[c * x for x in gen] for gen in
                  ([5, 0, 0], [0, 5, 0], [0, 0, 5], [3, 1, 1], [2, 2, 1],
                   [1, 3, 1])]
    query = [c * x for x in (14, 10, 6)]
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps({"dim": 3, "generators": generators}))
    status, out, err = run(capsys, "semigroup", str(path), "--bound", "1",
                           "--member", ",".join(map(str, query)),
                           "--format", "json")
    assert status == 0 and err == ""
    report = json.loads(out)
    answer = report["member_query"]
    assert answer["member"] is True
    gens = report["semigroup"]["generators"]
    total = [sum(gens[i][k] for i in answer["decomposition"])
             for k in range(3)]
    assert total == query


def test_member_resum_fault_exits_with_discrepancy(tmp_path, capsys,
                                                  monkeypatch):
    # the Apery set is built and re-summed before the fault is planted,
    # so the re-sum that fails is member's, of its decomposition
    path = tmp_path / "semigroup.json"
    path.write_text(json.dumps(CUBIC_FILE))
    argv = ("semigroup", str(path), "--bound", "1", "--member", "14,10,6")
    _apery.cache_clear()
    try:
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(semigroups, "_resum", lambda H, indices: ())
        status, out, err = run(capsys, *argv)
    finally:
        _apery.cache_clear()
    assert (status, out) == (2, "")
    assert err == ("internal discrepancy: decomposition of (14, 10, 6) "
                   "does not re-sum\n")


def test_reports_do_not_depend_on_the_apery_cache(tmp_path, capsys):
    # two files hold one generator set, shuffled and with a repeat, so
    # the second is served by the first's Apery build, and classify runs
    # on actions of one (n, d), which share restricted powers of
    # x1+...+xn; every report of a warm process must read as it does
    # from a cold one
    generators = [[5, 0, 0], [0, 5, 0], [0, 0, 5], [3, 1, 1], [2, 2, 1],
                  [1, 3, 1]]
    listed = generators + [generators[3]]
    random.Random(7).shuffle(listed)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"dim": 3, "generators": generators}))
    second.write_text(json.dumps({"dim": 3, "generators": listed}))
    argvs = [("semigroup", str(path), "--bound", str(bound), "--member",
              query, "--format", "json")
             for path, bound, query in ((first, 6, "4,3,3"),
                                        (second, 6, "4,3,3"),
                                        (second, 8, "14,10,6"),
                                        (first, 4, "2819,2747,1934"))]
    argvs += [("h3t", "3", "--bound", "8", "--format", "json"),
              ("h3t", "2", "--bound", "6", "--format", "json"),
              ("hk", "2", "1", "--bound", "8", "--format", "json"),
              ("verify-paper", "--format", "json")]
    argvs += [("classify", "7", weights, "--format", "json")
              for weights in ("0,1,3", "0,1,2", "0,2,3")]
    argvs += [("classify", "8", weights, "--format", fmt)
              for weights in ("0,1,2,3", "0,1,3,5")
              for fmt in ("table", "json")]
    caches = (_apery, togliatti._restricted_power)
    cold = {}
    for argv in argvs:
        for cache in caches:
            cache.cache_clear()
        cold[argv] = run(capsys, *argv)
        assert cold[argv][0] == 0 and cold[argv][2] == "", argv
    for cache in caches:
        cache.cache_clear()
    for argv in argvs + argvs[::-1]:
        assert run(capsys, *argv) == cold[argv], argv
    assert all(cache.cache_info().hits > 0 for cache in caches)


def test_classify_ranks_once(capsys, monkeypatch):
    # classify() already runs the WLP rank test; the CLI reuses its result
    calls = []
    real_rank = togliatti.integer_rank

    def counting_rank(rows):
        calls.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(togliatti, "integer_rank", counting_rank)
    status, out, _ = run(capsys, "classify", "5", "0,1,3", "--format", "json")
    check = json.loads(out)["wlp_check"]
    assert status == 0 and check["kernel_dimension"] == 1
    assert len(calls) == 1
    # the rank is taken of the mu_d generators restricted to x0+x1+x2 = 0:
    # sparse rows keyed by the exponents of x1, x2 in degree d, packed as
    # two digits of d.bit_length() bits, x1 first; at most one entry per
    # degree-d monomial of k[x1, x2], never dense lists
    rows = calls[0]
    assert rows and all(type(row) is dict for row in rows)
    assert len(rows) == mu_d(CyclicAction(5, (0, 1, 3)))
    assert all(type(key) is int for row in rows for key in row)
    digit = 1 << (5).bit_length()
    keys = [divmod(key, digit) for row in rows for key in row]
    assert all(len(key) == 2 and sum(key) == 5 and max(key) < digit
               for key in keys)
    assert all(len(row) <= comb(5 + 1, 1) for row in rows)
    # decoded, they are the unit rows of the x0-free generators, then
    # (-1)^a0*(x1+x2)^a0*x1^b*x2^c for each x0^a0*x1^b*x2^c in lex
    # order, without the unit rows' columns
    gens = invariant_monomials(CyclicAction(5, (0, 1, 3)), 1)
    units = {g[1:] for g in gens if not g[0]}
    decoded = [{divmod(key, digit): c for key, c in row.items()}
               for row in rows]
    assert (sorted(tuple(row.items()) for row in decoded[:len(units)])
            == sorted(((u, 1),) for u in units))
    assert decoded[len(units):] == [
        {(b + k, c + a0 - k): (-1) ** a0 * comb(a0, k)
         for k in range(a0 + 1) if (b + k, c + a0 - k) not in units}
        for a0, b, c in sorted(g for g in gens if g[0])]


def test_betti_builds_one_table(capsys, monkeypatch):
    # the table is built once, and its series is read from that table
    calls = []
    real_table = resolution.betti_table

    def counting_table(profile):
        calls.append(profile)
        return real_table(profile)

    monkeypatch.setattr(cli, "betti_table", counting_table)
    monkeypatch.setattr(resolution, "betti_table", counting_table)
    status, _, _ = run(capsys, "betti", "1", "4", "8")
    assert status == 0
    assert len(calls) == 1


def _nested_action(depth):
    # the action (5; 0,1,3) with an extra value that brings the whole
    # file to the given nesting depth; brackets inside strings, escaped
    # quotes included, do not count
    extra = "[" * (depth - 1) + "]" * (depth - 1)
    return ('{"d": 5, "weights": [0, 1, 3], "note": "\\"[[{{\\\\", '
            '"extra": ' + extra + "}")


CUBIC_FILE = {"dim": 3, "generators": [[5, 0, 0], [0, 5, 0], [0, 0, 5],
                                       [3, 1, 1], [2, 2, 1], [1, 3, 1]]}


@pytest.mark.parametrize("case", [
    "missing-file", "directory-input", "invalid-json", "true-weight",
    "member-length", "member-not-integer", "bound-zero", "output-missing-dir",
    "output-is-dir", "d-underscore", "weight-arabic-digit",
    "member-fullwidth-digit", "a-underscore", "b-arabic-digit",
    "hilbert-t-underscore", "invariants-t-arabic-digit", "t-underscore",
    "k-devanagari-digit", "tprime-underscore", "bound-arabic-digit",
    "semigroup-bound-underscore", "semigroup-deep-json", "ideal-deep-json",
    "action-over-depth-limit", "member-empty", "output-empty",
    "file-empty-with-inline", "action-not-object", "d-past-digit-limit",
    "action-file-past-digit-limit", "unknown-command", "no-command",
    "missing-argument", "ambiguous-option", "unrecognized-argument",
    "option-without-value", "format-choice", "invariants-t-zero",
    "hilbert-t-zero", "h3t-t-zero", "no-axis-multiples", "gcd-violation",
    "surface-out-of-order", "order-below-two", "non-utf8-file",
])
def test_bad_input_never_ends_in_traceback(tmp_path, capsys, monkeypatch,
                                           case):
    # every failure is one "error:" line on stderr, exit 1, no report;
    # files are named relative to the test's own directory, so each
    # stderr is pinned by its sha256
    monkeypatch.chdir(tmp_path)
    semigroup = Path("semigroup.json")
    semigroup.write_text(json.dumps(CUBIC_FILE))
    broken = Path("broken.json")
    broken.write_text('{"d": 5, "weights": [0, 1,')
    action = Path("action.json")
    action.write_text(json.dumps({"d": 5, "weights": [0, True, 3]}))
    missing_dir = Path("absent", "report.txt")
    deep = Path("deep.json")
    deep.write_text("[" * 100_000)
    nested = Path("nested.json")
    nested.write_text(_nested_action(cli.JSON_MAX_DEPTH + 1))
    listed = Path("listed.json")
    listed.write_text("[1, 2]")
    # a report may pass the int-to-str digit limit, its input may not
    digits = "1" * 5000
    huge = Path("huge.json")
    huge.write_text('{"d": ' + digits + ', "weights": [0, 1, 3]}')
    latin1 = Path("latin1.json")
    latin1.write_bytes(b"\xff" + json.dumps(CUBIC_FILE).encode())
    no_axis = Path("no_axis.json")
    no_axis.write_text(json.dumps({"dim": 3, "generators": [
        [3, 0, 0], [0, 3, 0], [1, 1, 1], [2, 1, 0]]}))
    argv = {
        "missing-file": ["semigroup", "absent.json"],
        "directory-input": ["classify", "--file", "."],
        "invalid-json": ["ideal", "--file", str(broken)],
        "true-weight": ["classify", "--file", str(action)],
        "member-length": ["semigroup", str(semigroup), "--member", "4,3"],
        "member-not-integer": ["semigroup", str(semigroup), "--member", "4,x"],
        "bound-zero": ["h3t", "2", "--bound", "0"],
        "output-missing-dir": ["classify", "5", "0,1,3",
                               "--output", str(missing_dir)],
        "output-is-dir": ["classify", "5", "0,1,3", "--output", "."],
        # int() alone takes "_" separators and non-ASCII decimal digits
        "d-underscore": ["classify", "1_3", "0,1,3"],
        "weight-arabic-digit": ["classify", "13", "0,1,\u0663"],
        "member-fullwidth-digit": ["semigroup", str(semigroup),
                                   "--member", "5,0,\uff10"],
        "a-underscore": ["hilbert", "0_1", "2", "3"],
        "b-arabic-digit": ["betti", "1", "\u0664", "8"],
        "hilbert-t-underscore": ["hilbert", "1", "2", "3", "--t", "1_0"],
        "invariants-t-arabic-digit": ["invariants", "5", "0,1,3",
                                      "--t", "\u0662"],
        "t-underscore": ["h3t", "1_0"],
        "k-devanagari-digit": ["hk", "\u0968", "1"],
        "tprime-underscore": ["hk", "2", "0_1"],
        "bound-arabic-digit": ["h3t", "2", "--bound", "\u0663"],
        "semigroup-bound-underscore": ["semigroup", str(semigroup),
                                       "--bound", "1_0"],
        # the JSON decoder recurses once per nesting level
        "semigroup-deep-json": ["semigroup", str(deep)],
        "ideal-deep-json": ["ideal", "--file", str(deep)],
        # well-formed, and one level deeper than any input may nest
        "action-over-depth-limit": ["classify", "--file", str(nested)],
        # an empty option value is a value, not an absent option
        "member-empty": ["semigroup", str(semigroup), "--member", ""],
        "output-empty": ["classify", "5", "0,1,3", "--output", ""],
        "file-empty-with-inline": ["invariants", "3", "0,1,2", "--file", ""],
        "action-not-object": ["classify", "--file", str(listed)],
        "d-past-digit-limit": ["betti", "1", "2", digits],
        "action-file-past-digit-limit": ["ideal", "--file", str(huge)],
        "unknown-command": ["nonsense"],
        "no-command": [],
        "missing-argument": ["hilbert", "1", "2"],
        "ambiguous-option": ["classify", "--f", "x"],
        "unrecognized-argument": ["classify", "5", "0,1,3", "extra"],
        "option-without-value": ["h3t", "2", "--bound"],
        "format-choice": ["h3t", "2", "--format", "xml"],
        "invariants-t-zero": ["invariants", "5", "0,1,3", "--t", "0"],
        "hilbert-t-zero": ["hilbert", "1", "2", "3", "--t", "0"],
        "h3t-t-zero": ["h3t", "0"],
        "no-axis-multiples": ["semigroup", str(no_axis), "--member", "3,0,0"],
        "gcd-violation": ["classify", "4", "0,2"],
        "surface-out-of-order": ["hilbert", "2", "1", "3"],
        "order-below-two": ["ideal", "1", "0,0"],
        "non-utf8-file": ["classify", "--file", str(latin1)],
    }[case]
    status, out, err = run(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert hashlib.sha256(err.encode()).hexdigest() == \
        DIGESTS["stderr"][case], err
    if case.startswith("output-"):
        assert err.startswith(f"error: cannot write {argv[-1]}: ")
    if case == "non-utf8-file":
        assert err.startswith(f"error: cannot read {latin1}: ")
    if case in ("member-not-integer", "member-empty"):
        assert "--member" in err and "weights" not in err
    if case.endswith("-deep-json"):
        assert err == (f"error: JSON in {deep} nests deeper than "
                       f"{cli.JSON_MAX_DEPTH} levels\n")
    if case == "action-over-depth-limit":
        assert err == (f"error: JSON in {nested} nests deeper than "
                       f"{cli.JSON_MAX_DEPTH} levels\n")
        # at the limit the same action parses
        nested.write_text(_nested_action(cli.JSON_MAX_DEPTH))
        assert run(capsys, "classify", "--file", str(nested)) == \
            run(capsys, "classify", "5", "0,1,3")
    if case == "file-empty-with-inline":
        assert err == "error: give either d and weights or --file, not both\n"
    if case == "d-past-digit-limit":
        assert err == "error: argument d: integer has more than 4300 digits\n"
    if case == "action-file-past-digit-limit":
        assert err == (f"error: an integer in {huge} has more than 4300 "
                       "digits\n")
    if case.endswith("-past-digit-limit"):
        assert "set_int_max_str_digits" not in err
    if case == "action-not-object":
        assert err == ("error: malformed action input: need a JSON object "
                       "with d and weights\n")
        for text in ('"abc"', '{"d": 5}'):
            listed.write_text(text)
            assert run(capsys, "classify", "--file", str(listed))[2] == err


def _scanned_depth(text):
    """The character-by-character reader that _json_depth replaced."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


def test_json_depth_matches_the_character_scan():
    # invalid JSON too: which error a file gets depends on its depth.
    # The fixed texts open with a closing bracket, end inside a string
    # or on a lone backslash, and put runs of backslashes before quotes.
    rng = random.Random(20201203)
    texts = ["", "]", "][[", '"', '"[', '\\', '"\\', '"\\"[', '\\"[',
             '"\\\\"[', '"\\\\\\"[', '["\\\n]"]', '{"a": "\\"}"}']
    for _ in range(50_000):
        texts.append("".join(rng.choice('[]{}"\\a,\n')
                             for _ in range(rng.randrange(40))))
    for text in texts:
        assert cli._json_depth(text) == _scanned_depth(text), repr(text)


@pytest.mark.parametrize("char, count, quoted", [
    ("a", 8 << 20, True), ('"', 4 << 20, True), ("\\", 4 << 20, True),
    ("[", 8 << 20, False)],
    ids=["letters", "escaped-quotes", "backslashes", "brackets"])
def test_long_input_reads_in_bounded_memory(tmp_path, capsys, char, count,
                                            quoted):
    # 8 MiB of the file's text beside the action: a string, which
    # from_dict ignores, or brackets, which the depth check rejects before
    # the decoder sees them.  Only the child runs under the cap, 96 MiB
    # of address space, where the character-by-character reader needs
    # less than 64: a reader that keeps state per character, escape or
    # bracket runs out of memory there.
    resource = pytest.importorskip("resource")
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    action = tmp_path / "action.json"
    note = json.dumps(char * count) if quoted else char * count
    action.write_text('{"d": 5, "weights": [0, 1, 3], "note": ' + note + "}")
    assert 8 << 20 <= action.stat().st_size < 9 << 20
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "gt_toolkit.cli",
                           "classify", "--file", str(action),
                           "--format", "json"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=limit)
    if quoted:
        expected = (0, *run(capsys, "classify", "5", "0,1,3",
                                "--format", "json")[1:])
    else:
        expected = (1, "", f"error: JSON in {action} nests deeper than "
                           f"{cli.JSON_MAX_DEPTH} levels\n")
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_signed_ascii_integers_still_parse(capsys):
    assert run(capsys, "classify", "+5", "0,+1,3") == \
        run(capsys, "classify", "5", "0,1,3")


def _fresh(*args):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_parser_is_shared_and_unchanged_by_a_failed_parse(capsys):
    # every main() call reads the one module-level table; a rejected argv
    # must leave it as a fresh interpreter builds it
    before = repr(cli._COMMANDS)
    status, out, _ = run(capsys, "hk", "2", "--bound", "x")
    assert (status, out) == (1, "")
    assert repr(cli._COMMANDS) == before
    argv = ["hk", "2", "1", "--bound", "3"]
    status, out, err = run(capsys, *argv)
    assert (status, err) == (0, "")
    fresh = _fresh("-m", "gt_toolkit.cli", *argv)
    assert (fresh.returncode, fresh.stdout) == (0, out)


def test_every_subcommand_carries_its_handler():
    # main() calls args.run; every command of the table must name the
    # module-level handler of its own name
    assert "verify-paper" in cli._COMMANDS
    for name, (run, *_) in cli._COMMANDS.items():
        assert run.__name__.startswith("_cmd_"), name
        assert getattr(cli, run.__name__) is run, name


def test_cli_imports_neither_argparse_nor_gettext():
    # building argparse's parsers cost about 4 ms a process, and importing
    # argparse with gettext about 3 ms
    done = _fresh("-c", "import sys, gt_toolkit.cli; "
                  "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_help_lists_every_command_and_option():
    done = _fresh("-m", "gt_toolkit", "-h")
    assert (done.returncode, done.stderr) == (0, "")
    for name in cli._COMMANDS:
        assert f" gt-toolkit {name} " in done.stdout, name
    done = _fresh("-m", "gt_toolkit", "hilbert", "-h")
    assert (done.returncode, done.stderr) == (0, "")
    assert "gt-toolkit hilbert a b d [--format FORMAT] [--output OUTPUT] " \
           "[--t T]\n" in done.stdout
    assert "invariants" not in done.stdout


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cubic = Path(tmp, "FILE")
        cubic.write_text(json.dumps(CUBIC_FILE))
        for key in DIGESTS["stdout"]:
            status, DIGESTS["stdout"][key] = _pinned_run(key.split(),
                                                         str(cubic))
            assert status == 0, key
    DIGESTS_FILE.write_text(json.dumps(DIGESTS, indent=2) + "\n",
                            encoding="utf-8")
