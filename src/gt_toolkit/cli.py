"""Command-line front end.

Exit codes: 0 success, 1 usage or input error, 2 an internal
discrepancy: hilbert and betti write their report with its FLAG lines,
and a failed internal cross-check writes one "internal discrepancy:"
line and no report, 3 a verification check failed, 4 out of memory: a
valid input whose computation or report does not fit in the memory the
process may use, 130 interrupted, 141 stdout closed before the report
was written (the codes of a shell for a death by SIGINT and SIGPIPE).
A flagged report and a failed check are the handler's status; every
other failure is raised, as one exception type per code, which main
alone catches: ValueError for 1, InternalDiscrepancy for 2, MemoryError
for 4, KeyboardInterrupt for 130 and BrokenPipeError for 141; each
ends in one stderr line and no traceback.  Output is deterministic:
identical inputs give byte-identical output in both table and JSON
formats.  Each command handler builds only its report and returns it
with its renderer, a function of the report alone that yields the table
lines: the table is a view of the JSON report, and a JSON run builds no
table text.  One writer, _json_text, writes every JSON report,
byte-identical to json.dumps(report, indent=2, sort_keys=True).  Input
is read under Python's int-to-str digit limit; main lifts the limit
only while it renders a report, whose integers may exceed it.

Arguments are read against one module-level table, _COMMANDS, of each
subcommand's handler, positionals and options.  Options may come
anywhere after the command, as --opt value, --opt=value or a unique
prefix of --opt; a value is the next argument, whatever it starts with,
and a repeated option's last value wins.  -h lists the usage of every
command, or of one after its name.  Integer arguments and the
comma-separated vectors accept only ASCII decimals, [+-]?[0-9]+.  JSON
input files are read as UTF-8 and may nest at most JSON_MAX_DEPTH (64)
levels.  The depth is read before the file is decoded, by two regexes
and a running maximum over copies of the text, with no state kept per
character, escape or bracket.
"""

from __future__ import annotations

import json
import os
import re
import sys
from itertools import accumulate
from types import SimpleNamespace

from .actions import CyclicAction, format_monomial, invariant_monomials
from .exactalg import InternalDiscrepancy
from .hilbert import (catalog_notes, hf_by_counting, hf_reduced,
                      hilbert_series, surface_profile)
from .resolution import (BettiTable, betti_table, generator_counts,
                         series_from_betti)
from .semigroups import (AffineSemigroup, is_normal_up_to, make_h3t, make_hk,
                         member, trung_cm_check)
from .togliatti import classify
from .toricideal import minimal_generators
from .verify import run_reference_checks

OK, USAGE_ERROR, DISCREPANCY, CHECK_FAILED, OUT_OF_MEMORY = 0, 1, 2, 3, 4
# the codes a shell gives a death by SIGINT and by SIGPIPE, 128 + signal
INTERRUPTED, BROKEN_PIPE = 130, 141
# action files nest 2 levels and semigroup files 3
JSON_MAX_DEPTH = 64


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """A decimal integer written [+-]?[0-9]+, nothing else.

    int() alone would also take "1_3" and non-ASCII digits.
    """
    if _INTEGER.fullmatch(text) is None:
        raise ValueError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        # int()'s own message here points at a Python call
        raise ValueError(f"integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _format(text: str) -> str:
    if text not in ("table", "json"):
        raise ValueError(f"invalid choice: {text!r} (table or json)")
    return text


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{what} must be comma-separated integers: {exc}")


# lazy, not a repeated group: re keeps backtracking state for each
# iteration of (?:[^"\\]|\\.)*, or of the unrolled (?:\\.[^"\\]*)* on
# a string dense with escapes, and runs out of memory on a long string
_STRING = re.compile(r'"(?:.*?"(?<!\\")|.*)', re.DOTALL)
_NOT_BRACKET = re.compile(r"[^][{}]+")
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _json_depth(text: str) -> int:
    """Deepest nesting of [ and { in text, outside strings."""
    # a backslash pair is an escaped backslash in a string and nothing
    # outside one; without the pairs, a string ends at its first quote
    # with no backslash before it
    text = _STRING.sub("", text.replace("\\\\", ""))
    # one character, not one list entry, per bracket
    brackets = _NOT_BRACKET.sub("", text)
    return max(accumulate(map(_STEP.get, brackets), initial=0))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    # the decoder recurses once per level, so the depth is checked first
    if _json_depth(text) > JSON_MAX_DEPTH:
        raise ValueError(f"JSON in {path} nests deeper than "
                         f"{JSON_MAX_DEPTH} levels")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    except ValueError:
        # the decoder's only other ValueError: int() past the digit limit
        raise ValueError(f"an integer in {path} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def _action_from_args(args) -> CyclicAction:
    # exactly one input source: inline d + weights, or a JSON file
    inline = args.d is not None or args.weights is not None
    if args.file is not None:
        if inline:
            raise ValueError("give either d and weights or --file, not both")
        return CyclicAction.from_dict(_load_json(args.file))
    if args.d is None or args.weights is None:
        raise ValueError("need both d and weights (or --file)")
    return CyclicAction(args.d, _parse_ints(args.weights, "weights"))


def _action_line(action: dict) -> str:
    weights = ",".join(map(str, action["weights"]))
    return f"action: d={action['d']} weights={weights}"


def _surface_line(profile: dict) -> str:
    return "surface (a, b, d) = ({a}, {b}, {d})".format_map(profile)


def _cmd_invariants(args):
    action = _action_from_args(args)
    if args.horizon < 1:
        raise ValueError("--t must be at least 1")
    per_degree = []
    for t in range(1, args.horizon + 1):
        monomials = invariant_monomials(action, t)
        per_degree.append({
            "t": t, "degree": t * action.d, "count": len(monomials),
            "monomials": [list(m) for m in monomials],
            "pretty": [format_monomial(m) for m in monomials]})
    return ({"action": action.to_dict(), "invariants": per_degree},
            _invariants_text, OK)


def _invariants_text(report):
    yield _action_line(report["action"])
    for entry in report["invariants"]:
        yield f"t={entry['t']} degree={entry['degree']} count={entry['count']}"
        yield "  " + "  ".join(entry["pretty"])


def _cmd_classify(args):
    result = classify(_action_from_args(args))
    report = {**result.to_dict(), "wlp_check": result.wlp_check.to_dict()}
    return report, _classify_text, OK


def _classify_text(report):
    yield _action_line(report["action"])
    yield "mu_d = {mu_d}, bound = {bound}".format_map(report)
    yield "togliatti candidate: {is_togliatti_candidate}".format_map(report)
    yield ("wlp fails in degree {wlp_check[j]}: {wlp_fails_at_d_minus_1} "
           "(kernel dimension {kernel_dimension}, {wlp_check[test]} test)"
           ).format_map(report)
    yield "is_gt_system = {is_gt_system}".format_map(report)


def _cmd_hilbert(args):
    profile = surface_profile(args.a, args.b, args.d)
    if args.horizon < 1:
        raise ValueError("--t must be at least 1")
    action = profile.action
    data = hilbert_series(profile, args.horizon)
    table = []
    flags = list(profile.flags)
    for t, closed in enumerate(data.table):
        counted = hf_by_counting(action, t)
        reduced = hf_reduced(args.a, args.b, args.d, t)
        if not counted == reduced == closed:
            flags.append(f"HF routes disagree at t={t}: "
                         f"{counted}/{reduced}/{closed}")
        table.append({"t": t, "by_counting": counted,
                      "reduced": reduced, "closed_form": closed})
    # mu_d here is the theta formula's value, beside the profile's count
    invariants = {"mu_d": profile.mu_d_from_theta,
                  "degree": profile.degree, "codim": profile.codim,
                  "cm_type": profile.cm_type, "reg": profile.reg}
    report = {"profile": profile.to_dict(), "hilbert": data.to_dict(),
              "routes": table, "invariants": invariants, "flags": flags,
              "notes": list(catalog_notes(profile))}
    return report, _hilbert_text, DISCREPANCY if flags else OK


def _hilbert_text(report):
    p, data = report["profile"], report["hilbert"]
    yield _surface_line(p)
    yield (f"lambda = {p['lambda']}, mu = {p['mu']}, theta = {p['theta']} "
           f"(counted {p['theta_from_count']})")
    yield (f"mu_d = {p['mu_d']}, degree = {p['degree']}, codim = "
           f"{p['codim']}, cm_type = {p['cm_type']}, reg = {p['reg']}")
    yield "HP coefficients (t^2, t, 1): " + ", ".join(data["polynomial"])
    yield (f"HS numerator: {data['series_numerator']} over "
           f"(1-z)^{data['series_pole_order']}")
    yield "t | counting reduced closed"
    for row in report["routes"]:
        yield "{t} | {by_counting} {reduced} {closed_form}".format_map(row)
    yield from (f"note: {note}" for note in report["notes"])
    yield from (f"FLAG: {flag}" for flag in report["flags"])


def _cmd_betti(args):
    profile = surface_profile(args.a, args.b, args.d)
    table = betti_table(profile)
    counts = generator_counts(profile)
    series = series_from_betti(table)
    flags = list(profile.flags)
    if not series.matches_closed_form:
        flags.append("resolution series does not match the closed form")
    report = {"profile": profile.to_dict(), "betti": table.to_dict(),
              "generator_counts": counts.to_dict(),
              "series": series.to_dict(), "flags": flags}
    return report, _betti_text, DISCREPANCY if flags else OK


def _betti_text(report):
    table = report["betti"]
    yield (f"{_surface_line(report['profile'])}; case {table['case']}, "
           f"c = {table['c']}, h = {table['h']}")
    # keys "l,i" sort as strings in JSON, so "10,2" before "2,1"
    ranks = {tuple(map(int, key.split(","))): r
             for key, r in table["ranks"].items()}
    for (l, i), r in sorted(ranks.items()):
        yield f"b({l},{i}) = {r}  twist {BettiTable.twist(l, i)}"
    yield ("generators per closed formulas: {quadrics} quadrics, "
           "{cubics} cubics").format_map(report["generator_counts"])
    yield ("series numerator {numerator} over (1-z)^{pole_order}; "
           "matches closed form: {matches_closed_form}"
           ).format_map(report["series"])
    yield from (f"FLAG: {flag}" for flag in report["flags"])


def _cmd_ideal(args):
    action = _action_from_args(args)
    gens = minimal_generators(action)
    report = {**gens.to_dict(), "action": action.to_dict(),
              "generator_monomials": [list(m) for m in gens.generators]}
    return report, _ideal_text, OK


def _ideal_text(report):
    yield _action_line(report["action"])
    yield "generators: " + "  ".join(
        f"w{i}={format_monomial(m)}"
        for i, m in enumerate(report["generator_monomials"]))
    for degree in ("quadrics", "cubics"):
        yield f"{degree} ({len(report[degree])}):"
        yield from (f"  {_binomial_str(b)}" for b in report[degree])
    yield f"verified through degree {report['verified_through_degree']}"


def _binomial_str(binomial) -> str:
    return " - ".join("*".join(f"w{i}" for i in side) for side in binomial)


def _semigroup_report(H: AffineSemigroup, bound: int, query=None):
    if bound < 1:
        raise ValueError("--bound must be at least 1")
    report = {"semigroup": H.to_dict(), "degree": H.degree,
              "normality": is_normal_up_to(H, bound).to_dict(),
              "trung": trung_cm_check(H, bound).to_dict()}
    if query is not None:
        report["member_query"] = {"vector": list(query),
                                  **member(H, query).to_dict()}
    return report, _semigroup_text, OK


def _semigroup_text(report):
    H, normal, trung = (report[k] for k in ("semigroup", "normality", "trung"))
    yield (f"semigroup with {len(H['generators'])} generators of degree "
           f"{report['degree']} in dimension {H['dim']}")
    yield "generators: " + "  ".join(map(str, H["generators"]))
    query = report.get("member_query")
    if query is not None:
        yield (f"member {query['vector']}: {query['member']}"
               + (f" decomposition {query['decomposition']}"
                  if query["decomposition"] is not None else ""))
    yield (f"normal up to level {normal['bound']}: "
           f"{normal['normal_up_to_bound']}"
           + (f" (witness {normal['witness']})" if normal["witness"] else ""))
    yield (f"CM certification: {trung['status']} (bound {trung['bound']}, "
           f"hypothesis_ok {trung['hypothesis_ok']})"
           + (f" witness {trung['witness']}" if trung["witness"] else ""))


def _cmd_semigroup(args):
    H = AffineSemigroup.from_dict(_load_json(args.file))
    query = (_parse_ints(args.member, "--member")
             if args.member is not None else None)
    return _semigroup_report(H, args.bound, query)


def _cmd_h3t(args):
    return _semigroup_report(make_h3t(args.t), args.bound)


def _cmd_hk(args):
    return _semigroup_report(make_hk(args.k, args.tprime), args.bound)


def _cmd_verify(args):
    results = run_reference_checks()
    failed = [r for r in results if not r.ok]
    report = {"checks": [r.to_dict() for r in results],
              "passed": len(results) - len(failed), "failed": len(failed)}
    return report, _verify_text, CHECK_FAILED if failed else OK


def _verify_text(report):
    for check in report["checks"]:
        yield (f"{'PASS' if check['ok'] else 'FAIL'}  {check['name']}"
               + (f"  [{check['detail']}]"
                  if not check["ok"] and check["detail"] else ""))
    yield f"{report['passed']}/{len(report['checks'])} checks passed"


# name -> (handler, summary, arguments); an argument maps its flag, or
# for a positional its name, to (dest, converter, default), and a
# default of ... marks it required.  Positionals come first, in order,
# and no flag is a prefix of another.
_COMMON = {"--format": ("format", _format, "table"),
           "--output": ("output", str, None)}
_ACTION = {"d": ("d", _int, None), "weights": ("weights", str, None),
           **_COMMON, "--file": ("file", str, None)}
_SURFACE = {"a": ("a", _int, ...), "b": ("b", _int, ...),
            "d": ("d", _int, ...), **_COMMON}
_BOUND = {"--bound": ("bound", _int, 6)}
_COMMANDS = {
    "invariants": (_cmd_invariants, "invariant monomials, t = 1..T",
                   {**_ACTION, "--t": ("horizon", _int, 1)}),
    "classify": (_cmd_classify, "Togliatti/GT classification", _ACTION),
    "hilbert": (_cmd_hilbert, "surface Hilbert data, three routes",
                {**_SURFACE, "--t": ("horizon", _int, 6)}),
    "betti": (_cmd_betti, "Betti table and generator counts", _SURFACE),
    "ideal": (_cmd_ideal, "binomial generators of the toric ideal", _ACTION),
    "semigroup": (_cmd_semigroup, "normality/CM report of a JSON file",
                  {"file": ("file", str, ...), **_COMMON, **_BOUND,
                   "--member": ("member", str, None)}),
    "h3t": (_cmd_h3t, "shifted family + CM report",
            {"t": ("t", _int, ...), **_COMMON, **_BOUND}),
    "hk": (_cmd_hk, "k-step family + CM report", {"k": ("k", _int, ...),
           "tprime": ("tprime", _int, ...), **_COMMON, **_BOUND}),
    "verify-paper": (_cmd_verify, "published reference values", _COMMON),
}
_HELP = ("-h", "--help")
# argparse's rule: "-5" and "-.5" are values, not options
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _usage(names) -> str:
    """The -h listing of the named commands, read off _COMMANDS."""
    lines = ["usage (FORMAT is table or json):"]
    for name in names:
        _, summary, spec = _COMMANDS[name]
        words = [f"[{k} {k[2:].upper()}]" if k[0] == "-" else
                 k if v[2] is ... else f"[{k}]" for k, v in spec.items()]
        lines += [f"  gt-toolkit {name} {' '.join(words)}", f"      {summary}"]
    return "\n".join(lines) + "\n"


def _parse(argv):
    """The namespace of one command line, read against _COMMANDS, or the
    usage listing that -h asks for."""
    name, *rest = argv or [""]
    if name in _HELP or len(name) > 2 and "--help".startswith(name):
        return _usage(_COMMANDS)
    if name not in _COMMANDS:
        raise ValueError(f"no command {name!r}; gt-toolkit -h lists them")
    run, _, spec = _COMMANDS[name]
    values = {dest: default for dest, _, default in spec.values()}
    positionals = [key for key in spec if key[0] != "-"]
    taken, args = 0, iter(rest)
    for arg in args:
        flag, eq, text = arg.partition("=")
        option = arg[:1] == "-" and arg != "-" and not _NEGATIVE.fullmatch(arg)
        found = [f for f in (*spec, *_HELP) if f == flag or len(flag) > 2
                 and flag[:2] == "--" and f.startswith(flag)] if option else []
        if len(found) > 1:
            raise ValueError(f"ambiguous option {flag}: {', '.join(found)}")
        if found and found[0] in _HELP:
            return _usage([name])
        if found:
            label = found[0]
            text = text if eq else next(args, None)
            if text is None:
                raise ValueError(f"argument {label}: expected one argument")
        # as in argparse, an unknown "-..." with a space is a value
        elif taken == len(positionals) or option and " " not in arg:
            raise ValueError(f"unrecognized argument {arg!r}")
        else:
            label, text, taken = positionals[taken], arg, taken + 1
        dest, convert, _ = spec[label]
        try:
            values[dest] = convert(text)
        except ValueError as exc:
            raise ValueError(f"argument {label}: {exc}")
    missing = [p for p in positionals if values[p] is ...]
    if missing:
        raise ValueError(f"missing arguments: {', '.join(missing)}")
    return SimpleNamespace(run=run, **values)


_ENCODE = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """obj exactly as json.dumps(obj, indent=2, sort_keys=True) writes it.

    With indent set, json.dumps runs its pure-Python encoder.  This walk
    writes the same text in fewer chunks: each scalar is one chunk with
    the separator, indent and key before it, strings are escaped by the
    C function, integers by int.__repr__.  A stack of open containers
    stands in for recursion.  Other types, and dicts with a non-string
    key, go to json.dumps itself, re-indented to their depth, so their
    bytes and their TypeError are the stdlib's.
    """
    chunks = []
    emit = chunks.append
    # per open container: the entries left, whether they are (key, value)
    # pairs, and the indent and separator of its entries
    stack = []
    entries, keyed, newline, sep, lead = iter((obj,)), False, "\n", "", ""
    while True:
        for value in entries:
            if keyed:
                key, value = value
                head = lead + _ENCODE(key) + ": "
            else:
                head = lead
            lead = sep
            kind = type(value)
            if kind is int:
                emit(head + int.__repr__(value))
            elif kind is str:
                emit(head + _ENCODE(value))
            elif (kind is list or kind is tuple
                  or kind is dict and all(type(k) is str for k in value)):
                if not value:
                    emit(head + ("{}" if kind is dict else "[]"))
                    continue
                stack.append((entries, keyed, newline, sep))
                newline += "  "
                if kind is dict:
                    emit(head + "{" + newline)
                    entries, keyed = iter(sorted(value.items())), True
                else:
                    emit(head + "[" + newline)
                    entries, keyed = iter(value), False
                sep, lead = "," + newline, ""
                break
            elif value is None:
                emit(head + "null")
            elif value is True:
                emit(head + "true")
            elif value is False:
                emit(head + "false")
            else:
                emit(head + json.dumps(value, indent=2, sort_keys=True)
                     .replace("\n", newline))
        else:
            if not stack:
                return "".join(chunks)
            close = "}" if keyed else "]"
            entries, keyed, newline, sep = stack.pop()
            emit(newline + close)
            lead = sep


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            text, status, path = args, OK, None
        else:
            report, render, status = args.run(args)
            # input was read under the int-to-str digit limit; a report's
            # own integers, such as Betti numbers of large d, may exceed it
            digits = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                text = (_json_text(report) if args.format == "json"
                        else "\n".join(render(report))) + "\n"
            finally:
                sys.set_int_max_str_digits(digits)
            path = args.output
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write {path}: {exc}") from None
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalDiscrepancy as exc:
        print(f"internal discrepancy: {exc}", file=sys.stderr)
        return DISCREPANCY
    except BrokenPipeError:
        # as in the Python documentation's note on SIGPIPE: stdout goes
        # to devnull, so that the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written",
              file=sys.stderr)
        return BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return INTERRUPTED
    except MemoryError:
        pass
    # reported only here, where the traceback and the data its frames
    # held are freed, so that the report has memory to be written
    print("error: out of memory", file=sys.stderr)
    return OUT_OF_MEMORY


if __name__ == "__main__":
    sys.exit(main())
