"""Command-line front end.

Exit codes: 0 success, 1 usage or input error, 2 a computation finished
but carries a flagged internal discrepancy or an internal cross-check
failed, 3 a verification check failed, 4 out of memory: a valid input
whose computation or report does not fit in the memory the process may
use.  Output is deterministic:
identical inputs give byte-identical output in both table and JSON
formats.  Each command returns its report and its table lines; `ideal`,
`betti` and the semigroup commands yield their lines lazily, so their
table text is built only for table output.  One writer, _json_text,
writes every JSON report, byte-identical to json.dumps(report, indent=2,
sort_keys=True).  Input is read under Python's int-to-str digit limit;
main lifts the limit only while it renders a report, whose integers may
exceed it.

Arguments are read against one module-level table, _COMMANDS, of each
subcommand's handler, positionals and options.  Options may come
anywhere after the command, as --opt value, --opt=value or a unique
prefix of --opt; a value is the next argument, whatever it starts with,
and a repeated option's last value wins.  -h lists the usage of every
command, or of one after its name.  Integer arguments and the
comma-separated vectors accept only ASCII decimals, [+-]?[0-9]+.  JSON
input files may nest at most JSON_MAX_DEPTH (64) levels.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from .actions import CyclicAction, format_monomial, invariant_monomials
from .exactalg import InternalDiscrepancy
from .hilbert import (catalog_notes, hf_by_counting, hf_reduced,
                      hilbert_series, surface_profile)
from .resolution import betti_table, generator_counts, series_from_betti
from .semigroups import (AffineSemigroup, is_normal_up_to, make_h3t, make_hk,
                         member, trung_cm_check)
from .togliatti import classify
from .toricideal import minimal_generators
from .verify import run_reference_checks

OK, USAGE_ERROR, DISCREPANCY, CHECK_FAILED, OUT_OF_MEMORY = 0, 1, 2, 3, 4
# action files nest 2 levels and semigroup files 3
JSON_MAX_DEPTH = 64


class _UsageError(Exception):
    pass


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
        raise _UsageError(f"{what} must be comma-separated integers: {exc}")


def _json_depth(text: str) -> int:
    """Deepest nesting of [ and { in text, outside strings."""
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


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    # the decoder recurses once per level, so the depth is checked first
    if _json_depth(text) > JSON_MAX_DEPTH:
        raise _UsageError(f"JSON in {path} nests deeper than "
                          f"{JSON_MAX_DEPTH} levels")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"invalid JSON in {path}: {exc}")
    except ValueError:
        # the decoder's only other ValueError: int() past the digit limit
        raise _UsageError(f"an integer in {path} has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


def _action_from_args(args) -> CyclicAction:
    # exactly one input source: inline d + weights, or a JSON file
    inline = args.d is not None or args.weights is not None
    if getattr(args, "file", None) is not None:
        if inline:
            raise _UsageError("give either d and weights or --file, not both")
        return CyclicAction.from_dict(_load_json(args.file))
    if args.d is None or args.weights is None:
        raise _UsageError("need both d and weights (or --file)")
    return CyclicAction(args.d, _parse_ints(args.weights, "weights"))


def _cmd_invariants(args):
    action = _action_from_args(args)
    if args.horizon < 1:
        raise _UsageError("--t must be at least 1")
    per_degree = []
    for t in range(1, args.horizon + 1):
        monomials = invariant_monomials(action, t)
        per_degree.append({
            "t": t, "degree": t * action.d, "count": len(monomials),
            "monomials": [list(m) for m in monomials],
            "pretty": [format_monomial(m) for m in monomials]})
    report = {"action": action.to_dict(), "invariants": per_degree}
    lines = [f"action: d={action.d} weights={','.join(map(str, action.weights))}"]
    for entry in per_degree:
        lines.append(f"t={entry['t']} degree={entry['degree']} "
                     f"count={entry['count']}")
        lines.append("  " + "  ".join(entry["pretty"]))
    return report, lines, OK


def _cmd_classify(args):
    action = _action_from_args(args)
    result = classify(action)
    check = result.wlp_check
    report = result.to_dict()
    report["wlp_check"] = check.to_dict()
    lines = [
        f"action: d={action.d} weights={','.join(map(str, action.weights))}",
        f"mu_d = {result.mu_d}, bound = {result.bound}",
        f"togliatti candidate: {result.is_togliatti_candidate}",
        f"wlp fails in degree {action.d - 1}: {result.wlp_fails_at_d_minus_1} "
        f"(kernel dimension {result.kernel_dimension}, {check.test} test)",
        f"is_gt_system = {result.is_gt_system}",
    ]
    return report, lines, OK


def _cmd_hilbert(args):
    profile = surface_profile(args.a, args.b, args.d)
    if args.horizon < 1:
        raise _UsageError("--t must be at least 1")
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
    notes = list(catalog_notes(profile))
    # mu_d here is the theta formula's value, beside the profile's count
    invariants = {"mu_d": profile.mu_d_from_theta,
                  "degree": profile.degree, "codim": profile.codim,
                  "cm_type": profile.cm_type, "reg": profile.reg}
    report = {"profile": profile.to_dict(), "hilbert": data.to_dict(),
              "routes": table, "invariants": invariants, "flags": flags,
              "notes": notes}
    lines = [f"surface (a, b, d) = ({args.a}, {args.b}, {args.d})",
             f"lambda = {profile.lam}, mu = {profile.mu}, "
             f"theta = {profile.theta} (counted {profile.theta_from_count})",
             f"mu_d = {profile.mu_d}, degree = {profile.degree}, "
             f"codim = {profile.codim}, cm_type = {profile.cm_type}, "
             f"reg = {profile.reg}",
             f"HP coefficients (t^2, t, 1): "
             + ", ".join(str(c) for c in data.polynomial),
             f"HS numerator: {list(data.numerator)} over (1-z)^3",
             "t | counting reduced closed"]
    for row in table:
        lines.append(f"{row['t']} | {row['by_counting']} {row['reduced']} "
                     f"{row['closed_form']}")
    for note in notes:
        lines.append(f"note: {note}")
    for flag in flags:
        lines.append(f"FLAG: {flag}")
    return report, lines, DISCREPANCY if flags else OK


def _cmd_betti(args):
    profile = surface_profile(args.a, args.b, args.d)
    table = betti_table(profile)
    counts = generator_counts(table)
    series = series_from_betti(table)
    flags = list(profile.flags)
    if not series.matches_closed_form:
        flags.append("resolution series does not match the closed form")
    report = {"profile": profile.to_dict(), "betti": table.to_dict(),
              "generator_counts": counts.to_dict(),
              "series": series.to_dict(), "flags": flags}
    return (report, _betti_lines(args, table, counts, series, flags),
            DISCREPANCY if flags else OK)


def _betti_lines(args, table, counts, series, flags):
    """The table text of a betti report, built only when main joins it:
    its Betti numbers may pass the int-to-str digit limit that main
    lifts only while it renders."""
    yield (f"surface (a, b, d) = ({args.a}, {args.b}, {args.d}); "
           f"case {table.case}, c = {table.c}, h = {table.h}")
    for (l, i), r in sorted(table.entries.items()):
        yield f"b({l},{i}) = {r}  twist {table.twist(l, i)}"
    yield (f"generators per closed formulas: {counts.quadrics} quadrics, "
           f"{counts.cubics} cubics")
    yield (f"series numerator {list(series.numerator)} over "
           f"(1-z)^{series.pole_order}; matches closed form: "
           f"{series.matches_closed_form}")
    for flag in flags:
        yield f"FLAG: {flag}"


def _cmd_ideal(args):
    action = _action_from_args(args)
    gens = minimal_generators(action)
    report = gens.to_dict()
    report["action"] = action.to_dict()
    report["generator_monomials"] = [list(m) for m in gens.generators]
    return report, _ideal_lines(action, gens), OK


def _ideal_lines(action, gens):
    """The table text of an ideal report; main joins it only for table
    output, so a JSON run formats no binomial."""
    yield f"action: d={action.d} weights={','.join(map(str, action.weights))}"
    yield "generators: " + "  ".join(f"w{i}={format_monomial(m)}"
                                     for i, m in enumerate(gens.generators))
    yield f"quadrics ({len(gens.quadrics)}):"
    yield from (f"  {_binomial_str(b)}" for b in gens.quadrics)
    yield f"cubics ({len(gens.cubics)}):"
    yield from (f"  {_binomial_str(b)}" for b in gens.cubics)
    yield f"verified through degree {gens.verified_through_degree}"


def _binomial_str(binomial) -> str:
    return " - ".join("*".join(f"w{i}" for i in side) for side in binomial)


def _semigroup_report(H: AffineSemigroup, bound: int, query=None):
    if bound < 1:
        raise _UsageError("--bound must be at least 1")
    normal = is_normal_up_to(H, bound)
    trung = trung_cm_check(H, bound)
    report = {"semigroup": H.to_dict(), "degree": H.degree,
              "normality": normal.to_dict(), "trung": trung.to_dict()}
    result = None
    if query is not None:
        result = member(H, query)
        report["member_query"] = {"vector": list(query),
                                  **result.to_dict()}
    return report, _semigroup_lines(H, bound, normal, trung, query,
                                    result), OK


def _semigroup_lines(H, bound, normal, trung, query, result):
    """The table text of a semigroup report, built only when main joins
    it: a witness may have more digits than any input coordinate."""
    yield (f"semigroup with {len(H.generators)} generators of degree "
           f"{H.degree} in dimension {H.dim}")
    yield "generators: " + "  ".join(str(list(g)) for g in H.generators)
    if query is not None:
        yield (f"member {list(query)}: {result.member}"
               + (f" decomposition {list(result.decomposition)}"
                  if result.decomposition is not None else ""))
    yield (f"normal up to level {bound}: {normal.normal_up_to_bound}"
           + (f" (witness {list(normal.witness)})"
              if normal.witness else ""))
    yield (f"CM certification: {trung.status} (bound {bound}, "
           f"hypothesis_ok {trung.hypothesis_ok})"
           + (f" witness {list(trung.witness)}" if trung.witness else ""))


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
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name}" + (f"  [{r.detail}]"
                                              if not r.ok and r.detail else ""))
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return report, lines, CHECK_FAILED if failed else OK


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
        raise _UsageError(f"no command {name!r}; gt-toolkit -h lists them")
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
            raise _UsageError(f"ambiguous option {flag}: {', '.join(found)}")
        if found and found[0] in _HELP:
            return _usage([name])
        if found:
            label = found[0]
            text = text if eq else next(args, None)
            if text is None:
                raise _UsageError(f"argument {label}: expected one argument")
        # as in argparse, an unknown "-..." with a space is a value
        elif taken == len(positionals) or option and " " not in arg:
            raise _UsageError(f"unrecognized argument {arg!r}")
        else:
            label, text, taken = positionals[taken], arg, taken + 1
        dest, convert, _ = spec[label]
        try:
            values[dest] = convert(text)
        except ValueError as exc:
            raise _UsageError(f"argument {label}: {exc}")
    missing = [p for p in positionals if values[p] is ...]
    if missing:
        raise _UsageError(f"missing arguments: {', '.join(missing)}")
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
            sys.stdout.write(args)
            return OK
        report, lines, status = args.run(args)
        # input was read under the int-to-str digit limit; a report's own
        # integers, such as Betti numbers of large d, may exceed it
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = (_json_text(report) if args.format == "json"
                    else "\n".join(lines)) + "\n"
        finally:
            sys.set_int_max_str_digits(digits)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InternalDiscrepancy as exc:
        print(f"internal discrepancy: {exc}", file=sys.stderr)
        return DISCREPANCY
    except MemoryError:
        text = None
    if text is None:
        # reported only here, where the traceback and the data its frames
        # held are freed, so that the report has memory to be written
        print("error: out of memory", file=sys.stderr)
        return OUT_OF_MEMORY
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
