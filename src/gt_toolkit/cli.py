"""Command-line front end.

Exit codes: 0 success, 1 usage or input error, 2 a computation finished
but carries a flagged internal discrepancy or an internal cross-check
failed, 3 a verification check failed, 4 out of memory: a valid input
whose computation or report does not fit in the memory the process may
use.  Output is deterministic:
identical inputs give byte-identical output in both table and JSON
formats.  Each command returns its report and its table lines; `ideal`
yields its lines lazily, so its table text is built only for table
output.

One argument parser serves every main() call in a process: it is built
on the first call, not at import.  Integer arguments and the
comma-separated vectors accept only ASCII decimals, [+-]?[0-9]+.  JSON
input files may nest at most JSON_MAX_DEPTH (64) levels.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

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


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the documented scheme
    # reserves 2 for flagged discrepancies, so usage problems raise.
    def error(self, message):
        raise _UsageError(message)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """A decimal integer written [+-]?[0-9]+, nothing else.

    int() alone would also take "1_3" and non-ASCII digits.
    """
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_int(p) for p in text.split(","))
    except argparse.ArgumentTypeError as exc:
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


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once on first use and shared by every
    main() call; parsing never changes it."""
    parser = _Parser(prog="gt-toolkit",
                     description="Exact invariants of GT-systems, "
                                 "GT-varieties and affine semigroups.")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default="table", help="output format")
    common.add_argument("--output", default=None,
                        help="write the report to this path instead of stdout")
    action = _Parser(add_help=False)
    action.add_argument("d", type=_int, nargs="?")
    action.add_argument("weights", nargs="?")
    action.add_argument("--file", default=None, help="action JSON file instead")
    surface = _Parser(add_help=False)
    surface.add_argument("a", type=_int)
    surface.add_argument("b", type=_int)
    surface.add_argument("d", type=_int)
    bounded = _Parser(add_help=False)
    bounded.add_argument("--bound", type=_int, default=6)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("invariants", parents=[common, action],
                       help="invariant monomials per degree")
    p.add_argument("--t", type=_int, default=1, dest="horizon",
                   help="list degrees t = 1..T (default 1)")
    p.set_defaults(run=_cmd_invariants)

    p = sub.add_parser("classify", parents=[common, action],
                       help="Togliatti/GT classification")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("hilbert", parents=[common, surface],
                       help="surface Hilbert data, three routes")
    p.add_argument("--t", type=_int, default=6, dest="horizon")
    p.set_defaults(run=_cmd_hilbert)

    p = sub.add_parser("betti", parents=[common, surface],
                       help="Betti table and generator counts")
    p.set_defaults(run=_cmd_betti)

    p = sub.add_parser("ideal", parents=[common, action],
                       help="binomial generators of the toric ideal")
    p.set_defaults(run=_cmd_ideal)

    p = sub.add_parser("semigroup", parents=[common, bounded],
                       help="membership/normality/CM report from a JSON file")
    p.add_argument("file")
    p.add_argument("--member", default=None,
                   help="optional comma-separated vector to test")
    p.set_defaults(run=_cmd_semigroup)

    p = sub.add_parser("h3t", parents=[common, bounded],
                       help="shifted family constructor + CM report")
    p.add_argument("t", type=_int)
    p.set_defaults(run=_cmd_h3t)

    p = sub.add_parser("hk", parents=[common, bounded],
                       help="k-step family constructor + CM report")
    p.add_argument("k", type=_int)
    p.add_argument("tprime", type=_int)
    p.set_defaults(run=_cmd_hk)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run the published-value reference suite")
    p.set_defaults(run=_cmd_verify)
    return parser


def _cmd_invariants(args):
    action = _action_from_args(args)
    if args.horizon < 1:
        raise _UsageError("--t must be at least 1")
    per_degree = []
    for t in range(1, args.horizon + 1):
        monomials = invariant_monomials(action, t)
        per_degree.append({
            "t": t,
            "degree": t * action.d,
            "count": len(monomials),
            "monomials": [list(m) for m in monomials],
            "pretty": [format_monomial(m) for m in monomials],
        })
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
    invariants = {"mu_d": (profile.d + profile.theta + 2) // 2,
                  "degree": profile.degree, "codim": profile.codim,
                  "cm_type": profile.cm_type, "reg": profile.reg}
    report = {
        "profile": profile.to_dict(),
        "hilbert": data.to_dict(),
        "routes": table,
        "invariants": invariants,
        "flags": flags,
        "notes": notes,
    }
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
    report = {
        "profile": profile.to_dict(),
        "betti": table.to_dict(),
        "generator_counts": counts.to_dict(),
        "series": series.to_dict(),
        "flags": flags,
    }
    lines = [f"surface (a, b, d) = ({args.a}, {args.b}, {args.d}); "
             f"case {table.case}, c = {table.c}, h = {table.h}"]
    for (l, i), r in sorted(table.entries.items()):
        lines.append(f"b({l},{i}) = {r}  twist {table.twist(l, i)}")
    lines.append(f"generators per closed formulas: {counts.quadrics} quadrics, "
                 f"{counts.cubics} cubics")
    lines.append(f"series numerator {list(series.numerator)} over "
                 f"(1-z)^{series.pole_order}; matches closed form: "
                 f"{series.matches_closed_form}")
    for flag in flags:
        lines.append(f"FLAG: {flag}")
    return report, lines, DISCREPANCY if flags else OK


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
    def side(ms):
        return "*".join(f"w{i}" for i in ms)
    return f"{side(binomial[0])} - {side(binomial[1])}"


def _semigroup_report(H: AffineSemigroup, bound: int, query=None):
    if bound < 1:
        raise _UsageError("--bound must be at least 1")
    normal = is_normal_up_to(H, bound)
    trung = trung_cm_check(H, bound)
    report = {
        "semigroup": H.to_dict(),
        "degree": H.degree,
        "normality": normal.to_dict(),
        "trung": trung.to_dict(),
    }
    lines = [f"semigroup with {len(H.generators)} generators of degree "
             f"{H.degree} in dimension {H.dim}"]
    lines.append("generators: " + "  ".join(str(list(g))
                                            for g in H.generators))
    if query is not None:
        result = member(H, query)
        report["member_query"] = {"vector": list(query),
                                  **result.to_dict()}
        lines.append(f"member {list(query)}: {result.member}"
                     + (f" decomposition {list(result.decomposition)}"
                        if result.decomposition is not None else ""))
    lines.append(f"normal up to level {bound}: {normal.normal_up_to_bound}"
                 + (f" (witness {list(normal.witness)})"
                    if normal.witness else ""))
    lines.append(f"CM certification: {trung.status} (bound {bound}, "
                 f"hypothesis_ok {trung.hypothesis_ok})"
                 + (f" witness {list(trung.witness)}"
                    if trung.witness else ""))
    return report, lines, OK


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
              "passed": len(results) - len(failed),
              "failed": len(failed)}
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        lines.append(f"{status}  {r.name}" + (f"  [{r.detail}]"
                                              if not r.ok and r.detail else ""))
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return report, lines, CHECK_FAILED if failed else OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report, lines, status = args.run(args)
        if args.format == "json":
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        else:
            text = "\n".join(lines) + "\n"
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
