import ast
import inspect
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import pytest

import gt_toolkit
from gt_toolkit import (actions, hilbert, resolution, semigroups,
                        togliatti, toricideal, verify)
from gt_toolkit.actions import (CyclicAction, count_invariants, degree,
                                egz_factor, exponent_vectors,
                                format_monomial, invariant_monomials,
                                is_invariant, mu_d)
from gt_toolkit.exactalg import InternalDiscrepancy

from surfaces import surface_actions


def test_action_validation():
    with pytest.raises(ValueError):
        CyclicAction(1, (0, 1))
    with pytest.raises(ValueError):
        CyclicAction(4, (0, 2))  # gcd(0, 2, 4) = 2
    with pytest.raises(ValueError):
        CyclicAction(5, (1,))
    assert CyclicAction(5, (0, 6, 13)).weights == (0, 1, 3)
    assert CyclicAction(2, (0, 1, 1, 1, 1)).n == 4  # d <= n is accepted


@pytest.mark.parametrize("d, weights", [(1, (0, 1)), (4, (0, 2)), (5, (1,))])
def test_action_validation_on_every_way_in(d, weights):
    # d < 2, fewer than two weights and gcd != 1, through the
    # constructor, _make and _replace alike
    action = CyclicAction(5, (0, 1, 3))
    for build in (lambda: CyclicAction(d, weights),
                  lambda: CyclicAction(d=d, weights=weights),
                  lambda: CyclicAction._make((d, weights)),
                  lambda: action._replace(d=d, weights=weights)):
        with pytest.raises(ValueError):
            build()
    assert action._replace(weights=(5, 6, 13)) == action
    assert type(CyclicAction._make((5, (0, 1, 3)))) is CyclicAction


def test_action_dict_round_trip():
    action = CyclicAction(8, (0, 3, 5))
    assert CyclicAction.from_dict(action.to_dict()) == action
    with pytest.raises(ValueError):
        CyclicAction.from_dict({"weights": [0, 1]})


def test_is_invariant_examples():
    action = CyclicAction(5, (0, 1, 3))
    assert is_invariant(action, (2, 2, 1))
    assert not is_invariant(action, (4, 1, 0))
    assert is_invariant(CyclicAction(7, (0, 2, 5)), (7, 0, 0))
    with pytest.raises(ValueError):
        is_invariant(action, (1, 2))


def _vectors(nvars, total):
    # every multiset of total variable indices, as exponent vectors, lex
    # descending; independent of the composition walker in actions
    vectors = []
    for cut in combinations_with_replacement(range(nvars), total):
        vec = [0] * nvars
        for i in cut:
            vec[i] += 1
        vectors.append(tuple(vec))
    return sorted(vectors, reverse=True)


def test_exponent_vectors_match_multisets():
    for nvars in range(1, 6):
        for total in range(7):
            assert exponent_vectors(nvars, total) == _vectors(nvars, total), \
                (nvars, total)


def test_walker_needs_no_recursion_depth():
    # 60 variables: a walk with one frame per coordinate would need 60
    action = CyclicAction(2, (1,) * 60)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        vectors = exponent_vectors(60, 2)
        monomials = invariant_monomials(action, 1)
        count = count_invariants(action, 1)
    finally:
        sys.setrecursionlimit(limit)
    assert monomials == tuple(vectors)
    assert count == len(monomials) == 1830


def test_no_function_in_the_package_calls_itself():
    paths = sorted(Path(gt_toolkit.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                by_name = isinstance(f, ast.Name) and f.id == fn.name
                by_method = (isinstance(f, ast.Attribute) and f.attr == fn.name
                             and isinstance(f.value, ast.Name)
                             and f.value.id in ("self", "cls"))
                if by_name or by_method:
                    found.append(f"{path.name}:{node.lineno} {fn.name}")
    assert found == []


def test_no_module_level_functions_call_each_other_in_a_cycle():
    # recursion spread over several functions: a call by bare name, to a
    # function of the same module or one imported from another, is an
    # edge, and no module-level function may reach itself
    calls = {}
    for path in sorted(Path(gt_toolkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defs = [node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        names = {alias.asname or alias.name: (node.module, alias.name)
                 for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        names.update((fn.name, (path.stem, fn.name)) for fn in defs)
        for fn in defs:
            calls[path.stem, fn.name] = {
                names[node.func.id] for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id in names}
    assert len(calls) > 50
    cyclic = []
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            fn = todo.pop()
            if fn not in seen:
                seen.add(fn)
                todo.extend(calls.get(fn, ()))
        if start in seen:
            cyclic.append(".".join(start))
    assert cyclic == []


def test_every_module_level_definition_is_used():
    # a function or class named only by its own def and by __init__ has
    # no library or CLI caller; main, the CLI entry point, is exempt
    paths = [path for path in Path(gt_toolkit.__file__).parent.glob("*.py")
             if path.name != "__init__.py"]
    defined, named = [], set()
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert len(defined) > 50
    unused = [f"{module}: {name}" for module, name in defined
              if name not in named and name != "main"]
    assert unused == []


def test_every_imported_name_is_read():
    # an imported name that its module never reads is a leftover of an
    # edit; __init__ imports to re-export, and __future__ imports switch
    # on features, so neither is read
    paths = [path for path in Path(gt_toolkit.__file__).parent.glob("*.py")
             if path.name != "__init__.py"]
    assert len(paths) > 5
    unread = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = [(alias.asname or alias.name.partition(".")[0],
                     node.lineno)
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{line} {name}" for name, line in imported
                   if name not in read]
    assert unread == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates
    # the methods of every class it builds; the records are named tuples
    src = Path(gt_toolkit.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import gt_toolkit.cli, sys; print("
         "sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_every_record_is_immutable():
    action = CyclicAction(5, (0, 1, 3))
    profile = hilbert.surface_profile(1, 3, 5)
    table = resolution.betti_table(profile)
    H = semigroups.semigroup_of_action(action)
    records = [action, profile, hilbert.hilbert_series(profile), table,
               resolution.generator_counts(profile),
               resolution.series_from_betti(table), H,
               semigroups.member(H, (5, 0, 0)),
               semigroups.is_normal_up_to(H, 2),
               semigroups.trung_cm_check(H, 2),
               togliatti.wlp_fails_in_degree(action, 4),
               togliatti.classify(action), toricideal.fiber_partition(action),
               toricideal.minimal_generators(action),
               verify.CheckResult("check", True)]
    modules = [m for name, m in list(sys.modules.items())
               if name.startswith("gt_toolkit.")]
    declared = {value for m in modules for value in vars(m).values()
                if inspect.isclass(value) and hasattr(value, "_fields")
                and value.__module__ == m.__name__}
    assert declared == {type(r) for r in records}
    assert len(declared) == 15
    for record in records:
        with pytest.raises(AttributeError):
            record.extra = 1
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_invariant_monomials_goldens():
    got = invariant_monomials(CyclicAction(5, (0, 1, 3)), 1)
    assert set(got) == {(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 1), (1, 1, 3)}
    assert len(got) == 5
    got = invariant_monomials(CyclicAction(8, (0, 3, 5)), 1)
    assert set(got) == {(8, 0, 0), (6, 1, 1), (4, 2, 2), (0, 8, 0),
                        (2, 3, 3), (0, 4, 4), (0, 0, 8)}
    sextics = invariant_monomials(CyclicAction(3, (0, 1, 2)), 2)
    assert len(sextics) == 10
    assert (4, 1, 1) in sextics and (2, 2, 2) in sextics


def test_invariant_monomials_canonical_order():
    for action in [CyclicAction(6, (0, 1, 3)), CyclicAction(5, (0, 2, 3))]:
        for t in (1, 2):
            monomials = invariant_monomials(action, t)
            assert list(monomials) == sorted(monomials, reverse=True)
            assert len(set(monomials)) == len(monomials)


def test_invariant_monomials_match_filtered_exponent_vectors():
    # second route: the same sequence as filtering every exponent vector
    cases = [CyclicAction(d, weights)
             for nvars, max_d in ((2, 10), (3, 6), (4, 4), (5, 2))
             for d in range(2, max_d + 1)
             for weights in product(range(d), repeat=nvars)
             if gcd(*weights, d) == 1]
    # repeated last weights, and gcd(w_{n-1} - w_n, d) > 1
    cases += [CyclicAction(8, (1, 3, 7)), CyclicAction(9, (1, 3, 6)),
              CyclicAction(6, (0, 1, 4, 4)), CyclicAction(6, (5, 1, 2, 4)),
              CyclicAction(3, (0, 1, 2, 2, 2)),
              CyclicAction(4, (1, 0, 3, 0, 2))]
    for action in cases:
        for t in (1, 2, 3):
            expected = tuple(
                v for v in _vectors(action.nvars, t * action.d)
                if is_invariant(action, v))
            assert invariant_monomials(action, t) == expected, \
                (action, t)


def test_mu_d_examples():
    assert mu_d(CyclicAction(3, (0, 1, 2))) == 4
    assert mu_d(CyclicAction(5, (0, 1, 3))) == 5
    assert mu_d(CyclicAction(4, (0, 1, 2, 3))) == 10


def _brute_force_count(action, t):
    return sum(is_invariant(action, v)
               for v in _vectors(action.nvars, t * action.d))


def test_count_matches_enumeration_surfaces():
    for action in surface_actions(12):
        for t in (1, 2, 3):
            assert count_invariants(action, t) == \
                len(invariant_monomials(action, t))


def test_count_matches_brute_force_general_n():
    rng = random.Random(431)
    cases = []
    while len(cases) < 12:
        d = rng.randrange(3, 13)
        weights = tuple(rng.randrange(d) for _ in range(4))
        try:
            cases.append(CyclicAction(d, weights))
        except ValueError:
            continue
    # two and five variables, w0 = w1, and gcd(w1 - w0, d) > 1
    cases += [CyclicAction(7, (2, 5)), CyclicAction(8, (1, 3)),
              CyclicAction(4, (0, 1, 2, 3, 1)), CyclicAction(3, (2, 0, 1, 1, 2)),
              CyclicAction(6, (1, 1, 2, 5)), CyclicAction(9, (4, 4, 4, 1))]
    for action in cases:
        for t in (1, 2):
            if t * action.d > 16:
                continue
            assert count_invariants(action, t) == _brute_force_count(action, t)


def test_pure_powers_always_invariant():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.randrange(2, 15)
        weights = tuple(rng.randrange(d) for _ in range(rng.randrange(2, 5)))
        try:
            action = CyclicAction(d, weights)
        except ValueError:
            continue
        for i in range(action.nvars):
            v = tuple(d if k == i else 0 for k in range(action.nvars))
            assert is_invariant(action, v)


def test_egz_base_case():
    action = CyclicAction(5, (0, 1, 3))
    assert egz_factor(action, (2, 2, 1)) == [(2, 2, 1)]


def test_egz_goldens():
    action = CyclicAction(3, (0, 1, 2))
    assert egz_factor(action, (2, 2, 2)) == [(1, 1, 1), (1, 1, 1)]
    # the only split of x0^4*x1*x2 into two degree-3 invariants
    assert sorted(egz_factor(action, (4, 1, 1))) == [(1, 1, 1), (3, 0, 0)]


def test_egz_errors():
    action = CyclicAction(3, (0, 1, 2))
    with pytest.raises(ValueError):
        egz_factor(action, (2, 1, 0))  # degree 3 but not invariant
    with pytest.raises(ValueError):
        egz_factor(action, (2, 2, 0))  # degree not a multiple of 3
    with pytest.raises(ValueError):
        egz_factor(action, (0, 0, 0))


def test_egz_without_a_generator_below_is_a_discrepancy(monkeypatch):
    # the parts come from the enumerated generators; a list missing the
    # one below the remainder is an internal fault, not a bad input
    action = CyclicAction(3, (0, 1, 2))
    monkeypatch.setattr(actions, "invariant_monomials",
                        lambda action, t: ((3, 0, 0), (0, 3, 0), (0, 0, 3)))
    with pytest.raises(InternalDiscrepancy):
        egz_factor(action, (2, 2, 2))


def test_egz_contract_sweep():
    for action in surface_actions(8):
        for t in (2, 3):
            for v in invariant_monomials(action, t):
                parts = egz_factor(action, v)
                assert len(parts) == t
                for p in parts:
                    assert degree(p) == action.d
                    assert is_invariant(action, p)
                assert tuple(map(sum, zip(*parts))) == v


def test_egz_parts_are_lex_largest_generators():
    # each part is the lex-largest degree-d invariant below what remains,
    # found here by scanning every degree-d vector, lex descending
    cases = [(action, t) for action in surface_actions(8) for t in (2, 3, 4)]
    cases += [(CyclicAction(d, (0,) + rest), t)
              for d in range(3, 7)
              for rest in combinations_with_replacement(range(d), 3)
              if gcd(*rest, d) == 1
              for t in (2, 3)]
    cases += [(CyclicAction(6, (0, 0, 1)), t) for t in (2, 3, 4)]
    cases += [(CyclicAction(5, (1, 2, 3)), t) for t in (2, 3, 4)]
    for action, t in cases:
        below = [b for b in _vectors(action.nvars, action.d)
                 if is_invariant(action, b)]
        for v in invariant_monomials(action, t):
            rest = v
            for part in egz_factor(action, v):
                assert part == next(
                    b for b in below
                    if all(map(int.__le__, b, rest))), (action, v)
                rest = tuple(r - p for r, p in zip(rest, part))
            assert not any(rest), (action, v)


def test_egz_nonzero_first_weight():
    action = CyclicAction(5, (1, 2, 3))
    for v in invariant_monomials(action, 2):
        parts = egz_factor(action, v)
        assert len(parts) == 2
        assert all(is_invariant(action, p) for p in parts)
        assert tuple(map(sum, zip(*parts))) == v


def test_format_monomial():
    assert format_monomial((2, 0, 1)) == "x0^2*x2"
    assert format_monomial((0, 0, 0)) == "1"
    assert format_monomial((0, 1, 0)) == "x1"
