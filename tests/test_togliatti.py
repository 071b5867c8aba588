from itertools import combinations_with_replacement
from math import comb, gcd

import pytest

from gt_toolkit.actions import (CyclicAction, exponent_vectors,
                                invariant_monomials, mu_d)
from gt_toolkit.exactalg import integer_rank
from gt_toolkit.togliatti import classify, generator_bound, wlp_fails_in_degree

from surfaces import surface_actions


def test_bound_examples():
    assert classify(CyclicAction(5, (0, 1, 3))).is_togliatti_candidate
    # mu_d = 4 <= 4
    assert classify(CyclicAction(3, (0, 1, 2))).is_togliatti_candidate
    wide = CyclicAction(2, (0, 1, 1, 1, 1))
    assert mu_d(wide) == 11 and generator_bound(wide) == 10
    result = classify(wide)
    assert (result.mu_d, result.bound) == (11, 10)
    assert not result.is_togliatti_candidate


def test_wlp_goldens():
    check = wlp_fails_in_degree(CyclicAction(5, (0, 1, 3)), 4)
    assert check.fails and check.test == "injectivity"
    check = wlp_fails_in_degree(CyclicAction(3, (0, 1, 2)), 2)
    assert check.fails
    assert check.kernel_dimension == 1
    assert check.dim_source == 6 and check.dim_target == 6
    with pytest.raises(ValueError):
        wlp_fails_in_degree(CyclicAction(3, (0, 1, 2)), -1)


def _quotient_basis(action, j):
    # the degree-j monomials no generator divides, lex descending
    gens = invariant_monomials(action, 1)
    return [m for m in exponent_vectors(action.nvars, j)
            if not any(all(map(int.__le__, g, m)) for g in gens)]


def _matrix_route(action, j):
    # second route: the matrix of multiplication by x0+...+xn on the
    # quotient's monomial bases, one 0/1 row per target monomial
    source, target = _quotient_basis(action, j), _quotient_basis(action, j + 1)
    index = {m: c for c, m in enumerate(source)}
    rows = [{index[s]: 1 for i in range(len(t)) if t[i]
             and (s := t[:i] + (t[i] - 1,) + t[i + 1:]) in index}
            for t in target]
    rank = integer_rank(rows)
    return {"j": j, "dim_source": len(source), "dim_target": len(target),
            "rank": rank, "kernel_dimension": len(source) - rank,
            "test": ("injectivity" if len(source) <= len(target)
                     else "surjectivity"),
            "fails": rank < min(len(source), len(target))}


def test_wlp_matches_multiplication_matrix_route():
    # every action up to adding a constant to all weights (which leaves
    # the degree-d invariants unchanged) and permuting x1..xn (which
    # permutes the columns of both routes); repeated weights included
    cases = 0
    for nvars, top in [(2, 12), (3, 8), (4, 5), (5, 4)]:
        for d in range(2, top + 1):
            for rest in combinations_with_replacement(range(d), nvars - 1):
                if gcd(*rest, d) != 1:
                    continue
                action = CyclicAction(d, (0,) + rest)
                for j in range(d + 2):
                    assert (wlp_fails_in_degree(action, j).to_dict()
                            == _matrix_route(action, j)), (action, j)
                    cases += 1
    assert cases == 1901


def test_wlp_dimensions():
    # no generators below degree d, so the quotient agrees with R_j there
    for action in [CyclicAction(5, (0, 1, 3)), CyclicAction(4, (0, 1, 2, 3))]:
        d, n = action.d, action.n
        check = wlp_fails_in_degree(action, d - 1)
        assert check.dim_source == comb(n + d - 1, n)
        assert check.dim_target == comb(n + d, n) - mu_d(action)


def test_wlp_dimensions_match_divisibility_filter():
    # the counted dimensions against the monomials no generator divides
    for action in [CyclicAction(5, (0, 1, 3)), CyclicAction(7, (0, 1, 3)),
                   CyclicAction(4, (0, 1, 2, 3)),
                   CyclicAction(5, (0, 1, 2, 3, 4))]:
        for j in range(action.d, action.d + 3):
            check = wlp_fails_in_degree(action, j)
            assert check.dim_source == len(_quotient_basis(action, j))
            assert check.dim_target == len(_quotient_basis(action, j + 1))


def test_classify_surface_families():
    for d in range(3, 9):
        result = classify(CyclicAction(d, (0, 1, 2)))
        assert result.is_togliatti_candidate
        assert result.is_gt_system
    result = classify(CyclicAction(4, (0, 1, 2, 3)))
    assert result.is_gt_system
    for n in (2, 3, 4):
        result = classify(CyclicAction(n + 1, tuple(range(n + 1))))
        assert result.is_gt_system, f"n={n}"


def test_surface_sweep_bound_and_wlp():
    for action in surface_actions(10):
        assert mu_d(action) <= action.d + 1
        result = classify(action)
        assert result.is_togliatti_candidate
        assert result.is_gt_system
        assert result.kernel_dimension >= 1
        check = wlp_fails_in_degree(action, action.d - 1)
        # the ideal has no generators below degree d
        assert check.dim_source == comb(action.d + 1, 2)


def test_classification_consistency():
    result = classify(CyclicAction(6, (0, 2, 3)))
    assert result.is_gt_system == (result.is_togliatti_candidate
                                   and result.wlp_fails_at_d_minus_1)
    assert (result.kernel_dimension >= 1) == result.wlp_fails_at_d_minus_1
