from operator import add

import pytest

from gt_toolkit import toricideal
from gt_toolkit.actions import CyclicAction, invariant_monomials, mu_d
from gt_toolkit.exactalg import integer_rank
from gt_toolkit.hilbert import surface_profile
from gt_toolkit.resolution import generator_counts
from gt_toolkit.toricideal import (BinomialGeneratorSet, fiber_partition,
                                   ideal_dimension, minimal_generators)

from surfaces import action_classes, surface_triples, weight_class


# Weight classes where exact elimination shows the ideal needs a single
# cubic generator, fewer than the mu_d - 3 of the closed formula.  The
# counts below are pinned from three independent rank computations.
FORMULA_EXCEPTIONS = {
    7: {weight_class((0, 1, 3), 7)},
    11: {weight_class((0, 1, k), 11) for k in (3, 5, 7)},
}


def _multiset_fibers(action, j):
    """Degree-j generator multisets grouped by product monomial, fibers
    lex descending by product and multisets lex ascending within each:
    a second route to fiber_partition at j = 2, and the multiset fibers
    that the generator graph stands for at j = 3 and 4.

    Multisets grow one index at a time, never below their last, so each
    product is one addition away from its parent's.  The levels are
    chained generators: only the fibers are ever held in memory.
    """
    gens = invariant_monomials(action, 1)
    level = (((i,), g) for i, g in enumerate(gens))
    for _ in range(j - 1):
        level = ((multiset + (i,), tuple(map(add, product, gens[i])))
                 for multiset, product in level
                 for i in range(multiset[-1], len(gens)))
    groups = {}
    for multiset, product in level:
        groups.setdefault(product, []).append(multiset)
    return {p: tuple(groups[p]) for p in sorted(groups, reverse=True)}


def _relations(fibers):
    return sum(len(ms) - 1 for ms in fibers.values())


def test_fiber_partition_goldens():
    a312 = CyclicAction(3, (0, 1, 2))
    cubes = _multiset_fibers(a312, 3)
    nontrivial = [(p, ms) for p, ms in cubes.items() if len(ms) > 1]
    assert len(nontrivial) == 1
    product, multisets = nontrivial[0]
    assert product == (3, 3, 3)
    gens = invariant_monomials(a312, 1)
    pure = tuple(sorted(i for i, m in enumerate(gens) if max(m) == 3))
    mixed = next(i for i, m in enumerate(gens) if max(m) == 1)
    assert set(multisets) == {pure, (mixed,) * 3}
    assert fiber_partition(a312).relation_count == 0
    assert fiber_partition(CyclicAction(6, (0, 1, 3))).relation_count == 9


def test_ideal_dimension_goldens():
    a312 = CyclicAction(3, (0, 1, 2))
    assert ideal_dimension(a312, 2) == 0
    assert ideal_dimension(a312, 3) == 1
    assert ideal_dimension(CyclicAction(5, (0, 1, 3)), 2) == 1
    assert ideal_dimension(a312, 0) == 0


def test_ideal_dimension_matches_fiber_counts():
    for (a, b, d) in surface_triples(9):
        action = CyclicAction(d, (0, a, b))
        for j in (2, 3):
            assert ideal_dimension(action, j) == \
                _relations(_multiset_fibers(action, j))


def test_unique_cubic_for_degree_three():
    gens = minimal_generators(CyclicAction(3, (0, 1, 2)))
    assert gens.counts == (0, 1)
    ((lhs, rhs),) = gens.cubics
    pure = tuple(sorted(i for i, m in enumerate(gens.generators)
                        if max(m) == 3))
    mixed = next(i for i, m in enumerate(gens.generators) if max(m) == 1)
    assert sorted([lhs, rhs]) == sorted([pure, (mixed,) * 3])


def test_minimal_generator_goldens():
    assert minimal_generators(CyclicAction(6, (0, 1, 3))).counts == (9, 0)
    assert minimal_generators(CyclicAction(5, (0, 1, 3))).counts == (1, 2)


def test_emitted_binomials_are_identities():
    for (a, b, d) in [(1, 2, 5), (1, 3, 6), (2, 3, 8), (1, 3, 7)]:
        gens = minimal_generators(CyclicAction(d, (0, a, b)))
        monos = gens.generators
        for lhs, rhs in gens.quadrics + gens.cubics:
            left = tuple(sum(monos[i][k] for i in lhs) for k in range(3))
            right = tuple(sum(monos[i][k] for i in rhs) for k in range(3))
            assert left == right
            assert sorted(lhs) == list(lhs) and sorted(rhs) == list(rhs)


def test_degree4_closure_sweep():
    for (a, b, d) in surface_triples(12):
        gens = minimal_generators(CyclicAction(d, (0, a, b)))
        assert gens.degree4_deficit == 0, (a, b, d)
        assert gens.verified_through_degree == 4


def test_counts_against_formulas_with_known_exceptions():
    for (a, b, d) in surface_triples(12):
        profile = surface_profile(a, b, d)
        counts = generator_counts(profile)
        got = minimal_generators(profile.action).counts
        exceptional = weight_class((0, a, b), d) in \
            FORMULA_EXCEPTIONS.get(d, ())
        if exceptional:
            # exact elimination: same quadrics, a single cubic
            assert profile.theta == 3, (a, b, d)
            assert got == (counts.quadrics, 1), (a, b, d, got)
        else:
            assert got == (counts.quadrics, counts.cubics), (a, b, d, got)


def _incidence_rank(rows, gens):
    """Rank of the incidence matrix of rows e_u - e_v, by the exact
    sparse elimination over Z of exactalg.  Both ends of a row have the
    same product monomial, so the matrix is block diagonal by product and
    its rank is the sum of the block ranks."""
    blocks = {}
    for u, v in rows:
        assert u != v  # both ends get their own column
        product = tuple(map(sum, zip(*(gens[i] for i in u))))
        blocks.setdefault(product, []).append((u, v))
    total = 0
    for block in blocks.values():
        cols = {m: c for c, m in enumerate({m for row in block for m in row})}
        total += integer_rank({cols[u]: 1, cols[v]: -1} for u, v in block)
    return total


def _shifts(pairs, size):
    """Each binomial of pairs times each of the size generator variables."""
    return [(tuple(sorted(lhs + (var,))), tuple(sorted(rhs + (var,))))
            for lhs, rhs in pairs for var in range(size)]


def test_fiber_components_match_dense_rank():
    # second route for every count minimal_generators derives from fiber
    # components: the ranks of the spans the components stand for
    for d, weights in [(5, (0, 1, 2)), (6, (0, 1, 3)), (5, (0, 1, 3)),
                       (7, (0, 1, 3)), (4, (0, 1, 2, 3)), (5, (0, 1, 2, 3)),
                       (6, (0, 1, 2, 4))]:
        action = CyclicAction(d, weights)
        result = minimal_generators(action)
        gens = result.generators

        def shifts(pairs):
            return _shifts(pairs, len(gens))

        differences = [(ms[0], other)
                       for ms in _multiset_fibers(action, 3).values()
                       for other in ms[1:]]
        products = shifts(result.quadrics)
        spans = (products, products + differences, shifts(differences))
        dense = [_incidence_rank(rows, gens) for rows in spans]

        dim3 = ideal_dimension(action, 3)
        product_rank = dim3 - len(result.cubics)
        assert dense[:2] == [product_rank, dim3], (d, weights)
        assert _incidence_rank(products + list(result.cubics), gens) == dim3
        assert ideal_dimension(action, 4) - dense[2] == \
            result.degree4_deficit, (d, weights)


def test_cubic_count_from_the_rank_of_quadric_multiples():
    # a second route to the cubic count of every surface with d <= 12:
    # the quadrics times each generator span a subspace of I_3 of exact
    # rank rho, and the cubics are what I_3 needs beyond it
    surfaces = list(surface_triples(12))
    assert len(surfaces) == 196
    for a, b, d in surfaces:
        action = CyclicAction(d, (0, a, b))
        result = minimal_generators(action)
        gens = result.generators
        rho = _incidence_rank(_shifts(result.quadrics, len(gens)), gens)
        assert ideal_dimension(action, 3) - rho == len(result.cubics), \
            (a, b, d)


def _multiset_route(action):
    """minimal_generators as the earlier route gave it: every degree-3
    and degree-4 generator multiset through _multiset_fibers, and the
    components of each fiber by union-find over shared indices, each
    led by its lex-least multiset."""

    def leaders(multisets):
        parent = {idx: idx for ms in multisets for idx in ms}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ms in multisets:
            for idx in ms[1:]:
                parent[find(idx)] = find(ms[0])
        first = {}
        for ms in multisets:
            first.setdefault(find(ms[0]), ms)
        return list(first.values())

    quadrics = [(ms[0], other)
                for ms in _multiset_fibers(action, 2).values()
                for other in ms[1:]]
    cubics = []
    for ms in _multiset_fibers(action, 3).values():
        lead = leaders(ms)
        cubics.extend((lead[0], other) for other in lead[1:])
    deficit = sum(len(leaders(ms)) - 1
                  for ms in _multiset_fibers(action, 4).values())
    gens = invariant_monomials(action, 1)
    return BinomialGeneratorSet(gens, tuple(quadrics), tuple(cubics), deficit)


def test_generator_graph_matches_multiset_route():
    # second route: the multiset fibers the generator graph replaces, on
    # 3 variables through d = 16 and 4 through d = 7, which reach into
    # the strata the benchmark's ideal workload times, 2 variables
    # through d = 30, and 5 and 6 variables at d <= 4 and 3, where every
    # action repeats a weight; at most 26 generators keep the multiset
    # route cheap there.  No action found so far has a degree-4 deficit, so
    # the disconnected degree-4 branch is reached only through the
    # component walk it shares with degrees 2 and 3.
    small = [action for action in (*action_classes(5, 4),
                                   *action_classes(6, 3))
             if mu_d(action) <= 26]
    actions = [*action_classes(3, 16), *action_classes(4, 7),
               *action_classes(2, 30), *small,
               CyclicAction(5, (0, 1, 2, 3, 4))]
    for action in actions:
        assert minimal_generators(action).to_dict() == \
            _multiset_route(action).to_dict(), action
        assert list(fiber_partition(action).fibers.items()) == \
            list(_multiset_fibers(action, 2).items()), action


def test_split_graph_is_not_taken_for_connected():
    # the repeated-weight cases whose degree-3 graph splits in two: the
    # closed neighbourhoods of its lowest and its highest vertex, disjoint
    # and covering every vertex, so the flood fill must find a second
    # component after the first.  The canonical weights of the same
    # classes, (0, 0, 1, 2) and (0, 0, 1, 4), give no such graph, so the
    # class sweep above misses it.
    for action in (CyclicAction(3, (0, 1, 0, 2)),
                   CyclicAction(5, (0, 1, 0, 4))):
        assert minimal_generators(action).to_dict() == \
            _multiset_route(action).to_dict(), action


# minimal_generators(...).to_dict() as the earlier shifted-row span route
# gave it; the witness order is part of every ideal report
GENERATOR_GOLDENS = {
    (3, (0, 1, 2)): {
        "quadrics": [],
        "cubics": [
            [[0, 2, 3], [1, 1, 1]],
        ],
        "counts": {"quadrics": 0, "cubics": 1},
        "degree4_deficit": 0,
        "verified_through_degree": 4,
    },
    (5, (0, 1, 3)): {
        "quadrics": [
            [[1, 4], [2, 2]],
        ],
        "cubics": [
            [[0, 2, 3], [1, 1, 1]],
            [[0, 3, 4], [1, 1, 2]],
        ],
        "counts": {"quadrics": 1, "cubics": 2},
        "degree4_deficit": 0,
        "verified_through_degree": 4,
    },
    (7, (0, 1, 3)): {
        "quadrics": [
            [[0, 3], [1, 1]],
            [[1, 4], [2, 2]],
            [[2, 5], [3, 3]],
        ],
        "cubics": [
            [[0, 4, 5], [1, 2, 3]],
        ],
        "counts": {"quadrics": 3, "cubics": 1},
        "degree4_deficit": 0,
        "verified_through_degree": 4,
    },
    (5, (0, 1, 2, 3)): {
        "quadrics": [
            [[0, 6], [1, 1]],
            [[0, 8], [1, 2]],
            [[0, 9], [1, 3]],
            [[1, 4], [2, 3]],
            [[1, 7], [2, 4]],
            [[1, 8], [2, 6]],
            [[1, 8], [3, 5]],
            [[1, 9], [3, 6]],
            [[3, 7], [4, 4]],
            [[2, 8], [4, 5]],
            [[2, 9], [3, 8]],
            [[2, 9], [4, 6]],
            [[2, 10], [3, 9]],
            [[2, 11], [5, 5]],
            [[3, 11], [5, 6]],
            [[4, 8], [6, 7]],
            [[4, 11], [5, 8]],
            [[5, 9], [6, 8]],
            [[5, 10], [6, 9]],
            [[8, 10], [9, 9]],
        ],
        "cubics": [
            [[0, 5, 7], [2, 2, 2]],
            [[0, 4, 10], [3, 3, 3]],
            [[0, 7, 10], [3, 3, 4]],
            [[0, 7, 11], [2, 2, 5]],
            [[0, 10, 11], [1, 6, 6]],
            [[1, 10, 11], [6, 6, 6]],
            [[7, 9, 11], [8, 8, 8]],
            [[7, 10, 11], [8, 8, 9]],
        ],
        "counts": {"quadrics": 20, "cubics": 8},
        "degree4_deficit": 0,
        "verified_through_degree": 4,
    },
}


def test_minimal_generators_to_dict_goldens():
    for (d, weights), expected in GENERATOR_GOLDENS.items():
        got = minimal_generators(CyclicAction(d, weights)).to_dict()
        assert got == expected, (d, weights)


def test_minimal_generators_enumerates_only_the_generators(monkeypatch):
    # one closure builds every degree from the generators: no basis of a
    # higher degree is enumerated, and the tuple-keyed degree-2 route
    # stays a separate check, not a step of the computation
    calls = {"invariant_monomials": [], "fiber_partition": [],
             "ideal_dimension": []}
    for name, seen in calls.items():
        real = getattr(toricideal, name)

        def counted(action, *rest, real=real, seen=seen):
            seen.append(rest)
            return real(action, *rest)

        monkeypatch.setattr(toricideal, name, counted)
    for action in (CyclicAction(5, (0, 1, 3)), CyclicAction(4, (0, 1, 2, 3))):
        minimal_generators(action)
    assert calls == {"invariant_monomials": [(1,), (1,)],
                     "fiber_partition": [], "ideal_dimension": []}
    # the wrappers do count: the degree-2 route goes through them
    assert toricideal.fiber_partition(CyclicAction(5, (0, 1, 3))).fibers
    assert calls["fiber_partition"] == [()]
    assert calls["invariant_monomials"][-1] == (1,)


def test_threefold_runs_with_marker():
    gens = minimal_generators(CyclicAction(4, (0, 1, 2, 3)))
    assert len(gens.quadrics) == 12
    assert gens.verified_through_degree in (3, 4)


def test_fiber_partition_validation():
    with pytest.raises(ValueError):
        ideal_dimension(CyclicAction(3, (0, 1, 2)), -1)
