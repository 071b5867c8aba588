from math import comb

import pytest

from gt_toolkit.actions import CyclicAction
from gt_toolkit.hilbert import hf_closed_form, hilbert_series, surface_profile
from gt_toolkit.resolution import (betti_table, generator_counts,
                                   series_from_betti)
from gt_toolkit.toricideal import (fiber_partition, ideal_dimension,
                                   minimal_generators)

from surfaces import surface_triples

GOLDEN_TABLES = {
    (1, 2, 4): {(1, 1): 2, (2, 2): 1},
    (1, 3, 6): {(1, 1): 9, (2, 1): 16, (3, 1): 9, (4, 2): 1},
    (1, 2, 6): {(1, 1): 4, (2, 1): 2, (2, 2): 3, (3, 2): 2},
    (1, 4, 8): {(1, 1): 13, (2, 1): 30, (3, 1): 25, (4, 1): 4, (4, 2): 5,
                (5, 2): 2},
    (1, 2, 8): {(1, 1): 7, (2, 1): 8, (2, 2): 6, (3, 1): 3, (3, 2): 8,
                (4, 2): 3},
    (1, 2, 3): {(1, 2): 1},
    (1, 3, 5): {(1, 1): 1, (1, 2): 2, (2, 2): 2},
}


@pytest.mark.parametrize("triple,expected", sorted(GOLDEN_TABLES.items()))
def test_betti_goldens(triple, expected):
    table = betti_table(surface_profile(*triple))
    assert table.entries == expected


def test_betti_structure():
    table = betti_table(surface_profile(1, 3, 6))
    assert table.c == 4 and table.h == 0
    assert table.case == "theta>=4"
    assert table.cm_type == 1  # Gorenstein
    assert table.projective_dimension == table.c
    assert table.regularity == 3
    assert table.twist(4, 2) == -6
    cubic = betti_table(surface_profile(1, 2, 3))
    assert cubic.case == "theta=3" and cubic.c == 1


def test_generator_count_goldens():
    for triple, expected in (((1, 2, 3), (0, 1)), ((1, 3, 6), (9, 0)),
                             ((1, 3, 5), (1, 2))):
        counts = generator_counts(surface_profile(*triple))
        assert (counts.quadrics, counts.cubics) == expected


def test_generator_counts_match_first_column():
    for triple in surface_triples(12):
        profile = surface_profile(*triple)
        table = betti_table(profile)
        counts = generator_counts(profile)
        assert counts.quadrics == table.rank(1, 1)
        assert counts.cubics == table.rank(1, 2)
        if profile.theta >= 4:
            assert counts.cubics == 0


def test_closed_forms_agree_on_a_grid():
    # two identities of closed forms in d and theta, held here instead
    # of at run time: the series 1 + codim z + cm_type z^2 over (1-z)^3
    # expands to (d t^2 + theta t + 2)/2, and the generator counts are
    # the closed table's b(1,1) and b(1,2); every consistent pair with
    # theta >= 3 and cm_type >= 1, realizable or not
    base = surface_profile(1, 2, 3)
    pairs = [(d, theta) for d in range(3, 81)
             for theta in range(3, d + 1) if (d - theta) % 2 == 0]
    assert len(pairs) == 1560
    for d, theta in pairs:
        p = base._replace(d=d, theta=theta, mu_d=(d + theta + 2) // 2)
        assert p.consistent
        numerator = hilbert_series(p, 0).numerator
        for t in range(8):
            expanded = sum(c * comb(t - k + 2, 2)
                           for k, c in enumerate(numerator) if k <= t)
            assert expanded == hf_closed_form(p, t), (d, theta, t)
        table = betti_table(p)
        assert generator_counts(p) == (table.rank(1, 1), table.rank(1, 2)), \
            (d, theta)


def test_first_betti_via_fibers_goldens():
    # binomial-minus-HF and the degree-2 fibers for b(1,1); the cubic
    # surface's b(1,2) = 1 from the minimal generators
    a312 = CyclicAction(3, (0, 1, 2))
    assert ideal_dimension(a312, 2) == \
        fiber_partition(a312).relation_count == 0
    assert ideal_dimension(a312, 3) == 1
    threefold = CyclicAction(4, (0, 1, 2, 3))
    assert ideal_dimension(threefold, 2) == \
        fiber_partition(threefold).relation_count == 12
    assert minimal_generators(a312).counts == (0, 1)


def test_first_betti_equals_quadric_rank_identity():
    # binomial-minus-HF at i=1 is the dimension of the quadric part,
    # which the closed formulas reproduce for every surface
    for triple in surface_triples(10):
        profile = surface_profile(*triple)
        via_fibers = fiber_partition(profile.action).relation_count
        assert via_fibers == ideal_dimension(profile.action, 2), triple
        counts = generator_counts(profile)
        assert via_fibers == counts.quadrics, triple


def test_series_from_betti_goldens():
    series = series_from_betti(betti_table(surface_profile(1, 2, 3)))
    assert series.numerator == (1, 1, 1) and series.pole_order == 3
    series = series_from_betti(betti_table(surface_profile(1, 3, 6)))
    assert series.numerator == (1, 4, 1)
    series = series_from_betti(betti_table(surface_profile(1, 2, 4)))
    assert series.numerator == (1, 2, 1)  # (1+z)^2 over (1-z)^3
    assert series.matches_closed_form


def test_series_consistency_sweep():
    for triple in surface_triples(14):
        profile = surface_profile(*triple)
        table = betti_table(profile)
        series = series_from_betti(table)
        assert series.matches_closed_form, triple
        assert series.numerator == hilbert_series(profile).numerator
        assert table.cm_type == profile.cm_type
        assert table.regularity == 3


def _divide_by_one_minus_z(coeffs):
    """Exact quotient by (1-z), or None when (1-z) does not divide."""
    acc = 0
    out = []
    for c in coeffs:
        acc += c
        out.append(acc)
    if acc != 0:
        return None
    return out[:-1] if len(out) > 1 else [0]


def _reference_series(table):
    """series_from_betti(table).to_dict() by repeated exact division."""
    coeffs = [0] * (max(l + i for l, i in table.entries) + 1)
    coeffs[0] = 1
    for (l, i), r in table.entries.items():
        coeffs[l + i] += (-1) ** l * r
    pole = table.profile.mu_d
    while pole > 0:
        reduced = _divide_by_one_minus_z(coeffs)
        if reduced is None:
            break
        coeffs = reduced
        pole -= 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    expected = hilbert_series(table.profile, horizon=0).numerator
    return {"numerator": coeffs, "pole_order": pole,
            "matches_closed_form": pole == 3 and tuple(coeffs) == expected}


def test_series_matches_reference_division():
    # the closed-form tables reduce to pole order 3; a table with one
    # rank moved by -1 or +1 leaves a remainder of either sign at z = 1,
    # so (1-z) no longer divides and the series does not match
    for triple in surface_triples(30):
        table = betti_table(surface_profile(*triple))
        series = series_from_betti(table)
        assert series.to_dict() == _reference_series(table), triple
        assert series.matches_closed_form, triple
        for key in ((1, 1), (2, 1), (1, 2)):
            for step in (-1, 1):
                changed = table._replace(entries={
                    **table.entries, key: table.rank(*key) + step})
                series = series_from_betti(changed)
                assert series.to_dict() == _reference_series(changed), \
                    (triple, key, step)
                assert not series.matches_closed_form, (triple, key, step)
