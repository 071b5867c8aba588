import random
from fractions import Fraction
from math import gcd

import pytest

from gt_toolkit.actions import CyclicAction, invariant_monomials
from gt_toolkit.hilbert import (catalog_notes, catalog_theta, hf_by_counting,
                                hf_closed_form, hf_reduced, hilbert_series,
                                surface_profile)

from surfaces import surface_triples


def test_hf_by_counting_goldens():
    a312 = CyclicAction(3, (0, 1, 2))
    assert [hf_by_counting(a312, t) for t in (0, 2, 3, 4)] == [1, 10, 19, 31]
    threefold = CyclicAction(4, (0, 1, 2, 3))
    assert hf_by_counting(threefold, 1) == 10
    assert hf_by_counting(threefold, 2) == 43


def test_hf_reduced_goldens():
    assert hf_reduced(2, 3, 6, 1) == 7
    assert hf_reduced(3, 5, 8, 1) == 7
    assert hf_reduced(1, 2, 3, 2) == 10
    with pytest.raises(ValueError):
        hf_reduced(2, 1, 3, 1)
    with pytest.raises(ValueError):
        hf_reduced(2, 4, 6, 1)  # gcd 2


def test_surface_profile_goldens():
    p = surface_profile(3, 5, 8)
    assert (p.lam, p.mu, p.theta) == (7, -2, 4)
    assert p.a_prime == 3 and p.d_prime == 8
    assert p.b == p.lam * p.a_prime + p.mu * p.d_prime
    assert p.consistent and p.mu_d == 7

    p = surface_profile(1, 2, 3)
    assert p.lam == 2 and p.theta == 3

    p = surface_profile(2, 3, 6)
    assert p.theta == 6 and p.mu_d == 7

    # the verdict is derived from theta and the count, so it follows a
    # replaced count instead of going stale
    p = surface_profile(1, 3, 6)
    assert p.consistent and p.flags == ()
    stale = p._replace(mu_d=8)
    assert not stale.consistent and len(stale.flags) == 1


def test_surface_profile_validation():
    for bad in [(0, 1, 3), (2, 2, 3), (1, 3, 3), (2, 4, 6)]:
        with pytest.raises(ValueError):
            surface_profile(*bad)


def test_hf_closed_form_goldens():
    p = surface_profile(1, 2, 3)
    assert hf_closed_form(p, 3) == 19
    assert hf_closed_form(p, 0) == 1
    assert hf_closed_form(surface_profile(3, 5, 8), 1) == 7


def test_hilbert_series_goldens():
    assert hilbert_series(surface_profile(1, 2, 3)).numerator == (1, 1, 1)
    assert hilbert_series(surface_profile(2, 3, 6)).numerator == (1, 4, 1)
    data = hilbert_series(surface_profile(1, 2, 3), horizon=4)
    assert data.table == (1, 4, 10, 19, 31)
    assert data.polynomial == (Fraction(3, 2), Fraction(3, 2), Fraction(1))


def test_polynomial_evaluates_to_table():
    for (a, b, d) in [(1, 2, 5), (2, 3, 8), (3, 4, 9)]:
        data = hilbert_series(surface_profile(a, b, d), horizon=5)
        lead, lin, const = data.polynomial
        for t, value in enumerate(data.table):
            assert lead * t * t + lin * t + const == value


def test_surface_invariants_goldens():
    p = surface_profile(1, 3, 5)
    assert (p.mu_d, p.codim) == (5, 2)
    p = surface_profile(1, 2, 3)
    assert (p.mu_d, p.codim, p.cm_type, p.reg) == (4, 1, 1, 3)
    p = surface_profile(3, 5, 8)
    assert (p.mu_d, p.codim, p.cm_type) == (7, 4, 3)


def test_prime_degree_specialization():
    for (a, b, d) in surface_triples(13):
        if d in (3, 5, 7, 11, 13):
            p = surface_profile(a, b, d)
            assert p.mu_d == (d + 5) // 2
            assert p.codim == (d - 1) // 2


def test_triple_agreement_sweep():
    # both counting routes sum one coordinate a period at a time, so
    # t <= 40 runs each sum over up to 40 periods
    for (a, b, d) in surface_triples(12):
        p = surface_profile(a, b, d)
        assert p.consistent, (a, b, d)
        action = p.action
        for t in range(41):
            counted = hf_by_counting(action, t)
            assert counted == hf_reduced(a, b, d, t), (a, b, d, t)
            assert counted == hf_closed_form(p, t), (a, b, d, t)


def test_mu_d_formula_equals_enumeration():
    for (a, b, d) in surface_triples(12):
        p = surface_profile(a, b, d)
        count = len(invariant_monomials(p.action, 1))
        assert p.mu_d == count
        assert (d + p.theta + 2) // 2 == count


def test_lambda_never_one_for_coprime_a():
    for (a, b, d) in surface_triples(16):
        p = surface_profile(a, b, d)
        if gcd(a, d) == 1:
            assert p.lam != 1, (a, b, d)


def test_series_numerator_properties():
    for (a, b, d) in surface_triples(12):
        numerator = hilbert_series(surface_profile(a, b, d)).numerator
        assert all(c >= 0 for c in numerator)
        assert sum(numerator) == d


def test_reversed_weights_symmetry():
    rng = random.Random(12)
    for n in (2, 3, 4):
        action = CyclicAction(n + 1, tuple(range(n + 1)))
        reverse = CyclicAction(n + 1, tuple(n - i for i in range(n + 1)))
        for t in rng.sample(range(1, 4), 2):
            assert hf_by_counting(action, t) == hf_by_counting(reverse, t)


def test_catalog_theta_and_notes():
    assert catalog_theta(1, 2, 6) == 4
    assert catalog_theta(1, 3, 6) == 5
    assert catalog_theta(1, 4, 8) == 5
    assert catalog_theta(2, 3, 8) == 4
    assert catalog_theta(1, 2, 5) is None
    # published values that disagree with counting get a note; exact
    # internal consistency is unaffected
    for (a, b, d) in [(1, 3, 6), (1, 4, 8)]:
        p = surface_profile(a, b, d)
        assert p.consistent
        notes = catalog_notes(p)
        assert len(notes) == 1 and "counting gives" in notes[0]
    assert catalog_notes(surface_profile(1, 2, 6)) == ()
    assert catalog_notes(surface_profile(1, 2, 5)) == ()
