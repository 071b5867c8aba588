import random
from fractions import Fraction

import pytest

from gt_toolkit.exactalg import (InternalDiscrepancy, binomial, exact_int,
                                 gcd_all, integer_rank)


def test_gcd_all_examples():
    assert gcd_all([1, 2, 3]) == 1
    assert gcd_all([4, 6]) == 2
    assert gcd_all([-1, 2]) == 1
    assert gcd_all([0, 0]) == 0
    assert gcd_all([12]) == 12


def test_gcd_all_empty():
    with pytest.raises(ValueError):
        gcd_all([])


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(7, 0) == 1
    assert binomial(2, 5) == 0
    assert binomial(2, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_binomial_pascal():
    for n in range(2, 61):
        for k in range(1, n):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def _fraction_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_integer_rank_examples():
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[1, 1], [1, 1]]) == 1
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([]) == 0


def test_integer_rank_matches_fraction_oracle():
    rng = random.Random(20240311)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(m) == _fraction_rank(m)


def test_integer_rank_row_operations_invariance():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(2, 6)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        base = integer_rank(m)
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert integer_rank(shuffled) == base
        scaled = [row[:] for row in m]
        scaled[rng.randrange(rows)] = [
            v * rng.choice([-3, -1, 2, 5]) for v in scaled[rng.randrange(rows)]]
        assert integer_rank(scaled) == _fraction_rank(scaled)


def test_exact_int_rejects_non_integers():
    assert exact_int(7, "d") == 7
    assert exact_int(-3, "d") == -3
    for bad in (5.7, 5.0, True, False, "5", None, [5]):
        with pytest.raises(ValueError):
            exact_int(bad, "d")


def test_internal_discrepancy_is_an_assertion_error():
    assert issubclass(InternalDiscrepancy, AssertionError)
    assert not issubclass(InternalDiscrepancy, ValueError)
