import math
import random
from fractions import Fraction

import pytest

from gt_toolkit.exactalg import (InternalDiscrepancy, binomial, exact_int,
                                 integer_rank)


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


def _sparse(rows):
    # the {col: value} rows integer_rank takes, zeros left out
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense(rows, cols):
    return [[row.get(c, 0) for c in cols] for row in rows]


def test_integer_rank_examples():
    assert integer_rank(_sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert integer_rank(_sparse([[1, 1], [1, 1]])) == 1
    assert integer_rank(_sparse([[0, 0], [0, 0]])) == 0
    assert integer_rank([]) == 0


def test_integer_rank_sparse_rows():
    # stored zero entries count for nothing
    assert integer_rank([{0: 0, 1: 2}, {0: 0, 1: 3}]) == 1
    assert integer_rank([{0: 0}, {5: 0, 7: 0}]) == 0
    # column keys need be neither contiguous nor in order
    assert integer_rank([{90: 1, 3: 2}, {3: 4, 90: 1}, {41: -1}]) == 3
    assert integer_rank([{90: 1, 3: 2}, {41: -1}, {3: 4, 90: 2}]) == 2
    # empty rows and an empty matrix have rank 0
    assert integer_rank([{}, {}, {}]) == 0
    assert integer_rank([{}, {2: 5}, {}]) == 1
    assert integer_rank(iter([])) == 0


def test_integer_rank_leaves_rows_untouched():
    rng = random.Random(5150)
    for _ in range(30):
        m = [{c: rng.randrange(-3, 4) for c in rng.sample(range(12), 4)}
             for _ in range(rng.randrange(2, 8))]
        before = [dict(row) for row in m]
        assert integer_rank(m) == _fraction_rank(_dense(m, range(12)))
        assert m == before


def test_integer_rank_matches_fraction_oracle():
    rng = random.Random(20240311)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(_sparse(m)) == _fraction_rank(m)


def test_integer_rank_row_operations_invariance():
    rng = random.Random(99)
    for _ in range(40):
        rows = rng.randrange(2, 6)
        cols = rng.randrange(2, 6)
        m = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        base = integer_rank(_sparse(m))
        shuffled = m[:]
        rng.shuffle(shuffled)
        assert integer_rank(_sparse(shuffled)) == base
        scaled = [row[:] for row in m]
        scaled[rng.randrange(rows)] = [
            v * rng.choice([-3, -1, 2, 5]) for v in scaled[rng.randrange(rows)]]
        assert integer_rank(_sparse(scaled)) == _fraction_rank(scaled)


def test_integer_rank_unlucky_prime():
    # a large prime as a pivot and as the factor between rows: scaling by
    # it and dividing it back out must neither lose nor invent a pivot
    p = 2**61 - 1
    assert integer_rank(_sparse([[p, 0], [0, 1]])) == 2
    assert integer_rank(_sparse([[p, 0, 0], [0, 1, 1], [0, 2, 2]])) == 2
    assert integer_rank(_sparse([[p, 2 * p], [1, 2]])) == 1
    # the large pivot sits in column 1 with a small entry beside it
    assert integer_rank(_sparse([[1, 0, 0], [0, p, 1], [0, 0, 0]])) == 2


def test_integer_rank_kernel_beyond_one_prime():
    # entries far beyond a machine word, with a kernel (2**40, 1): the
    # second row must cancel exactly against the first row's pivot
    m = [[1, -(2**40)], [3, -3 * 2**40]]
    assert integer_rank(_sparse(m)) == _fraction_rank(m) == 1
    wide = [[1, 2, 3], [2**40, 2**41, 3 * 2**40]]  # a large multiple row
    assert integer_rank(_sparse(wide)) == _fraction_rank(wide) == 1


def _product_matrix(rng, rows, cols, rank, size):
    # a rows x cols matrix of rank at most `rank`, as a product
    left = [[rng.randrange(-size, size + 1) for _ in range(rank)]
            for _ in range(rows)]
    right = [[rng.randrange(-size, size + 1) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


def test_integer_rank_wide_and_tall():
    rng = random.Random(7041)
    for rows, cols in [(3, 9), (9, 3), (5, 12), (12, 5), (8, 8)]:
        for rank in range(min(rows, cols) + 1):
            for size in (1, 60, 10**6):
                m = _product_matrix(rng, rows, cols, rank, size)
                assert integer_rank(_sparse(m)) == _fraction_rank(m), (m, rank)


def test_integer_rank_matches_fraction_oracle_on_wlp_matrices(monkeypatch):
    from gt_toolkit import togliatti
    from gt_toolkit.actions import CyclicAction, mu_d

    captured = []

    def capture(rows):
        captured.append(rows)
        return integer_rank(rows)

    def check(action):
        togliatti.wlp_fails_in_degree(action, action.d - 1)
        # one row per generator, keyed by packed exponents of x1..xn
        rows = captured[-1]
        assert len(rows) == mu_d(action), action
        captured[-1] = _dense(rows, sorted(set().union(*rows)))

    monkeypatch.setattr(togliatti, "integer_rank", capture)
    classes = set()
    for d in range(3, 10):
        units = [u for u in range(1, d) if math.gcd(u, d) == 1]
        for a in range(1, d):
            for b in range(a + 1, d):
                # unit scaling, shifts and permutations keep the matrix
                # up to relabelling, hence its rank
                key = min(tuple(sorted((u * w + c) % d for w in (0, a, b)))
                          for u in units for c in range(d))
                if math.gcd(a, b, d) == 1 and (d, key) not in classes:
                    classes.add((d, key))
                    check(CyclicAction(d, (0, a, b)))
    # 4 variables, d <= 6: pivot entries reach 20, so rows are scaled
    for d, weights in [(4, (0, 1, 2, 3)), (5, (0, 1, 2, 3)), (6, (0, 1, 2, 3)),
                       (6, (0, 1, 2, 4)), (6, (0, 1, 3, 4))]:
        classes.add((d, weights))
        check(CyclicAction(d, weights))
    assert len(captured) == len(classes) == 17
    for rows in captured:
        rank = _fraction_rank(rows)
        assert integer_rank(_sparse(rows)) == rank > 0


def test_exact_int_rejects_non_integers():
    assert exact_int(7, "d") == 7
    assert exact_int(-3, "d") == -3
    for bad in (5.7, 5.0, True, False, "5", None, [5]):
        with pytest.raises(ValueError):
            exact_int(bad, "d")


def test_internal_discrepancy_is_an_assertion_error():
    assert issubclass(InternalDiscrepancy, AssertionError)
    assert not issubclass(InternalDiscrepancy, ValueError)
