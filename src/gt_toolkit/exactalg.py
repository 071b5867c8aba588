"""Exact integer primitives shared by every other module.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere in the package.  InternalDiscrepancy, raised when
two independent routes to one number disagree, also lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


class InternalDiscrepancy(AssertionError):
    """Two routes to the same number disagree: a defect, not bad input."""


def exact_int(value, what: str) -> int:
    """value itself if it is an int; anything else, bool included, is
    rejected with ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def gcd_all(values: Iterable[int]) -> int:
    """Greatest common divisor of a nonempty list, via absolute values."""
    vals = list(values)
    if not vals:
        raise ValueError("gcd_all requires at least one value")
    g = 0
    for v in vals:
        g = math.gcd(g, v)
    return g


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def floor_sum(m: int, n: int) -> int:
    """Sum of floor(i*m/n) over i = 1..n-1.

    The direct sum is cross-checked against the closed form
    ((m-1)(n-1) + gcd(m,n) - 1) / 2 on every call.
    """
    if m < 1 or n < 1:
        raise ValueError("floor_sum requires m >= 1 and n >= 1")
    total = 0
    for i in range(1, n):
        total += i * m // n
    closed = ((m - 1) * (n - 1) + math.gcd(m, n) - 1) // 2
    if total != closed:
        raise InternalDiscrepancy(
            f"floor sum identity violated for m={m}, n={n}")
    return total


@dataclass(frozen=True)
class IntegerMatrix:
    """Dense integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count must equal rows * cols")
        for e in self.entries:
            if not isinstance(e, int):
                raise TypeError("matrix entries must be exact integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntegerMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("rows must all have the same length")
        flat = tuple(e for r in rows for e in r)
        return cls(nrows, ncols, flat)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]


def integer_rank(matrix) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts an IntegerMatrix or any rectangular nested sequence of ints.
    Pivots are chosen as the first nonzero entry in column order, so the
    computation is deterministic.
    """
    if isinstance(matrix, IntegerMatrix):
        work = [list(matrix.row(i)) for i in range(matrix.rows)]
    else:
        work = [list(r) for r in matrix]
    if not work or not work[0]:
        return 0
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise ValueError("rows must all have the same length")
    nrows = len(work)
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            work[rank], work[piv] = work[piv], work[rank]
        p = work[rank][col]
        for r in range(rank + 1, nrows):
            f = work[r][col]
            row_r = work[r]
            row_p = work[rank]
            for c in range(col + 1, ncols):
                # exact division per the Bareiss identity
                row_r[c] = (p * row_r[c] - f * row_p[c]) // prev
            row_r[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank
