"""Exact integer primitives shared by every other module.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere in the package.  InternalDiscrepancy, raised when
two independent routes to one number disagree, also lives here.
"""

from __future__ import annotations

import math
from typing import Iterable


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


def integer_rank(matrix) -> int:
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts any rectangular nested sequence of ints.
    Pivots are chosen as the first nonzero entry in column order, so the
    computation is deterministic.
    """
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
