"""Exact integer primitives shared by every other module.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere in the package.  The rank over the rationals of
a matrix given as sparse {col: value} rows comes from one fraction-free
row elimination over Z that keeps every pivot row primitive, so it is
exact without a certificate.
InternalDiscrepancy, raised when two independent routes to one number
disagree, also lives here.
"""

from __future__ import annotations

import math


class InternalDiscrepancy(AssertionError):
    """Two routes to the same number disagree: a defect, not bad input."""


def exact_int(value, what: str) -> int:
    """value itself if it is an int; anything else, bool included, is
    rejected with ValueError instead of being truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _divide_by_content(row: dict[int, int], sign: int = 1) -> None:
    """Divide the row in place by sign times the gcd of its entries."""
    g = sign * math.gcd(*row.values())
    if g != 1:
        for k in row:
            row[k] //= g


def integer_rank(rows) -> int:
    """Exact rank over the rationals of a matrix given as an iterable of
    sparse rows: {col: value} dicts of ints, absent columns being zero.

    Each row is copied without its zero entries, so the caller's dicts
    stay untouched, and reduced at its least column c.  If c has no pivot
    row yet, the row becomes its pivot, divided by its content with a
    positive leading entry.  Otherwise, with g = gcd(pivot[c], row[c]),
    the row is scaled by pivot[c] / g, loses row[c] / g times the pivot
    and, if it was scaled, is divided by its content again.  The rank is
    the number of pivots.  Entries stay small: a pivot row is the
    primitive vector on the line of its input rows' span that vanishes
    at the earlier pivot columns, so its entries are minors of the input
    divided by their gcd.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = {k: v for k, v in r.items() if v}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                _divide_by_content(row, 1 if row[c] > 0 else -1)
                pivots[c] = row
                break
            g = math.gcd(pivot[c], row[c])
            a, b = pivot[c] // g, row[c] // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in pivot.items():
                w = row.get(k, 0) - b * v
                if w:
                    row[k] = w
                else:
                    del row[k]  # b * v is nonzero, so k was in row
            if a != 1 and row:
                _divide_by_content(row)
    return len(pivots)
