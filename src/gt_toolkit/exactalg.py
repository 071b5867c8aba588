"""Exact integer primitives shared by every other module.

Everything here is arbitrary-precision integer arithmetic; no floating
point is used anywhere in the package.  The rank over the rationals is
certified from both sides: sparse elimination mod a 61-bit prime bounds
it below, and an integer kernel basis checked exactly over Z bounds it
above.  InternalDiscrepancy, raised when two independent routes to one
number disagree, also lives here.
"""

from __future__ import annotations

import math
from itertools import compress
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


_FIRST_PRIME = (1 << 61) - 1
_WITNESS_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases, which is
    deterministic for every n below 3.3 * 10**24."""
    for q in _WITNESS_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESS_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes():
    """2**61 - 1, then every prime below it in descending order."""
    for n in range(_FIRST_PRIME, 1, -1):
        if _is_prime(n):
            yield n


def _echelon_mod(rows, ncols: int, p: int) -> dict[int, dict[int, int]]:
    """Sparse row echelon form mod p of rows given as {col: value}.

    Maps the pivot column of each echelon row, its least column, to the
    row scaled to 1 there.  The pivot columns are those not in the span
    of the columns before them, mod p.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                w = (row.get(k, 0) - f * v) % p
                if w:
                    row[k] = w
                else:
                    del row[k]  # f * v is nonzero mod p, so k was in row
        if len(pivots) == ncols:
            break
    return pivots


def _kernel_mod(pivots: dict[int, dict[int, int]], ncols: int,
                p: int) -> list[list[int]]:
    """One kernel vector mod p per free column f: 1 at f, 0 at the other
    free columns, pivot entries by back substitution."""
    order = sorted(pivots, reverse=True)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for c in order:
            if c < f:
                # v[c] is still 0, so the pivot's own entry adds nothing
                v[c] = -sum(a * v[k] for k, a in pivots[c].items()) % p
        basis.append(v)
    return basis


def _lift(residues: list[int], modulus: int) -> list[int] | None:
    """Each residue u as the rational n/d with |n|, d <= sqrt(modulus / 2)
    and n = d * u mod modulus, the vector scaled by the lcm of the d to
    integers; None when some u has no such rational."""
    bound = math.isqrt(modulus // 2)
    fractions = []
    for u in residues:
        r0, r1, t0, t1 = modulus, u, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if abs(t1) > bound or math.gcd(r1, t1) != 1:
            return None
        fractions.append((r1, t1) if t1 > 0 else (-r1, -t1))
    lcm = math.lcm(*(den for _, den in fractions))
    return [num * (lcm // den) for num, den in fractions]


def integer_rank(matrix) -> int:
    """Exact rank over the rationals, with a certificate for each bound.

    Accepts any rectangular nested sequence of ints.  Sparse elimination
    mod the prime 2**61 - 1 gives rank >= r, because a minor that is
    nonzero mod p is nonzero.  When r is below min(rows, cols), a kernel
    basis of the side with the smaller nullity (the transpose when cols >
    rows) gives rank <= r: the mod-p kernel vector of each free column is
    lifted by rational reconstruction to an integer vector v, and
    M * v = 0 is checked exactly over Z.  Each v is nonzero at its own
    free column and zero at the other free columns, so they are
    independent.  When a lift fails, through an unlucky prime or entries
    beyond the reconstruction range, further primes follow: residues of
    primes with the same rank and pivot columns are combined by CRT, and
    a prime with a higher rank or earlier pivot columns shows the primes
    before it unlucky and starts the combination afresh.
    """
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows must all have the same length")
    if not rows or not rows[0]:
        return 0
    if len(rows[0]) > len(rows):
        rows = [list(col) for col in zip(*rows)]
    ncols = len(rows[0])
    sparse = [dict(zip(compress(range(ncols), r), filter(None, r)))
              for r in rows]
    best = None
    for p in _primes():
        pivots = _echelon_mod(sparse, ncols, p)
        rank = len(pivots)
        if rank == ncols:
            return rank
        key = (-rank, sorted(pivots))
        if best is not None and key > best:
            continue
        kernel = _kernel_mod(pivots, ncols, p)
        if key == best:
            inv = pow(modulus, -1, p)
            residues = [[a + modulus * ((b - a) * inv % p)
                         for a, b in zip(old, new)]
                        for old, new in zip(residues, kernel)]
            modulus *= p
        else:
            best, residues, modulus = key, kernel, p
        lifted = (_lift(v, modulus) for v in residues)
        if all(v is not None and
               not any(sum(a * v[c] for c, a in row.items()) for row in sparse)
               for v in lifted):
            return rank
    # The primes below 2**61 multiply to far more than any minor or
    # kernel entry of a matrix that fits in memory, so this is never met.
    raise InternalDiscrepancy("integer_rank ran out of primes")
