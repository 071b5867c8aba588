"""Diagonal cyclic group actions and their invariant monomials.

A monomial x0^a0 ... xn^an is invariant under the order-d action with
weight vector (w0, ..., wn) exactly when w0*a0 + ... + wn*an is divisible
by d.  This module enumerates and counts the invariant monomials of
degree t*d and factors any such monomial into t invariant factors of
degree d (a zero-sum subsequence argument guarantees this is always
possible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactalg import InternalDiscrepancy, exact_int

# Monomials and semigroup elements are plain exponent tuples.
ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class CyclicAction:
    """Order-d diagonal action given by its residue weights.

    Weights are reduced mod d at construction but deliberately not
    sorted, so variable labels stay aligned with the caller's input.
    The standing hypothesis gcd(w0, ..., wn, d) = 1 is enforced.
    """

    d: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("group order d must be at least 2")
        if len(self.weights) < 2:
            raise ValueError("need at least two variables")
        reduced = tuple(w % self.d for w in self.weights)
        object.__setattr__(self, "weights", reduced)
        if math.gcd(*reduced, self.d) != 1:
            raise ValueError(
                f"gcd of weights {reduced} and order {self.d} must be 1")

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @classmethod
    def from_dict(cls, data: dict) -> "CyclicAction":
        try:
            d, weights = data["d"], data["weights"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed action input: {exc}") from exc
        if not isinstance(weights, list):
            raise ValueError("malformed action input: weights must be a list")
        return cls(exact_int(d, "d"),
                   tuple(exact_int(w, "weight") for w in weights))

    def to_dict(self) -> dict:
        return {"d": self.d, "weights": list(self.weights)}


def degree(v: ExponentVector) -> int:
    return sum(v)


def weighted_residue(action: CyclicAction, v: ExponentVector) -> int:
    if len(v) != action.nvars:
        raise ValueError("exponent vector length does not match the action")
    return sum(w * a for w, a in zip(action.weights, v)) % action.d


def is_invariant(action: CyclicAction, v: ExponentVector) -> bool:
    """True iff the weighted exponent sum is divisible by the group order."""
    return weighted_residue(action, v) == 0


def format_monomial(v: ExponentVector) -> str:
    parts = []
    for i, a in enumerate(v):
        if a == 0:
            continue
        parts.append(f"x{i}" if a == 1 else f"x{i}^{a}")
    return "*".join(parts) if parts else "1"


@dataclass(frozen=True)
class InvariantBasis:
    """All invariant monomials of degree t*d, in canonical order.

    Canonical order is lexicographic descending on exponent tuples;
    the list is duplicate-free by construction.
    """

    action: CyclicAction
    t: int
    monomials: tuple[ExponentVector, ...]

    @property
    def count(self) -> int:
        return len(self.monomials)

    @property
    def degree(self) -> int:
        return self.t * self.action.d


def exponent_vectors(nvars: int, total: int) -> list[ExponentVector]:
    """Nonnegative vectors of length nvars and coordinate sum total, lex
    descending."""
    out = []
    vec = [0] * nvars

    def rec(idx: int, remaining: int):
        if idx == nvars - 1:
            vec[idx] = remaining
            out.append(tuple(vec))
            return
        for y in range(remaining, -1, -1):
            vec[idx] = y
            rec(idx + 1, remaining - y)

    rec(0, total)
    return out


def invariant_monomials(action: CyclicAction, t: int) -> InvariantBasis:
    """Enumerate the degree t*d invariant monomials, lex descending; the
    last two coordinates solve a congruence, stepped by d/gcd."""
    if t < 1:
        raise ValueError("t must be at least 1")
    d = action.d
    w = action.weights
    n = action.n
    out = []
    vec = [0] * (n + 1)

    def rec(idx: int, remaining: int, wsum: int):
        if idx == n - 1:
            # y + y_n = remaining and (w_{n-1} - w_n)*y = -wsum - w_n*remaining
            solution = _congruence(w[idx] - w[n], -wsum - w[n] * remaining, d)
            if solution is None:
                return
            y0, step = solution
            # the largest y <= remaining in the class of y0, down to y0
            for y in range(remaining - (remaining - y0) % step, -1, -step):
                vec[idx] = y
                vec[n] = remaining - y
                out.append(tuple(vec))
            return
        for y in range(remaining, -1, -1):
            vec[idx] = y
            rec(idx + 1, remaining - y, wsum + w[idx] * y)

    rec(0, t * d, 0)
    return InvariantBasis(action, t, tuple(out))


def _congruence(a: int, c: int, mod: int) -> tuple[int, int] | None:
    """(y0, step) such that a*y = c (mod mod) exactly when y = y0
    (mod step), with 0 <= y0 < step; None when there is no solution."""
    a %= mod
    c %= mod
    g = math.gcd(a, mod)
    if c % g:
        return None
    step = mod // g
    return (c // g) * pow(a // g, -1, step) % step, step


def count_invariants(action: CyclicAction, t: int) -> int:
    """Number of degree t*d invariant monomials, without enumerating them.

    All variables beyond the first two are iterated directly; the
    remaining pair is handled by a closed-form congruence count.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    d = action.d
    w = action.weights
    n = action.n
    total = t * d

    def rec(idx: int, remaining: int, wsum: int) -> int:
        if idx == 1:
            # y0 + y1 = remaining and w0*y0 + w1*y1 = -wsum (mod d)
            solution = _congruence(w[1] - w[0], -wsum - w[0] * remaining, d)
            if solution is None or solution[0] > remaining:
                return 0
            return (remaining - solution[0]) // solution[1] + 1
        acc = 0
        for y in range(remaining + 1):
            acc += rec(idx - 1, remaining - y, wsum + w[idx] * y)
        return acc

    return rec(n, total, 0)


def mu_d(action: CyclicAction) -> int:
    """Number of degree-d invariant monomials (the generator count)."""
    return count_invariants(action, 1)


def _zero_sum_part(action: CyclicAction, v: ExponentVector) -> ExponentVector:
    """A sub-vector b <= v of degree d whose weighted sum vanishes mod d.

    Reachability of (count, residue) states is tabulated from the last
    variable backwards, then the split is rebuilt greedily so smaller
    variable indices carry as much as possible.  A size-d zero-sum
    sub-multiset always exists once degree(v) >= 2d.
    """
    d = action.d
    w = action.weights
    nv = action.nvars
    # tail[i] = set of (count, residue) realizable using variables i..n
    tail = [None] * (nv + 1)
    tail[nv] = {(0, 0)}
    for i in range(nv - 1, -1, -1):
        reach = set()
        for count, res in tail[i + 1]:
            for b in range(0, min(v[i], d - count) + 1):
                reach.add((count + b, (res + w[i] * b) % d))
        tail[i] = reach
    if (d, 0) not in tail[0]:
        raise InternalDiscrepancy("no zero-sum split found; input was not "
                                  "a degree-multiple invariant")
    part = [0] * nv
    count, res = d, 0
    for i in range(nv):
        for b in range(min(v[i], count), -1, -1):
            need = (res - w[i] * b) % d
            if (count - b, need) in tail[i + 1]:
                part[i] = b
                count -= b
                res = need
                break
    return tuple(part)


def egz_factor(action: CyclicAction, v: ExponentVector) -> list[ExponentVector]:
    """Split a degree t*d invariant into t invariant factors of degree d.

    The parts sum coordinatewise to v.  Any valid factorization is a
    correct answer; this one is deterministic.
    """
    if len(v) != action.nvars:
        raise ValueError("exponent vector length does not match the action")
    if any(a < 0 for a in v):
        raise ValueError("exponents must be nonnegative")
    d = action.d
    total = degree(v)
    if total == 0 or total % d != 0:
        raise ValueError(f"degree {total} is not a positive multiple of d={d}")
    if not is_invariant(action, v):
        raise ValueError(f"{v} is not invariant under the action")
    parts = []
    rest = v
    while degree(rest) > d:
        piece = _zero_sum_part(action, rest)
        parts.append(piece)
        rest = tuple(r - p for r, p in zip(rest, piece))
    parts.append(rest)
    return parts
