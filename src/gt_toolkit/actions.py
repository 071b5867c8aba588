"""Diagonal cyclic group actions and their invariant monomials.

A monomial x0^a0 ... xn^an is invariant under the order-d action with
weight vector (w0, ..., wn) exactly when w0*a0 + ... + wn*an is divisible
by d.  This module enumerates and counts the invariant monomials of
degree t*d and factors any such monomial into t invariant factors of
degree d.  The factors always exist: by the Erdos-Ginzburg-Ziv theorem
(Bull. Res. Council Israel 10F, 1961) any 2d-1 residues mod d hold d
that sum to 0 mod d, so an invariant of degree at least 2d has a
degree-d invariant below it.  egz_factor peels off the lex-largest one.

One iterative walker, _compositions, feeds exponent_vectors,
invariant_monomials and count_invariants.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import le

from .exactalg import InternalDiscrepancy, exact_int

# Monomials and semigroup elements are plain exponent tuples.
ExponentVector = tuple[int, ...]


class CyclicAction(namedtuple("CyclicAction", "d weights")):
    """Order-d diagonal action given by its residue weights.

    Weights are reduced mod d at construction but deliberately not
    sorted, so variable labels stay aligned with the caller's input.
    The standing hypothesis gcd(w0, ..., wn, d) = 1 is enforced on every
    way in: the constructor, _make and _replace.  Unlike the other
    records it subclasses collections.namedtuple, because
    typing.NamedTuple forbids overriding __new__.
    """

    __slots__ = ()

    def __new__(cls, d: int, weights: tuple[int, ...]):
        if d < 2:
            raise ValueError("group order d must be at least 2")
        if len(weights) < 2:
            raise ValueError("need at least two variables")
        reduced = tuple(w % d for w in weights)
        if math.gcd(*reduced, d) != 1:
            raise ValueError(
                f"gcd of weights {reduced} and order {d} must be 1")
        return super().__new__(cls, d, reduced)

    @classmethod
    def _make(cls, iterable) -> "CyclicAction":
        # _replace builds through _make, so it validates too
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @classmethod
    def from_dict(cls, data: dict) -> "CyclicAction":
        # other keys are ignored
        if not isinstance(data, dict) or not {"d", "weights"} <= data.keys():
            raise ValueError("malformed action input: need a JSON object "
                             "with d and weights")
        d, weights = data["d"], data["weights"]
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


def _compositions(weights: tuple[int, ...], total: int):
    """Yield (prefix, rest, wsum) for each nonnegative prefix of
    len(weights) coordinates summing to at most total, lex descending:
    rest = total - sum(prefix), wsum = weights . prefix.  A stack holds
    the leading coordinates and a loop the last, so nothing recurses."""
    if not weights:
        yield (), total, 0
        return
    *lead, last = weights
    stack = [((), total, 0)]
    while stack:
        prefix, rest, wsum = stack.pop()
        if len(prefix) == len(lead):
            for y in range(rest, -1, -1):
                yield prefix + (y,), rest - y, wsum + last * y
            continue
        w = lead[len(prefix)]
        # pushed ascending, so the largest coordinate is popped first
        stack.extend((prefix + (y,), rest - y, wsum + w * y)
                     for y in range(rest + 1))


def exponent_vectors(nvars: int, total: int) -> list[ExponentVector]:
    """Nonnegative vectors of length nvars and coordinate sum total, lex
    descending; the walker fixes all but the last two coordinates, so
    each vector is built once."""
    if nvars == 1:
        return [(total,)]
    return [prefix + (y, rest - y)
            for prefix, rest, _ in _compositions((0,) * (nvars - 2), total)
            for y in range(rest, -1, -1)]


def invariant_monomials(action: CyclicAction,
                        t: int) -> tuple[ExponentVector, ...]:
    """The degree t*d invariant monomials, lex descending and duplicate
    free; the walker fixes all but the last two coordinates, which solve
    a congruence, stepped by d/gcd.  At t = 1 these are the generators,
    and the first one below v is the lex-largest degree-d invariant
    below v, the part egz_factor peels off."""
    if t < 1:
        raise ValueError("t must be at least 1")
    d = action.d
    w = action.weights
    n = action.n
    # y + y_n = rest and (w_{n-1} - w_n)*y = -wsum - w_n*rest (mod d)
    g, step, inverse = _congruence(w[n - 1] - w[n], d)
    out = []
    for prefix, rest, wsum in _compositions(w[:n - 1], t * d):
        c = -wsum - w[n] * rest
        if c % g:
            continue
        y0 = c // g * inverse % step
        # the largest y <= rest in the class of y0, down to y0
        for y in range(rest - (rest - y0) % step, -1, -step):
            out.append(prefix + (y, rest - y))
    return tuple(out)


def _congruence(a: int, mod: int) -> tuple[int, int, int]:
    """(g, step, inverse): a*y = c (mod mod) has a solution exactly when g
    divides c, and then exactly when y = (c/g)*inverse (mod step), where
    g = gcd(a, mod), step = mod/g and inverse is that of a/g mod step.
    O(1) memory, however large mod is."""
    g = math.gcd(a, mod)
    step = mod // g
    return g, step, pow(a // g, -1, step)


def count_invariants(action: CyclicAction, t: int) -> int:
    """Number of degree t*d invariant monomials, without enumerating them.

    The walker fixes the coordinates beyond the first two; the pair
    (0, 1) is counted in closed form.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    d = action.d
    w = action.weights
    # y0 + y1 = rest and (w1 - w0)*y1 = -wsum - w0*rest (mod d)
    g, step, inverse = _congruence(w[1] - w[0], d)
    count = 0
    for _, rest, wsum in _compositions(w[2:], t * d):
        c = -wsum - w[0] * rest
        if c % g:
            continue
        y1 = c // g * inverse % step
        if y1 <= rest:
            count += (rest - y1) // step + 1
    return count


def mu_d(action: CyclicAction) -> int:
    """Number of degree-d invariant monomials (the generator count)."""
    return count_invariants(action, 1)


def egz_factor(action: CyclicAction, v: ExponentVector) -> list[ExponentVector]:
    """Split a degree t*d invariant into t invariant factors of degree d.

    The parts sum coordinatewise to v.  Each part is the lex-largest
    generator below what remains of v; by Erdos-Ginzburg-Ziv one exists
    while the remainder has degree at least 2d.
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
    gens = invariant_monomials(action, 1)
    parts = []
    rest = v
    while degree(rest) > d:
        piece = next((g for g in gens if all(map(le, g, rest))), None)
        if piece is None:
            raise InternalDiscrepancy(f"no generator divides {rest}")
        parts.append(piece)
        rest = tuple(r - p for r, p in zip(rest, piece))
    parts.append(rest)
    return parts
