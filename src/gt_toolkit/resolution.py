"""Betti tables of GT-surfaces and consistency with the Hilbert series.

The minimal free resolution of a GT-surface has two closed-form shapes,
split on theta = 3 versus theta >= 4.  Ranks and twists are computed
from those formulas only; toricideal.minimal_generators counts the
generators independently, from the fibers of the toric ideal.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .exactalg import InternalDiscrepancy, binomial
from .hilbert import SurfaceProfile, hilbert_series


class BettiTable(NamedTuple):
    """Graded ranks b(l, i) with twists -(l+i) of the minimal resolution.

    Only nonzero ranks are stored. c is the codimension (projective
    dimension of the quotient) and h = cm_type - 1 controls where the
    second strand starts in the theta >= 4 shape.
    """

    profile: SurfaceProfile
    c: int
    h: int
    case: str  # "theta=3" or "theta>=4"
    entries: dict

    def rank(self, l: int, i: int) -> int:
        return self.entries.get((l, i), 0)

    @staticmethod
    def twist(l: int, i: int) -> int:
        return -(l + i)

    @property
    def projective_dimension(self) -> int:
        return max(l for l, _ in self.entries)

    @property
    def cm_type(self) -> int:
        return self.rank(self.c, 2)

    @property
    def regularity(self) -> int:
        top = max(i for l, i in self.entries if l == self.projective_dimension)
        return top + 1

    def to_dict(self) -> dict:
        ranks = {f"{l},{i}": r for (l, i), r in sorted(self.entries.items())}
        return {"mu_d": self.profile.mu_d, "c": self.c, "h": self.h,
                "case": self.case, "ranks": ranks}


def betti_table(profile: SurfaceProfile) -> BettiTable:
    """Ranks of the minimal graded free resolution, by the two-case formulas."""
    theta = profile.theta
    if theta < 3:
        raise ValueError(f"theta = {theta} is outside the theory (theta >= 3)")
    c = profile.codim
    h = profile.cm_type - 1
    entries = {}
    if theta == 3:
        for l in range(1, c):
            entries[(l, 1)] = l * binomial(c, l + 1)
        for l in range(1, c + 1):
            entries[(l, 2)] = l * binomial(c, l)
        case = "theta=3"
    else:
        for l in range(1, c - h):
            entries[(l, 1)] = (l * binomial(c, l + 1)
                               + (c - h - l) * binomial(c, l - 1))
        for l in range(c - h, c):
            entries[(l, 1)] = l * binomial(c, l + 1)
        for l in range(c - h, c + 1):
            entries[(l, 2)] = (l - c + h + 1) * binomial(c, l)
        case = "theta>=4"
    entries = {k: v for k, v in entries.items() if v != 0}
    return BettiTable(profile=profile, c=c, h=h, case=case, entries=entries)


class GeneratorCounts(NamedTuple):
    quadrics: int
    cubics: int

    def to_dict(self) -> dict:
        return self._asdict()


def generator_counts(table: BettiTable) -> GeneratorCounts:
    """Minimal generator counts of the surface ideal of table's profile.

    theta = 3 gives binomial(mu_d-3, 2) quadrics and mu_d - 3 cubics;
    theta >= 4 gives binomial(mu_d-3, 2) + 2(mu_d-3) - d + 1 quadrics
    and no cubics.  The counts must equal the table's b(1,1) and b(1,2).
    """
    profile = table.profile
    m = profile.mu_d
    if profile.theta == 3:
        counts = GeneratorCounts(binomial(m - 3, 2), m - 3)
    else:
        counts = GeneratorCounts(binomial(m - 3, 2) + 2 * (m - 3)
                                 - profile.d + 1, 0)
    if (counts.quadrics, counts.cubics) != (table.rank(1, 1), table.rank(1, 2)):
        raise InternalDiscrepancy(
            f"generator counts disagree with the Betti table for {profile}")
    return counts


class RationalSeries(NamedTuple):
    """Power series numerator over (1-z)^pole_order, fully reduced."""

    numerator: tuple[int, ...]
    pole_order: int
    matches_closed_form: bool

    def to_dict(self) -> dict:
        return {"numerator": list(self.numerator),
                "pole_order": self.pole_order,
                "matches_closed_form": self.matches_closed_form}


def series_from_betti(table: BettiTable) -> RationalSeries:
    """Alternating-sum Hilbert series of the resolution, reduced.

    Starts from (1 + sum (-1)^l b(l,i) z^(l+i)) / (1-z)^mu_d, cancels
    every possible (1-z) factor and compares the result with the
    closed-form series of the profile.  One division is one pass of
    partial sums: all but the last are the quotient's coefficients, and
    the last is the remainder, the numerator's value at z = 1.  Every
    entry sits at l + i >= 2 and partial sums keep the constant term 1,
    so a zero remainder always leaves a nonempty quotient.
    """
    top = max(l + i for l, i in table.entries)
    coeffs = [0] * (top + 1)
    coeffs[0] = 1
    for (l, i), r in table.entries.items():
        coeffs[l + i] += (-1) ** l * r
    pole = table.profile.mu_d
    while pole > 0:
        *quotient, remainder = accumulate(coeffs)
        if remainder:
            break
        coeffs = quotient
        pole -= 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    expected = hilbert_series(table.profile, horizon=0).numerator
    matches = pole == 3 and tuple(coeffs) == tuple(expected)
    return RationalSeries(tuple(coeffs), pole, matches)
