"""Low-degree graded pieces of the toric ideal of a GT-variety.

Multisets of j generators are grouped by their product monomial; two
multisets in the same fiber give a binomial in the ideal, and the
degree-j piece has one dimension per fiber member beyond the first.
The minimal generators follow the Markov-basis view of Diaconis and
Sturmfels.  In one fiber, join two multisets A and B when they share a
generator index v: A - v and B - v then lie in one lower-degree fiber,
so A - B is v times a lower-degree binomial.  The minimal generators in
one multidegree therefore number the components of this fiber graph
minus one, and a small union-find per fiber finds them, so no
elimination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .actions import CyclicAction, ExponentVector, invariant_monomials, mu_d
from .exactalg import InternalDiscrepancy, binomial
from .hilbert import hf_by_counting

# A binomial on the generators, as two sorted index multisets.
Binomial = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FiberPartition:
    """Degree-j multisets of generators grouped by product monomial."""

    action: CyclicAction
    degree: int
    generators: tuple[ExponentVector, ...]
    fibers: dict

    @property
    def relation_count(self) -> int:
        return sum(len(ms) - 1 for ms in self.fibers.values())

    def nontrivial(self) -> list[tuple[ExponentVector, tuple]]:
        return [(p, ms) for p, ms in self.fibers.items() if len(ms) > 1]


def fiber_partition(action: CyclicAction, j: int) -> FiberPartition:
    """Group all degree-j generator multisets by coordinatewise sum.

    Multisets grow one index at a time, never below their last, so they
    come out lex ascending and each product is one addition away from
    its parent's.  The levels are chained generators: only the fibers
    are ever held in memory.
    """
    if j < 1:
        raise ValueError("degree must be at least 1")
    gens = invariant_monomials(action, 1).monomials
    level = (((i,), g) for i, g in enumerate(gens))
    for _ in range(j - 1):
        level = ((multiset + (i,), tuple(map(add, product, gens[i])))
                 for multiset, product in level
                 for i in range(multiset[-1], len(gens)))
    groups: dict = {}
    for multiset, product in level:
        groups.setdefault(product, []).append(multiset)
    ordered = {p: tuple(groups[p]) for p in sorted(groups, reverse=True)}
    return FiberPartition(action, j, gens, ordered)


def ideal_dimension(action: CyclicAction, j: int) -> int:
    """dim of the degree-j piece: binomial(mu_d+j-1, j) minus HF(j).

    Both mu_d and HF(j) are counted, never enumerated, so the check
    against a fiber partition does not reuse the generator list it groups.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    m = mu_d(action)
    return binomial(m + j - 1, j) - hf_by_counting(action, j)


@dataclass(frozen=True)
class BinomialGeneratorSet:
    """Minimal binomial generators in degrees 2 and 3, plus a closure marker.

    degree4_deficit counts the degree-4 ideal dimensions not reached by
    multiplying the degree-3 piece with variables: over the degree-4
    fibers, the components of the fiber graph minus one.  0 certifies
    that no new generator is needed in degree 4.  For surfaces
    regularity 3 makes the set complete; for more variables
    completeness is only claimed through the verified degree.
    """

    action: CyclicAction
    generators: tuple[ExponentVector, ...]
    quadrics: tuple[Binomial, ...]
    cubics: tuple[Binomial, ...]
    degree4_deficit: int

    @property
    def counts(self) -> tuple[int, int]:
        return (len(self.quadrics), len(self.cubics))

    @property
    def verified_through_degree(self) -> int:
        return 4 if self.degree4_deficit == 0 else 3

    def to_dict(self) -> dict:
        return {
            "quadrics": [[list(a), list(b)] for a, b in self.quadrics],
            "cubics": [[list(a), list(b)] for a, b in self.cubics],
            "counts": {"quadrics": len(self.quadrics),
                       "cubics": len(self.cubics)},
            "degree4_deficit": self.degree4_deficit,
            "verified_through_degree": self.verified_through_degree,
        }


def _component_leaders(multisets) -> list:
    """First member of each component of one fiber, in input order.

    Fibers are lex ascending, so that is each component's least member.
    Two multisets are joined when they share a generator index, so the
    components follow from union-find over the generator indices, each
    multiset uniting its own; path halving keeps it iterative.
    """
    parent = {idx: idx for multiset in multisets for idx in multiset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for multiset in multisets:
        root = find(multiset[0])
        for idx in multiset[1:]:
            parent[find(idx)] = root
    leaders: dict = {}
    for multiset in multisets:
        leaders.setdefault(find(multiset[0]), multiset)
    return list(leaders.values())


def minimal_generators(action: CyclicAction) -> BinomialGeneratorSet:
    """Explicit minimal generators of the toric ideal through degree 3.

    Degree-2 fibers give an independent spanning set of quadric
    binomials outright: each fiber's least multiset paired with every
    other.  In each degree-3 fiber, taken in canonical order, a cubic
    pairs the fiber's least multiset with the least multiset of every
    other component, so the witness set is reproducible.  The degree-4
    components give degree4_deficit.  Each degree's fiber count is
    checked against binomial-minus-HF.
    """
    partitions = {}
    for j in (2, 3, 4):
        partitions[j] = fiber_partition(action, j)
        if partitions[j].relation_count != ideal_dimension(action, j):
            raise InternalDiscrepancy(
                f"degree-{j} fiber differences do not span for {action}")

    quadrics = [(ms[0], other)
                for ms in partitions[2].fibers.values() for other in ms[1:]]
    cubics = []
    for _, multisets in partitions[3].nontrivial():
        leaders = _component_leaders(multisets)
        cubics.extend((leaders[0], other) for other in leaders[1:])
    deficit = sum(len(_component_leaders(ms)) - 1
                  for _, ms in partitions[4].nontrivial())

    return BinomialGeneratorSet(
        action=action,
        generators=partitions[2].generators,
        quadrics=tuple(quadrics),
        cubics=tuple(cubics),
        degree4_deficit=deficit,
    )
