"""Low-degree graded pieces of the toric ideal of a GT-variety.

Multisets of j generators are grouped by their product monomial; two
multisets in the same fiber give a binomial in the ideal.  Every such
binomial is a difference e_u - e_v of two basis monomials, so a span of
them is the cut space of a graph on the basis monomials: a row lies in
the span of earlier rows exactly when u and v are already connected,
and the rank is the number of rows that joined two components.  The
spans are tracked with union-find, so no elimination is needed.  This
is the Markov-basis view of Diaconis and Sturmfels: the minimal
generators in one multidegree number the components of its fiber
graph minus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .actions import CyclicAction, ExponentVector, invariant_monomials
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


def _product(generators, multiset: tuple[int, ...]) -> ExponentVector:
    acc = [0] * len(generators[0])
    for idx in multiset:
        g = generators[idx]
        for k in range(len(acc)):
            acc[k] += g[k]
    return tuple(acc)


def fiber_partition(action: CyclicAction, j: int) -> FiberPartition:
    """Group all degree-j generator multisets by coordinatewise sum."""
    if j < 1:
        raise ValueError("degree must be at least 1")
    gens = invariant_monomials(action, 1).monomials
    groups: dict = {}
    for multiset in combinations_with_replacement(range(len(gens)), j):
        groups.setdefault(_product(gens, multiset), []).append(multiset)
    ordered = {p: tuple(sorted(groups[p]))
               for p in sorted(groups, reverse=True)}
    return FiberPartition(action, j, gens, ordered)


def ideal_dimension(action: CyclicAction, j: int) -> int:
    """dim of the degree-j piece: binomial(mu_d+j-1, j) minus HF(j)."""
    if j < 0:
        raise ValueError("degree must be nonnegative")
    m = len(invariant_monomials(action, 1).monomials)
    return binomial(m + j - 1, j) - hf_by_counting(action, j)


@dataclass(frozen=True)
class BinomialGeneratorSet:
    """Minimal binomial generators in degrees 2 and 3, plus a closure marker.

    degree4_deficit counts the degree-4 ideal dimensions not reached by
    multiplying the degree-3 piece with variables; 0 certifies that no
    new generator is needed in degree 4.  For surfaces regularity 3
    makes the set complete; for more variables completeness is only
    claimed through the verified degree.
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


def _base_differences(partition: FiberPartition) -> list[Binomial]:
    """One spanning difference per non-basepoint multiset, fiber by fiber."""
    out = []
    for _, multisets in partition.fibers.items():
        base = multisets[0]
        for other in multisets[1:]:
            out.append((base, other))
    return out


def _shift(pair: Binomial, var: int) -> Binomial:
    return tuple(sorted(pair[0] + (var,))), tuple(sorted(pair[1] + (var,)))


class _CutSpan:
    """Span of rows e_u - e_v, tracked as components of a graph.

    Union-find over basis monomials with iterative path halving; only
    non-root monomials are stored.  add() reports whether the row
    enlarged the span, i.e. joined two components.
    """

    def __init__(self):
        self._parent: dict = {}
        self.rank = 0

    def _find(self, x):
        parent = self._parent
        while True:
            p = parent.get(x)
            if p is None:
                return x
            gp = parent.get(p)
            if gp is None:
                return p
            parent[x] = gp
            x = gp

    def add(self, pair: Binomial) -> bool:
        ru, rv = self._find(pair[0]), self._find(pair[1])
        if ru == rv:
            return False
        self._parent[rv] = ru
        self.rank += 1
        return True


def minimal_generators(action: CyclicAction) -> BinomialGeneratorSet:
    """Explicit minimal generators of the toric ideal through degree 3.

    Degree-2 fibers give an independent spanning set of quadric
    binomials outright.  The cubic generators are the fiber differences
    that extend the span of variable-times-quadric rows; the extension
    is chosen greedily in canonical basis order, so the witness set is
    reproducible.  A final rank check compares the degree-4 piece with
    variable multiples of the degree-3 piece.
    """
    gens = invariant_monomials(action, 1).monomials
    nvars = len(gens)

    deg2 = fiber_partition(action, 2)
    quadrics = _base_differences(deg2)
    if len(quadrics) != ideal_dimension(action, 2):
        raise InternalDiscrepancy(
            f"degree-2 fiber differences do not span for {action}")

    span3 = _CutSpan()
    for pair in quadrics:
        for var in range(nvars):
            span3.add(_shift(pair, var))

    deg3 = fiber_partition(action, 3)
    dim3 = ideal_dimension(action, 3)
    if deg3.relation_count != dim3:
        raise InternalDiscrepancy(
            f"degree-3 fiber differences do not span for {action}")
    product_rank = span3.rank
    cubics = []
    for pair in _base_differences(deg3):
        if span3.add(pair):
            cubics.append(pair)
    if span3.rank != dim3 or len(cubics) != dim3 - product_rank:
        raise InternalDiscrepancy(
            f"cubic witness extension is inconsistent for {action}")

    span4 = _CutSpan()
    for pair in _base_differences(deg3):
        for var in range(nvars):
            span4.add(_shift(pair, var))
    deficit = ideal_dimension(action, 4) - span4.rank
    if deficit < 0:
        raise InternalDiscrepancy(
            f"degree-4 span exceeds the ideal for {action}")

    return BinomialGeneratorSet(
        action=action,
        generators=gens,
        quadrics=tuple(quadrics),
        cubics=tuple(cubics),
        degree4_deficit=deficit,
    )
