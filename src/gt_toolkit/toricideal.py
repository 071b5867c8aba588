"""Low-degree graded pieces of the toric ideal of a GT-variety.

Pairs of generators are grouped by their product monomial; two pairs
in the same fiber give a quadric in the ideal, and the degree-2 piece
has one dimension per fiber member beyond the first.  The minimal
generators follow the Markov-basis view of Diaconis and Sturmfels.  In
the fiber of a degree-j monomial, join two multisets A and B of j
generators when they share a generator index v: A - v and B - v then
lie in one lower-degree fiber, so A - B is v times a lower-degree
binomial.  The minimal generators in multidegree b number the
components of this fiber graph minus one, and the generators alone give
them: join u and v when g_u + g_v <= b.  That is exact, as every
invariant of degree t*d is a product of t generators
(actions.egz_factor): each g_v <= b and each such pair is in a multiset.

The graphs read their edges from a table: monomials are packed into
one integer each, lex order kept, and the vertices joined to u in b's
graph are the vertex mask of the packed b - g_u, one degree lower.  The
degree-2 fibers give that table for degree 3 and the degree-3 basis for
degree 4; both hold every invariant of their degree, so a lookup never
misses unless a cross-check has already failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, and_, getitem, mul, or_

from .actions import (CyclicAction, ExponentVector, count_invariants,
                      invariant_monomials, mu_d)
from .exactalg import InternalDiscrepancy, binomial
from .hilbert import hf_by_counting

# A binomial on the generators, as two sorted index multisets.
Binomial = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class FiberPartition:
    """Generator pairs grouped by product monomial."""

    generators: tuple[ExponentVector, ...]
    fibers: dict

    @property
    def relation_count(self) -> int:
        return sum(len(ms) - 1 for ms in self.fibers.values())


def fiber_partition(action: CyclicAction) -> FiberPartition:
    """Group the generator pairs (i, k), i <= k, by the sum g_i + g_k.

    Pairs come out lex ascending within each fiber, and the fibers are
    ordered lex descending by product.
    """
    gens = invariant_monomials(action, 1)
    groups: dict = {}
    for i, g in enumerate(gens):
        for k in range(i, len(gens)):
            groups.setdefault(tuple(map(add, g, gens[k])), []).append((i, k))
    ordered = {p: tuple(groups[p]) for p in sorted(groups, reverse=True)}
    return FiberPartition(gens, ordered)


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


def _component_roots(vertices: int, neighbours) -> list[int]:
    """Least vertex of each component, ascending, of the graph on the bits
    of vertices; neighbours(u) is the bitmask of u's neighbours.  Flood
    fill over a bitmask frontier: a loop, never recursion."""
    roots = []
    while vertices:
        component = frontier = vertices & -vertices
        roots.append(component.bit_length() - 1)
        while frontier and component != vertices:
            bit = frontier & -frontier
            frontier ^= bit
            fresh = neighbours(bit.bit_length() - 1) & ~component
            component |= fresh
            frontier |= fresh
        vertices &= ~component
    return roots


def minimal_generators(action: CyclicAction) -> BinomialGeneratorSet:
    """Explicit minimal generators of the toric ideal through degree 3.

    Quadrics pair each degree-2 fiber's least multiset with every other.
    Each invariant b of degree 3d or 4d gets its generator graph: the
    g_v <= b, joined when g_u + g_v <= b, which is exact as b - g_u - g_v
    factors into generators (egz_factor).  For b lex descending, a cubic
    pairs the least multiset (v0, lowest neighbour i2 of v0, rest of b)
    of b's first component with that of every other; the degree-4
    components give degree4_deficit.  Degree 2 checks its fibers against
    binomial-minus-HF, degrees 3 and 4 the number of b against the
    counted HF and that each b has a generator below it.

    Monomials of degree <= 4d are packed into one integer each, digits
    most significant first in radix 4d + 1, so packed order is lex order
    and b - g_u is one subtraction.  The neighbours of u are read from
    `lower`, which maps each packed invariant of degree (j-1)d to its
    vertex mask {v : g_v <= it}; then lower[b - g_u] is exactly
    {v : g_u + g_v <= b}.  The lookup is exact: for a vertex u, b - g_u
    is a nonnegative invariant of degree (j-1)d, and `lower` holds every
    such invariant.  For j = 3 its keys are the degree-2 fiber products,
    which the passed check relation_count == ideal_dimension(action, 2)
    forces to be all HF(2) invariants of degree 2d (the fibers number
    binomial(mu_d + 1, 2) - relation_count); for j = 4 it holds the masks
    of the whole degree-3 basis.  A miss raises InternalDiscrepancy.  A
    graph whose lowest vertex's closed neighbourhood covers every vertex
    is one component without a walk.
    """
    squares = fiber_partition(action)
    if squares.relation_count != ideal_dimension(action, 2):
        raise InternalDiscrepancy(
            f"degree-2 fiber differences do not span for {action}")
    quadrics = [(ms[0], other)
                for ms in squares.fibers.values() for other in ms[1:]]
    gens = squares.generators
    radix = 4 * action.d + 1
    digits = [radix ** k for k in reversed(range(action.nvars))]

    def pack(v):
        return sum(map(mul, v, digits))

    packed = [pack(g) for g in gens]
    index = {p: i for i, p in enumerate(packed)}
    below = []  # below[k][e]: bitmask of the g with g[k] <= e
    for k in range(action.nvars):
        masks = [0] * radix
        for i, g in enumerate(gens):
            masks[g[k]] |= 1 << i
        below.append(list(accumulate(masks, or_)))
    # each degree-2 product's vertices are the indices of its pairs
    lower = {pack(p): reduce(or_, (1 << i | 1 << k for i, k in ms))
             for p, ms in squares.fibers.items()}

    cubics, deficit = [], 0
    for j in (3, 4):
        basis = invariant_monomials(action, j)
        if len(basis) != count_invariants(action, j):
            raise InternalDiscrepancy(f"degree-{j} invariants miscounted")
        found = {}  # lower of the next degree, left empty at j = 4, the last
        for b in basis:
            if not (vertices := reduce(and_, map(getitem, below, b))):
                raise InternalDiscrepancy(f"no generator divides {b}")
            pb = pack(b)
            if j == 3:
                found[pb] = vertices
            low = vertices & -vertices
            try:
                if lower[pb - packed[low.bit_length() - 1]] | low == vertices:
                    continue
                roots = _component_roots(
                    vertices, lambda u: lower[pb - packed[u]])
                if j == 4:
                    deficit += len(roots) - 1
                    continue
                leaders = []
                for v0 in roots:
                    adjacent = lower[pb - packed[v0]]
                    i2 = (adjacent & -adjacent).bit_length() - 1
                    rest = pb - packed[v0] - packed[i2]
                    leaders.append((v0, i2, index[rest]))
            except KeyError:
                raise InternalDiscrepancy(
                    f"{b} has a part missing from degree {j - 1}") from None
            cubics.extend((leaders[0], other) for other in leaders[1:])
        lower = found

    return BinomialGeneratorSet(
        generators=gens,
        quadrics=tuple(quadrics),
        cubics=tuple(cubics),
        degree4_deficit=deficit,
    )
