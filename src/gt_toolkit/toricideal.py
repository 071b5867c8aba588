"""Low-degree graded pieces of the toric ideal of a GT-variety.

The minimal generators follow the Markov-basis view of Diaconis and
Sturmfels.  In the fiber of a degree-j monomial b, join two multisets A
and B of j generators when they share a generator index v: A - v and
B - v then lie in one lower-degree fiber, so A - B is v times a
lower-degree binomial.  The minimal generators in multidegree b number
the components of this fiber graph minus one, and the generators alone
give them: join u and v when g_u + g_v <= b.  That is exact, as every
invariant of degree t*d is a product of t generators
(actions.egz_factor): each g_v <= b and each such pair is in a multiset.

So the degree-t invariants are exactly the t-fold generator sums, and
minimal_generators builds degrees 1 to 4 by one closure over packed
monomials: each degree's sums, with the generators below each, come
from the previous degree's by adding one generator.  Each graph reads
its edges from the table one degree down, which holds every key looked
up.

fiber_partition and ideal_dimension are a second route for degree 2,
independent of the closure: generator pairs grouped by their product as
a tuple, and the dimension from the counted mu_d and HF(2).
verify-paper and the tests compare the closure against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import add, mul

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
    ordered lex descending by product, the order of minimal_generators'
    quadrics.  The products are tuple keys on purpose: this is the
    degree-2 route that shares no packing, table or graph walk with
    minimal_generators, which verify-paper and the tests compare it to.
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

    Both mu_d and HF(j) are counted, never enumerated, so comparing it
    with a fiber partition, or with the quadrics of minimal_generators,
    does not reuse the generator list either one is built from.
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


def minimal_generators(action: CyclicAction) -> BinomialGeneratorSet:
    """Explicit minimal generators of the toric ideal through degree 3.

    Only the generators are enumerated.  Monomials of degree <= 4d are
    packed into one integer each, digits most significant first in radix
    4d + 1, so packed order is lex order and a sum is one addition.  One
    closure builds tables[j], j = 1 to 4, from tables[j - 1] and
    tables[0] = {0: 0}, mapping each j-fold generator sum b to
    V(b) = {u : b - g_u is a key of tables[j - 1]}.  By egz_factor the
    keys are all the degree-jd invariants, so V(b) = {u : g_u <= b}.
    Each table's size is checked against count_invariants, which counts
    those invariants without enumerating them; at j = 1 it is checked
    against the generators too, as two copies would share a key.

    The closure builds each generator multiset once, largest index last.
    Call the least largest index over a key's multisets its rank.  For
    u ascending, u meets the keys p of tables[j - 1] of rank <= u, and
    p + g_u gains p's mask and the bit u.  The first u to reach a key is
    its rank, so keys enter a table in rank order, and the keys of rank
    <= u are a prefix whose length ends[u] records as the table is
    built.  Every key is reached: a multiset of b with largest index u
    leaves b - g_u of rank <= u.  Every mask is exact: for w in V(b),
    take a multiset of b containing w, with largest index u; the pair
    (b - g_u, u) is visited, and w is u or in the mask of b - g_u.

    b's graph joins u and v in V(b) when g_u + g_v <= b, that is when v
    is in the mask of b - g_u.  For b lex descending, each component is
    led by its least multiset, read down the lower tables: its least
    vertex, then the least vertex below what remains, one degree at a
    time.  Every leader after the first is paired with the first.  At
    j = 2 a component is one pair, which gives the quadrics in
    fiber_partition's order, and j = 3 gives the cubics.  The degree-4
    graphs are only counted, the components minus one summed into
    degree4_deficit, so they are visited unsorted and no leader is read.

    Each component is one bitmask flood fill from the lowest remaining
    vertex, whose neighbours seed the frontier.  Any expansion order
    gives the same components; the highest frontier vertex goes first,
    as that order needs the fewest lookups.

    No lookup can miss.  For u in V(b), b - g_u is a key of tables[j - 1]
    by the definition of V(b).  For a neighbour v of u,
    b - g_v = g_u + (b - g_u - g_v), and b - g_u - g_v is a key one
    degree further down, so b - g_v is a sum of one more generator,
    which the closure reached.  Each remainder of a leader is a key the
    same way.
    """
    gens = invariant_monomials(action, 1)
    radix = 4 * action.d + 1
    digits = [radix ** k for k in reversed(range(action.nvars))]
    packed = [sum(map(mul, g, digits)) for g in gens]
    tables = [{0: 0}]
    # ends[u]: the number of keys of rank <= u in the table below, read
    # for it and then rewritten for the table being built; tables[0]'s
    # one key, the empty sum, meets every generator
    ends = [1] * len(gens)
    relations = [[] for _ in range(4)]  # relations[j]: degree-j pairs
    deficit = 0
    for j in range(1, 5):
        lower, found = tables[-1], {}
        for u, (g, end) in enumerate(zip(packed, ends)):
            bit = 1 << u
            for p, mask in islice(lower.items(), end):
                q = p + g
                found[q] = found.get(q, 0) | mask | bit
            ends[u] = len(found)
        if len(found) != count_invariants(action, j) or len(found) < len(gens):
            raise InternalDiscrepancy(f"degree-{j} invariants miscounted")
        tables.append(found)
        for b in sorted(found, reverse=True) if j < 4 else found:
            vertices, roots = found[b], []
            while vertices:
                low = vertices & -vertices
                roots.append(low.bit_length() - 1)
                component = lower[b - packed[roots[-1]]] | low
                frontier = component ^ low
                while frontier and component != vertices:
                    u = frontier.bit_length() - 1
                    frontier ^= 1 << u
                    fresh = lower[b - packed[u]] & ~component
                    component |= fresh
                    frontier |= fresh
                vertices &= ~component
            if len(roots) == 1:
                continue
            if j == 4:
                deficit += len(roots) - 1
                continue
            leaders = []
            for v in roots:
                leader, rest = [v], b - packed[v]
                for table in reversed(tables[1:j]):
                    least = table[rest] & -table[rest]
                    leader.append(least.bit_length() - 1)
                    rest -= packed[leader[-1]]
                leaders.append(tuple(leader))
            relations[j].extend((leaders[0], other) for other in leaders[1:])

    return BinomialGeneratorSet(
        generators=gens,
        quadrics=tuple(relations[2]),
        cubics=tuple(relations[3]),
        degree4_deficit=deficit,
    )
