"""Affine semigroup engine: membership, normality and CM certification.

All semigroups here are homogeneous (every generator has the same
coordinate sum g) and contain the axis multiples g*e_i, so their
rational cone is the whole nonnegative orthant and the saturation is
simply lattice membership plus nonnegativity.

Membership runs on the Apery set of H with respect to the axis
generators, Ap(H) = {h in H | h - g*e_i is not in H for every i}.  Every
element of H is an Apery element plus nonnegative multiples of the g*e_i,
and Ap(H) is finite, so w lies in H exactly when some Apery element a
with a = w (mod g) coordinatewise satisfies a <= w.  Ap(H) is built once
per semigroup, level by level, and cached; the sums a + generator of a
level are keyed by packed integers, and only distinct sums become
tuples.  Each Apery element is re-summed from its generator indices
when it is stored.  A query never recurses and allocates nothing that
outlives it.

Cohen-Macaulayness is certified through the one-dimensional test set

    H1 = {w in the saturation | w + f_i and w + f_j lie in H
          for two different axis elements f_i, f_j},

which equals H exactly when the semigroup ring is Cohen-Macaulay.  The
test set is infinite, so the certificate is bounded: "verified up to
degree D" covers every graded level through D and never claims more.  A
counterexample witness, by contrast, is unconditional.  Both bounded
reports read the Apery classes: the points of the class with residue
key r are r + g*y, y >= 0, and share it with their translates
w + g*e_k.  The normality verdict comes from the classes alone: a
class whose Apery element is not r has r as its lowest gap.  The CM
scan splits on the class sizes.  H is Cohen-Macaulay exactly when
every class has one element (Goto-Suzuki-Watanabe;
Rosales-Garcia-Sanchez); then no point fails, and the points and pair
hits through the bound are counted in closed form, in O(|Ap|).  On any
other H the lattice points are visited level by level, lex descending,
each decided by one walk over its class, until the first failure, which
such an H always has.
"""

from __future__ import annotations

from collections import namedtuple
from operator import add, le, mod
from typing import NamedTuple

from .actions import CyclicAction, exponent_vectors, invariant_monomials
from .exactalg import InternalDiscrepancy, binomial, exact_int


class UnsupportedSemigroupError(ValueError):
    """The semigroup lacks the axis multiples the cone logic relies on."""


class AffineSemigroup(namedtuple("AffineSemigroup", "dim generators degree")):
    """Homogeneous affine semigroup with a fixed generator list.

    Generators are deduplicated and stored lex descending; all of them
    must share the same positive coordinate sum.  Without __slots__ each
    instance has a __dict__, where _apery keeps Ap(H) once built;
    equality and hashing read the three fields only.
    """

    @classmethod
    def from_generators(cls, generators) -> "AffineSemigroup":
        gens = sorted({tuple(exact_int(c, "generator coordinate") for c in g)
                       for g in generators}, reverse=True)
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        dim = len(gens[0])
        if any(len(g) != dim for g in gens):
            raise ValueError("generators must share one ambient dimension")
        if any(c < 0 for g in gens for c in g):
            raise ValueError("generators must be nonnegative")
        sums = {sum(g) for g in gens}
        if len(sums) != 1:
            raise ValueError(f"generators must be homogeneous, sums {sums}")
        g = sums.pop()
        if g < 1:
            raise ValueError("generator degree must be positive")
        return cls(dim=dim, generators=tuple(gens), degree=g)

    @classmethod
    def from_dict(cls, data: dict) -> "AffineSemigroup":
        gens = data.get("generators") if isinstance(data, dict) else None
        if not isinstance(gens, list) or \
                not all(isinstance(g, list) for g in gens):
            raise ValueError("malformed semigroup input: need a list of "
                             "generator lists")
        semigroup = cls.from_generators(gens)
        if "dim" in data and exact_int(data["dim"], "dim") != semigroup.dim:
            raise ValueError("declared dim does not match the generators")
        return semigroup

    def to_dict(self) -> dict:
        return {"dim": self.dim, "generators": [list(g) for g in self.generators]}

    def axis_generator_indices(self) -> tuple[int, ...] | None:
        """Index of the axis-multiple generator for each coordinate, if all exist.

        Homogeneity leaves degree*e_k as the only possible axis multiple.
        """
        index = {g: idx for idx, g in enumerate(self.generators)}
        found = tuple(index.get((0,) * k + (self.degree,)
                                + (0,) * (self.dim - 1 - k))
                      for k in range(self.dim))
        return None if None in found else found


def semigroup_of_action(action: CyclicAction) -> AffineSemigroup:
    """The semigroup generated by the degree-d invariant monomials."""
    return AffineSemigroup.from_generators(invariant_monomials(action, 1))


def make_h3t(t: int) -> AffineSemigroup:
    """The recursively shifted family starting from the cubic surface cone.

    Base case t = 1 is generated by the three axis triples of sum 3 plus
    (1, 1, 1); each later step keeps fresh axis vectors of sum 3t and
    shifts the previous generators by (1, 1, 1): make_hk(1, t - 1).  The
    generator count is 3t + 1.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    return make_hk(1, t - 1)


def make_hk(k: int, t_prime: int) -> AffineSemigroup:
    """The k-step variant: shift by (k, k, k) instead of (1, 1, 1).

    The base case t' = 0 coincides with make_h3t(1), and k = 1
    reproduces make_h3t(1 + t').  Generator degree is 3(1 + t'k) and the
    generator count is 3(t' + 1) + 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if t_prime < 0:
        raise ValueError("t' must be nonnegative")
    gens = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
    for s in range(1, t_prime + 1):
        size = 3 * (1 + s * k)
        shifted = [(a + k, b + k, c + k) for a, b, c in gens]
        gens = [(size, 0, 0), (0, size, 0), (0, 0, size)] + shifted
    semigroup = AffineSemigroup.from_generators(gens)
    if len(semigroup.generators) != 3 * (t_prime + 1) + 1:
        raise InternalDiscrepancy(
            f"expected {3 * (t_prime + 1) + 1} generators")
    return semigroup


class Membership(NamedTuple):
    member: bool
    decomposition: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {"member": self.member,
                "decomposition": list(self.decomposition)
                if self.decomposition is not None else None}


def member(H: AffineSemigroup, w) -> Membership:
    """Decide w in H, with a generator-index witness.

    w is in H exactly when an Apery element a in the residue class of w
    mod g satisfies a <= w; the decomposition is a's generators plus
    (w_k - a_k)/g copies of the k-th axis generator, sorted.  It is a
    valid witness, checked by re-summing, not a canonical one.  Raises
    UnsupportedSemigroupError when H lacks an axis multiple.
    """
    w = _vector(H, w)
    axes, apery = _apery(H)
    g = H.degree
    hit = _below(apery.get(tuple(c % g for c in w), ()), w)
    if hit is None:
        return Membership(False, None)
    a, indices = hit
    for k, idx in enumerate(axes):
        indices += (idx,) * ((w[k] - a[k]) // g)
    decomposition = tuple(sorted(indices))
    if _resum(H, decomposition) != w:
        raise InternalDiscrepancy(f"decomposition of {w} does not re-sum")
    return Membership(True, decomposition)


def _vector(H: AffineSemigroup, w) -> tuple[int, ...]:
    """w as a tuple of exact integers of H's dimension, else ValueError."""
    w = tuple(exact_int(c, "vector coordinate") for c in w)
    if len(w) != H.dim:
        raise ValueError("vector length does not match the semigroup")
    return w


def _below(entries, v):
    """The first (element, generator indices) of entries lying <= v, or None."""
    for entry in entries:
        if all(map(le, entry[0], v)):
            return entry
    return None


def _resum(H: AffineSemigroup, indices) -> tuple[int, ...]:
    parts = [H.generators[idx] for idx in indices]
    return tuple(map(sum, zip((0,) * H.dim, *parts)))


def _apery(H: AffineSemigroup) -> tuple[tuple[int, ...], dict]:
    """Axis generator indices and Ap(H), keyed by residue mod g.

    Raises UnsupportedSemigroupError when H lacks an axis multiple; every
    caller relies on this one check.  Each residue maps to a list of
    (element, generator indices).  An Apery element of level k + 1 is an
    Apery element of level k plus a non-axis generator, so Ap(H) grows
    from itself; a candidate h is kept unless some h - g*e_k lies in H,
    which happens exactly when a known Apery element of h's residue
    class lies below h, the same _below test that member makes.
    Elements of one level never lie below each other, and a level that
    adds nothing ends the growth, since every later level would grow
    from it.

    Most sums a + generator repeat one already formed, so each vector of
    a level also carries a packed key, its coordinates as digits of
    `width` bits, and a + gen is one integer addition.  The packing is
    injective on every level the loop reaches: generator coordinates are
    at most g < 2**g.bit_length(), so a level-L candidate's are at most
    L*g < 2**width while L <= 2**32, and a level past that raises
    InternalDiscrepancy.  Only the first pair (a, generator) met for each
    packed sum, in level order and then generator order, becomes a tuple,
    so each element keeps the decomposition, and each class the key and
    entry order, that a tuple-keyed build finds.
    """
    cache = vars(H)
    if "apery" in cache:
        return cache["apery"]
    axes = H.axis_generator_indices()
    if axes is None:
        raise UnsupportedSemigroupError(
            "semigroup must contain a positive multiple of every axis")
    g = H.degree
    width = g.bit_length() + 32
    shifts = range(0, width * H.dim, width)
    steps = [(sum(c << s for c, s in zip(gen, shifts)), i, gen)
             for i, gen in enumerate(H.generators) if i not in axes]
    gs = (g,) * H.dim
    zero = (0,) * H.dim
    apery = {zero: [(zero, ())]}
    level = [(0, zero, ())]
    depth = 0
    while level:
        depth += 1
        if depth > 1 << 32:
            raise InternalDiscrepancy("Apery levels outgrow the packing")
        candidates = {}
        for p, a, indices in level:
            for q, i, gen in steps:
                if p + q not in candidates:
                    candidates[p + q] = a, indices, i, gen
        level = []
        for p, (a, indices, i, gen) in candidates.items():
            h = tuple(map(add, a, gen))
            known = apery.setdefault(tuple(map(mod, h, gs)), [])
            if _below(known, h) is None:
                indices += (i,)
                if _resum(H, indices) != h:
                    raise InternalDiscrepancy(
                        f"Apery element {h} does not re-sum")
                known.append((h, indices))
                level.append((p, h, indices))
    cache["apery"] = (axes, apery)
    return axes, apery


def _class_points(key, ys, g: int) -> list:
    """The points key + g*y for y in ys; lex descending when ys is
    exponent_vectors(len(key), m), the points with |y| = m."""
    return [tuple(r + g * c for r, c in zip(key, y)) for y in ys]


def _point_test(entries, w, g) -> tuple[bool, int]:
    """(w in H, how many w + g*e_k lie in H), from one walk over w's class.

    An Apery element a of w's class lies below w exactly when it exceeds
    w nowhere; then w and each of its translates lie in H.  It lies below
    w + g*e_k exactly when it exceeds w in coordinate k alone, by g: as
    a = w (mod g), any excess is already at least g.
    """
    translates = set()
    for a, _ in entries:
        over = None
        for k, x in enumerate(a):
            if x > w[k]:
                if over is not None:
                    break
                over = k
        else:
            if over is None:
                return True, len(w)
            if a[over] == w[over] + g:
                translates.add(over)
    return False, len(translates)


def _classes(H: AffineSemigroup) -> list:
    """(residue key r, base level |r|/g, Apery entries) for each class."""
    return [(key, sum(key) // H.degree, entries)
            for key, entries in _apery(H)[1].items()]


class NormalityReport(NamedTuple):
    normal_up_to_bound: bool
    bound: int
    witness: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {"normal_up_to_bound": self.normal_up_to_bound,
                "bound": self.bound,
                "witness": list(self.witness) if self.witness else None}


def is_normal_up_to(H: AffineSemigroup, bound: int) -> NormalityReport:
    """Look for gaps of H in its saturation through degree level `bound`.

    Levels are coordinate sums 0, g, ..., bound*g (the lattice of a
    homogeneous semigroup meets no other sums).  The witness is the
    lex-largest gap of the lowest level that has one: the first gap a
    lex-descending visit of every lattice point would meet.  It is read
    off the Apery classes, with no point visited:

    * the residue key r of a class is itself a lattice point of the
      saturation, at the class's base level |r|/g, and every point
      r + g*y of the class lies at or above that level;
    * Apery elements are pairwise incomparable, so a class whose Apery
      element is r has exactly one element, and it lies below every
      point of the class: the class holds no gap;
    * in any other class r is a gap, because the only class element
      <= r would be r itself.

    So no class has a gap below its base, the lowest gap level L is the
    least base of a class whose first entry is not its key, the gaps of
    level L are exactly the keys of such classes with base L, and the
    witness is the lex-largest of them.  H is normal through `bound`
    exactly when no such class has base <= bound.
    """
    classes = _classes(H)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    # max of (-base, key): the lowest gap level, then its lex-largest key
    gaps = [(-base, key) for key, base, entries in classes
            if base <= bound and entries[0][0] != key]
    if not gaps:
        return NormalityReport(True, bound, None)
    return NormalityReport(False, bound, max(gaps)[1])


class TrungReport(NamedTuple):
    """Outcome of the bounded Cohen-Macaulayness certification.

    status is "verified-up-to-bound" when no witness exists through the
    scanned levels, or "counterexample" with an explicit witness w that
    lies in the saturation, has w + f_i and w + f_j in H for two
    different axis elements, and is not itself in H.
    """

    f_indices: tuple[int, ...]
    bound: int
    hypothesis_ok: bool
    z: int
    status: str
    witness: tuple[int, ...] | None
    stats: dict

    def to_dict(self) -> dict:
        return {"f_indices": list(self.f_indices), "bound": self.bound,
                "hypothesis_ok": self.hypothesis_ok, "z": self.z,
                "status": self.status,
                "witness": list(self.witness) if self.witness else None,
                "stats": dict(self.stats)}


def trung_cm_check(H: AffineSemigroup, bound: int) -> TrungReport:
    """Bounded search for a failure of the H1 = H criterion.

    The f_i are the axis-multiple generators; they are rationally
    independent.  In a homogeneous H the f_i are g*e_i, so z = g
    multiplies every generator into their span and hypothesis_ok always
    holds.  Any candidate with two translates w + f_i, w + f_j inside H
    is automatically nonnegative, because each f is supported on a
    single axis, so scanning the lattice points of the orthant level by
    level is a complete search.  The witness is the first failure met by
    a visit of the lattice points through level `bound`, level by level
    and lex descending within a level; lattice_points and pair_hits
    count the points that visit passes, the witness included, and those
    among them with two translates in H.

    The points of class r at level L are w = r + g*y with y >= 0 and
    |y| = L - b, where b = |r|/g is the class's base level; they share
    the class with their translates w + g*e_k.  H1 = H exactly when H is
    Cohen-Macaulay, which holds exactly when every class has one Apery
    element (Goto-Suzuki-Watanabe; Rosales-Garcia-Sanchez).  The scan
    splits on that:

    * Every class has one element: no point fails, and the counts are
      closed forms.  With a the element of class r and alpha = (a - r)/g,
      w lies in H exactly when y >= alpha; otherwise a exceeds w
      somewhere, so at most one translate lies in H.  Level b + m holds
      C(m + dim - 1, dim - 1) points of the class, of which
      C(m - |alpha| + dim - 1, dim - 1) are pair hits when dim >= 2 and
      m >= |alpha|.  Summed over m = 0..top, top = bound - b, by the
      hockey-stick identity, the class adds C(top + dim, dim) points
      when top >= 0 and C(top - |alpha| + dim, dim) pair hits when
      dim >= 2 and top >= |alpha|.  This costs O(|Ap|), whatever the
      bound.
    * Otherwise the visit is made: each level's points, from every class
      with base at most the level, are sorted lex descending and each is
      decided with its translates by one walk over its class.  Such an H
      is not Cohen-Macaulay, so some point fails, and the visit stops at
      the lowest level holding a failure, however large the bound.
    """
    classes = _classes(H)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    axes = _apery(H)[0]
    g = H.degree
    dim = H.dim
    status, witness, levels_scanned = "verified-up-to-bound", None, bound + 1
    lattice_points = pair_hits = 0
    if all(len(entries) == 1 for _, _, entries in classes):
        for key, base, entries in classes:
            top = bound - base
            excess = sum(entries[0][0]) // g - base
            if top >= 0:
                lattice_points += binomial(top + dim, dim)
            if dim >= 2 and top >= excess:
                pair_hits += binomial(top - excess + dim, dim)
    else:
        # vectors[m]: the y with |y| = m, built once and shared by every
        # class whose points at a level have |y| = m
        vectors = []
        for level in range(bound + 1):
            vectors.append(exponent_vectors(dim, level))
            points = sorted(((w, entries) for key, base, entries in classes
                             if base <= level for w in _class_points(
                                 key, vectors[level - base], g)),
                            reverse=True)
            for w, entries in points:
                lattice_points += 1
                in_h, translates_in = _point_test(entries, w, g)
                if translates_in >= 2:
                    pair_hits += 1
                    if not in_h:
                        status, witness = "counterexample", w
                        levels_scanned = level + 1
                        break
            if witness is not None:
                break
    stats = {"levels_scanned": levels_scanned,
             "lattice_points": lattice_points, "pair_hits": pair_hits}
    return TrungReport(axes, bound, True, g, status, witness, stats)


def lemma_two_zero_check(t: int, box: int) -> bool:
    """Exhaustive check that one-zero-coordinate membership needs 3t-multiples.

    Scans every vector with exactly one zero coordinate and the other
    two in [1, box]: such a vector lies in the t-th semigroup of the
    shifted family exactly when both nonzero coordinates are multiples
    of 3t.  Each vector is decided by the Apery elements of its residue
    class, as member decides it, without building a decomposition.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if box < 1:
        raise ValueError("box must be at least 1")
    H = make_h3t(t)
    apery = _apery(H)[1]
    g = H.degree
    modulus = 3 * t
    for a in range(1, box + 1):
        for b in range(1, box + 1):
            expected = a % modulus == 0 and b % modulus == 0
            for w in ((0, a, b), (a, 0, b), (a, b, 0)):
                entries = apery.get((w[0] % g, w[1] % g, w[2] % g), ())
                if (_below(entries, w) is not None) != expected:
                    return False
    return True
