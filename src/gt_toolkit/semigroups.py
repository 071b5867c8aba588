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
per semigroup, level by level, and cached.  Each Apery element is
re-summed from its generator indices when it is stored.  A query never
recurses and allocates nothing that outlives it.

Cohen-Macaulayness is certified through the one-dimensional test set

    H1 = {w in the saturation | w + f_i and w + f_j lie in H
          for two different axis elements f_i, f_j},

which equals H exactly when the semigroup ring is Cohen-Macaulay.  The
test set is infinite, so the certificate is bounded: "verified up to
degree D" scans every graded level through D and never claims more.  A
counterexample witness, by contrast, is unconditional.  The scans go
level by level and, within a level, Apery class by Apery class: the
points of the class with residue key r are r + g*y, y >= 0, and they
share the class with their translates w + g*e_k.  A class with one
Apery element holds no failure of the criterion, so its points are
counted in closed form, not visited; on a Cohen-Macaulay H every class
has one element (Goto-Suzuki-Watanabe; Rosales-Garcia-Sanchez).  The
points of any other class are listed by exponent_vectors and decided
by one walk over the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (CyclicAction, ExponentVector, exponent_vectors,
                      invariant_monomials)
from .exactalg import InternalDiscrepancy, binomial, exact_int


class UnsupportedSemigroupError(ValueError):
    """The semigroup lacks the axis multiples the cone logic relies on."""


@dataclass(frozen=True)
class AffineSemigroup:
    """Homogeneous affine semigroup with a fixed generator list.

    Generators are deduplicated and stored lex descending; all of them
    must share the same positive coordinate sum.
    """

    dim: int
    generators: tuple[ExponentVector, ...]
    degree: int

    # the Apery set and its per-class scan data, built on first use
    _cache: dict = field(default_factory=dict, init=False,
                         repr=False, compare=False)

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


@dataclass(frozen=True)
class Membership:
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
        if all(x <= y for x, y in zip(entry[0], v)):
            return entry
    return None


def _resum(H: AffineSemigroup, indices) -> tuple[int, ...]:
    parts = [H.generators[idx] for idx in indices]
    return tuple(map(sum, zip((0,) * H.dim, *parts)))


def _apery(H: AffineSemigroup) -> tuple[tuple[int, ...], dict]:
    """Axis generator indices and Ap(H), keyed by residue mod g.

    Each residue maps to a list of (element, generator indices).  An
    Apery element of level k + 1 is an Apery element of level k plus a
    non-axis generator, so Ap(H) grows from itself; a candidate h is kept
    unless some h - g*e_k lies in H, which happens exactly when a known
    Apery element of h's residue class lies below h.  Elements of one
    level never lie below each other, and a level that adds nothing ends
    the growth, since every later level would grow from it.
    """
    cache = H._cache
    if "apery" in cache:
        return cache["apery"]
    axes = _require_axes(H)
    g = H.degree
    steps = [(i, gen) for i, gen in enumerate(H.generators) if i not in axes]
    zero = (0,) * H.dim
    apery = {zero: [(zero, ())]}
    level = [(zero, ())]
    while level:
        candidates = {}
        for a, indices in level:
            for i, gen in steps:
                h = tuple(x + y for x, y in zip(a, gen))
                candidates.setdefault(h, indices + (i,))
        level = []
        for h, indices in candidates.items():
            known = apery.setdefault(tuple(c % g for c in h), [])
            if _below(known, h) is None:
                if _resum(H, indices) != h:
                    raise InternalDiscrepancy(
                        f"Apery element {h} does not re-sum")
                known.append((h, indices))
                level.append((h, indices))
    cache["apery"] = (axes, apery)
    return axes, apery


def _classes(H: AffineSemigroup) -> list:
    """(residue key r, base level |r|/g, Apery entries) for each class of
    Ap(H), cached beside it so that both scans of one report share it.

    The points of class r at level L are r + g*y with y >= 0 and
    |y| = L - |r|/g; keys and lattice points both sum to 0 mod g.
    """
    cache = H._cache
    if "classes" not in cache:
        g = H.degree
        cache["classes"] = [(key, sum(key) // g, entries)
                            for key, entries in _apery(H)[1].items()]
    return cache["classes"]


def _class_points(key, m: int, g: int) -> list:
    """The points key + g*y, y >= 0 with |y| = m, lex descending."""
    return [tuple(r + g * c for r, c in zip(key, y))
            for y in exponent_vectors(len(key), m)]


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


def _require_axes(H: AffineSemigroup) -> tuple[int, ...]:
    axes = H.axis_generator_indices()
    if axes is None:
        raise UnsupportedSemigroupError(
            "semigroup must contain a positive multiple of every axis")
    return axes


@dataclass(frozen=True)
class NormalityReport:
    normal_up_to_bound: bool
    bound: int
    witness: tuple[int, ...] | None

    def to_dict(self) -> dict:
        return {"normal_up_to_bound": self.normal_up_to_bound,
                "bound": self.bound,
                "witness": list(self.witness) if self.witness else None}


def is_normal_up_to(H: AffineSemigroup, bound: int) -> NormalityReport:
    """Scan saturation points through degree level `bound` for gaps.

    Levels are coordinate sums 0, g, ..., bound*g (the lattice of a
    homogeneous semigroup meets no other sums).  The witness is the
    lex-largest gap of the lowest level that has one: the first gap a
    lex-descending visit of every lattice point would meet.  Each level
    is scanned class by class.  A class whose Apery element a is its
    residue key r itself (alpha = (a - r)/g = 0) has no gap, since r
    lies below every point r + g*y of the class, so it is skipped; any
    other class is walked, and the witness is the largest of the
    classes' largest gaps.
    """
    _require_axes(H)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    g = H.degree
    classes = _classes(H)
    for level in range(bound + 1):
        gaps = []
        for key, base, entries in classes:
            if level < base or entries[0][0] == key:
                continue
            gap = next((w for w in _class_points(key, level - base, g)
                        if _below(entries, w) is None), None)
            if gap is not None:
                gaps.append(gap)
        if gaps:
            return NormalityReport(False, bound, max(gaps))
    return NormalityReport(True, bound, None)


@dataclass(frozen=True)
class TrungReport:
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
    level is a complete search.  The witness is the lex-largest failure
    of the lowest failing level; lattice_points and pair_hits count the
    lattice points and the points with two translates in H, through the
    levels below it and, on its level, the points lex >= it.  These are
    the point and the counts that a lex-descending visit of every
    lattice point, stopping at the first failure, would give.

    Each level is scanned class by class.  The points of class r at
    level L are w = r + g*y with y >= 0 and |y| = m = L - |r|/g, and
    they share an Apery class with their translates w + g*e_k.  A class
    with one element a, with alpha = (a - r)/g, holds w exactly when
    y >= alpha.  If w is not in H, then a exceeds w somewhere, so at
    most one translate w + g*e_k lies in H: such a class holds no
    failure and no pair hit outside H.  Its points are counted, not
    visited: C(m + dim - 1, dim - 1) of them, of which the
    C(m - |alpha| + dim - 1, dim - 1) with y >= alpha are pair hits
    when dim >= 2 and m >= |alpha|.  A class with more elements is
    walked, one walk over its entries deciding a point and all its
    translates.  On a failing level, every class is walked again,
    counting only the points lex >= the witness.  On a Cohen-Macaulay
    H, where every class has one element, the scan costs O(|Ap| bound).
    """
    axes = _require_axes(H)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    g = H.degree
    dim = H.dim
    classes = _classes(H)
    status, witness, levels_scanned = "verified-up-to-bound", None, bound + 1
    lattice_points = pair_hits = 0
    for level in range(bound + 1):
        points = hits = 0
        failures = []
        for key, base, entries in classes:
            m = level - base
            if m < 0:
                continue
            if len(entries) == 1:
                points += binomial(m + dim - 1, dim - 1)
                excess = sum(entries[0][0]) // g - base
                if dim >= 2 and m >= excess:
                    hits += binomial(m - excess + dim - 1, dim - 1)
                continue
            for w in _class_points(key, m, g):
                points += 1
                in_h, translates_in = _point_test(entries, w, g)
                if translates_in >= 2:
                    hits += 1
                    if not in_h:
                        failures.append(w)
        if failures:
            witness = max(failures)
            points = hits = 0
            for key, base, entries in classes:
                if level < base:
                    continue
                for w in _class_points(key, level - base, g):
                    if w < witness:
                        break
                    points += 1
                    hits += _point_test(entries, w, g)[1] >= 2
            status, levels_scanned = "counterexample", level + 1
        lattice_points += points
        pair_hits += hits
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
    of 3t.  Each vector is decided on its cached Apery class, as the
    scans do.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if box < 1:
        raise ValueError("box must be at least 1")
    H = make_h3t(t)
    apery = _apery(H)[1]
    g = H.degree
    modulus = 3 * t
    for zero_pos in range(3):
        for a in range(1, box + 1):
            for b in range(1, box + 1):
                w = [a, b]
                w.insert(zero_pos, 0)
                expected = a % modulus == 0 and b % modulus == 0
                entries = apery.get(tuple(c % g for c in w), ())
                if (_below(entries, w) is not None) != expected:
                    return False
    return True
