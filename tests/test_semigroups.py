import random
from math import gcd

import pytest

from gt_toolkit import semigroups
from gt_toolkit.actions import CyclicAction, exponent_vectors
from gt_toolkit.exactalg import InternalDiscrepancy
from gt_toolkit.hilbert import hf_by_counting
from gt_toolkit.semigroups import (APERY_CACHE_SIZE, AffineSemigroup,
                                   NormalityReport, TrungReport,
                                   UnsupportedSemigroupError, _apery,
                                   _below, _class_points,
                                   _classes, _point_test, is_normal_up_to,
                                   lemma_two_zero_check, make_h3t, make_hk,
                                   member, semigroup_of_action,
                                   trung_cm_check)

from surfaces import surface_actions

H6_GENERATORS = {(6, 0, 0), (0, 6, 0), (0, 0, 6), (4, 1, 1), (1, 4, 1),
                 (1, 1, 4), (2, 2, 2)}

# the non-aCM example of the README
CUBIC = AffineSemigroup.from_generators(
    [(5, 0, 0), (0, 5, 0), (0, 0, 5), (3, 1, 1), (2, 2, 1), (1, 3, 1)])


# generator sets drawn once at random and kept fixed
RANDOM_SETS = {
    "s0": [(6, 0, 0), (4, 0, 2), (3, 0, 3), (0, 6, 0), (0, 0, 6)],
    "s1": [(7, 0, 0), (6, 1, 0), (4, 1, 2), (2, 4, 1), (0, 7, 0), (0, 0, 7)],
    "s5": [(7, 0, 0), (5, 1, 1), (5, 0, 2), (1, 5, 1), (0, 7, 0), (0, 3, 4),
           (0, 0, 7)],
    "s6": [(5, 0, 0), (4, 1, 0), (4, 0, 1), (1, 4, 0), (0, 5, 0), (0, 3, 2),
           (0, 0, 5)],
    "s7": [(6, 0, 0), (4, 2, 0), (2, 3, 1), (1, 3, 2), (1, 1, 4), (0, 6, 0),
           (0, 0, 6)],
}


@pytest.fixture(autouse=True)
def _cold_apery_cache():
    # no test may depend on the Apery sets that earlier tests built
    _apery.cache_clear()
    yield
    _apery.cache_clear()


def resums(H, w, decomposition):
    return tuple(sum(H.generators[i][k] for i in decomposition)
                 for k in range(H.dim)) == tuple(w)


def test_from_generators_validation():
    with pytest.raises(ValueError):
        AffineSemigroup.from_generators([])
    with pytest.raises(ValueError):
        AffineSemigroup.from_generators([(1, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        AffineSemigroup.from_generators([(1, 0), (1, 1)])  # not homogeneous
    with pytest.raises(ValueError):
        AffineSemigroup.from_generators([(-1, 2)])
    H = AffineSemigroup.from_generators([(0, 3), (3, 0), (0, 3)])
    assert H.generators == ((3, 0), (0, 3)) and H.degree == 3


def test_non_integer_coordinates_are_rejected():
    # int() used to truncate them: (2.9, 2, 2) was a member of h3t(2)
    with pytest.raises(ValueError, match="generator coordinate"):
        AffineSemigroup.from_generators([(6.9, 0, 0), (0, 6, 0), (0, 0, 6)])
    with pytest.raises(ValueError, match="generator coordinate"):
        AffineSemigroup.from_generators([(True, 0), (0, 1)])
    h6 = make_h3t(2)
    for w in [(2.9, 2, 2), (6.0, 0, 0), ("6", 0, 0), (False, 0, 6)]:
        with pytest.raises(ValueError, match="vector coordinate"):
            member(h6, w)


def test_semigroup_of_action():
    H = semigroup_of_action(CyclicAction(3, (0, 1, 2)))
    assert set(H.generators) == {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    assert H.degree == 3
    assert len(semigroup_of_action(CyclicAction(5, (0, 1, 3))).generators) == 5
    assert len(semigroup_of_action(CyclicAction(8, (0, 3, 5))).generators) == 7


def test_make_h3t_goldens():
    assert set(make_h3t(2).generators) == H6_GENERATORS
    h9 = set(make_h3t(3).generators)
    assert {(7, 1, 1), (5, 2, 2), (3, 3, 3), (9, 0, 0)} <= h9
    assert len(h9) == 10
    h12 = set(make_h3t(4).generators)
    assert {(10, 1, 1), (6, 3, 3), (4, 4, 4)} <= h12
    assert len(h12) == 13
    with pytest.raises(ValueError):
        make_h3t(0)


def test_h3t_generator_structure():
    # non-axis generators have no zero component and split as s*(1,1,1)
    # plus an axis vector of complementary size
    for t in range(1, 7):
        H = make_h3t(t)
        assert len(H.generators) == 3 * t + 1
        for g in H.generators:
            if sorted(g, reverse=True) == [3 * t, 0, 0]:
                continue
            assert all(c > 0 for c in g)
            s = min(g)
            assert 0 < s <= t
            rest = tuple(c - s for c in g)
            assert sorted(rest, reverse=True) == [3 * (t - s), 0, 0]


def test_h3t_contained_in_base_family():
    base = make_h3t(1)
    for t in range(2, 7):
        for g in make_h3t(t).generators:
            assert member(base, g).member, (t, g)


def test_make_hk():
    assert make_hk(1, 1).generators == make_h3t(2).generators
    assert make_hk(1, 3).generators == make_h3t(4).generators
    assert set(make_hk(2, 1).generators) == {(9, 0, 0), (0, 9, 0), (0, 0, 9),
                                             (5, 2, 2), (2, 5, 2), (2, 2, 5),
                                             (3, 3, 3)}
    assert make_hk(7, 0).generators == make_h3t(1).generators
    # the count holds by construction, so no run-time check guards it
    for k in range(1, 7):
        for tp in range(7):
            H = make_hk(k, tp)
            assert len(H.generators) == 3 * (tp + 1) + 1, (k, tp)
            assert H.degree == 3 * (1 + tp * k), (k, tp)
    with pytest.raises(ValueError):
        make_hk(0, 1)
    with pytest.raises(ValueError):
        make_hk(1, -1)


def test_member_facts():
    h6 = make_h3t(2)
    assert member(h6, (2, 2, 2)).member
    assert not member(h6, (3, 3, 0)).member
    for w in [(0, 9, 9), (0, 15, 9), (0, 9, 15)]:
        assert not member(h6, w).member, w
    assert member(h6, (0, 0, 0)).decomposition == ()
    assert not member(h6, (-1, 4, 3)).member
    assert not member(h6, (1, 1, 1)).member  # wrong degree level
    with pytest.raises(ValueError):
        member(h6, (1, 2))


def test_member_decompositions_resum():
    h9 = make_h3t(3)
    for w in [(9, 9, 0), (10, 4, 4), (6, 6, 6), (12, 3, 3)]:
        result = member(h9, w)
        if result.member:
            assert resums(h9, w, result.decomposition)


def test_member_deep_query():
    # a sum of 1500 generators: the former recursive search hit Python's
    # recursion limit here
    w = (2819, 2747, 1934)
    result = member(CUBIC, w)
    assert result.member
    assert len(result.decomposition) == 1500
    assert list(result.decomposition) == sorted(result.decomposition)
    assert resums(CUBIC, w, result.decomposition)


def test_apery_cache_is_keyed_by_value_and_stores_no_failure(monkeypatch):
    H = make_h3t(2)
    # a semigroup file lists the generators in any order, some repeated
    listed = list(H.generators) + [H.generators[2]]
    random.Random(5).shuffle(listed)
    twin = AffineSemigroup.from_generators(listed)
    assert H == twin and hash(H) == hash(twin)
    assert member(H, (2, 2, 2)).member  # builds Ap(H)
    assert member(twin, (3, 3, 3)) == member(H, (3, 3, 3))
    assert _apery(twin) is _apery(H)
    copy = H._replace(degree=H.degree)
    assert type(copy) is AffineSemigroup and copy == H
    assert member(copy, (2, 2, 2)) == member(H, (2, 2, 2))
    info = _apery.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 6, 1)
    # a failing build raises on every call and leaves no entry
    no_axes = AffineSemigroup.from_generators([(1, 1, 0), (0, 1, 1)])
    for _ in range(2):
        with pytest.raises(UnsupportedSemigroupError):
            member(no_axes, (1, 2, 1))
    info = _apery.cache_info()
    assert (info.misses, info.currsize) == (3, 1)
    other = make_h3t(3)
    monkeypatch.setattr(semigroups, "_resum", lambda H, indices: ())
    with pytest.raises(InternalDiscrepancy, match="does not re-sum"):
        _apery(other)
    monkeypatch.undo()
    assert _apery.cache_info().currsize == 1
    axes, apery = _apery(other)
    expected_axes, expected = _tuple_keyed_apery(other)
    assert axes == expected_axes
    assert list(apery.items()) == list(expected.items())
    info = _apery.cache_info()
    assert (info.misses, info.currsize) == (5, 2)
    # the cache holds at most APERY_CACHE_SIZE semigroups
    assert info.maxsize == APERY_CACHE_SIZE
    named = _apery_test_semigroups()
    assert len(named) > APERY_CACHE_SIZE
    for name, S in named.items():
        _apery(S)
        assert _apery.cache_info().currsize <= APERY_CACHE_SIZE, name
    assert _apery.cache_info().currsize == APERY_CACHE_SIZE


def test_member_needs_axis_multiples():
    no_axes = AffineSemigroup.from_generators([(1, 1, 0), (0, 1, 1)])
    with pytest.raises(UnsupportedSemigroupError):
        member(no_axes, (1, 2, 1))


def _level_sets(H, top):
    """Levels 0..top of H by brute force: level k = level k-1 + gens."""
    levels = [{(0,) * H.dim}]
    for _ in range(top):
        levels.append({tuple(a + b for a, b in zip(x, gen))
                       for x in levels[-1] for gen in H.generators})
    return levels


def test_member_matches_exhaustive_level_sets():
    named = {f"h3t({t})": make_h3t(t) for t in (1, 2, 3)}
    named["hk(2,1)"] = make_hk(2, 1)
    named["cubic"] = CUBIC
    actions = list(surface_actions(8))
    for action in actions:
        named[action] = semigroup_of_action(action)
    for name, H in named.items():
        levels = _level_sets(H, 6)
        for k, level in enumerate(levels):
            for w in exponent_vectors(H.dim, k * H.degree):
                result = member(H, w)
                assert result.member == (w in level), (name, w)
                if result.member:
                    assert resums(H, w, result.decomposition), (name, w)
        if name in actions:
            # GT semigroups are normal, so |level k| is the Hilbert function
            for k in range(5):
                assert len(levels[k]) == hf_by_counting(name, k), (name, k)


def _residue_closure(H):
    """Residues of H mod g, closed from the generators' residues.

    They form a subgroup of (Z/g)^dim: the lattice of H modulo g*Z^dim.
    """
    g = H.degree
    steps = {tuple(c % g for c in gen) for gen in H.generators}
    closure = {(0,) * H.dim}
    frontier = list(closure)
    while frontier:
        r = frontier.pop()
        for s in steps:
            t = tuple((a + b) % g for a, b in zip(r, s))
            if t not in closure:
                closure.add(t)
                frontier.append(t)
    return closure


def _apery_test_semigroups():
    named = {f"h3t({t})": make_h3t(t) for t in (1, 2, 3, 4)}
    named.update({f"hk{p}": make_hk(*p) for p in ((2, 1), (3, 1), (2, 2))})
    named["cubic"] = CUBIC
    for name, gens in RANDOM_SETS.items():
        named[name] = AffineSemigroup.from_generators(gens)
    for action in surface_actions(8):
        named[action] = semigroup_of_action(action)
    assert len(named) == 65
    return named


def test_apery_size_is_lattice_index_exactly_when_cm():
    # Rosales and Garcia-Sanchez: a simplicial affine semigroup is CM iff
    # each class of its lattice mod the axis lattice holds one Apery element
    non_cm = set()
    for name, H in _apery_test_semigroups().items():
        # the classes of the lattice mod g*Z^dim, counted without _apery:
        # g^dim / [Z^dim : lattice] of them
        closure = _residue_closure(H)
        apery = _apery(H)[1]
        assert set(apery) == closure, name
        apery_size = sum(len(v) for v in apery.values())
        verified = trung_cm_check(H, 8).status == "verified-up-to-bound"
        assert (apery_size == len(closure)) == verified, name
        if not verified:
            non_cm.add(name)
    assert non_cm == {"cubic", "s5", "s6", "s7"}


def _normality_by_member(H, bound):
    """The normality scan through the public API: a lattice test against
    the residue closure and one member call per point."""
    closure = _residue_closure(H)
    g = H.degree
    for level in range(bound + 1):
        for w in exponent_vectors(H.dim, level * g):
            if tuple(c % g for c in w) in closure and not member(H, w).member:
                return NormalityReport(False, bound, w)
    return NormalityReport(True, bound, None)


def _trung_by_member(H, bound):
    """The CM scan through the public API: a lattice test against the
    residue closure per point and member per point and per axis
    translate, with the hypothesis loop."""
    axes = H.axis_generator_indices()
    closure = _residue_closure(H)
    g = H.degree
    hypothesis_ok = all((g * gen[k]) % H.generators[idx][k] == 0
                        for gen in H.generators
                        for k, idx in enumerate(axes))
    f_vectors = [H.generators[idx] for idx in axes]
    lattice_points = pair_hits = 0
    for level in range(bound + 1):
        for w in exponent_vectors(H.dim, level * g):
            if tuple(c % g for c in w) not in closure:
                continue
            lattice_points += 1
            translates_in = 0
            for f in f_vectors:
                shifted = tuple(a + b for a, b in zip(w, f))
                if member(H, shifted).member:
                    translates_in += 1
                    if translates_in == 2:
                        break
            if translates_in < 2:
                continue
            pair_hits += 1
            if not member(H, w).member:
                stats = {"levels_scanned": level + 1,
                         "lattice_points": lattice_points,
                         "pair_hits": pair_hits}
                return TrungReport(axes, bound, hypothesis_ok, g,
                                   "counterexample", w, stats)
    stats = {"levels_scanned": bound + 1, "lattice_points": lattice_points,
             "pair_hits": pair_hits}
    return TrungReport(axes, bound, hypothesis_ok, g,
                       "verified-up-to-bound", None, stats)


def _random_multi_class_sets(seed, count):
    """Seeded dimension-3 generator sets, each with an Apery class of
    more than one element."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = rng.randint(3, 6)
        gens = {(g, 0, 0), (0, g, 0), (0, 0, g)}
        for _ in range(rng.randint(1, 3)):
            x = rng.randint(0, g)
            y = rng.randint(0, g - x)
            gens.add((x, y, g - x - y))
        H = AffineSemigroup.from_generators(gens)
        if any(len(entries) > 1 for entries in _apery(H)[1].values()):
            found.append(H)
    return found


def test_scans_match_public_member_route(monkeypatch):
    # bounds 0-3 reach the base levels of the classes, bound 8 lies above
    cases = [(name, H, bound) for name, H in _scan_test_semigroups().items()
             for bound in (0, 1, 2, 3, 8)]
    cases.append(("cubic", CUBIC, 6))
    cases += [(f"random {i}", H, bound)
              for i, H in enumerate(_random_multi_class_sets(20, 12))
              for bound in range(9)]
    expected = [(_normality_by_member(H, bound).to_dict(),
                 _trung_by_member(H, bound).to_dict())
                for _, H, bound in cases]

    def forbidden(*args):
        raise AssertionError("the scans must read the Apery classes")

    monkeypatch.setattr(semigroups, "member", forbidden)
    for (name, H, bound), want in zip(cases, expected):
        got = (is_normal_up_to(H, bound).to_dict(),
               trung_cm_check(H, bound).to_dict())
        assert got == want, (name, bound)
    # on cubic's failing level a one-element class holds points lex-greater
    # than the witness, so the counts check that the visit stops mid-level
    report = trung_cm_check(CUBIC, 6)
    level = report.stats["levels_scanned"] - 1
    assert report.status == "counterexample" and level <= 6
    assert any(len(entries) == 1 and base <= level
               and _class_points(key, exponent_vectors(3, level - base),
                                 CUBIC.degree)[0] > report.witness
               for key, base, entries in _classes(CUBIC))


def test_scans_count_one_element_classes_without_walking(monkeypatch):
    # on an all-singleton H no point fails, so the CM scan counts its
    # points; the normality scan visits no point at all
    named = _apery_test_semigroups()
    singleton = {name: H for name, H in named.items()
                 if all(len(e) == 1 for e in _apery(H)[1].values())}
    assert set(named) - set(singleton) == {"cubic", "s5", "s6", "s7"}
    scanned = _scan_test_semigroups()
    surfaces = [semigroup_of_action(a) for a in surface_actions(11)]
    calls = {"_point_test": 0, "_below": 0, "_class_points": 0}
    for name in calls:
        def counted(*args, name=name, inner=getattr(semigroups, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(semigroups, name, counted)
    for name, H in singleton.items():
        trung_cm_check(H, 8)
        assert calls["_point_test"] == 0, name
    for name, H in list(scanned.items()) + list(enumerate(surfaces)):
        _apery(H)  # the Apery build itself calls _below
        calls["_below"] = 0
        is_normal_up_to(H, 8)
        assert calls["_below"] == calls["_class_points"] == 0, name
    # the counter does see the CM scan's walks of larger classes
    trung_cm_check(CUBIC, 8)
    assert calls["_point_test"] > 0


def test_cm_scan_cost_is_independent_of_the_bound(monkeypatch):
    # on an all-singleton H the counts are closed forms, at most two
    # binomials per class; past that cap the counter raises, so a scan
    # that loops over levels fails at once instead of running for ages
    singleton = [H for H in _apery_test_semigroups().values()
                 if all(len(e) == 1 for e in _apery(H)[1].values())]
    assert len(singleton) == 61
    calls = {"_point_test": 0, "_class_points": 0, "binomial": 0}
    cap = 0
    for name in calls:
        def counted(*args, name=name, inner=getattr(semigroups, name)):
            calls[name] += 1
            if calls["binomial"] > cap:
                raise AssertionError("binomial called past its cap")
            return inner(*args)
        monkeypatch.setattr(semigroups, name, counted)
    for H in singleton:
        calls["binomial"] = 0
        cap = 2 * sum(len(e) for e in _apery(H)[1].values())
        report = trung_cm_check(H, 10**9)
        assert report.status == "verified-up-to-bound", H.generators
        assert calls["_point_test"] == calls["_class_points"] == 0
    monkeypatch.undo()
    # on any other H some point fails, so the visit stops at a level that
    # does not depend on the bound
    for H in [CUBIC] + _random_multi_class_sets(20, 12):
        report = trung_cm_check(H, 10**9)
        assert report.status == "counterexample", H.generators
        low = report.stats["levels_scanned"] - 1
        assert trung_cm_check(H, low) == report._replace(bound=low)


def _orthant_filter(H, bound):
    """(level, w, Apery class) by filtering every orthant point of each
    level through a residue lookup, lex descending within a level."""
    g = H.degree
    apery = _apery(H)[1]
    out = []
    for level in range(bound + 1):
        for w in exponent_vectors(H.dim, level * g):
            key = tuple(c % g for c in w)
            if key in apery:
                out.append((level, w, apery[key]))
    return out


def _scan_test_semigroups():
    named = _apery_test_semigroups()
    named["dim 1"] = AffineSemigroup.from_generators([(4,)])
    named["dim 2"] = AffineSemigroup.from_generators([(3, 0), (0, 3), (1, 2)])
    named["dim 4"] = semigroup_of_action(CyclicAction(4, (0, 1, 2, 3)))
    return named


def test_lattice_points_match_orthant_filter():
    # at each level the per-class walk over all classes yields exactly
    # the orthant filter's points, each class's points lex descending
    for name, H in _scan_test_semigroups().items():
        g = H.degree
        walked = []
        for level in range(9):
            points = []
            for key, base, entries in _classes(H):
                if level < base:
                    continue
                ys = exponent_vectors(H.dim, level - base)
                ws = _class_points(key, ys, g)
                assert ws == sorted(ws, reverse=True), (name, key, level)
                points += [(level, w, entries) for w in ws]
            walked += sorted(points, key=lambda p: p[1], reverse=True)
        assert walked == _orthant_filter(H, 8), name


def test_point_test_matches_below_on_point_and_translates():
    for name, H in _scan_test_semigroups().items():
        g = H.degree
        for _, w, entries in _orthant_filter(H, 8):
            in_h = _below(entries, w) is not None
            translates = sum(
                _below(entries, w[:k] + (w[k] + g,) + w[k + 1:]) is not None
                for k in range(H.dim))
            assert _point_test(entries, w, g) == (in_h, translates), (name, w)


def _tuple_keyed_apery(H):
    """Ap(H) built with every sum a + generator formed as a tuple and
    keyed by itself, the first pair kept for each sum."""
    axes = H.axis_generator_indices()
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
                known.append((h, indices))
                level.append((h, indices))
    return axes, apery


def test_apery_matches_tuple_keyed_build_in_order():
    # same classes, key order, entry order and generator indices, so every
    # member decomposition and report stays as the tuple-keyed build gives
    named = _scan_test_semigroups()
    named.update((f"random {i}", H) for i, H
                 in enumerate(_random_multi_class_sets(20, 12)))
    named.update((f"h3t({t})", make_h3t(t)) for t in range(5, 11))
    named["hk(4,3)"] = make_hk(4, 3)
    for d, weights in ((8, (0, 1, 2, 3, 5)), (10, (0, 1, 2, 3))):
        named[d, weights] = semigroup_of_action(CyclicAction(d, weights))
    for name, H in named.items():
        axes, apery = _apery(H)
        expected_axes, expected = _tuple_keyed_apery(H)
        assert axes == expected_axes, name
        assert list(apery.items()) == list(expected.items()), name


def test_apery_of_a_big_integer_multiple():
    # coordinates far past any machine word: Ap(c*H) = c*Ap(H), entry by
    # entry, with the same indices in the same order
    c = 2 ** 64 + 1
    for H in (CUBIC, make_h3t(3),
              semigroup_of_action(CyclicAction(5, (0, 1, 3)))):
        scaled = AffineSemigroup.from_generators(
            [tuple(c * x for x in gen) for gen in H.generators])
        axes, apery = _apery(H)
        expected = [(tuple(c * r for r in key),
                     [(tuple(c * x for x in a), indices)
                      for a, indices in entries])
                    for key, entries in apery.items()]
        scaled_axes, scaled_apery = _apery(scaled)
        assert scaled_axes == axes
        assert list(scaled_apery.items()) == expected


def test_is_normal_up_to():
    report = is_normal_up_to(make_h3t(2), 3)
    assert not report.normal_up_to_bound
    assert report.witness == (3, 3, 0)
    assert is_normal_up_to(make_h3t(1), 4).normal_up_to_bound
    gt = semigroup_of_action(CyclicAction(5, (0, 1, 3)))
    assert is_normal_up_to(gt, 4).normal_up_to_bound
    # lattice {a + b = 0 mod 4}; level 1 has two gaps, (3, 1) and (2, 2),
    # and the witness is the lex-larger one
    two_low = AffineSemigroup.from_generators([(4, 0), (0, 4), (1, 3)])
    # residues mod 4 are the multiples of (1, 1, 2); the gaps (2, 2, 0) at
    # level 1 and (3, 3, 2) at level 2 are both residue keys, and only
    # the lower one is the witness, though the higher one is lex-larger
    low_and_high = AffineSemigroup.from_generators(
        [(4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 2)])
    for H, witness in ((two_low, (3, 1)), (low_and_high, (2, 2, 0))):
        assert is_normal_up_to(H, 0) == NormalityReport(True, 0, None)
        for bound in (1, 2, 3):
            want = NormalityReport(False, bound, witness)
            assert is_normal_up_to(H, bound) == want, (H.generators, bound)
            assert _normality_by_member(H, bound) == want
    assert not member(two_low, (2, 2)).member
    assert not member(low_and_high, (3, 3, 2)).member


def test_trung_shifted_family():
    for t in (1, 2, 3):
        report = trung_cm_check(make_h3t(t), 6)
        assert report.status == "verified-up-to-bound", t
        assert report.hypothesis_ok
        assert report.witness is None
        assert report.z == 3 * t


def test_trung_counterexample():
    H = CUBIC
    report = trung_cm_check(H, 6)
    assert report.status == "counterexample"
    w = report.witness
    assert w is not None
    # in the saturation: nonnegative, with its residue in the lattice's
    assert min(w) >= 0
    assert tuple(c % H.degree for c in w) in _residue_closure(H)
    assert not member(H, w).member
    translates = [tuple(a + b for a, b in zip(w, H.generators[i]))
                  for i in report.f_indices]
    assert sum(member(H, v).member for v in translates) >= 2


def test_trung_gt_semigroups():
    report = trung_cm_check(semigroup_of_action(CyclicAction(6, (0, 1, 3))), 6)
    assert report.status == "verified-up-to-bound"


def test_normality_and_trung_agree_on_gt_semigroups():
    for d in range(3, 11):
        for a in range(1, d):
            for b in range(a + 1, d):
                if gcd(gcd(a, b), d) != 1:
                    continue
                H = semigroup_of_action(CyclicAction(d, (0, a, b)))
                assert is_normal_up_to(H, 3).normal_up_to_bound, (a, b, d)
                report = trung_cm_check(H, 3)
                assert report.status == "verified-up-to-bound", (a, b, d)


def test_trung_hypothesis_reporting():
    H = make_h3t(2)
    report = trung_cm_check(H, 2)
    assert report.f_indices == H.axis_generator_indices()
    assert set(report.stats) == {"levels_scanned", "lattice_points",
                                 "pair_hits"}
    no_axes = AffineSemigroup.from_generators([(2, 1, 0), (0, 2, 1),
                                               (1, 0, 2)])
    with pytest.raises(UnsupportedSemigroupError):
        trung_cm_check(no_axes, 2)


@pytest.mark.parametrize("scan", [is_normal_up_to, trung_cm_check])
def test_scans_check_the_axes_before_the_bound(scan):
    # a semigroup without axis multiples is unsupported whatever the
    # bound; a supported one rejects a negative bound as plain bad input
    no_axes = AffineSemigroup.from_generators([(2, 1, 0), (0, 2, 1),
                                               (1, 0, 2)])
    for bound in (2, -1):
        with pytest.raises(UnsupportedSemigroupError):
            scan(no_axes, bound)
    with pytest.raises(ValueError) as excinfo:
        scan(make_h3t(2), -1)
    assert excinfo.type is ValueError
    assert str(excinfo.value) == "bound must be nonnegative"


def test_lemma_two_zero_check():
    assert lemma_two_zero_check(1, 12)
    assert lemma_two_zero_check(2, 18)
    assert lemma_two_zero_check(3, 18)
    with pytest.raises(ValueError):
        lemma_two_zero_check(0, 5)
    with pytest.raises(ValueError):
        lemma_two_zero_check(1, 0)


def test_lemma_two_zero_check_reads_apery_classes(monkeypatch):
    # the public member route agrees with the lemma on a box, and the
    # check itself reaches the same answer without calling it
    H = make_h3t(2)
    for a in range(1, 13):
        for b in range(1, 13):
            expected = a % 6 == 0 and b % 6 == 0
            for w in ((0, a, b), (a, 0, b), (a, b, 0)):
                assert member(H, w).member == expected, w

    def forbidden(*args):
        raise AssertionError("the check must read the Apery classes")

    monkeypatch.setattr(semigroups, "member", forbidden)
    assert all(lemma_two_zero_check(t, 18) for t in (1, 2, 3))


def test_two_nonzero_component_dichotomy():
    # inside a box: either w is a member or both matching axis translates
    # fail, for w with exactly two nonzero components
    for t in (2, 3):
        H = make_h3t(t)
        g = H.degree
        axes = [H.generators[i] for i in H.axis_generator_indices()]
        for zero_pos in range(3):
            for a in range(1, 13):
                for b in range(1, 13):
                    w = [a, b]
                    w.insert(zero_pos, 0)
                    w = tuple(w)
                    if not member(make_h3t(1), w).member:
                        continue  # the dichotomy is about base-family points
                    if member(H, w).member:
                        continue
                    nonzero_axes = [axes[k] for k in range(3)
                                    if k != zero_pos]
                    for f in nonzero_axes:
                        shifted = tuple(x + y for x, y in zip(w, f))
                        assert not member(H, shifted).member, (t, w, f)


def test_trung_intersection_condition_spot_check():
    # bounded check of the translate-intersection form of the criterion:
    # a point in every f_i + H lies in (f_1+f_2+f_3) + H
    for H in [make_h3t(1), semigroup_of_action(CyclicAction(5, (0, 1, 3)))]:
        g = H.degree
        axes = [H.generators[i] for i in H.axis_generator_indices()]
        f_sum = tuple(sum(c) for c in zip(*axes))
        for level in range(0, 5):
            total = level * g
            for w0 in range(total + 1):
                for w1 in range(total + 1 - w0):
                    w = (w0, w1, total - w0 - w1)
                    if all(member(H, tuple(a - b for a, b in zip(w, f))).member
                           for f in axes):
                        shifted = tuple(a - b for a, b in zip(w, f_sum))
                        assert member(H, shifted).member, (H.degree, w)
