"""Reference suite: recompute published values and compare exactly.

Every fixture below is a value reported in the published source
material for these varieties (invariant monomial lists, Hilbert
function values, resolution ranks, semigroup generator lists and
membership facts).  Two of the published degree-3t invariant lists
contain obvious misprints (an omitted monomial and a duplicated one);
the fixtures carry the corrected sets, which match the stated counts.
"""

from __future__ import annotations

from operator import add
from typing import NamedTuple

from .actions import CyclicAction, egz_factor, invariant_monomials, is_invariant, mu_d
from .hilbert import (catalog_notes, hf_by_counting, hf_reduced,
                      hilbert_series, surface_profile)
from .resolution import betti_table, generator_counts, series_from_betti
from .semigroups import (AffineSemigroup, is_normal_up_to, lemma_two_zero_check,
                         make_h3t, make_hk, member, semigroup_of_action,
                         trung_cm_check)
from .togliatti import classify, wlp_fails_in_degree
from .toricideal import fiber_partition, ideal_dimension, minimal_generators


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return self._asdict()


# ---------------------------------------------------------------- fixtures

INVARIANT_SETS = {
    # (d, weights, t) -> the published monomial set
    (5, (0, 1, 3), 1): {(5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 2, 1), (1, 1, 3)},
    (3, (0, 1, 2), 1): {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)},
    (3, (0, 1, 2), 2): {(6, 0, 0), (3, 3, 0), (4, 1, 1), (0, 6, 0), (1, 4, 1),
                        (2, 2, 2), (3, 0, 3), (0, 3, 3), (1, 1, 4), (0, 0, 6)},
    (3, (0, 1, 2), 3): {(9, 0, 0), (6, 3, 0), (7, 1, 1), (3, 6, 0), (4, 4, 1),
                        (5, 2, 2), (6, 0, 3), (0, 9, 0), (1, 7, 1), (2, 5, 2),
                        (3, 3, 3), (4, 1, 4), (0, 6, 3), (1, 4, 4), (2, 2, 5),
                        (3, 0, 6), (0, 3, 6), (1, 1, 7), (0, 0, 9)},
    (3, (0, 1, 2), 4): {(12, 0, 0), (9, 3, 0), (10, 1, 1), (6, 6, 0),
                        (7, 4, 1), (8, 2, 2), (9, 0, 3), (3, 9, 0), (4, 7, 1),
                        (5, 5, 2), (6, 3, 3), (7, 1, 4), (0, 12, 0),
                        (1, 10, 1), (2, 8, 2), (3, 6, 3), (4, 4, 4),
                        (5, 2, 5), (6, 0, 6), (0, 9, 3), (1, 7, 4), (2, 5, 5),
                        (3, 3, 6), (4, 1, 7), (0, 6, 6), (1, 4, 7), (2, 2, 8),
                        (3, 0, 9), (0, 3, 9), (1, 1, 10), (0, 0, 12)},
    (8, (0, 3, 5), 1): {(8, 0, 0), (6, 1, 1), (4, 2, 2), (0, 8, 0), (2, 3, 3),
                        (0, 4, 4), (0, 0, 8)},
    (6, (0, 2, 3), 1): {(6, 0, 0), (3, 3, 0), (4, 0, 2), (0, 6, 0), (1, 3, 2),
                        (2, 0, 4), (0, 0, 6)},
}

MU_D_VALUES = {(3, (0, 1, 2)): 4, (5, (0, 1, 3)): 5, (4, (0, 1, 2, 3)): 10}

HF_VALUES = {
    (3, (0, 1, 2)): {1: 4, 2: 10, 3: 19, 4: 31},
    (4, (0, 1, 2, 3)): {1: 10, 2: 43},
}

PROFILE_VALUES = {
    # (a, b, d) -> (lambda, mu, theta)
    (3, 5, 8): (7, -2, 4),
    (1, 2, 3): (2, 0, 3),
    (2, 3, 6): (3, 0, 6),
}

SURFACE_INVARIANT_VALUES = {
    # (a, b, d) -> (mu_d, codim, cm_type); codim is mu_d - 3 throughout
    (1, 3, 5): (5, 2, 2),
    (1, 2, 3): (4, 1, 1),
    (3, 5, 8): (7, 4, 3),
}

SERIES_NUMERATORS = {(1, 2, 3): (1, 1, 1), (2, 3, 6): (1, 4, 1)}

BETTI_TABLES = {
    # label -> ((a, b, d), {(l, i): rank})
    "d=4 complete intersection": ((1, 2, 4), {(1, 1): 2, (2, 2): 1}),
    "d=6 Gorenstein": ((1, 3, 6), {(1, 1): 9, (2, 1): 16, (3, 1): 9,
                                   (4, 2): 1}),
    "d=6 codim 3": ((1, 2, 6), {(1, 1): 4, (2, 1): 2, (2, 2): 3, (3, 2): 2}),
    "d=8 codim 5": ((1, 4, 8), {(1, 1): 13, (2, 1): 30, (3, 1): 25, (4, 1): 4,
                                (4, 2): 5, (5, 2): 2}),
    "d=8 codim 4": ((1, 2, 8), {(1, 1): 7, (2, 1): 8, (2, 2): 6, (3, 1): 3,
                                (3, 2): 8, (4, 2): 3}),
}

GENERATOR_COUNT_VALUES = {(1, 2, 3): (0, 1), (1, 3, 6): (9, 0),
                          (1, 3, 5): (1, 2)}

H3T_GENERATORS = {
    2: {(6, 0, 0), (0, 6, 0), (0, 0, 6), (4, 1, 1), (1, 4, 1), (1, 1, 4),
        (2, 2, 2)},
    3: {(9, 0, 0), (0, 9, 0), (0, 0, 9), (7, 1, 1), (1, 7, 1), (1, 1, 7),
        (5, 2, 2), (2, 5, 2), (2, 2, 5), (3, 3, 3)},
    4: {(12, 0, 0), (0, 12, 0), (0, 0, 12), (10, 1, 1), (1, 10, 1),
        (1, 1, 10), (8, 2, 2), (2, 8, 2), (2, 2, 8), (6, 3, 3), (3, 6, 3),
        (3, 3, 6), (4, 4, 4)},
}

HK_2_1_GENERATORS = {(9, 0, 0), (0, 9, 0), (0, 0, 9), (5, 2, 2), (2, 5, 2),
                     (2, 2, 5), (3, 3, 3)}

# the six degree-5 monomials whose projection is not aCM
NON_ACM_GENERATORS = ((5, 0, 0), (0, 5, 0), (0, 0, 5), (3, 1, 1), (2, 2, 1),
                      (1, 3, 1))


# ------------------------------------------------------------------ checks

def _eq(name, got, expected):
    """Pass when got == expected; for two dicts the failure detail lists
    only the keys whose values differ."""
    if got == expected:
        return CheckResult(name, True)
    if isinstance(got, dict) and isinstance(expected, dict):
        keys = [k for k in {**expected, **got}
                if k not in got or k not in expected or got[k] != expected[k]]
        got = {k: got[k] for k in keys if k in got}
        expected = {k: expected[k] for k in keys if k in expected}
    return CheckResult(name, False, f"got {got!r}, expected {expected!r}")


def _check_invariant_sets():
    got = {(d, w, t): set(invariant_monomials(CyclicAction(d, w), t))
           for d, w, t in INVARIANT_SETS}
    return _eq("invariant monomial sets", got, INVARIANT_SETS)


def _check_mu_d():
    got = {k: mu_d(CyclicAction(*k)) for k in MU_D_VALUES}
    return _eq("generator counts mu_d", got, MU_D_VALUES)


def _check_hf_values():
    got = {k: {t: hf_by_counting(CyclicAction(*k), t) for t in table}
           for k, table in HF_VALUES.items()}
    return _eq("Hilbert function values", got, HF_VALUES)


def _check_threefold_b11():
    threefold = CyclicAction(4, (0, 1, 2, 3))
    got = (ideal_dimension(threefold, 2),
           fiber_partition(threefold).relation_count)
    return _eq("threefold first Betti number (12 quadrics)", got, (12, 12))


def _check_cubic_b1():
    got = minimal_generators(CyclicAction(3, (0, 1, 2))).counts
    return _eq("cubic surface b(1,1)=0 and b(1,2)=1", got, (0, 1))


def _check_egz():
    # each part: its degree and whether it is invariant; then the parts' sum
    action = CyclicAction(3, (0, 1, 2))
    got, expected = {}, {}
    for v in ((2, 2, 2), (4, 1, 1)):
        parts = egz_factor(action, v)
        got[v] = ([(sum(p), is_invariant(action, p)) for p in parts],
                  tuple(sum(c) for c in zip(*parts)))
        expected[v] = ([(3, True)] * (sum(v) // 3), v)
    return _eq("EGZ factorization examples", got, expected)


def _check_wlp():
    quintic = wlp_fails_in_degree(CyclicAction(5, (0, 1, 3)), 4)
    cubic = wlp_fails_in_degree(CyclicAction(3, (0, 1, 2)), 2)
    got = (quintic.fails, cubic.fails, cubic.kernel_dimension)
    return _eq("WLP failure", got, (True, True, 1))


def _check_classification_families():
    families = [(d, (0, 1, 2)) for d in range(3, 9)]
    families += [(n + 1, tuple(range(n + 1))) for n in (3, 4)]
    got = {k: classify(CyclicAction(*k)).is_gt_system for k in families}
    return _eq("GT classification families", got, dict.fromkeys(got, True))


def _check_profiles():
    got = {k: ((p := surface_profile(*k)).lam, p.mu, p.theta, p.consistent)
           for k in PROFILE_VALUES}
    return _eq("surface profiles (lambda, mu, theta)", got,
               {k: v + (True,) for k, v in PROFILE_VALUES.items()})


def _check_surface_invariants():
    got = {k: ((p := surface_profile(*k)).mu_d, p.codim, p.cm_type)
           for k in SURFACE_INVARIANT_VALUES}
    return _eq("surface invariants", got, SURFACE_INVARIANT_VALUES)


def _check_reduced_counts():
    got = (hf_reduced(2, 3, 6, 1), hf_reduced(3, 5, 8, 1),
           hf_reduced(1, 2, 3, 2))
    return _eq("reduced-system counts", got, (7, 7, 10))


def _check_series():
    got = {k: hilbert_series(surface_profile(*k)).numerator
           for k in SERIES_NUMERATORS}
    return _eq("Hilbert series numerators", got, SERIES_NUMERATORS)


def _check_betti():
    # the ranks, and whether their alternating sum gives the closed form
    got, expected = {}, {}
    for label, (key, entries) in BETTI_TABLES.items():
        table = betti_table(surface_profile(*key))
        got[label] = (table.entries,
                      series_from_betti(table).matches_closed_form)
        expected[label] = (entries, True)
    return _eq("Betti tables", got, expected)


def _check_generator_counts():
    got = {}
    for key in GENERATOR_COUNT_VALUES:
        counts = generator_counts(surface_profile(*key))
        got[key] = (counts.quadrics, counts.cubics)
    return _eq("generator count formulas", got, GENERATOR_COUNT_VALUES)


def _check_cubic_ideal():
    # no quadric, and one cubic: the product of the three pure powers
    # equals the cube of x0*x1*x2
    gens = minimal_generators(CyclicAction(3, (0, 1, 2)))
    pure = tuple(i for i, m in enumerate(gens.generators) if max(m) == 3)
    mixed = next(i for i, m in enumerate(gens.generators) if max(m) == 1)
    got = (len(gens.quadrics), [sorted(cubic) for cubic in gens.cubics])
    return _eq("cubic surface ideal", got,
               (0, [sorted([pure, (mixed,) * 3])]))


def _check_ideal_dimensions():
    a312 = CyclicAction(3, (0, 1, 2))
    got = (ideal_dimension(a312, 2), ideal_dimension(a312, 3),
           ideal_dimension(CyclicAction(5, (0, 1, 3)), 2),
           fiber_partition(CyclicAction(6, (0, 1, 3))).relation_count)
    return _eq("toric ideal dimensions", got, (0, 1, 1, 9))


def _check_h3t_generators():
    got = {t: set(make_h3t(t).generators) for t in H3T_GENERATORS}
    got["hk(2, 1)"] = set(make_hk(2, 1).generators)
    return _eq("shifted family generators", got,
               {**H3T_GENERATORS, "hk(2, 1)": HK_2_1_GENERATORS})


def _check_membership_facts():
    h6 = make_h3t(2)
    expected = {(3, 3, 0): False, (0, 9, 9): False, (0, 15, 9): False,
                (0, 9, 15): False, (2, 2, 2): True}
    got = {w: member(h6, w).member for w in expected}
    return _eq("membership facts", got, expected)


def _check_normality():
    reports = {"h3t(2)": is_normal_up_to(make_h3t(2), 3),
               "h3t(1)": is_normal_up_to(make_h3t(1), 4),
               (5, (0, 1, 3)): is_normal_up_to(
                   semigroup_of_action(CyclicAction(5, (0, 1, 3))), 4)}
    got = {k: (r.normal_up_to_bound, r.witness) for k, r in reports.items()}
    return _eq("normality witness", got,
               {"h3t(2)": (False, (3, 3, 0)), "h3t(1)": (True, None),
                (5, (0, 1, 3)): (True, None)})


def _check_lemma_two_zero():
    got = {t: lemma_two_zero_check(t, 18) for t in (1, 2, 3)}
    return _eq("one-zero-coordinate membership lemma", got,
               dict.fromkeys(got, True))


def _check_trung_families():
    reports = {f"h3t({t})": trung_cm_check(make_h3t(t), 6)
               for t in (1, 2, 3, 4)}
    reports.update({f"hk(2, {tp})": trung_cm_check(make_hk(2, tp), 6)
                    for tp in (0, 1, 2)})
    got = {k: (r.status, r.hypothesis_ok) for k, r in reports.items()}
    return _eq("CM certification of the shifted family", got,
               dict.fromkeys(got, ("verified-up-to-bound", True)))


def _check_trung_gt():
    got = {k: trung_cm_check(semigroup_of_action(CyclicAction(*k)), 6).status
           for k in ((6, (0, 1, 3)), (5, (0, 1, 3)), (4, (0, 1, 2, 3)))}
    return _eq("CM certification of GT semigroups", got,
               dict.fromkeys(got, "verified-up-to-bound"))


def _check_non_acm_counterexample():
    # the witness w is outside H, but two of its translates w + f lie in H
    name = "non-aCM counterexample"
    H = AffineSemigroup.from_generators(NON_ACM_GENERATORS)
    report = trung_cm_check(H, 6)
    if report.witness is None:
        return _eq(name, report.status, "counterexample")
    w = report.witness
    translates = sum(member(H, tuple(map(add, w, H.generators[i]))).member
                     for i in report.f_indices)
    got = (report.status, member(H, w).member, translates >= 2)
    return _eq(name, got, ("counterexample", False, True))


def _check_catalog_notes():
    got = {}
    for key in ((1, 3, 6), (1, 4, 8)):
        profile = surface_profile(*key)
        got[key] = (profile.consistent, bool(catalog_notes(profile)))
    got[(1, 2, 6)] = bool(catalog_notes(surface_profile(1, 2, 6)))
    return _eq("published catalogue notes", got,
               {(1, 3, 6): (True, True), (1, 4, 8): (True, True),
                (1, 2, 6): False})


CHECKS = [
    _check_invariant_sets,
    _check_mu_d,
    _check_hf_values,
    _check_threefold_b11,
    _check_cubic_b1,
    _check_egz,
    _check_wlp,
    _check_classification_families,
    _check_profiles,
    _check_surface_invariants,
    _check_reduced_counts,
    _check_series,
    _check_betti,
    _check_generator_counts,
    _check_cubic_ideal,
    _check_ideal_dimensions,
    _check_h3t_generators,
    _check_membership_facts,
    _check_normality,
    _check_lemma_two_zero,
    _check_trung_families,
    _check_trung_gt,
    _check_non_acm_counterexample,
    _check_catalog_notes,
]


def run_reference_checks() -> list[CheckResult]:
    """Run every reference check; results come back in a fixed order."""
    return [check() for check in CHECKS]
