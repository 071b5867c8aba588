"""Reference suite: recompute published values and compare exactly.

Every fixture below is a value reported in the published source
material for these varieties (invariant monomial lists, Hilbert
function values, resolution ranks, semigroup generator lists and
membership facts).  Two of the published degree-3t invariant lists
contain obvious misprints (an omitted monomial and a duplicated one);
the fixtures carry the corrected sets, which match the stated counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actions import CyclicAction, egz_factor, invariant_monomials, is_invariant, mu_d
from .hilbert import (catalog_notes, hf_by_counting, hf_reduced,
                      hilbert_series, surface_profile)
from .resolution import betti_table, generator_counts, series_from_betti
from .semigroups import (AffineSemigroup, is_normal_up_to, lemma_two_zero_check,
                         make_h3t, make_hk, member, semigroup_of_action,
                         trung_cm_check)
from .togliatti import classify, wlp_fails_in_degree
from .toricideal import fiber_partition, ideal_dimension, minimal_generators


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


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
    return CheckResult(name, got == expected,
                       "" if got == expected else f"got {got!r}, "
                                                  f"expected {expected!r}")


def _check_invariant_sets():
    for (d, weights, t), expected in INVARIANT_SETS.items():
        got = set(invariant_monomials(CyclicAction(d, weights), t).monomials)
        if got != expected:
            return CheckResult("invariant monomial sets", False,
                               f"(d={d}, t={t}): {sorted(got ^ expected)}")
    return CheckResult("invariant monomial sets", True)


def _check_mu_d():
    got = {k: mu_d(CyclicAction(*k)) for k in MU_D_VALUES}
    return _eq("generator counts mu_d", got, MU_D_VALUES)


def _check_hf_values():
    for (d, weights), table in HF_VALUES.items():
        action = CyclicAction(d, weights)
        got = {t: hf_by_counting(action, t) for t in table}
        if got != table:
            return CheckResult("Hilbert function values", False,
                               f"{(d, weights)}: got {got}")
    return CheckResult("Hilbert function values", True)


def _check_threefold_b11():
    threefold = CyclicAction(4, (0, 1, 2, 3))
    got = (ideal_dimension(threefold, 2),
           fiber_partition(threefold).relation_count)
    return _eq("threefold first Betti number (12 quadrics)", got, (12, 12))


def _check_cubic_b1():
    got = minimal_generators(CyclicAction(3, (0, 1, 2))).counts
    return _eq("cubic surface b(1,1)=0 and b(1,2)=1", got, (0, 1))


def _check_egz():
    action = CyclicAction(3, (0, 1, 2))
    for v in ((2, 2, 2), (4, 1, 1)):
        parts = egz_factor(action, v)
        ok = (len(parts) == sum(v) // 3
              and all(sum(p) == 3 and is_invariant(action, p) for p in parts)
              and tuple(sum(c) for c in zip(*parts)) == v)
        if not ok:
            return CheckResult("EGZ factorization examples", False, f"{v}")
    return CheckResult("EGZ factorization examples", True)


def _check_wlp():
    if not wlp_fails_in_degree(CyclicAction(5, (0, 1, 3)), 4).fails:
        return CheckResult("WLP failure", False, "(5;0,1,3) in degree 4")
    check = wlp_fails_in_degree(CyclicAction(3, (0, 1, 2)), 2)
    if not (check.fails and check.kernel_dimension == 1):
        return CheckResult("WLP failure", False,
                           f"(3;0,1,2) kernel {check.kernel_dimension}")
    return CheckResult("WLP failure", True)


def _check_classification_families():
    actions = [CyclicAction(d, (0, 1, 2)) for d in range(3, 9)]
    actions.append(CyclicAction(4, (0, 1, 2, 3)))
    actions += [CyclicAction(n + 1, tuple(range(n + 1))) for n in (2, 3, 4)]
    for action in actions:
        result = classify(action)
        if not result.is_gt_system:
            return CheckResult("GT classification families", False,
                               f"{action} not classified as a GT-system")
    return CheckResult("GT classification families", True)


def _check_profiles():
    got = {}
    for (a, b, d) in PROFILE_VALUES:
        p = surface_profile(a, b, d)
        got[(a, b, d)] = (p.lam, p.mu, p.theta)
        if not p.consistent:
            return CheckResult("surface profiles", False,
                               f"{(a, b, d)} flagged inconsistent")
    return _eq("surface profiles (lambda, mu, theta)", got, PROFILE_VALUES)


def _check_surface_invariants():
    got = {}
    for (a, b, d) in SURFACE_INVARIANT_VALUES:
        p = surface_profile(a, b, d)
        got[(a, b, d)] = (p.mu_d, p.codim, p.cm_type)
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
    for label, ((a, b, d), expected) in BETTI_TABLES.items():
        table = betti_table(surface_profile(a, b, d))
        if table.entries != expected:
            return CheckResult("Betti tables", False,
                               f"{label}: got {table.entries}")
        series = series_from_betti(table)
        if not series.matches_closed_form:
            return CheckResult("Betti tables", False,
                               f"{label}: series mismatch")
    return CheckResult("Betti tables", True)


def _check_generator_counts():
    got = {}
    for key in GENERATOR_COUNT_VALUES:
        counts = generator_counts(surface_profile(*key))
        got[key] = (counts.quadrics, counts.cubics)
    return _eq("generator count formulas", got, GENERATOR_COUNT_VALUES)


def _check_cubic_ideal():
    action = CyclicAction(3, (0, 1, 2))
    gens = minimal_generators(action)
    if gens.counts != (0, 1):
        return CheckResult("cubic surface ideal", False, f"{gens.counts}")
    ((lhs, rhs),) = gens.cubics
    # the unique cubic: product of the three pure powers = cube of x0*x1*x2
    pure = tuple(sorted(i for i, m in enumerate(gens.generators)
                        if max(m) == 3))
    mixed = next(i for i, m in enumerate(gens.generators) if max(m) == 1)
    expected = tuple(sorted([pure, (mixed,) * 3]))
    if tuple(sorted([lhs, rhs])) != expected:
        return CheckResult("cubic surface ideal", False,
                           f"got {lhs} - {rhs}")
    return CheckResult("cubic surface ideal", True)


def _check_ideal_dimensions():
    a312 = CyclicAction(3, (0, 1, 2))
    got = (ideal_dimension(a312, 2), ideal_dimension(a312, 3),
           ideal_dimension(CyclicAction(5, (0, 1, 3)), 2),
           fiber_partition(CyclicAction(6, (0, 1, 3))).relation_count)
    return _eq("toric ideal dimensions", got, (0, 1, 1, 9))


def _check_h3t_generators():
    for t, expected in H3T_GENERATORS.items():
        got = set(make_h3t(t).generators)
        if got != expected:
            return CheckResult("shifted family generators", False, f"t={t}")
    if set(make_hk(2, 1).generators) != HK_2_1_GENERATORS:
        return CheckResult("shifted family generators", False, "k=2, t'=1")
    if make_hk(1, 1).generators != make_h3t(2).generators:
        return CheckResult("shifted family generators", False,
                           "k=1 does not reduce to the base family")
    return CheckResult("shifted family generators", True)


def _check_membership_facts():
    h6 = make_h3t(2)
    expected_false = [(3, 3, 0), (0, 9, 9), (0, 15, 9), (0, 9, 15)]
    for w in expected_false:
        if member(h6, w).member:
            return CheckResult("membership facts", False, f"{w} accepted")
    if not member(h6, (2, 2, 2)).member:
        return CheckResult("membership facts", False, "(2,2,2) rejected")
    return CheckResult("membership facts", True)


def _check_normality():
    report = is_normal_up_to(make_h3t(2), 3)
    if report.normal_up_to_bound or report.witness != (3, 3, 0):
        return CheckResult("normality witness", False, f"{report.witness}")
    if not is_normal_up_to(make_h3t(1), 4).normal_up_to_bound:
        return CheckResult("normality witness", False, "base family flagged")
    gt = semigroup_of_action(CyclicAction(5, (0, 1, 3)))
    if not is_normal_up_to(gt, 4).normal_up_to_bound:
        return CheckResult("normality witness", False,
                           "(5;0,1,3) semigroup flagged")
    return CheckResult("normality witness", True)


def _check_lemma_two_zero():
    for t in (1, 2, 3):
        if not lemma_two_zero_check(t, 18):
            return CheckResult("one-zero-coordinate membership lemma", False,
                               f"t={t}")
    return CheckResult("one-zero-coordinate membership lemma", True)


def _check_trung_families():
    for t in (1, 2, 3, 4):
        report = trung_cm_check(make_h3t(t), 6)
        if report.status != "verified-up-to-bound" or not report.hypothesis_ok:
            return CheckResult("CM certification of the shifted family", False,
                               f"t={t}: {report.status}")
    for tp in (0, 1, 2):
        report = trung_cm_check(make_hk(2, tp), 6)
        if report.status != "verified-up-to-bound":
            return CheckResult("CM certification of the shifted family", False,
                               f"k=2, t'={tp}: {report.status}")
    return CheckResult("CM certification of the shifted family", True)


def _check_trung_gt():
    for action in (CyclicAction(6, (0, 1, 3)), CyclicAction(5, (0, 1, 3)),
                   CyclicAction(4, (0, 1, 2, 3))):
        report = trung_cm_check(semigroup_of_action(action), 6)
        if report.status != "verified-up-to-bound":
            return CheckResult("CM certification of GT semigroups", False,
                               f"{action}: {report.status}")
    return CheckResult("CM certification of GT semigroups", True)


def _check_non_acm_counterexample():
    H = AffineSemigroup.from_generators(NON_ACM_GENERATORS)
    report = trung_cm_check(H, 6)
    if report.status != "counterexample" or report.witness is None:
        return CheckResult("non-aCM counterexample", False, report.status)
    w = report.witness
    f1, f2, f3 = [H.generators[i] for i in report.f_indices]
    translates = sum(
        member(H, tuple(a + b for a, b in zip(w, f))).member
        for f in (f1, f2, f3))
    if member(H, w).member or translates < 2:
        return CheckResult("non-aCM counterexample", False,
                           f"witness {w} is not valid")
    return CheckResult("non-aCM counterexample", True)


def _check_catalog_notes():
    for (a, b, d) in ((1, 3, 6), (1, 4, 8)):
        profile = surface_profile(a, b, d)
        if not profile.consistent:
            return CheckResult("published catalogue notes", False,
                               f"{(a, b, d)} internally inconsistent")
        if not catalog_notes(profile):
            return CheckResult("published catalogue notes", False,
                               f"no note for {(a, b, d)}")
    if catalog_notes(surface_profile(1, 2, 6)):
        return CheckResult("published catalogue notes", False,
                           "spurious note for (1, 2, 6)")
    return CheckResult("published catalogue notes", True)


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
