"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

All comparisons are exact integer or rational equality.  Run with

    pytest tests/test_acceptance.py -v -s

Criterion 06 is expected to fail: the closed generator-count formula
for the theta = 3 resolution shape disagrees with exact linear algebra
on specific weight classes at d = 7 and d = 11 (three independent rank
computations concur).  The test states the mismatch precisely instead
of weakening the check.
"""

import json
import time

from gt_toolkit import cli
from gt_toolkit.actions import (CyclicAction, degree, egz_factor,
                                invariant_monomials, is_invariant)
from gt_toolkit.hilbert import (hf_by_counting, hf_closed_form, hf_reduced,
                                surface_profile)
from gt_toolkit.resolution import (betti_table, generator_counts,
                                   series_from_betti)
from gt_toolkit.semigroups import (AffineSemigroup, is_normal_up_to,
                                   lemma_two_zero_check, make_h3t, make_hk,
                                   member, semigroup_of_action,
                                   trung_cm_check)
from gt_toolkit.togliatti import classify, wlp_fails_in_degree
from gt_toolkit.toricideal import (fiber_partition, ideal_dimension,
                                   minimal_generators)
from gt_toolkit.verify import (BETTI_TABLES, H3T_GENERATORS,
                               INVARIANT_SETS, NON_ACM_GENERATORS)

from surfaces import surface_triples


def _report(num, label, started, failures):
    elapsed = time.time() - started
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num:02d} [{elapsed:.1f}s] {label}"
          + (f" :: {failures[0]}" if failures else ""))
    assert not failures, f"criterion {num:02d}: {failures}"


def test_criterion_01_invariant_enumeration():
    started = time.time()
    failures = []
    for (d, weights, t), expected in INVARIANT_SETS.items():
        got = set(invariant_monomials(CyclicAction(d, weights), t))
        if got != expected:
            failures.append(f"(d={d}, weights={weights}, t={t})")
    counts = [len(invariant_monomials(CyclicAction(3, (0, 1, 2)), t))
              for t in (1, 2, 3, 4)]
    if counts != [4, 10, 19, 31]:
        failures.append(f"degree-3t counts {counts}")
    _report(1, "invariant monomial sets match the published lists",
            started, failures)


def test_criterion_02_hilbert_triple_agreement():
    started = time.time()
    failures = []
    for (a, b, d) in surface_triples(30):
        p = surface_profile(a, b, d)
        if not p.consistent:
            failures.append(f"theta mismatch at {(a, b, d)}")
            break
        if p.mu_d != (d + p.theta + 2) // 2:
            failures.append(f"mu_d formula at {(a, b, d)}")
            break
        if p.mu_d != len(invariant_monomials(p.action, 1)):
            failures.append(f"mu_d enumeration at {(a, b, d)}")
            break
        for t in range(6):
            counting = hf_by_counting(p.action, t)
            if not (counting == hf_reduced(a, b, d, t)
                    == hf_closed_form(p, t)):
                failures.append(f"routes disagree at {(a, b, d)}, t={t}")
                break
        if failures:
            break
    _report(2, "three Hilbert routes agree for all surfaces d <= 30",
            started, failures)


def test_criterion_03_published_hf_values():
    started = time.time()
    failures = []
    a312 = CyclicAction(3, (0, 1, 2))
    if [hf_by_counting(a312, t) for t in (2, 3, 4)] != [10, 19, 31]:
        failures.append("degree-3 surface values")
    threefold = CyclicAction(4, (0, 1, 2, 3))
    if [hf_by_counting(threefold, t) for t in (1, 2)] != [10, 43]:
        failures.append("threefold values")
    if (ideal_dimension(threefold, 2),
            fiber_partition(threefold).relation_count) != (12, 12):
        failures.append("threefold first Betti number")
    _report(3, "published Hilbert values and the 12-quadric count",
            started, failures)


def test_criterion_04_betti_tables():
    started = time.time()
    failures = []
    for label, ((a, b, d), expected) in BETTI_TABLES.items():
        got = betti_table(surface_profile(a, b, d)).entries
        if got != expected:
            failures.append(f"{label}: {got}")
    _report(4, "resolution ranks for the d = 4, 6, 8 catalogue",
            started, failures)


def test_criterion_05_series_consistency():
    started = time.time()
    failures = []
    for (a, b, d) in surface_triples(30):
        p = surface_profile(a, b, d)
        series = series_from_betti(betti_table(p))
        if not series.matches_closed_form:
            failures.append(f"series mismatch at {(a, b, d)}")
            break
        if sum(series.numerator) != d:
            failures.append(f"numerator(1) != d at {(a, b, d)}")
            break
    _report(5, "alternating-sum series equals the closed form, d <= 30",
            started, failures)


def test_criterion_06_toric_ideal_cross_check():
    started = time.time()
    failures = []
    mismatches = []
    gens3 = minimal_generators(CyclicAction(3, (0, 1, 2)))
    pure = tuple(sorted(i for i, m in enumerate(gens3.generators)
                        if max(m) == 3))
    mixed = next(i for i, m in enumerate(gens3.generators) if max(m) == 1)
    if gens3.counts != (0, 1) or \
            sorted(gens3.cubics[0]) != sorted([pure, (mixed,) * 3]):
        failures.append("degree-3 cubic is not the pure-power binomial")
    for (a, b, d) in surface_triples(12):
        p = surface_profile(a, b, d)
        found = minimal_generators(p.action)
        if found.degree4_deficit != 0:
            failures.append(f"degree-4 generators needed at {(a, b, d)}")
        formula = generator_counts(p)
        if found.counts != (formula.quadrics, formula.cubics):
            mismatches.append((a, b, d, found.counts,
                               (formula.quadrics, formula.cubics)))
    if mismatches:
        failures.append(
            f"{len(mismatches)} actions where exact elimination contradicts "
            f"the closed formula (theta = 3 classes at d = 7 and d = 11; "
            f"each needs exactly 1 cubic, not mu_d - 3), e.g. "
            + ", ".join(str(m[:3]) for m in mismatches[:4]))
    _report(6, "generator counts: closed formula vs exact elimination, "
               "d <= 12", started, failures)


def test_criterion_07_wlp_failure():
    started = time.time()
    failures = []
    actions = [CyclicAction(d, (0, a, b))
               for (a, b, d) in surface_triples(10)]
    actions.append(CyclicAction(4, (0, 1, 2, 3)))
    actions += [CyclicAction(n + 1, tuple(range(n + 1))) for n in (2, 3, 4)]
    for action in actions:
        result = classify(action)
        check = wlp_fails_in_degree(action, action.d - 1)
        if not (result.is_gt_system and check.fails
                and check.kernel_dimension >= 1):
            failures.append(f"{action}")
            break
    _report(7, "multiplication by the variable sum drops rank at d-1",
            started, failures)


def test_criterion_08_egz_factorization():
    started = time.time()
    failures = []
    checked = 0
    for (a, b, d) in surface_triples(8):
        action = CyclicAction(d, (0, a, b))
        for t in range(1, 5):
            for v in invariant_monomials(action, t):
                parts = egz_factor(action, v)
                ok = (len(parts) == t
                      and all(degree(p) == d and is_invariant(action, p)
                              for p in parts)
                      and tuple(map(sum, zip(*parts))) == v)
                if not ok:
                    failures.append(f"{(a, b, d)}, v={v}")
                    break
                checked += 1
            if failures:
                break
        if failures:
            break
    _report(8, f"zero-sum factorization of {checked} invariants, "
               "d <= 8, t <= 4", started, failures)


def test_criterion_09_semigroup_suite():
    started = time.time()
    failures = []
    for t, expected in H3T_GENERATORS.items():
        if set(make_h3t(t).generators) != expected:
            failures.append(f"generator list at t={t}")
    h6 = make_h3t(2)
    for w in [(3, 3, 0), (0, 9, 9), (0, 15, 9), (0, 9, 15)]:
        if member(h6, w).member:
            failures.append(f"{w} wrongly accepted")
    for t in (1, 2, 3, 4):
        if not lemma_two_zero_check(t, 24):
            failures.append(f"two-zero lemma at t={t}")
    for t in (1, 2, 3, 4):
        report = trung_cm_check(make_h3t(t), 6)
        if report.status != "verified-up-to-bound":
            failures.append(f"shifted family t={t}: {report.status}")
    for tp in (0, 1, 2):
        report = trung_cm_check(make_hk(2, tp), 6)
        if report.status != "verified-up-to-bound":
            failures.append(f"k=2 family t'={tp}: {report.status}")
    normality = is_normal_up_to(h6, 6)
    if normality.witness != (3, 3, 0):
        failures.append(f"normality witness {normality.witness}")
    counter = trung_cm_check(
        AffineSemigroup.from_generators(NON_ACM_GENERATORS), 6)
    if counter.status != "counterexample" or counter.witness is None:
        failures.append("no counterexample witness found")
    _report(9, "semigroup constructors, membership facts and CM reports",
            started, failures)


def test_criterion_10_acm_bounded_evidence():
    started = time.time()
    failures = []
    semigroups = [semigroup_of_action(CyclicAction(d, (0, a, b)))
                  for (a, b, d) in surface_triples(8)]
    semigroups.append(semigroup_of_action(CyclicAction(4, (0, 1, 2, 3))))
    for H in semigroups:
        report = trung_cm_check(H, 6)
        if report.status != "verified-up-to-bound" or report.witness:
            failures.append(f"degree {H.degree}: {report.status}")
            break
    _report(10, "no CM obstruction up to level 6 for GT semigroups, d <= 8",
            started, failures)


def test_criterion_11_discrepancy_honesty(capsys):
    started = time.time()
    failures = []
    for (a, b, d) in [(1, 3, 6), (1, 4, 8)]:
        status = cli.main(["hilbert", str(a), str(b), str(d),
                           "--format", "json"])
        out = capsys.readouterr().out
        report = json.loads(out)
        if status != 0:
            failures.append(f"exit {status} for {(a, b, d)}")
        if not report["notes"]:
            failures.append(f"missing catalogue note for {(a, b, d)}")
        if report["flags"]:
            failures.append(f"spurious flags for {(a, b, d)}")
        routes = report["routes"]
        if not all(r["by_counting"] == r["reduced"] == r["closed_form"]
                   for r in routes):
            failures.append(f"routes disagree for {(a, b, d)}")
    with capsys.disabled():
        _report(11, "catalogue mismatch reported as a note with exit 0",
                started, failures)
