"""The GT surfaces and action classes the test modules sweep over."""

from itertools import combinations_with_replacement
from math import gcd

from gt_toolkit.actions import CyclicAction


def surface_triples(max_d):
    """Every (a, b, d) with 3 <= d <= max_d, 0 < a < b < d and
    gcd(a, b, d) = 1, ordered by d, then a, then b."""
    for d in range(3, max_d + 1):
        for a in range(1, d):
            for b in range(a + 1, d):
                if gcd(a, b, d) == 1:
                    yield a, b, d


def surface_actions(max_d):
    """The action (d; 0, a, b) of each surface_triples(max_d) triple."""
    for a, b, d in surface_triples(max_d):
        yield CyclicAction(d, (0, a, b))


def weight_class(weights, d):
    """Canonical form of a weight vector under unit scaling, global shift
    and coordinate permutation; equivalent actions share the toric ideal
    up to relabeling."""
    best = None
    for u in range(1, d):
        if gcd(u, d) != 1:
            continue
        for c in range(d):
            candidate = tuple(sorted((u * w + c) % d for w in weights))
            if best is None or candidate < best:
                best = candidate
    return best


def action_classes(nvars, max_d):
    """One action per class under unit scaling, shift and permutation of
    the weights, repeated weights included."""
    for d in range(3, max_d + 1):
        units = [u for u in range(1, d) if gcd(u, d) == 1]
        seen = set()
        for rest in combinations_with_replacement(range(d), nvars - 1):
            weights = (0,) + rest
            if weights in seen or gcd(*weights, d) != 1:
                continue
            # the class is the orbit of its first vector; its least
            # member is the weight_class of each vector in it
            orbit = {tuple(sorted((u * w + c) % d for w in weights))
                     for u in units for c in range(d)}
            seen |= orbit
            yield CyclicAction(d, min(orbit))
