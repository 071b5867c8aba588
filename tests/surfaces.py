"""The GT surfaces the test modules sweep over."""

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
