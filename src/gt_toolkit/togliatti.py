"""Togliatti-system classification via the generator bound and WLP failure.

The ideal of the degree-d invariants is a monomial Togliatti system
(hence a GT-system) when it has at most binomial(d+n-1, n-1) generators
and WLP fails from degree d-1 to d, that is, the generators restricted
to x0+...+xn = 0 are dependent (wlp_fails_in_degree cites the proofs).

The restricted rows are keyed by packed integers, the exponents of
x1..xn as fixed-width digits, so integer order is lex order and a
product of monomials is one addition.  Each expansion of
(-1)^a0*(x1+...+xn)^a0 is built once per process in a bounded
value-keyed cache and shared by every later row, call and command.
classify also checks the enumerated generator count of the rank test
against the counted mu_d.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, prod
from operator import add, mul
from typing import NamedTuple

from .actions import CyclicAction, exponent_vectors, invariant_monomials, mu_d
from .exactalg import InternalDiscrepancy, binomial, integer_rank


def generator_bound(action: CyclicAction) -> int:
    """The Togliatti bound binomial(d+n-1, n-1)."""
    return binomial(action.d + action.n - 1, action.n - 1)


class WlpCheck(NamedTuple):
    """Rank data of multiplication by x0+...+xn between two quotient degrees."""

    j: int
    dim_source: int
    dim_target: int
    rank: int
    kernel_dimension: int
    test: str  # "injectivity" when dim_source <= dim_target, else "surjectivity"
    fails: bool

    def to_dict(self) -> dict:
        return self._asdict()


def _digits(n: int, width: int) -> list[int]:
    # the place values of x1..xn in a key of width-bit digits, x1 first
    return [1 << s for s in range(width * (n - 1), -1, -width)]


# bounded; classify on every action class with 3 variables and
# 13 <= d <= 19 and with 4 variables and 7 <= d <= 9 meets 59 keys
@lru_cache(maxsize=128)
def _restricted_power(n: int, a0: int, width: int) -> tuple:
    """(-1)^a0 * (x1+...+xn)^a0 as (packed monomial, coefficient) pairs.

    Each monomial's exponents are digits of `width` bits, most
    significant first, and its coefficient is +-a0!/prod(k_i!).  Cached
    by value: equal calls share one read-only tuple.
    """
    top = (-1) ** a0 * factorial(a0)
    digits = _digits(n, width)
    return tuple((sum(map(mul, k, digits)), top // prod(map(factorial, k)))
                 for k in exponent_vectors(n, a0))


def wlp_fails_in_degree(action: CyclicAction, j: int) -> WlpCheck:
    """Exact maximal-rank test for L = x0+...+xn from degree j to j+1.

    L is a nonzerodivisor on R = k[x0..xn], so on A = R/I the rank of L
    from A_j to A_{j+1} is dim A_{j+1} - dim R'_{j+1} + rank I'_{j+1},
    where R' = R/(L) = k[x1..xn] and I' is I under x0 -> -(x1+...+xn),
    ranked as one sparse row per monomial of I_{j+1}.  So at j = d-1
    injectivity fails when the restricted generators are dependent
    (Mezzetti-Miro-Roig-Ottaviani, Canad. J. Math. 2013); for monomial
    ideals L is as good as a general linear form (Migliore-Miro-Roig-
    Nagel, Trans. AMS 2011).

    A restricted monomial, of degree j+1 in x1..xn, is one integer whose
    digits are its exponents, width = (j+1).bit_length() bits each, most
    significant first.  Every exponent is at most j+1 < 2**width, so the
    packing is injective and integer order is lex order: integer_rank
    picks the same pivot columns in the same order as on exponent tuples.
    x^k*m is k + m with no carry, as the digits of the sum stay at most
    j+1.  The expansions of (-1)^a0*(x1+...+xn)^a0 come from
    _restricted_power, keyed by (n, a0, width): width depends on j only
    through its bit length, so calls for nearby degrees share entries.
    Rows of one call shared an expansion before it was cached, so the
    cache pays off only across calls: a process that runs one classify
    gains from the packing alone.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    n = action.n
    # I_j and I_{j+1}: I_t is the generators times R_{t-d}, empty below d
    gens = invariant_monomials(action, 1)
    lower, ideal = ({tuple(map(add, g, e))
                     for e in exponent_vectors(n + 1, t - action.d)
                     for g in gens} for t in (j, j + 1))
    # x0-free monomials restrict to unit rows, whose columns the other rows
    # drop; x0^a0*m to (-1)^a0*(x1+...+xn)^a0*m, by ascending (sparser) a0
    width = (j + 1).bit_length()
    digits = _digits(n, width)
    units = {sum(map(mul, m[1:], digits)) for m in ideal if not m[0]}
    rows = [{u: 1} for u in units]
    for a0, *rest in sorted(m for m in ideal if m[0]):
        base = sum(map(mul, rest, digits))
        rows.append({key: c for k, c in _restricted_power(n, a0, width)
                     if (key := k + base) not in units})
    dim_source = binomial(n + j, n) - len(lower)
    dim_target = binomial(n + j + 1, n) - len(ideal)
    rank = dim_target - binomial(n + j, n - 1) + integer_rank(rows)
    test = "injectivity" if dim_source <= dim_target else "surjectivity"
    return WlpCheck(j=j, dim_source=dim_source, dim_target=dim_target,
                    rank=rank, kernel_dimension=dim_source - rank, test=test,
                    fails=rank < min(dim_source, dim_target))


class GtClassification(NamedTuple):
    action: CyclicAction
    mu_d: int
    bound: int
    is_togliatti_candidate: bool
    wlp_check: WlpCheck  # the rank test in degree d-1
    is_gt_system: bool

    @property
    def wlp_fails_at_d_minus_1(self) -> bool:
        return self.wlp_check.fails

    @property
    def kernel_dimension(self) -> int:
        return self.wlp_check.kernel_dimension

    def to_dict(self) -> dict:
        return {"action": self.action.to_dict(), "mu_d": self.mu_d,
                "bound": self.bound,
                "is_togliatti_candidate": self.is_togliatti_candidate,
                "wlp_fails_at_d_minus_1": self.wlp_fails_at_d_minus_1,
                "kernel_dimension": self.kernel_dimension,
                "is_gt_system": self.is_gt_system}


def classify(action: CyclicAction) -> GtClassification:
    """Combine the generator bound with the WLP failure test at d-1."""
    count = mu_d(action)
    bound = generator_bound(action)
    check = wlp_fails_in_degree(action, action.d - 1)
    # the rank test enumerated I_d: a second route to the counted mu_d
    if binomial(action.n + action.d, action.n) - check.dim_target != count:
        raise InternalDiscrepancy("degree-1 invariants miscounted")
    candidate = count <= bound
    return GtClassification(
        action=action,
        mu_d=count,
        bound=bound,
        is_togliatti_candidate=candidate,
        wlp_check=check,
        is_gt_system=candidate and check.fails,
    )
