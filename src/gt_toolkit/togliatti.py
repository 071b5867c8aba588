"""Togliatti-system classification via the generator bound and WLP failure.

The ideal of the degree-d invariants is a monomial Togliatti system
(hence a GT-system) when it has at most binomial(d+n-1, n-1) generators
and WLP fails from degree d-1 to d, that is, the generators restricted
to x0+...+xn = 0 are dependent (wlp_fails_in_degree cites the proofs).
"""

from __future__ import annotations

from math import factorial, prod
from operator import add
from typing import NamedTuple

from .actions import CyclicAction, exponent_vectors, invariant_monomials, mu_d
from .exactalg import binomial, integer_rank


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
    units = {m[1:] for m in ideal if not m[0]}
    rows = [{u: 1} for u in units]
    powers = {}
    for a0, *rest in sorted(m for m in ideal if m[0]):
        if a0 not in powers:
            top = (-1) ** a0 * factorial(a0)
            powers[a0] = [(k, top // prod(map(factorial, k)))
                          for k in exponent_vectors(n, a0)]
        rows.append({key: c for k, c in powers[a0]
                     if (key := tuple(map(add, k, rest))) not in units})
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
    candidate = count <= bound
    return GtClassification(
        action=action,
        mu_d=count,
        bound=bound,
        is_togliatti_candidate=candidate,
        wlp_check=check,
        is_gt_system=candidate and check.fails,
    )
