"""Togliatti-system classification via the generator bound and WLP failure.

The ideal generated by the degree-d invariants is a monomial Togliatti
system (hence a GT-system) when its generator count stays within
binomial(d+n-1, n-1) and multiplication by x0+...+xn fails to have
maximal rank from degree d-1 to degree d.  Both checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .actions import (CyclicAction, ExponentVector, exponent_vectors,
                      invariant_monomials, mu_d)
from .exactalg import binomial, integer_rank


def generator_bound(action: CyclicAction) -> int:
    """The Togliatti bound binomial(d+n-1, n-1)."""
    return binomial(action.d + action.n - 1, action.n - 1)


def togliatti_bound_ok(action: CyclicAction) -> bool:
    return mu_d(action) <= generator_bound(action)


def quotient_basis(action: CyclicAction, j: int) -> list[ExponentVector]:
    """Monomials of degree j outside the invariant ideal, lex descending.

    The ideal is generated in degree d, so below degree d the quotient
    basis is all of R_j; from degree d on, its degree-j monomials are the
    generators times the monomials of degree j - d.
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    monos = exponent_vectors(action.nvars, j)
    if j < action.d:
        return monos
    ideal = {tuple(map(add, g, e))
             for g in invariant_monomials(action, 1).monomials
             for e in exponent_vectors(action.nvars, j - action.d)}
    return [m for m in monos if m not in ideal]


@dataclass(frozen=True)
class WlpCheck:
    """Rank data of multiplication by x0+...+xn between two quotient degrees."""

    j: int
    dim_source: int
    dim_target: int
    rank: int
    kernel_dimension: int
    test: str  # "injectivity" when dim_source <= dim_target, else "surjectivity"
    fails: bool

    def to_dict(self) -> dict:
        return {"j": self.j, "dim_source": self.dim_source,
                "dim_target": self.dim_target, "rank": self.rank,
                "kernel_dimension": self.kernel_dimension,
                "test": self.test, "fails": self.fails}


def wlp_fails_in_degree(action: CyclicAction, j: int) -> WlpCheck:
    """Exact maximal-rank test for x(0)+...+x(n) from degree j to j+1.

    Builds the multiplication matrix on the monomial bases of the
    quotient ring as sparse rows, one {source index: 1} dict per target
    monomial, and computes its rank over the rationals.  WLP fails in
    degree j when the rank is below min(dim source, dim target).
    """
    if j < 0:
        raise ValueError("degree must be nonnegative")
    source = quotient_basis(action, j)
    target = quotient_basis(action, j + 1)
    index = {m: i for i, m in enumerate(target)}
    rows = [{} for _ in target]
    for s, m in enumerate(source):
        for i in range(action.nvars):
            r = index.get(m[:i] + (m[i] + 1,) + m[i + 1:])
            if r is not None:
                rows[r][s] = 1
    rank = integer_rank(rows)
    fails = rank < min(len(source), len(target))
    test = "injectivity" if len(source) <= len(target) else "surjectivity"
    return WlpCheck(j=j, dim_source=len(source), dim_target=len(target),
                    rank=rank, kernel_dimension=len(source) - rank,
                    test=test, fails=fails)


@dataclass(frozen=True)
class GtClassification:
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
