"""Hilbert functions of GT-varieties by three independent routes.

For any action the Hilbert function in degree t equals the number of
invariant monomials of degree t*d (direct counting).  For surfaces with
weights (0, a, b) two more routes exist: counting the reduced linear
systems obtained after dividing out gcd(a, d), and a closed quadratic
formula whose linear coefficient is the invariant theta(a, b, d).

SurfaceProfile is the one source of the surface scalars mu_d, degree,
codim, CM type and regularity; the Hilbert series and the Betti tables
read them from it.  The enumeration count of degree-d invariants is the
authority for theta: the profile carries both the gcd-formula value and
the counted value, and its consistency verdict is derived from the two
on every read, so a mismatch is flagged instead of silently choosing.
Every surface invariant is a half: HF(t) = (d*t^2 + theta*t + 2)/2,
codim = (d + theta - 4)/2, CM type = (d - theta + 2)/2 and mu_d by
the theta formula, (d + theta + 2)/2.  One helper, _half, takes each of them
exactly; an odd numerator means theta and d differ in parity, which the
theory rules out, so it raises InternalDiscrepancy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .actions import CyclicAction, count_invariants
from .exactalg import InternalDiscrepancy


def hf_by_counting(action: CyclicAction, t: int) -> int:
    """Hilbert function value by direct solution counting; works for any n."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1
    return count_invariants(action, t)


def _half(n: int) -> int:
    """n/2 exactly; every surface invariant is a half whose numerator is
    even because theta = d (mod 2), so an odd n is a defect."""
    q, r = divmod(n, 2)
    if r:
        raise InternalDiscrepancy("theta and d must have the same parity")
    return q


def _validate_surface(a: int, b: int, d: int):
    if not (0 < a < b < d):
        raise ValueError(f"need 0 < a < b < d, got (a, b, d) = ({a}, {b}, {d})")
    if math.gcd(a, b, d) != 1:
        raise ValueError(f"gcd(a, b, d) must be 1, got ({a}, {b}, {d})")


def _lambda_mu(a: int, b: int, d: int) -> tuple[int, int, int, int]:
    """(gcd(a,d), d', lambda, mu) with b = lambda*a' + mu*d', 0 < lambda <= d'."""
    g = math.gcd(a, d)
    a_prime = a // g
    d_prime = d // g
    lam = b * pow(a_prime, -1, d_prime) % d_prime
    if lam == 0:
        lam = d_prime
    mu = (b - lam * a_prime) // d_prime
    return g, d_prime, lam, mu


def _reduced_count(first: int, second: int, d: int, t: int) -> int:
    """Solutions of the scaled systems for the weight pair (first, second).

    The variable attached to `second` is divided by g = gcd(first, d);
    with lambda chosen so second = lambda*(first/g) + mu*(d/g), the
    scaled systems have y1 + lambda*y2' equal to a multiple of d/g at
    most t*lambda*(d/g), restricted by y1 + g*y2' <= t*d.  The
    derivation needs gcd(first, d) <= gcd(second, d).  y2' stops at t*d',
    where both bounds on y1, g*(t*d' - y2') and lambda*(t*d' - y2'), reach 0.
    """
    g, d_prime, lam, _ = _lambda_mu(first, second, d)
    total = t * d
    count = 0
    for y2 in range(t * d_prime + 1):
        upper = min(total - g * y2, t * lam * d_prime - lam * y2)
        # y1 = -lam*y2' (mod d') within [0, upper]
        rem = (-lam * y2) % d_prime
        if rem <= upper:
            count += (upper - rem) // d_prime + 1
    return count


def hf_reduced(a: int, b: int, d: int, t: int) -> int:
    """Hilbert function value by counting the reduced systems.

    The reduction is applied on the weight whose gcd with d is smaller
    (the two roles are symmetric; the scaled-system count is only valid
    from that side).  Must agree with hf_by_counting.
    """
    _validate_surface(a, b, d)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1
    if math.gcd(a, d) <= math.gcd(b, d):
        return _reduced_count(a, b, d, t)
    return _reduced_count(b, a, d, t)


class SurfaceProfile(NamedTuple):
    """Derived scalars of the GT-surface for weights (0, a, b) mod d.

    theta holds the gcd-formula value; mu_d holds the enumeration count
    of degree-d invariants.  consistent says whether they agree via
    mu_d = (d + theta + 2) / 2.  When they disagree both values stay
    available (theta_from_count, mu_d_from_theta) and every consumer
    can see the flag.  mu_d_from_theta, codim and cm_type are exact
    halves of theta and d; a theta whose parity differs from d's raises
    InternalDiscrepancy on reading any of them.
    """

    a: int
    b: int
    d: int
    gcd_ad: int
    gcd_bd: int
    a_prime: int
    b_prime: int
    d_prime: int
    d_second: int
    lam: int
    mu: int
    theta: int
    mu_d: int

    @property
    def theta_from_count(self) -> int:
        return 2 * self.mu_d - self.d - 2

    @property
    def mu_d_from_theta(self) -> int:
        return _half(self.d + self.theta + 2)

    @property
    def consistent(self) -> bool:
        return self.theta == self.theta_from_count

    @property
    def degree(self) -> int:
        return self.d

    @property
    def codim(self) -> int:
        return _half(self.d + self.theta - 4)

    @property
    def cm_type(self) -> int:
        return _half(self.d - self.theta + 2)

    @property
    def reg(self) -> int:
        return 3

    @property
    def action(self) -> CyclicAction:
        return CyclicAction(self.d, (0, self.a, self.b))

    @property
    def flags(self) -> tuple[str, ...]:
        if self.consistent:
            return ()
        return (f"theta formula {self.theta} disagrees with counted value "
                f"{self.theta_from_count} (mu_d = {self.mu_d})",)

    def to_dict(self) -> dict:
        return {
            "a": self.a, "b": self.b, "d": self.d,
            "gcd_ad": self.gcd_ad, "gcd_bd": self.gcd_bd,
            "a_prime": self.a_prime, "b_prime": self.b_prime,
            "d_prime": self.d_prime, "d_second": self.d_second,
            "lambda": self.lam, "mu": self.mu,
            "theta": self.theta, "theta_from_count": self.theta_from_count,
            "mu_d": self.mu_d, "consistent": self.consistent,
            "degree": self.degree, "codim": self.codim,
            "cm_type": self.cm_type, "reg": self.reg,
        }


def surface_profile(a: int, b: int, d: int) -> SurfaceProfile:
    """Compute every derived scalar for the surface with weights (0, a, b)."""
    _validate_surface(a, b, d)
    g_a, d_prime, lam, mu = _lambda_mu(a, b, d)
    g_b = math.gcd(b, d)
    theta = g_a + math.gcd(lam, d_prime) + math.gcd(lam - g_a, d_prime)
    return SurfaceProfile(
        a=a, b=b, d=d,
        gcd_ad=g_a, gcd_bd=g_b,
        a_prime=a // g_a, b_prime=b // g_b,
        d_prime=d_prime, d_second=d // g_b,
        lam=lam, mu=mu,
        theta=theta, mu_d=count_invariants(CyclicAction(d, (0, a, b)), 1),
    )


def hf_closed_form(profile: SurfaceProfile, t: int) -> int:
    """Evaluate (d*t^2 + theta*t + 2) / 2 exactly.

    The numerator is odd only if t is odd and theta and d differ in
    parity; that raises InternalDiscrepancy.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _half(profile.d * t * t + profile.theta * t + 2)


class HilbertData(NamedTuple):
    """Hilbert polynomial, series numerator and value table of a surface."""

    polynomial: tuple[Fraction, Fraction, Fraction]  # leading first
    numerator: tuple[int, int, int]                  # constant first
    table: tuple[int, ...]                           # t = 0..horizon

    def to_dict(self) -> dict:
        return {
            "polynomial": [str(c) for c in self.polynomial],
            "series_numerator": list(self.numerator),
            "series_pole_order": 3,
            "table": list(self.table),
        }


def hilbert_series(profile: SurfaceProfile, horizon: int = 6) -> HilbertData:
    """Closed-form Hilbert data: polynomial, series and HF(t), t <= horizon.

    The numerator is 1 + codim z + cm_type z^2 over (1-z)^3.  Its
    expansion is the closed form (d t^2 + theta t + 2)/2 for every t, an
    identity of the two halves that a Tier-1 test holds over a (d, theta)
    grid; the table is the closed form itself.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    numerator = (1, profile.codim, profile.cm_type)
    table = tuple(hf_closed_form(profile, t) for t in range(horizon + 1))
    poly = (Fraction(profile.d, 2), Fraction(profile.theta, 2), Fraction(1))
    return HilbertData(poly, numerator, table)


def catalog_theta(a: int, b: int, d: int) -> int | None:
    """theta value reported in the previously published d = 4, 6, 8 tables.

    Returns None outside those degrees.  Some published entries are
    known misprints (they would make mu_d non-integral); they are kept
    verbatim so that discrepancies against counting can be reported.
    """
    _validate_surface(a, b, d)
    if d == 4:
        return 4
    if d == 6:
        if (a, b) in {(1, 2), (1, 5), (4, 5)}:
            return 4
        return 5
    if d == 8:
        if (a == 1 and b in (4, 5)) or (a == 3 and b in (4, 7)) or a == 4:
            return 5
        return 4
    return None


def catalog_notes(profile: SurfaceProfile) -> tuple[str, ...]:
    """Notes on mismatches between counted theta and the published tables.

    These are honesty notes about the reference catalogue, not internal
    inconsistencies; all computation routes still agree with each other.
    """
    published = catalog_theta(profile.a, profile.b, profile.d)
    if published is None or published == profile.theta_from_count:
        return ()
    return ((f"published catalogue reports theta({profile.a},{profile.b},"
             f"{profile.d}) = {published} but counting gives "
             f"{profile.theta_from_count}; the counted value is used"),)
