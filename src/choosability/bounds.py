"""Bounds on the separation choosability of complete graphs.

chi(n, c) here is the least list size k such that K_n is colorable from
every assignment of k-color lists whose pairwise intersections have size
at most c. Each bound is one function of (n, c) returning (value,
provenance): `lower_bound_constructive` (the finite-field instances or a
square-root fallback) and the Hall-threshold `upper_bound`;
`bounds_reports` composes them with an asymptotic term, and `exact_window`
gives the windows of n where the value is known exactly.

Every threshold comparison runs on exact integers or rationals: several
window endpoints (for example n = 15 at c = 1) are tight, and floating
point could misclassify them. Each bound takes O(polylog n) time: the Hall
threshold is closed-form and the lower bounds step down over q = 1 (mod c)
with `gf.is_prime`, so past its exact range (q >= psi_13, about 3.3e24,
so n beyond about 1e48/c) they raise ValueError instead of guessing.
A range (`bounds --range`) derives each step function of n that the bounds
read once per step, not once per row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .gf import NotPrimePower, factor_prime_power, iroot, is_prime


class DegenerateDenominator(ValueError):
    """A bound formula was evaluated where its denominator is not positive."""


class AdmissibilityViolated(ValueError):
    """(q, c) does not satisfy: q a prime power, c | q-1, c < q-1."""


def is_admissible(q: int, c: int) -> bool:
    """True iff q is a prime power with c dividing q-1 and c < q-1.

    Raises ValueError for some q >= psi_13, where is_prime cannot decide."""
    if c < 1 or (q - 1) % c or c >= q - 1:
        return False
    try:
        factor_prime_power(q)
    except NotPrimePower:
        return False
    return True


def check_admissible(q: int, c: int) -> None:
    if not is_admissible(q, c):
        raise AdmissibilityViolated(
            f"(q={q}, c={c}) needs q a prime power, c | q-1 and c < q-1"
        )


# -- prime searches and integer roots -----------------------------------------

def _largest_admissible(q_cap: int, c: int) -> int | None:
    """Largest admissible prime power q <= q_cap, else None."""
    for q in range(q_cap - (q_cap - 1) % c, c + 1, -c):
        if is_admissible(q, c):
            return q
    return None


def icbrt_ceil(n: int) -> int:
    """Smallest t >= 0 with t**3 >= n."""
    if n <= 0:
        return 0
    t = iroot(n, 3)
    return t if t ** 3 == n else t + 1


def _ceil_sqrt_half(x: int) -> int:
    """Smallest t >= 0 with 2 * t**2 >= x, i.e. ceil(sqrt(x / 2)) exactly, for x >= 1."""
    # 2*t^2 >= x iff t^2 >= ceil(x/2), and isqrt(m-1)+1 is the least t with t^2 >= m
    return math.isqrt((x - 1) // 2) + 1


# -- bound formulas -----------------------------------------------------------

def johnson_bound(m: int, k: int, c: int) -> Fraction:
    """Johnson's set-union bound: m sets of size >= k with pairwise
    intersections <= c cover at least m*k^2 / (m*c + k - c) points."""
    if m < 1 or k < 1:
        raise ValueError(f"need m >= 1 and k >= 1, got m={m}, k={k}")
    den = m * c + k - c
    if den <= 0:
        raise DegenerateDenominator(f"m*c + k - c = {den} must be positive")
    return Fraction(m * k * k, den)


def vertex_count_bound(q: int, c: int) -> Fraction:
    """Minimum vertex count of a q-uniform hypergraph with q+2 edges whose
    pairwise intersections have size at most c-1.

    Evaluates (q^2 + q*(c+3)/(c+1) - 2*(c-1)/(c+1)) / c as an exact
    rational; for c = 1 this is q^2 + 2q (disjoint edges, tight).
    """
    if q < 1 or c < 1:
        raise ValueError(f"need q >= 1 and c >= 1, got q={q}, c={c}")
    return Fraction(q * q * (c + 1) + (c + 3) * q - 2 * (c - 1), c * (c + 1))


def johnson_threshold(q: int, c: int) -> Fraction:
    """Alternative threshold q^2*(q+2) / (c*(q+1) - 1) obtained from
    Johnson's bound; it never exceeds vertex_count_bound when q >= c-1, as
    every admissible pair has, but can below (q=1, c=3 gives 3/5 against
    1/2: see test_criterion_5_threshold_dominance_full_box_as_stated)."""
    if q < 1 or c < 1:
        raise ValueError(f"need q >= 1 and c >= 1, got q={q}, c={c}")
    den = c * (q + 1) - 1
    if den <= 0:
        raise DegenerateDenominator(f"c*(q+1) - 1 = {den} must be positive")
    return Fraction(q * q * (q + 2), den)


# -- derived bounds on chi ----------------------------------------------------

def _hall_q(n: int, c: int) -> int:
    """Smallest positive integer q with n <= vertex_count_bound(q, c)."""
    # n <= (q^2*(c+1) + (c+3)q - 2(c-1)) / (c*(c+1)) as a*q^2 + b*q >= target;
    # the floored positive root of that increasing quadratic is at most the
    # answer and, with isqrt's rounding, short of it by at most one
    a, b, target = c + 1, c + 3, n * c * (c + 1) + 2 * (c - 1)
    q = max(1, (math.isqrt(b * b + 4 * a * target) - b) // (2 * a))
    while a * q * q + b * q < target:
        q += 1
    return q


def _upper(n: int, hall_q: int) -> tuple[int, str]:
    """`upper_bound` at n, given hall_q = _hall_q(n, c)."""
    return (n, "trivial-n") if n <= hall_q else (hall_q + 1, "hall-threshold")


def upper_bound(n: int, c: int) -> tuple[int, str]:
    """Least k known to color every (k,c)-assignment on K_n, as (value,
    provenance): (q*+1, "hall-threshold") for the smallest integer q* whose
    Hall threshold reaches n, or (n, "trivial-n") when n < q*+1, since lists
    of size n always admit a saturating matching."""
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    return _upper(n, _hall_q(n, c))


def _constructive(n: int, c: int, q: int | None) -> tuple[int, str]:
    """`lower_bound_constructive` at n, given q = _largest_admissible(_q_cap(n, c), c)."""
    fallback = _ceil_sqrt_half(c * n)
    return (q + 1, "constructive") if q is not None and q + 1 >= fallback else (fallback, "ktv")


def lower_bound_constructive(n: int, c: int) -> tuple[int, str]:
    """Best available lower bound from hard instances, as (value, provenance).

    Takes q+1 for the largest admissible prime power q whose hard instance
    fits inside K_n (needs (q^2-1)/c + 2 <= n), and falls back to the
    general bound ceil(sqrt(c*n/2)) when that is larger or no q fits.
    Provenance is "constructive" or "ktv" accordingly. q is found by
    stepping down from isqrt(c*(n-2)+1), so this raises ValueError where
    is_admissible does.
    """
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    return _constructive(n, c, _largest_admissible(_q_cap(n, c), c))


def _q_cap(n: int, c: int) -> int:
    """isqrt(c*(n-2)+1), the largest q whose instance can fit in K_n; 0 at n = 1."""
    return math.isqrt(c * (n - 2) + 1) if n >= 2 else 0


@dataclass(frozen=True)
class ExactWindow:
    """Closed interval of n on which chi(n, c) equals `value` exactly."""

    n_lo: int
    n_hi: int
    value: int


def exact_window(q: int, c: int) -> ExactWindow:
    """The interval of n where the (q, c) hard instance meets the Hall
    threshold, pinning chi(n, c) = q + 1."""
    check_admissible(q, c)
    n_lo = (q * q - 1) // c + 2
    n_hi = math.floor(vertex_count_bound(q, c))
    return ExactWindow(n_lo=n_lo, n_hi=n_hi, value=q + 1)


def ktv_reference_bounds(n: int, c: int) -> tuple[float, float]:
    """General-purpose reference interval (sqrt(c*n/2), sqrt(2*e*c*n)).

    Display-only floats; never used in exact threshold logic. Raises
    ValueError when either end is past the float range, which JSON cannot
    carry.
    """
    if n < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={n}, c={c}")
    try:
        low, high = math.sqrt(c * n / 2), math.sqrt(2 * math.e * c * n)
    except OverflowError:  # c*n itself is past the float range
        low = high = math.inf
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("need c*n within the float range for the reference "
                         f"interval, got n={n}, c={c}")
    return low, high


@dataclass(frozen=True)
class BoundsReport:
    """Consolidated lower/upper/exact values for one (n, c)."""

    n: int
    c: int
    lower: int
    lower_provenance: str  # "constructive" | "ktv" | "asymptotic"
    upper: int
    upper_provenance: str  # "hall-threshold" | "trivial-n"
    exact: int | None


def bounds_reports(lo: int, hi: int, c: int) -> Iterator[BoundsReport]:
    """Best lower and upper bounds for (n, c), n = lo..hi, with the exact value
    where they meet: the asymptotic term replaces the constructive bound where
    strictly larger, and the lower bound is clamped at n, since n colors suffice.

    Each input is a non-decreasing step function of n, derived again only
    past the last n of its step: q_cap and its largest admissible q at
    ((q_cap+1)^2-2)//c + 2; the two primes that can let the asymptotic term win
    there or at ceil(n^(1/3))^3; the Hall q at floor(vertex_count_bound(hall_q, c)).
    """
    if lo < 1 or c < 1:
        raise ValueError(f"need n >= 1 and c >= 1, got n={lo}, c={c}")
    q_last = window_last = hall_last = lo - 1
    for n in range(lo, hi + 1):
        if n > window_last:
            if n > q_last:
                q_cap = _q_cap(n, c)
                q, q_last = _largest_admissible(q_cap, c), ((q_cap + 1) ** 2 - 2) // c + 2
            top, cube = q_cap + 1, icbrt_ceil(n)
            window_last = min(q_last, cube ** 3)
            # the term top - cube needs a prime p = 1 (mod c) in [max(2, top - cube), top]
            # and wins only at p = top, whose instance does not fit in K_n (ROADMAP item 8),
            # or p = c + 1, not admissible: any other p is an admissible q <= q_cap, so the
            # constructive bound is at least p + 1 > top - cube. The largest candidate goes
            # first, so is_prime refuses past psi_13 where a search of the window would. The
            # term has no floor at 1, which could never beat a lower bound >= 1
            lo_w, first = max(2, top - cube), top - (top - 1) % c
            asymptotic = top - cube if first >= lo_w and (
                is_prime(first) and first == top or c + 1 >= lo_w and is_prime(c + 1)) else None
        if n > hall_last:
            hall_q = _hall_q(n, c)
            hall_last = math.floor(vertex_count_bound(hall_q, c))
        lower, tag = _constructive(n, c, q)
        if asymptotic is not None and asymptotic > lower:
            lower, tag = asymptotic, "asymptotic"
        lower = min(lower, n)
        upper, upper_tag = _upper(n, hall_q)
        yield BoundsReport(n=n, c=c, lower=lower, lower_provenance=tag, upper=upper,
                           upper_provenance=upper_tag, exact=lower if lower == upper else None)


def bounds_report(n: int, c: int) -> BoundsReport:
    """`bounds_reports` at the one n."""
    return next(bounds_reports(n, n, c))
