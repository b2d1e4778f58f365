"""Bound formulas, thresholds, windows, and the consolidated report."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from choosability.bounds import (
    AdmissibilityViolated,
    DegenerateDenominator,
    _hall_q,
    bounds_report,
    bounds_reports,
    exact_window,
    icbrt_ceil,
    is_admissible,
    is_prime,
    johnson_bound,
    johnson_threshold,
    ktv_reference_bounds,
    lower_bound_constructive,
    upper_bound,
    vertex_count_bound,
)
from choosability import bounds
from choosability.gf import _MR_EXACT_BELOW as PSI_13
from conftest import (
    admissible_prime_powers,
    furedi_hypergraph,
    reference_bounds_report,
    reference_lower_bound_constructive,
    trial_division_is_prime,
)


# -- primality and prime powers ------------------------------------------------

def test_is_prime_matches_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # composite numbers that fool small Miller-Rabin base sets
    assert not is_prime(3215031751)            # = 151 * 751 * 28351
    assert not is_prime(3825123056546413051)   # pseudoprime to bases 2..23
    assert not is_prime(318665857834031151167461)  # psi_12, pseudoprime to bases 2..37
    assert is_prime(2 ** 61 - 1)


def test_is_prime_refuses_beyond_exact_range():
    psi_13 = 3317044064679887385961981  # pseudoprime to bases 2..41
    assert not is_prime(psi_13 - 1)  # even, and still inside the exact range
    with pytest.raises(ValueError):
        is_prime(psi_13)


def test_admissible_prime_powers_examples():
    assert admissible_prime_powers(2, 10) == [5, 7, 9]
    assert admissible_prime_powers(1, 5) == [3, 4, 5]
    assert admissible_prime_powers(6, 7) == []  # q=7 fails c < q-1


def test_is_admissible():
    assert is_admissible(5, 2)
    assert not is_admissible(4, 3)    # c = q - 1
    assert not is_admissible(7, 4)    # 4 does not divide 6
    assert not is_admissible(6, 1)    # not a prime power


def test_icbrt_ceil():
    for n in range(0, 3000):
        t = icbrt_ceil(n)
        assert t ** 3 >= n
        assert t == 0 or (t - 1) ** 3 < n
    assert icbrt_ceil(10 ** 18) == 10 ** 6
    t = icbrt_ceil(10 ** 400)  # beyond float range
    assert t ** 3 >= 10 ** 400 > (t - 1) ** 3


# -- formulas -----------------------------------------------------------------

def test_johnson_bound_examples():
    assert johnson_bound(1, 7, 3) == 7          # single set
    assert johnson_bound(3, 3, 1) == Fraction(27, 5)
    assert johnson_bound(12, 5, 2) == Fraction(300, 27)


def test_johnson_bound_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        johnson_bound(2, 1, -5)
    with pytest.raises(ValueError):
        johnson_bound(0, 3, 1)


def test_vertex_count_bound_examples():
    assert vertex_count_bound(3, 1) == 15       # 9 + 6
    assert vertex_count_bound(5, 2) == Fraction(49, 3)
    for q in range(1, 30):
        assert vertex_count_bound(q, 1) == q * q + 2 * q


def test_johnson_threshold_examples():
    assert johnson_threshold(3, 1) == 15
    assert johnson_threshold(5, 2) == Fraction(175, 11)
    assert johnson_threshold(1, 1) == 3


def test_johnson_threshold_is_weaker_when_q_at_least_c_minus_1():
    # the "slightly weaker" relation holds exactly on q >= c-1, which
    # contains every admissible pair (those need q >= c+2)
    for q in range(1, 101):
        for c in range(1, 101):
            if q >= c - 1:
                assert johnson_threshold(q, c) <= vertex_count_bound(q, c)


def test_johnson_threshold_can_exceed_vertex_count_bound_for_tiny_q():
    # both are valid lower bounds on the vertex count; neither dominates
    # globally. Smallest crossover: q=1, c=3.
    assert johnson_threshold(1, 3) == Fraction(3, 5)
    assert vertex_count_bound(1, 3) == Fraction(1, 2)
    assert johnson_threshold(1, 3) > vertex_count_bound(1, 3)


def test_johnson_bound_consistent_with_constructions():
    # the uniform hypergraph realizes m = (q^2-1)/c lists of size q with
    # pairwise intersections <= c on (q^2-1)/c vertices, so its vertex
    # count can never undercut Johnson's bound
    for q, c in [(3, 1), (5, 2), (7, 3), (9, 4), (16, 5), (8, 1)]:
        hypergraph = furedi_hypergraph(q, c)
        m = hypergraph.num_colors
        assert m >= math.ceil(johnson_bound(m, q, c))


# -- chi bounds ------------------------------------------------------------------

def test_upper_bound_examples():
    assert upper_bound(14, 2) == (6, "hall-threshold")  # q* = 5 since 14 <= 49/3 and 11 < 14
    assert upper_bound(15, 1) == (4, "hall-threshold")  # exactly at the threshold 15 <= 15
    assert upper_bound(16, 1) == (5, "hall-threshold")
    assert upper_bound(1, 1) == (1, "trivial-n")
    assert upper_bound(1, 7) == (1, "trivial-n")


def test_lower_bound_constructive_examples():
    assert lower_bound_constructive(14, 2) == (6, "constructive")
    assert lower_bound_constructive(10, 1) == (4, "constructive")
    # q = 5 needs n >= 14 and no smaller prime power is admissible at c=2,
    # so the sqrt fallback ceil(sqrt(13)) = 4 wins
    assert lower_bound_constructive(13, 2) == (4, "ktv")


def test_hall_q_is_least_q_meeting_threshold():
    for c in range(1, 9):
        for n in [*range(1, 5001), 10 ** 40]:
            q = _hall_q(n, c)
            assert q >= 1 and n <= vertex_count_bound(q, c), (n, c, q)
            assert q == 1 or n > vertex_count_bound(q - 1, c), (n, c, q)


def _is_prime_power_by_trial_division(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)  # smallest factor, a prime
    while q % p == 0:
        q //= p
    return q == 1


def test_lower_bound_constructive_matches_largest_admissible_prime_power():
    for c in range(1, 9):
        q_caps = {n: math.isqrt(c * (n - 2) + 1) for n in range(2, 3001)}
        admissible = admissible_prime_powers(c, max(q_caps.values()))
        assert admissible == [q for q in range(2, max(q_caps.values()) + 1)
                              if _is_prime_power_by_trial_division(q)
                              and (q - 1) % c == 0 and c < q - 1], c
        for n, q_cap in q_caps.items():
            best = max((q + 1 for q in admissible if q <= q_cap), default=0)
            value, tag = lower_bound_constructive(n, c)
            if tag == "constructive":
                assert value == best, (n, c)
            else:  # the least t >= 1 with 2*t^2 >= c*n, when it beats q+1
                assert tag == "ktv" and value > best, (n, c)
                assert 2 * value ** 2 >= c * n and (value == 1 or 2 * (value - 1) ** 2 < c * n)


def test_exact_window_examples():
    window = exact_window(5, 2)
    assert (window.n_lo, window.n_hi, window.value) == (14, 16, 6)
    window = exact_window(3, 1)
    assert (window.n_lo, window.n_hi, window.value) == (10, 15, 4)
    with pytest.raises(AdmissibilityViolated):
        exact_window(4, 3)


def test_windows_nonempty_up_to_256():
    for q in admissible_prime_powers(1, 256):
        for c in range(1, q - 1):
            if (q - 1) % c == 0:
                window = exact_window(q, c)
                assert window.n_lo <= window.n_hi, (q, c)


def test_window_values_consistent_up_to_31():
    for q in admissible_prime_powers(1, 31):
        for c in range(1, q - 1):
            if (q - 1) % c != 0:
                continue
            window = exact_window(q, c)
            for n in range(window.n_lo, window.n_hi + 1):
                report = bounds_report(n, c)
                assert report.exact == q + 1, (q, c, n, report)


def test_windows_never_conflict():
    for c in range(1, 7):
        assigned: dict[int, int] = {}
        for q in admissible_prime_powers(1, 31):
            if not is_admissible(q, c):
                continue
            window = exact_window(q, c)
            for n in range(window.n_lo, window.n_hi + 1):
                assert assigned.setdefault(n, window.value) == window.value


def test_ktv_reference_bounds():
    lo, hi = ktv_reference_bounds(2, 1)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(3.2974425, abs=1e-4)
    lo, hi = ktv_reference_bounds(14, 2)
    assert lo == pytest.approx(3.7416574, abs=1e-4)
    assert hi == pytest.approx(12.337805, abs=1e-3)
    assert lo < 6 < hi  # brackets the true value
    lo, hi = ktv_reference_bounds(1, 3)
    assert lo == pytest.approx((3 / 2) ** 0.5)


def test_bounds_report_examples():
    report = bounds_report(14, 2)
    assert (report.lower, report.upper, report.exact) == (6, 6, 6)
    report = bounds_report(13, 2)
    assert (report.lower, report.upper, report.exact) == (4, 6, None)
    report = bounds_report(1, 1)
    assert (report.lower, report.upper, report.exact) == (1, 1, 1)


def test_bounds_report_clamps_lower_at_n():
    # the sqrt fallback alone would exceed chi here (c > 2n)
    report = bounds_report(2, 5)
    assert report.lower == report.upper == report.exact == 2


# every (n, c) with n <= 4000 and c <= 8, in four orders, each row checked
# against the reference: a search that kept state between calls must not
# answer one (n, c) with another's result. "shared-q-cap" runs the rows of
# each isqrt(c*(n-2)+1) together, c after c, so state keyed without c meets
# a row with the same q_cap and another c
_SWEEP_ORDERS = {
    "ascending": [(n, c) for c in range(1, 9) for n in range(1, 4001)],
    "descending": [(n, c) for c in range(1, 9) for n in range(4000, 0, -1)],
    "c-interleaved": [(n, c) for n in range(1, 4001) for c in range(1, 9)],
    "shared-q-cap": sorted(((n, c) for n in range(1, 4001) for c in range(1, 9)),
                           key=lambda nc: (bounds._q_cap(*nc), nc[1], nc[0])),
}


@pytest.mark.parametrize("order", sorted(_SWEEP_ORDERS))
def test_sweep_orders_match_reference(order):
    for n, c in _SWEEP_ORDERS[order]:
        report = bounds_report(n, c)
        assert report == reference_bounds_report(n, c), (n, c)
        assert upper_bound(n, c) == (report.upper, report.upper_provenance)
        assert lower_bound_constructive(n, c) == reference_lower_bound_constructive(n, c)


def test_refusal_repeats():
    # q_cap = isqrt(10**50 - 1) is past psi_13, where is_prime refuses
    for _ in range(2):
        with pytest.raises(ValueError, match="is_prime"):
            bounds_report(10 ** 50, 1)
    assert bounds_report(10 ** 49, 1).lower == 3162277660168379331998874


# -- the range walker -----------------------------------------------------------

def _step_ends(c, n_max):
    """The last n of every step the walker keeps, up to n_max: of q_cap, of
    ceil(n^(1/3)) and of the Hall q."""
    q_caps = {bounds._q_cap(n, c) for n in range(1, n_max + 1)}
    ends = {((q_cap + 1) ** 2 - 2) // c + 2 for q_cap in q_caps}
    ends |= {icbrt_ceil(n) ** 3 for n in range(1, n_max + 1)}
    ends |= {math.floor(vertex_count_bound(_hall_q(n, c), c)) for n in range(1, n_max + 1)}
    return sorted(end for end in ends if end <= n_max)


def _assert_walk_matches(lo, hi, c):
    rows = list(bounds_reports(lo, hi, c))
    assert rows == [bounds_report(n, c) for n in range(lo, hi + 1)], (lo, hi, c)
    assert rows == [reference_bounds_report(n, c) for n in range(lo, hi + 1)], (lo, hi, c)


def test_walker_matches_per_n_from_1():
    # c = 10 and 12 reach the rows whose asymptotic term rests on the prime c + 1
    for c in range(1, 17):
        _assert_walk_matches(1, 4000, c)


def test_walker_matches_per_n_around_step_ends():
    # a walk that starts one before, at or one after the last n of a step
    for c in range(1, 9):
        for end in _step_ends(c, 1500):
            for lo in range(max(1, end - 1), end + 2):
                _assert_walk_matches(lo, lo + 6, c)


def test_walker_single_row_and_empty_ranges():
    for c in range(1, 9):
        for n in (1, 2, 3, 14, 15, 16, 999, 10 ** 12 + 123457):
            assert list(bounds_reports(n, n, c)) == [bounds_report(n, c)]
            assert bounds_report(n, c) == reference_bounds_report(n, c)
        assert list(bounds_reports(10, 9, c)) == []
    with pytest.raises(ValueError, match="need n >= 1 and c >= 1, got n=0, c=1"):
        list(bounds_reports(0, 5, 1))


@pytest.mark.parametrize("lo", [10 ** 12, 10 ** 13, 10 ** 18])
def test_walker_matches_reference_at_large_n(lo):
    _assert_walk_matches(lo, lo + 1999, 1000)


@settings(max_examples=100, deadline=None, database=None)
@given(lo=st.integers(1, 10 ** 13), span=st.integers(0, 200), c=st.integers(1, 50))
def test_walker_matches_per_n_property(lo, span, c):
    _assert_walk_matches(lo, lo + span, c)


def test_walker_searches_once_per_step(monkeypatch):
    calls = []
    for name in ("is_prime", "is_admissible"):
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *a, real=real: calls.append(1) or real(*a))
    for c in range(1, 9):
        calls.clear()
        rows = list(bounds_reports(1, 4000, c))
        steps = (len({bounds._q_cap(n, c) for n in range(1, 4001)})
                 + len({icbrt_ceil(n) for n in range(1, 4001)}))
        assert len(rows) == 4000 and len(calls) <= 8 * steps, (c, len(calls), steps)


# the first n at c = 1 whose window search starts at psi_13: its q_cap is psi_13 - 1
FIRST_REFUSED = (PSI_13 - 1) ** 2 + 1


def test_refusal_inside_a_range():
    assert bounds_report(FIRST_REFUSED - 1, 1) == reference_bounds_report(FIRST_REFUSED - 1, 1)
    with pytest.raises(ValueError) as per_n:
        bounds_report(FIRST_REFUSED, 1)
    assert str(per_n.value) == f"is_prime is exact only below {PSI_13}, got {PSI_13}"
    walk = bounds_reports(FIRST_REFUSED - 3, FIRST_REFUSED + 3, 1)
    assert [next(walk).n for _ in range(3)] == list(range(FIRST_REFUSED - 3, FIRST_REFUSED))
    with pytest.raises(ValueError) as in_range:
        next(walk)
    assert str(in_range.value) == str(per_n.value)


# c = (psi_13 + 1) / 2 at n = 4c + 6: q_cap = 2c + 1 = psi_13 + 2 is no prime power by trial
# division, so is_prime sees only the window's largest candidate, 2c + 1 again, and refuses
REFUSED_C = (PSI_13 + 1) // 2
REFUSED_N = 4 * REFUSED_C + 6


@pytest.mark.parametrize("report", [bounds_report, reference_bounds_report])
def test_refusal_at_the_largest_window_candidate(report):
    with pytest.raises(ValueError) as refused:
        report(REFUSED_N, REFUSED_C)
    assert str(refused.value) == f"is_prime is exact only below {PSI_13}, got {PSI_13 + 2}"


def test_sandwich_small_sweep():
    for c in range(1, 4):
        for n in range(1, 301):
            report = bounds_report(n, c)
            assert 1 <= report.lower <= report.upper <= n or n == 0, (n, c, report)
