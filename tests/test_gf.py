"""Finite-field arithmetic, modulus selection, and multiplicative structure."""

import itertools
import math
import random

import pytest

from choosability.gf import (
    FiniteField,
    NotPrimePower,
    factor_prime_power,
    iroot,
)
from conftest import totient, trial_division_is_prime

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def prime_powers_between(lo, hi):
    out = []
    for q in range(lo, hi + 1):
        try:
            factor_prime_power(q)
        except NotPrimePower:
            continue
        out.append(q)
    return out


# -- prime powers and modulus selection --------------------------------------

def test_factor_prime_power():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(243) == (3, 5)
    assert factor_prime_power(43 ** 13) == (43, 13)
    assert factor_prime_power((2 ** 61 - 1) ** 2) == (2 ** 61 - 1, 2)
    assert factor_prime_power(3 ** 80) == (3, 80)


def test_factor_prime_power_matches_trial_division():
    for q in range(2, 20000):
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        m, rest = 0, q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest == 1:
            assert trial_division_is_prime(p) and factor_prime_power(q) == (p, m), q
        else:
            with pytest.raises(NotPrimePower):
                factor_prime_power(q)


def test_iroot_is_floor_of_root():
    rng = random.Random(7)
    cases = [(n, k) for n in range(0, 3000) for k in range(1, 7)]
    cases += [(rng.getrandbits(rng.randrange(1, 400)), rng.randrange(1, 30)) for _ in range(3000)]
    cases += [(10 ** 400, 3), ((2 ** 61 - 1) ** 2, 2), (43 ** 13 - 1, 13)]
    for n, k in cases:
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k, (n, k)
    with pytest.raises(ValueError):
        iroot(-1, 2)


# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to bases 2..37
@pytest.mark.parametrize("bad", [0, 1, 6, 12, 100, 6 ** 20, 1009 * 1013,
                                 318665857834031151167461])
def test_not_prime_power(bad):
    with pytest.raises(NotPrimePower):
        factor_prime_power(bad)
    with pytest.raises(NotPrimePower):
        FiniteField(bad)


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _monic(p, degree):
    for coeffs in itertools.product(range(p), repeat=degree):
        yield coeffs + (1,)


def _irreducibles_by_products(p, m):
    """Independent oracle: a monic degree-m polynomial is reducible iff it
    is a product of two monic polynomials of positive degree."""
    reducible = set()
    for d in range(1, m // 2 + 1):
        for g in _monic(p, d):
            for h in _monic(p, m - d):
                reducible.add(_poly_mul(g, h, p))
    return [f for f in _monic(p, m) if f not in reducible]


def test_modulus_gf4_is_unique_irreducible_quadratic():
    irreducibles = _irreducibles_by_products(2, 2)
    assert irreducibles == [(1, 1, 1)]
    assert FiniteField(4).modulus == (1, 1, 1)


def test_modulus_gf9():
    assert FiniteField(9).modulus == (1, 0, 1)
    assert (1, 0, 1) in _irreducibles_by_products(3, 2)


def test_prime_field_has_no_modulus():
    field = FiniteField(5)
    assert field.p == 5 and field.m == 1
    assert field.modulus is None


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256])
def test_modulus_is_lex_smallest_irreducible(q):
    p, m = factor_prime_power(q)
    irreducibles = _irreducibles_by_products(p, m)
    assert FiniteField(q).modulus == min(irreducibles)


# -- arithmetic ----------------------------------------------------------------

def test_gf5_examples():
    field = FiniteField(5)
    assert field.mul(2, 3) == 1  # 6 mod 5
    assert field.add(4, 3) == 2
    assert field.neg(2) == 3


def test_gf4_extension_multiplication():
    # index 2 is x; x * x = x + 1 modulo x^2 + x + 1, which is index 3
    field = FiniteField(4)
    assert field.mul(2, 2) == 3


def test_additive_inverse_everywhere():
    for q in PRIME_POWERS_16:
        field = FiniteField(q)
        for x in range(field.q):
            assert field.add(x, field.neg(x)) == 0


def test_inverse_of_zero_raises():
    for q in (5, 9):
        with pytest.raises(ZeroDivisionError):
            FiniteField(q).inv(0)


def test_operand_range_checked():
    field = FiniteField(5)
    with pytest.raises(ValueError):
        field.add(5, 0)
    with pytest.raises(ValueError):
        field.mul(0, -1)
    for slope, intercept in ((5, 0), (0, 5), (-1, 0), (0, -1), (1.0, 0), (0, None)):
        with pytest.raises(ValueError):
            field.line(slope, intercept)
    # bool is an int subclass, but True and False are not the elements 1 and 0
    for flag in (True, False):
        for call in (lambda: field.line(flag, 0), lambda: field.line(0, flag),
                     lambda: field.mul(flag, 2), lambda: field.add(flag, 1),
                     lambda: field.inv(flag), lambda: field.pow(flag, 2),
                     lambda: field.neg(flag)):
            with pytest.raises(ValueError):
                call()


@pytest.mark.parametrize("q", prime_powers_between(2, 32) + [49, 64])
def test_line_is_slope_times_x_plus_intercept(q):
    field = FiniteField(q)
    add, mul = field.add, field.mul
    for slope, intercept in itertools.product(range(q), repeat=2):
        assert field.line(slope, intercept) == [add(mul(slope, x), intercept) for x in range(q)]


def _check_laws(field, triples):
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    for x, y, z in triples:
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, 0) == x and mul(x, 1) == x
        assert add(x, neg(x)) == 0
        if x:
            assert mul(x, inv(x)) == 1


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_field_laws_exhaustive_small(q):
    field = FiniteField(q)
    _check_laws(field, itertools.product(range(field.q), repeat=3))


@pytest.mark.parametrize("q", prime_powers_between(17, 256))
def test_field_laws_randomized_to_256(q):
    field = FiniteField(q)
    rng = random.Random(q)
    picks = rng.choices(range(q), k=3 * 10_000)
    _check_laws(field, zip(picks[0::3], picks[1::3], picks[2::3]))


def _poly_rem(f, g, p):
    """Remainder of f modulo the monic g, both constant term first."""
    r = list(f)
    deg = len(g) - 1
    for i in range(len(r) - 1, deg - 1, -1):
        lead = r[i]
        for j in range(deg + 1):
            r[i - deg + j] = (r[i - deg + j] - lead * g[j]) % p
    return r[:deg]


def _check_mul_is_polynomial_product(field, pairs):
    p, m = field.p, field.m
    modulus = field.modulus or (0, 1)  # GF(p) = GF(p)[x]/(x)

    def digits(x):
        out = []
        for _ in range(m):
            x, d = divmod(x, p)
            out.append(d)
        return out

    for x, y in pairs:
        rem = _poly_rem(_poly_mul(digits(x), digits(y), p), modulus, p)
        assert field.mul(x, y) == sum(d * p ** j for j, d in enumerate(rem)), (field, x, y)


@pytest.mark.parametrize("q", prime_powers_between(2, 32))
def test_mul_is_polynomial_product_exhaustive_small(q):
    field = FiniteField(q)
    _check_mul_is_polynomial_product(field, itertools.product(range(field.q), repeat=2))


@pytest.mark.parametrize("q", prime_powers_between(33, 256))
def test_mul_is_polynomial_product_sampled_to_256(q):
    field = FiniteField(q)
    rng = random.Random(q)
    picks = rng.choices(range(q), k=2 * 2_000)
    _check_mul_is_polynomial_product(field, zip(picks[0::2], picks[1::2]))


def test_pow_matches_repeated_multiplication():
    rng = random.Random(7)
    for q in (5, 8, 9, 16):
        field = FiniteField(q)
        for _ in range(50):
            x = rng.randrange(1, q)
            e = rng.randrange(0, 3 * q)
            acc = 1
            for _ in range(e):
                acc = field.mul(acc, x)
            assert field.pow(x, e) == acc


def test_pow_negative_exponent_is_power_of_inverse():
    for q in (5, 8, 9, 16):
        field = FiniteField(q)
        for x in range(1, q):
            for e in range(1, 2 * q):
                assert field.pow(x, -e) == field.inv(field.pow(x, e)), (q, x, e)
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)


def test_pow_of_zero():
    for q in (5, 8, 9, 16):
        field = FiniteField(q)
        assert field.pow(0, 0) == 1
        assert field.pow(0, 3) == 0


# -- multiplicative structure ---------------------------------------------------

def test_orders_divide_group_order_and_counts_match_totient():
    """GF(q)* is cyclic: for every c | q - 1, exactly c nonzero x have
    x^c = 1 (the set `ClassSpace` takes as its subgroup H of order c), and
    totient(c) of them have order exactly c."""
    for q in prime_powers_between(2, 64):
        field = FiniteField(q)
        divisors = [c for c in range(1, q) if (q - 1) % c == 0]
        orders = {}
        for x in range(1, q):
            order = next(d for d in divisors if field.pow(x, d) == 1)
            orders[order] = orders.get(order, 0) + 1
        for c in divisors:
            assert sum(field.pow(x, c) == 1 for x in range(1, q)) == c, (q, c)
            assert orders.get(c, 0) == totient(c), (q, c)
