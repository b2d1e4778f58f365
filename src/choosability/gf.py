"""Exact arithmetic in finite fields GF(p^m) at desk scale.

Elements are plain integers in [0, q): the base-p digits of an element are
the coefficients of its polynomial representative (digit j is the
coefficient of x^j), so 0 and 1 are the additive and multiplicative
identities of every field. Extension fields reduce modulo the
lexicographically smallest monic irreducible polynomial, compared
coefficient by coefficient from the constant term up, which keeps every
derived artifact reproducible byte for byte.
"""

from __future__ import annotations

import itertools


class NotPrimePower(ValueError):
    """The requested field order is not p^m for a prime p."""


class OrderUnavailable(ValueError):
    """No element of the requested multiplicative order exists."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to the first 13 prime bases
# (Sorenson and Webster 2015), so these bases are exact below it
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below psi_13 = 3317044064679887385961981.

    The package's only primality test; raises ValueError for larger n rather than guess.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by integer Newton iteration."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= the root; Newton steps fall to the floor
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p**m and p prime, or raise NotPrimePower.

    Past the Miller-Rabin base primes every prime factor exceeds 41, so
    m <= bit_length/5 and p is the exact m-th root that is_prime accepts.
    Raises ValueError from is_prime when that leaves q itself, q >= psi_13.
    """
    if q < 2:
        raise NotPrimePower(f"field order must be at least 2, got {q}")
    for p in _MR_BASES:
        if q % p == 0:
            m, rest = 0, q
            while rest % p == 0:
                rest //= p
                m += 1
            if rest != 1:
                raise NotPrimePower(f"{q} is divisible by two distinct primes")
            return p, m
    for m in range(q.bit_length() // 5, 0, -1):
        p = iroot(q, m)
        if p ** m == q and is_prime(p):
            return p, m
    raise NotPrimePower(f"{q} is not a power of a prime")


def _monic_polys(p: int, degree: int):
    # ascending lexicographic order on (a_0, ..., a_{degree-1}), constant first
    for coeffs in itertools.product(range(p), repeat=degree):
        yield coeffs + (1,)


class FiniteField:
    """Arithmetic context for GF(q), q = p^m, over integer-encoded elements.

    Every field, prime fields included (GF(p) = GF(p)[x]/(x)), builds its
    tables once at construction: addition, negation and multiplication
    tables plus exponent/logarithm tables over a primitive element, so
    every operation is a range check and a lookup. Products, the modulus
    and the primitive element all come from the addition table; every
    result is determined by the modulus choice. `modulus` is None for
    prime fields. The add and mul tables hold q^2 entries each, which
    bounds the field orders worth building.

    Immutable after construction and safe for concurrent reads.
    """

    def __init__(self, q: int):
        p, m = factor_prime_power(q)
        self.q = q
        self.p = p
        self.m = m
        modulus = self._build_tables()
        self.modulus: tuple[int, ...] | None = modulus if m > 1 else None

    def __repr__(self) -> str:
        return f"FiniteField({self.q})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, x: int) -> None:
        # one exact type test: bool, an int subclass, is no field element
        if type(x) is not int or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element of GF({self.q})")

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return self._add[x * self.q + y]

    def neg(self, x: int) -> int:
        self._check(x)
        return self._neg[x]

    def mul(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return self._mul[x * self.q + y]

    def line(self, slope: int, intercept: int) -> list[int]:
        """[slope*x + intercept for x in range(q)]: one row of the
        multiplication table read through one row of the addition table."""
        self._check(slope)
        self._check(intercept)
        q = self.q
        shifted = self._add[intercept * q:(intercept + 1) * q]
        return list(map(shifted.__getitem__, self._mul[slope * q:(slope + 1) * q]))

    def inv(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._exp[-self._log[x] % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        self._check(x)
        if e < 0:
            x, e = self.inv(x), -e
        if x == 0:
            return 1 if e == 0 else 0
        return self._exp[self._log[x] * e % (self.q - 1)]

    # -- internals -----------------------------------------------------------

    def _build_tables(self) -> tuple[int, ...]:
        """Build every table from the addition table; return the modulus."""
        q, p, m = self.q, self.p, self.m
        # digitwise addition: the low digit plus the already tabulated sum
        # of the higher digits, filled in increasing index order
        add = [0] * (q * q)
        for x in range(q):
            for y in range(q):
                add[x * q + y] = (x + y) % p + p * add[x // p * q + y // p]
        self._add = add
        self._neg = neg = [add[x * q:(x + 1) * q].index(0) for x in range(q)]
        top = q // p  # p^(m-1), the place value of the leading digit

        def multiples(g: int) -> list[int]:
            # d*g for d < p, by repeated addition
            out = [0]
            for _ in range(p - 1):
                out.append(add[out[-1] * q + g])
            return out

        def column(g: int, fold: list[int]) -> list[int]:
            # x*g for every x, one digit at a time: x = t*p^j + r with r < p^j
            # gives x*g = t*(X^j*g) + r*g, and r*g is already in the column.
            # X*e shifts e's digits up and adds fold[t] = t*X^m for the
            # leading digit t pushed out.
            col, e = [0], g
            for _ in range(m):
                col = [add[a * q + b] for a in multiples(e) for b in col]
                e = add[e % top * p * q + fold[e // top]]
            return col

        # GF(p)[X]/(f) is a field exactly when it has no zero divisor (Lidl
        # and Niederreiter, Finite Fields, ch. 1). A reducible f is g*h with
        # g monic of degree 1..m//2 and h a nonzero element, so testing
        # those g's columns for a 0 decides f.
        for f in _monic_polys(p, m):
            fold = multiples(neg[sum(a * p ** j for j, a in enumerate(f[:m]))])
            if not any(0 in column(g, fold)[1:]
                       for d in range(1, m // 2 + 1) for g in range(p ** d, 2 * p ** d)):
                break

        for g in range(1, q):
            col = column(g, fold)
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = col[x]
            if len(exp) == q - 1:
                break
        else:
            raise AssertionError(f"no primitive element found in GF({q})")
        log = [0] * q
        for i, val in enumerate(exp):
            log[val] = i
        self._exp, self._log = exp, log
        self._mul = [exp[(log[x] + log[y]) % (q - 1)] if x and y else 0
                     for x in range(q) for y in range(q)]
        return f
