"""Primality, integer factorization, and valuation helpers.

Everything is exact integer arithmetic.  ``is_prime`` is Miller-Rabin with
the fixed witness set {2, 3, ..., 37}, which is proven deterministic for all
inputs below 3317044064679887385961981 (in particular below 2**64); above
that it is a strong-probable-prime test with the same fixed witnesses, so
results are still reproducible run to run.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, lcm

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Primality of n; deterministic for n < 2**64 (see module docstring)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending (sieve of Eratosthenes)."""
    return _primes_between(0, limit)


def _primes_between(low: int, limit: int) -> list[int]:
    """The primes p with low < p <= limit, ascending.

    A segmented sieve of Eratosthenes (Bays & Hudson, BIT 17, 1977): only
    (low, limit] is sieved, by the base primes up to isqrt(limit), which
    come from the same sieve on (1, isqrt(limit)].  Memory is proportional
    to limit - low.
    """
    low = max(low, 1)
    if limit < low + 1:  # no integer in (low, limit]
        return []
    segment = bytearray([1]) * (limit - low)  # segment[k] stands for low + 1 + k
    for p in _primes_between(1, isqrt(limit)):
        first = max(p * p, (low // p + 1) * p)  # least multiple > low to cross off
        segment[first - low - 1 :: p] = bytearray(len(range(first, limit + 1, p)))
    return list(compress(range(low + 1, limit + 1), segment))


def _brent_rho(n: int, exponent: int) -> int:
    """A nontrivial factor of an odd composite n.

    Brent's cycle variant on y -> y**exponent + c with deterministic
    parameters; the increment c is retried in a fixed order, so runs are
    reproducible.  When every prime factor p of n has exponent | p - 1, the
    powers y**exponent mod p take only (p - 1) / exponent nonzero values, so
    the walk closes about sqrt(exponent - 1) times sooner (Brent & Pollard,
    Math. Comp. 36, 1981).  The walk starts at 3, not 2: modulo a divisor of
    2**k - 1, with an exponent that k divides and c = 1, 2 is a fixed point.
    """
    for c in range(1, 1000):
        y = 3
        m = 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = pow(y, exponent, n) + c
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(m, r - done)):
                    y = pow(y, exponent, n) + c
                    q = q * (x - y) % n
                g = gcd(q, n)
                done += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = pow(ys, exponent, n) + c
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to split {n}")


def factorize(n: int, *, one_mod: int = 1) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; factorize(1) == {}.

    one_mod is a hint that every prime factor of n is 1 modulo it (the
    primitive part of 2**k - 1 has one_mod = lcm(2, k)).  It only speeds up
    the splitter, which then iterates y**lcm(2, one_mod) + c; a wrong hint
    costs time, never correctness, since every factor is still proven by
    is_prime.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    if one_mod < 1:
        raise ValueError(f"one_mod must be >= 1, got {one_mod}")
    exponent = lcm(2, one_mod)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _brent_rho(m, exponent)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """Multiplicity of p in n; requires n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError(f"valuation needs n >= 1 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
