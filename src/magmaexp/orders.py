"""Multiplicative orders of 2, Wieferich exponents, and Mersenne factorizations.

For an odd prime p, the order of 2 modulo p is the least n with p dividing
2**n - 1, and the Wieferich exponent is the exact power of p dividing that
first Mersenne multiple.  Those two numbers determine the p-adic valuation
of every Mersenne number:

    valuation_p(2**n - 1) = wieferich_exponent(p) + valuation_p(n)

when order(p) divides n, and 0 otherwise.  Complete factorizations of
Mersenne numbers are cross-checked against this law factor by factor.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from .errors import BoundExceededError, InvariantError
from .primes import _primes_between, divisors, factorize, is_prime, valuation

DEFAULT_FACTOR_BOUND = 64
FACTOR_BOUND_ENV = "MAGMAEXP_FACTOR_BOUND"
WIEFERICH_SEARCH_CAP = 10_000_000


def factor_bound() -> int:
    """Exponent bound for complete Mersenne factorizations.

    Defaults to DEFAULT_FACTOR_BOUND; the environment variable named by
    FACTOR_BOUND_ENV overrides it (read at call time, not import time).
    """
    raw = os.environ.get(FACTOR_BOUND_ENV)
    if raw is None:
        return DEFAULT_FACTOR_BOUND
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{FACTOR_BOUND_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{FACTOR_BOUND_ENV} must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class OrderRecord:
    """Order of 2 modulo an odd prime p, with its Wieferich exponent."""

    p: int
    order: int
    wieferich_exponent: int


@lru_cache(maxsize=None)
def order_record(p: int) -> OrderRecord:
    """Cached order data for an odd prime p; rejects 2 and composites."""
    if p == 2:
        raise ValueError("p = 2 divides no Mersenne number; no order exists")
    if p < 3 or not is_prime(p):
        raise ValueError(f"order_record needs an odd prime, got {p}")
    order = p - 1
    for q in factorize(p - 1):
        while order % q == 0 and pow(2, order // q, p) == 1:
            order //= q
    exponent = 1
    while pow(2, order, p ** (exponent + 1)) == 1:
        exponent += 1
    if (p - 1) % order or pow(2, order, p) != 1 or (1 << order) <= p:
        raise InvariantError(f"order computation broke its contract at p={p}")
    return OrderRecord(p, order, exponent)


def mersenne_order(p: int) -> int:
    """Least n >= 1 with p dividing 2**n - 1, for an odd prime p."""
    return order_record(p).order


def wieferich_exponent(p: int) -> int:
    """Exact power of p dividing 2**mersenne_order(p) - 1.

    Computed by modular exponentiation modulo growing powers of p; the
    Mersenne number itself is never materialized.
    """
    return order_record(p).wieferich_exponent


def mersenne_valuation(p: int, n: int) -> int:
    """p-adic valuation of 2**n - 1; returns 0 for p = 2 (Mersenne numbers are odd)."""
    if n < 1:
        raise ValueError(f"mersenne numbers are indexed from 1, got n={n}")
    if p == 2:
        return 0
    record = order_record(p)
    if n % record.order:
        return 0
    return record.wieferich_exponent + valuation(n, p)


def factor_mersenne(n: int, bound: int | None = None) -> dict[int, int]:
    """Complete prime factorization of 2**n - 1 as {prime: exponent}.

    Refuses exponents beyond the factoring bound (see factor_bound) so that
    runtimes stay predictable.  Every returned exponent is cross-checked
    against the order/Wieferich valuation law, and the product is checked to
    reassemble 2**n - 1 exactly.
    """
    if n < 1:
        raise ValueError(f"mersenne numbers are indexed from 1, got n={n}")
    _check_factor_bound(n, bound)
    return dict(_factor_mersenne(n))


def _check_factor_bound(n: int, bound: int | None) -> None:
    """Refuse to factor 2**n - 1 past bound, or past factor_bound() if None."""
    limit = factor_bound() if bound is None else bound
    if n > limit:
        raise BoundExceededError(
            f"factoring bound exceeded: exponent {n} > {limit}; "
            f"raise the bound explicitly or via {FACTOR_BOUND_ENV}"
        )


@lru_cache(maxsize=None)  # one int per d reached; all d <= 1,500 take 127 KiB
def _cyclotomic_at_2(d: int) -> int:
    """Phi_d(2), the d-th cyclotomic polynomial at 2, for d >= 1.

    2**d - 1 is the product of the Phi_e(2) over e | d, so this is 2**d - 1
    divided exactly by those of the proper divisors; a remainder is a bug.
    """
    below = prod(_cyclotomic_at_2(e) for e in divisors(d)[:-1])
    value, remainder = divmod((1 << d) - 1, below)
    if remainder:
        raise InvariantError(f"Phi_{d}(2) is not an integer")
    return value


@lru_cache(maxsize=None)
def _factor_mersenne(n: int) -> tuple[tuple[int, int], ...]:
    factors: dict[int, int] = {}
    # 2**n - 1 is the product of Phi_d(2) over d | n.  The primes of Phi_d(2)
    # have order d, so are 1 mod lcm(2, d), but for at most one prime of d
    for d in divisors(n):
        for p, e in factorize(_cyclotomic_at_2(d), one_mod=lcm(2, d)).items():
            factors[p] = factors.get(p, 0) + e
    product = 1
    for p, e in factors.items():
        if e != mersenne_valuation(p, n):
            raise InvariantError(
                f"exponent of {p} in 2**{n}-1 disagrees with the valuation law"
            )
        product *= p**e
    if product != (1 << n) - 1:
        raise InvariantError(f"factorization of 2**{n}-1 does not reassemble")
    return tuple(sorted(factors.items()))


def pi_m(x: int, bound: int | None = None) -> tuple[int, list[int]]:
    """Count and list the odd primes whose order of 2 is at most x - 1.

    These are exactly the primes dividing the Mersenne factorial (x-1)!_M.
    A second convention in circulation counts orders up to x instead; that
    variant is pi_m(x + 1) and the command line exposes both.
    """
    if x < 2:
        raise ValueError(f"pi_m needs x >= 2, got {x}")
    _check_factor_bound(x - 1, bound)
    support: set[int] = set()
    for i in range(1, x):
        support.update(p for p, _ in _factor_mersenne(i))
    primes = sorted(support)
    return len(primes), primes


_WIEFERICH_BLOCK = 1 << 16


@lru_cache(maxsize=None)  # 153 blocks reach the cap: at most 153 small tuples
def _wieferich_block(j: int) -> tuple[int, ...]:
    """The primes p in (j * 2**16, (j + 1) * 2**16] with 2**(p-1) == 1 (mod p**2)."""
    low = j * _WIEFERICH_BLOCK
    primes = _primes_between(low, low + _WIEFERICH_BLOCK)
    # 2 fails the criterion: 2**1 % 4 == 2
    return tuple(p for p in primes if pow(2, p - 1, p * p) == 1)


def wieferich_search(limit: int) -> list[int]:
    """Odd primes p <= limit whose Wieferich exponent is at least 2.

    Uses the classical criterion 2**(p-1) == 1 (mod p**2), which is
    equivalent: the order of 2 modulo p**2 is either order(p) or
    p * order(p), and only the former divides p - 1.  The range is searched
    in cached blocks of 2**16, so a block is sieved once per process.
    """
    limit = operator.index(limit)
    if limit < 0:
        raise ValueError(f"wieferich_search needs limit >= 0, got {limit}")
    if limit > WIEFERICH_SEARCH_CAP:
        raise BoundExceededError(
            f"search limit {limit} exceeds the cap {WIEFERICH_SEARCH_CAP}"
        )
    blocks = -(-limit // _WIEFERICH_BLOCK)
    return [p for j in range(blocks) for p in _wieferich_block(j) if p <= limit]
