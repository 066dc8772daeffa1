"""Mersenne numbers, Mersenne factorials, and Mersenne binomials.

Mersenne numbers are indexed by every positive exponent, not only prime
ones: the n-th is 2**n - 1.  The Mersenne factorial n!_M is the product of
the first n of them (empty product 1), and the Mersenne binomial is the
factorial quotient n!_M / (r!_M * (n-r)!_M).  That quotient is the product
of the cyclotomic values Phi_d(2) over the d where a base-d carry occurs in
r + (n-r); it is computed that way, from the table of Phi_d(2) in orders,
with no long division of factorials.  It equals the Gaussian binomial
coefficient at q = 2, which this module also computes by an independent
recurrence so the two routes can check each other.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InvariantError
from .orders import _cyclotomic_at_2
from .primes import is_prime


def mersenne(n: int) -> int:
    """The n-th Mersenne number 2**n - 1, for n >= 1."""
    if n < 1:
        raise ValueError(f"mersenne numbers are indexed from 1, got n={n}")
    return (1 << n) - 1


def _product(values: list[int]) -> int:
    """Product of values (1 if empty), split in halves."""
    if len(values) > 16:
        mid = len(values) // 2
        return _product(values[:mid]) * _product(values[mid:])
    product = 1
    for v in values:
        product *= v
    return product


_CHECKPOINT_STEP = 64
_CHECKPOINT_TOP = 2048


def _times_mersennes(x: int, start: int, stop: int) -> int:
    """x times the Mersenne numbers 2**i - 1 for start < i <= stop."""
    for i in range(start + 1, stop + 1):
        x = (x << i) - x
    return x


@lru_cache(maxsize=None)  # asked only for k <= 32: at most 33 ints, about 2.9 MB
def _checkpoint(k: int) -> int:
    """(64 * k)!_M, built from (64 * (k - 1))!_M."""
    if k == 0:
        return 1
    start = (k - 1) * _CHECKPOINT_STEP
    return _times_mersennes(_checkpoint(k - 1), start, start + _CHECKPOINT_STEP)


def mersenne_factorial(n: int) -> int:
    """Product of the first n Mersenne numbers; 1 for n = 0.

    Each factor is a shift and a subtraction, x * (2**i - 1) = (x << i) - x,
    two linear passes where a big multiplication would cost more.  The loop
    resumes from the cached checkpoint (64 * k)!_M with k = min(n // 64, 32):
    below n = 64 it starts from 1, and past 2048 it resumes from 2048!_M.
    """
    if n < 0:
        raise ValueError(f"mersenne_factorial needs n >= 0, got {n}")
    k = min(n // _CHECKPOINT_STEP, _CHECKPOINT_TOP // _CHECKPOINT_STEP)
    return _times_mersennes(_checkpoint(k), k * _CHECKPOINT_STEP, n)


@lru_cache(maxsize=256)
def mersenne_binomial(n: int, r: int) -> int:
    """Mersenne binomial coefficient, as a product of cyclotomic values.

    n!_M is the product of Phi_d(2)**(n // d) over d >= 1, so the quotient
    n!_M / (r!_M * (n-r)!_M) is the product of the Phi_d(2) with
    n // d - r // d - (n - r) // d = 1 (that difference is 0 or 1).  Each
    Phi_d(2) comes from the cached table orders._cyclotomic_at_2, so only the
    d that carry and their divisors are ever computed.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    if r in (0, n):
        return 1  # no d carries; asked by convolution_term and a_hat_recursion_check
    carries = (d for d in range(2, n + 1) if n // d - r // d - (n - r) // d == 1)
    return _product([_cyclotomic_at_2(d) for d in carries])


def gaussian_binomial_at_2(n: int, r: int) -> int:
    """Gaussian (q-)binomial coefficient at q = 2 via the Pascal recurrence.

    Deliberately shares no code with mersenne_binomial: the recurrence
    G(i, j) = G(i-1, j-1) + 2**j * G(i-1, j) builds the value from 1s only,
    so the two functions act as mutual cross-checks.  Only the band of
    entries that reach (n, r) is walked, those with j <= r and
    i - j <= n - r: r * (n - r) additions in place of a triangle of n**2 / 2,
    and the entries left out are the largest ones.
    """
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got n={n}, r={r}")
    band = [1] * (n - r + 1)  # band[m] = G(j + m, j), from j = 0 up to r
    for j in range(1, r + 1):
        for m in range(1, n - r + 1):
            band[m] += band[m - 1] << j
    return band[-1]


def digit_sum(m: int, p: int) -> int:
    """Sum of the base-p digits of m >= 0."""
    if p < 2:
        raise ValueError(f"digit_sum needs a base p >= 2, got {p}")
    if m < 0:
        raise ValueError(f"digit_sum needs m >= 0, got {m}")
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def factorial_valuation(n: int, p: int) -> int:
    """p-adic valuation of n! for prime p, computed two ways.

    Both the floor sum over powers of p and the digit-sum closed form
    (n - digit_sum(n, p)) / (p - 1) are evaluated; disagreement raises.
    """
    if n < 0:
        raise ValueError(f"factorial_valuation needs n >= 0, got {n}")
    if not is_prime(p):
        raise ValueError(f"factorial_valuation needs a prime p, got {p}")
    return _factorial_valuation(n, p)


def _factorial_valuation(n: int, p: int) -> int:
    """factorial_valuation for n >= 0 and a p that already passed is_prime."""
    floor_sum = 0
    q = p
    while q <= n:
        floor_sum += n // q
        q *= p
    closed, remainder = divmod(n - digit_sum(n, p), p - 1)
    if remainder or closed != floor_sum:
        raise InvariantError(
            f"factorial valuation mismatch at n={n}, p={p}: "
            f"floor sum {floor_sum}, digit form {(n - digit_sum(n, p))}/{p - 1}"
        )
    return floor_sum
