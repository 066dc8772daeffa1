"""The factorial Mersenne quotient omega and its prime structure.

omega(n) is the integer 2**(n-1) * (n-1)!_M / n! where k!_M is the Mersenne
factorial.  The first values are 1, 1, 2, 7, 42, 434.  Its p-adic valuation
has a closed form in terms of digit sums and the order/Wieferich data of p,
so the whole factorization can be assembled without ever factoring omega(n)
itself; omega_factorization does exactly that and checks the product against
the direct quotient.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

from .errors import InvariantError
from .mersenne import (
    _factorial_valuation,
    _product,
    digit_sum,
    mersenne_binomial,
    mersenne_factorial,
)
from .orders import order_record, pi_m
from .primes import is_prime


def omega(n: int) -> int:
    """The factorial Mersenne quotient 2**(n-1) * (n-1)!_M / n!, exactly.

    n! is 2**(n - popcount(n)) times an odd part, and (n-1)!_M is odd, so
    omega(n) is (n-1)!_M over the odd part of n!, shifted by popcount(n) - 1;
    the division is exact exactly when the full quotient is.
    """
    if n < 1:
        raise ValueError(f"omega is defined for n >= 1, got {n}")
    ones = n.bit_count()
    quotient, remainder = divmod(mersenne_factorial(n - 1), factorial(n) >> (n - ones))
    if remainder:
        raise InvariantError(f"omega({n}) is not an integer")
    return quotient << (ones - 1)


def _omega_values(n_max: int) -> Iterator[int]:
    """omega(1), ..., omega(n_max), each from the one before.

    omega(n) = omega(n - 1) * 2 * (2**(n-1) - 1) / n, one checked division
    per step, so a table costs no factorial per row; the product by
    2**(n-1) - 1 is a shift and a subtraction.
    """
    value = 1
    for n in range(1, n_max + 1):
        if n > 1:
            value, remainder = divmod(((value << (n - 1)) - value) << 1, n)
            if remainder:
                raise InvariantError(f"omega({n}) is not an integer")
        yield value


def omega_valuation(n: int, p: int) -> int:
    """p-adic valuation of omega(n) from digit sums and order data alone.

    For p = 2 this is digit_sum(n, 2) - 1.  For odd p it is
    e(p) * m - (valuation_p(n!) - valuation_p(m!)) with m = (n-1) // order(p)
    and e(p) the Wieferich exponent.  The literal integer omega(n) is never
    touched, which keeps this usable far beyond where the quotient is cheap.
    """
    if n < 1:
        raise ValueError(f"omega is defined for n >= 1, got {n}")
    if not is_prime(p):
        raise ValueError(f"omega_valuation needs a prime p, got {p}")
    return _omega_valuation(n, p)


def _omega_valuation(n: int, p: int) -> int:
    """omega_valuation for n >= 1 and a p that already passed is_prime."""
    if p == 2:
        return digit_sum(n, 2) - 1
    record = order_record(p)
    m = (n - 1) // record.order
    value = record.wieferich_exponent * m - (
        _factorial_valuation(n, p) - _factorial_valuation(m, p)
    )
    if value < 0:
        raise InvariantError(f"omega_valuation({n}, {p}) came out negative: {value}")
    return value


def omega_factorization(n: int, bound: int | None = None) -> dict[int, int]:
    """Prime factorization of omega(n), assembled valuation by valuation.

    The support is 2 together with the odd primes whose order is at most
    n - 1, read off the factored Mersenne numbers below n.  The reassembled
    product is checked against the direct quotient omega(n) before returning.
    """
    if n < 1:
        raise ValueError(f"omega is defined for n >= 1, got {n}")
    factors: dict[int, int] = {}
    e2 = _omega_valuation(n, 2)
    if e2:
        factors[2] = e2
    # pi_m's primes passed is_prime when their Mersenne numbers were factored
    support = [] if n == 1 else pi_m(n, bound=bound)[1]
    for p in support:
        e = _omega_valuation(n, p)
        if e:
            factors[p] = e
    if _product([p**e for p, e in factors.items()]) != omega(n):
        raise InvariantError(f"omega({n}) factorization does not reassemble")
    return dict(sorted(factors.items()))


def convolution_term(n: int, k: int) -> int:
    """Term k of the Mersenne-binomial convolution that rebuilds omega(n)."""
    if n < 2:
        raise ValueError(f"convolution terms need n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return mersenne_binomial(n - 2, k - 1) * omega(k) * omega(n - k)
