import random
from itertools import count
from math import isqrt

import pytest

from magmaexp import divisors, factorize, is_prime, primes_up_to, valuation
from magmaexp.primes import _primes_between

from conftest import SEED


def sieve_oracle(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, limit + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [i for i, f in enumerate(flags) if f]


def test_is_prime_matches_sieve():
    primes = set(sieve_oracle(10_000))
    for n in range(10_001):
        assert is_prime(n) == (n in primes)


def test_is_prime_known_hard_cases():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime(1)
    assert not is_prime(0)


def test_primes_up_to_counts():
    assert len(primes_up_to(10_000)) == 1229
    assert primes_up_to(10)[:4] == [2, 3, 5, 7]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**6)) == 78498


def trial_division_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, isqrt(n) + 1))]


def test_primes_between_against_trial_division():
    primes = trial_division_primes(3000)
    rng = random.Random(SEED)
    for low in range(-2, 151):
        # limits at and below low, every limit within 60 of it, then a sweep
        # to 3000 and the squares 961 = 31**2 and 1369 = 37**2
        limits = {*range(low - 2, low + 61), *range(low + 61, 3001, 89), 961, 1369, 3000}
        limits.add(rng.randint(low + 61, 3000))
        for limit in limits:
            want = [p for p in primes if low < p <= limit]
            assert _primes_between(low, limit) == want, (low, limit)


@pytest.mark.parametrize("square", [961, 1369])
def test_primes_between_segments_at_a_base_square(square):
    # the segment's first number is a base prime's square, or just past it
    primes = trial_division_primes(3000)
    for low in (square - 2, square - 1, square):
        for limit in (square - 1, square, square + 1, square + 60, 3000):
            want = [p for p in primes if low < p <= limit]
            assert _primes_between(low, limit) == want, (low, limit)


def test_factorize_known_values():
    assert factorize(1) == {}
    assert factorize(2**10) == {2: 10}
    assert factorize(2**64 - 1) == {3: 1, 5: 1, 17: 1, 257: 1, 641: 1, 65537: 1, 6700417: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reassembles_random():
    rng = random.Random(SEED)
    for _ in range(300):
        n = rng.randint(1, 10**6)
        product = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def _prime_one_mod(rng, k, lo, hi):
    while True:
        p = k * rng.randint(lo // k, hi // k) + 1
        if is_prime(p):
            return p


def test_factorize_hint_changes_no_answer():
    # semiprimes whose factors are 1 mod k, beyond trial division, so rho
    # splits them; the hint steers rho and nothing else, even when it lies
    rng = random.Random(SEED)
    for _ in range(20):
        k = 2 * rng.randint(1, 100)
        p = _prime_one_mod(rng, k, 10**4, 10**7)
        q = _prime_one_mod(rng, k, 10**4, 10**7)
        expected = {p: 2} if p == q else dict(sorted({p: 1, q: 1}.items()))
        assert factorize(p * q) == expected
        assert factorize(p * q, one_mod=k) == expected
        wrong = next(m for m in count(k + 1) if (p - 1) % m)
        assert factorize(p * q, one_mod=wrong) == expected
    with pytest.raises(ValueError):
        factorize(15, one_mod=0)


def test_valuation():
    assert valuation(12, 2) == 2
    assert valuation(12, 3) == 1
    assert valuation(12, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]
