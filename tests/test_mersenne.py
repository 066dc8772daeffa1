import importlib
import random
from fractions import Fraction

import pytest

from conftest import SEED
from magmaexp import (
    InvariantError,
    digit_sum,
    factorial_valuation,
    gaussian_binomial_at_2,
    mersenne,
    mersenne_binomial,
    mersenne_factorial,
)


def factorial_product_oracle(n):
    out = 1
    for i in range(1, n + 1):
        out *= 2**i - 1
    return out


def q_binomial_oracle(n, r):
    # product formula at q = 2, evaluated with exact rationals
    value = Fraction(1)
    for i in range(r):
        value *= Fraction(2**n - 2**i, 2**r - 2**i)
    assert value.denominator == 1
    return value.numerator


def floor_sum_oracle(n, p):
    total, q = 0, p
    while q <= n:
        total += n // q
        q *= p
    return total


def test_mersenne_values():
    assert mersenne(1) == 1
    assert mersenne(15) == 32767
    assert [mersenne(n) for n in range(1, 7)] == [1, 3, 7, 15, 31, 63]


def test_mersenne_rejects_zero():
    with pytest.raises(ValueError):
        mersenne(0)
    with pytest.raises(ValueError):
        mersenne(-3)


def test_mersenne_index_addition_identity():
    for a in range(1, 65):
        for b in range(1, 65):
            assert mersenne(a + b) + 1 == (mersenne(a) + 1) * (mersenne(b) + 1)


def test_mersenne_factorial_against_product_oracle():
    assert mersenne_factorial(0) == 1
    assert mersenne_factorial(3) == 21
    assert mersenne_factorial(5) == 9765
    # n = 2000 runs the shift-and-subtract loop to a 2,000,999-bit product
    for n in [*range(81), 300, 1000, 2000]:
        assert mersenne_factorial(n) == factorial_product_oracle(n)
    with pytest.raises(ValueError):
        mersenne_factorial(-1)


def test_a_hat_scale_is_the_shifted_factorial():
    exponential = importlib.import_module("magmaexp.exponential")
    for n in range(1, 65):
        assert exponential._a_hat_scale(n) == 2 ** (n - 1) * mersenne_factorial(n - 1)


def test_mersenne_binomial_values():
    assert mersenne_binomial(6, 3) == 1395
    assert mersenne_binomial(8, 3) == 97155
    assert mersenne_binomial(4, 2) == 35
    assert mersenne_binomial(5, 0) == 1
    assert mersenne_binomial(5, 5) == 1
    with pytest.raises(ValueError):
        mersenne_binomial(3, 4)
    with pytest.raises(ValueError):
        mersenne_binomial(3, -1)


def test_mersenne_binomial_against_independent_oracles():
    for n in range(25):
        for r in range(n + 1):
            value = mersenne_binomial(n, r)
            assert value == q_binomial_oracle(n, r)
            assert value == gaussian_binomial_at_2(n, r)


def test_binomial_symmetry_and_gaussian_agreement():
    for n in range(61):
        for r in range(n + 1):
            value = mersenne_binomial(n, r)
            assert value == mersenne_binomial(n, n - r)
            assert value == gaussian_binomial_at_2(n, r)
            assert value >= 1


def product_formula_row(n):
    # [n, r] = [n, r-1] * (2**(n-r+1) - 1) / (2**r - 1), one exact step per r
    row = [1]
    for r in range(1, n + 1):
        value, remainder = divmod(row[-1] * ((1 << (n - r + 1)) - 1), (1 << r) - 1)
        assert remainder == 0
        row.append(value)
    return row


def test_cyclotomic_binomial_against_both_routes_to_150():
    # every r against the product formula; gaussian_binomial_at_2 costs n**2
    # per call, so it is asked at the middle and at one seeded r per n
    rng = random.Random(SEED)
    for n in range(151):
        assert [mersenne_binomial(n, r) for r in range(n + 1)] == product_formula_row(n)
        for r in (n // 2, rng.randint(0, n)):
            assert mersenne_binomial(n, r) == gaussian_binomial_at_2(n, r)


def test_cyclotomic_binomial_is_the_factorial_quotient_at_scale():
    for n in (700, 1000, 1500):
        r = n // 2 - 1
        value = mersenne_binomial(n, r)
        assert value * mersenne_factorial(r) * mersenne_factorial(n - r) == mersenne_factorial(n)


def factorial_quotient(n, r):
    # n!_M / (r!_M * (n-r)!_M) with (n-r)!_M cancelled, checked exact
    s = min(r, n - r)
    top = 1
    for i in range(n - s + 1, n + 1):
        top *= 2**i - 1
    value, remainder = divmod(top, factorial_product_oracle(s))
    assert remainder == 0
    return value


def test_binomial_near_the_edges_is_the_factorial_quotient():
    # few d carry here, so only their divisors are sieved
    for n in range(401):
        for r in {1, 2, 3, n - 2, n - 1}:
            if 0 <= r <= n:
                assert mersenne_binomial(n, r) == factorial_quotient(n, r)
    assert mersenne_binomial(4000, 3) == factorial_quotient(4000, 3)


def test_a_remainder_in_a_cyclotomic_value_names_the_binomial(monkeypatch):
    # 2**4 - 1 plus one leaves a remainder modulo Phi_1(2) * Phi_2(2) = 3
    module = importlib.import_module("magmaexp.mersenne")
    original = module.mersenne

    def off_at_four(d):
        return original(d) + (d == 4)

    monkeypatch.setattr(module, "mersenne", off_at_four)
    mersenne_binomial.cache_clear()
    try:
        with pytest.raises(InvariantError, match=r"mersenne_binomial\(12, 5\)"):
            mersenne_binomial(12, 5)
    finally:
        mersenne_binomial.cache_clear()


def test_gaussian_binomial_values():
    assert gaussian_binomial_at_2(2, 1) == 3
    assert gaussian_binomial_at_2(4, 2) == 35
    assert gaussian_binomial_at_2(0, 0) == 1
    with pytest.raises(ValueError):
        gaussian_binomial_at_2(2, 3)


def test_digit_sum_values():
    assert digit_sum(100, 7) == 4  # 100 = 202 base 7
    assert digit_sum(33, 7) == 9  # 33 = 45 base 7
    assert digit_sum(0, 5) == 0
    assert digit_sum(255, 2) == 8
    with pytest.raises(ValueError):
        digit_sum(10, 1)
    with pytest.raises(ValueError):
        digit_sum(-1, 3)


def test_factorial_valuation_against_floor_sum_oracle():
    assert factorial_valuation(13, 7) == 1
    assert factorial_valuation(100, 7) == 16
    assert factorial_valuation(6, 7) == 0
    assert factorial_valuation(0, 3) == 0
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(0, 10_001):
            assert factorial_valuation(n, p) == floor_sum_oracle(n, p)
    with pytest.raises(ValueError):
        factorial_valuation(10, 6)


def test_digit_sum_congruence():
    # n and its base-p digit sum agree mod p - 1
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(0, 10_001):
            assert (n - digit_sum(n, p)) % (p - 1) == 0


def test_binomial_memo_is_bounded():
    assert mersenne_binomial.cache_info().maxsize == 256
    for n in range(300):
        mersenne_binomial(n, n // 2)
    assert mersenne_binomial.cache_info().currsize <= 256
