import importlib
from fractions import Fraction
from math import factorial

import pytest

import magmaexp.verify as verify
from conftest import trial_valuation
from magmaexp import (
    convolution_term,
    omega,
    omega_factorization,
    omega_valuation,
    primes_up_to,
)


def quotient_oracle(n):
    product = 1
    for i in range(1, n):
        product *= 2**i - 1
    value = Fraction(2 ** (n - 1) * product, factorial(n))
    assert value.denominator == 1
    return value.numerator


def test_omega_golden_values():
    assert [omega(n) for n in range(1, 7)] == [1, 1, 2, 7, 42, 434]
    with pytest.raises(ValueError):
        omega(0)


def test_omega_against_quotient_oracle():
    for n in [*range(1, 61), 1500]:
        assert omega(n) == quotient_oracle(n)


def test_omega_two_adic_valuation_is_popcount_minus_one():
    for n in range(1, 301):
        assert trial_valuation(omega(n), 2) == bin(n).count("1") - 1


def test_omega_is_a_positive_integer_far_out():
    for n in range(1, 201):
        assert omega(n) >= 1


def test_omega_valuation_examples():
    assert omega_valuation(13, 7) == 3
    assert omega_valuation(100, 7) == 21
    assert omega_valuation(8, 2) == 0  # 8 = 1000 base 2, digit sum 1
    assert omega_valuation(6, 2) == 1
    with pytest.raises(ValueError):
        omega_valuation(10, 6)
    with pytest.raises(ValueError):
        omega_valuation(0, 7)


def test_omega_valuation_against_literal_valuation():
    assert omega_valuation(13, 7) == trial_valuation(omega(13), 7)
    assert omega_valuation(100, 7) == trial_valuation(omega(100), 7)
    for n in range(1, 61):
        value = omega(n)
        for p in primes_up_to(100):
            assert omega_valuation(n, p) == trial_valuation(value, p)


def test_omega_valuation_nonnegative_sampled_large_primes():
    for p in (2**31 - 1, 65537, 999999937):
        for n in (1, 10, 50, 100, 150, 200):
            assert omega_valuation(n, p) >= 0


def test_omega_factorization_values():
    assert omega_factorization(1) == {}
    assert omega_factorization(5) == {2: 1, 3: 1, 7: 1}
    assert omega_factorization(6) == {2: 1, 7: 1, 31: 1}
    with pytest.raises(ValueError, match="got 0"):
        omega_factorization(0)


def test_omega_factorization_reassembles():
    for n in range(1, 61):
        product = 1
        for p, e in omega_factorization(n).items():
            product *= p**e
        assert product == omega(n)


def test_convolution_term_values():
    assert convolution_term(6, 1) == 42
    assert convolution_term(6, 3) == 140
    assert [convolution_term(6, k) for k in range(1, 6)] == [42, 105, 140, 105, 42]
    assert convolution_term(2, 1) == 1
    with pytest.raises(ValueError):
        convolution_term(6, 0)
    with pytest.raises(ValueError):
        convolution_term(6, 6)
    with pytest.raises(ValueError):
        convolution_term(1, 1)


def test_omega_recursion_holds():
    # the omega-recursion row of run_verification, one degree at a time:
    # run_verification(60) would enumerate trees far past the tree budget
    for n in range(2, 61):
        assert verify._convolution_at(n) is None


def test_omega_values_match_omega():
    omega_module = importlib.import_module("magmaexp.omega")
    assert list(omega_module._omega_values(600)) == [omega(n) for n in range(1, 601)]
    assert list(omega_module._omega_values(0)) == []
