"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line with its runtime; run with
``pytest -v tests/test_acceptance.py`` (add -s to see the lines on success).
"""

import time
from fractions import Fraction
from math import factorial

from magmaexp import (
    a_coefficient,
    a_hat,
    a_hat_product,
    a_hat_recursion_check,
    comb_trees,
    convolution_term,
    enumerate_trees,
    exp_series,
    factor_mersenne,
    mersenne,
    mersenne_order,
    mersenne_valuation,
    omega,
    omega_factorization,
    omega_valuation,
    pi_m,
    trees_with_a_hat_one,
    verify_derivative,
    verify_functional_equation,
    verify_split_sums,
    wieferich_exponent,
    wieferich_search,
)

import test_properties
from conftest import trial_valuation


def _run(number, description, limit_seconds, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:2d}: PASS in {elapsed:6.2f}s (limit {limit_seconds}s) - {description}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_01_omega_goldens():
    def body():
        assert [omega(n) for n in range(1, 7)] == [1, 1, 2, 7, 42, 434]
        assert omega_factorization(5) == {2: 1, 3: 1, 7: 1}
        assert omega_factorization(6) == {2: 1, 7: 1, 31: 1}

    _run(1, "omega(1..6) with factorizations", 1, body)


def test_criterion_02_omega_valuations_both_routes():
    def body():
        assert omega_valuation(13, 7) == 3
        assert omega_valuation(100, 7) == 21
        assert trial_valuation(omega(13), 7) == 3
        assert trial_valuation(omega(100), 7) == 21

    _run(2, "7-adic valuations of omega(13), omega(100), two routes", 1, body)


def test_criterion_03_omega_quotient_vs_prime_support():
    def body():
        for n in range(1, 61):
            product = 1
            for p, e in omega_factorization(n).items():
                product *= p**e
            assert product == omega(n)

    _run(3, "quotient vs prime-support product for n <= 60", 10, body)


def test_criterion_04_wieferich_data():
    def body():
        assert mersenne_order(1093) == 364
        assert mersenne_order(3511) == 1755
        assert wieferich_exponent(1093) == 2
        assert wieferich_exponent(3511) == 2
        assert wieferich_search(4000) == [1093, 3511]

    _run(4, "orders and Wieferich exponents of 1093, 3511; search to 4000", 30, body)


def test_criterion_05_mersenne_factorizations():
    def body():
        for n in range(1, 49):
            factors = factor_mersenne(n)
            product = 1
            for p, e in factors.items():
                # the valuation law, checked from the outside
                assert mersenne_valuation(p, n) == e
                assert n % mersenne_order(p) == 0
                product *= p**e
            assert product == mersenne(n)

    _run(5, "structured factorization of 2**n - 1 for n <= 48", 60, body)


def test_criterion_06_prime_counting_example():
    def body():
        count, primes = pi_m(17)
        assert count == 15
        assert primes == [
            3, 5, 7, 11, 13, 17, 23, 31, 43, 73, 89, 127, 151, 257, 8191,
        ]

    _run(6, "order-counting function reproduces the worked 15-prime list", 5, body)


def test_criterion_07_exponential_identities():
    def body():
        assert verify_functional_equation(10)
        assert verify_derivative(10)
        for n in range(1, 11):
            trees = enumerate_trees(n)
            assert sum(a_coefficient(t) for t in trees) == Fraction(1, factorial(n))
            assert sum(a_hat(t) for t in trees) == omega(n)

    _run(7, "exp*exp = exp(2x), exp' = exp, coefficient sums to degree 10", 60, body)


def test_criterion_08_integer_coefficient_triple_agreement():
    def body():
        for n in range(1, 11):
            for t in enumerate_trees(n):
                assert a_hat(t) == a_hat_product(t)
                if n >= 2:
                    assert a_hat_recursion_check(t)

    _run(8, "normalized coefficients agree on three routes to degree 10", 60, body)


def test_criterion_09_comb_characterization():
    def body():
        for n in range(2, 11):
            assert trees_with_a_hat_one(n) == comb_trees(n)

    _run(9, "coefficient-1 trees are exactly the combs for 2 <= n <= 10", 30, body)


def test_criterion_10_convolution_and_split_sums():
    def body():
        for n in range(2, 61):
            assert sum(convolution_term(n, k) for k in range(1, n)) == omega(n)
        for n in range(2, 11):
            assert verify_split_sums(n)

    _run(10, "binomial convolution rebuilds omega; grouped split sums agree", 10, body)


def test_criterion_11_property_bundle():
    _run(
        11,
        f"module property suites, seed {test_properties.SEED}",
        120,
        test_properties.run_bundle,
    )
