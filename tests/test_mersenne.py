import importlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import cache

import pytest

from conftest import SEED
from magmaexp import (
    InvariantError,
    digit_sum,
    factor_mersenne,
    factorial_valuation,
    gaussian_binomial_at_2,
    mersenne,
    mersenne_binomial,
    mersenne_factorial,
)


@cache
def factorial_product_oracle(n):
    # the product of 2**i - 1 over 1 <= i <= n, multiplied in balanced halves
    def product(lo, hi):
        if hi - lo <= 16:
            out = 1
            for i in range(lo, hi):
                out *= 2**i - 1
            return out
        mid = (lo + hi) // 2
        return product(lo, mid) * product(mid, hi)

    return product(1, n + 1)


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


mersenne_module = importlib.import_module("magmaexp.mersenne")
CHECKPOINTS_STORED = mersenne_module._CHECKPOINT_TOP // mersenne_module._CHECKPOINT_STEP + 1
PAST_THE_BOUND = (2049, 2176)


@pytest.fixture
def empty_checkpoints():
    """Start from an empty checkpoint cache whatever ran before; leave it empty."""
    mersenne_module._checkpoint.cache_clear()
    yield
    mersenne_module._checkpoint.cache_clear()


def checkpoints_cached():
    return mersenne_module._checkpoint.cache_info().currsize


def assert_checkpoints_exact():
    # _checkpoint(k) caches every k' <= k, so the cached keys are 0 .. size - 1;
    # reading them back must hit the cache and add nothing
    size = checkpoints_cached()
    assert 1 <= size <= CHECKPOINTS_STORED
    misses = mersenne_module._checkpoint.cache_info().misses
    step = mersenne_module._CHECKPOINT_STEP
    for k in range(size):
        assert mersenne_module._checkpoint(k) == factorial_product_oracle(k * step), k * step
    assert mersenne_module._checkpoint.cache_info().misses == misses
    assert checkpoints_cached() == size


def checkpoint_arguments():
    near = {k * 64 + d for k in range(6) for d in (-1, 0, 1)} - {-1}
    return sorted({*range(301), *near, *PAST_THE_BOUND})


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_mersenne_factorial_checkpoints_in_any_order(empty_checkpoints, order):
    ns = checkpoint_arguments()
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        random.Random(SEED).shuffle(ns)
    for n in ns:
        assert mersenne_factorial(n) == factorial_product_oracle(n), n
    assert checkpoints_cached() == CHECKPOINTS_STORED
    assert_checkpoints_exact()


def test_mersenne_factorial_table_stops_at_its_bound(empty_checkpoints):
    assert CHECKPOINTS_STORED == 33
    for n in PAST_THE_BOUND:
        assert mersenne_factorial(n) == factorial_product_oracle(n)
        assert checkpoints_cached() == CHECKPOINTS_STORED
    assert_checkpoints_exact()


def test_mersenne_factorial_below_the_first_checkpoint_stores_nothing(
    empty_checkpoints,
):
    for n in range(64):
        assert mersenne_factorial(n) == factorial_product_oracle(n)
    assert checkpoints_cached() == 1  # 0!_M alone
    assert mersenne_factorial(700) == factorial_product_oracle(700)
    assert checkpoints_cached() == 700 // 64 + 1
    assert_checkpoints_exact()


def test_mersenne_factorial_from_threads(empty_checkpoints):
    ns = [1300, 64, 2176, 700, 129, 2049, 450, 1999, 63, 2048]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the loops
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(mersenne_factorial, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for n, answer in zip(ns, answers):
        assert answer == factorial_product_oracle(n), n
    assert checkpoints_cached() == CHECKPOINTS_STORED
    assert_checkpoints_exact()


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
    # every r against the product formula; gaussian_binomial_at_2 costs
    # r * (n - r) per call, so it is asked at the middle and at one seeded r per n
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
    # few d carry here, so only they and their divisors reach the table
    for n in range(401):
        for r in {1, 2, 3, n - 2, n - 1}:
            if 0 <= r <= n:
                assert mersenne_binomial(n, r) == factorial_quotient(n, r)
    assert mersenne_binomial(4000, 3) == factorial_quotient(4000, 3)


def test_a_remainder_in_a_cyclotomic_value_names_phi_d(monkeypatch):
    # a spurious divisor 3 of 4 leaves 15 a remainder modulo 1 * 3 * 7
    orders = importlib.import_module("magmaexp.orders")
    original = orders.divisors

    def three_divides_four(n):
        return sorted({*original(n), 3}) if n == 4 else original(n)

    def clear():
        orders._cyclotomic_at_2.cache_clear()
        orders._factor_mersenne.cache_clear()
        mersenne_binomial.cache_clear()

    monkeypatch.setattr(orders, "divisors", three_divides_four)
    clear()
    try:
        with pytest.raises(InvariantError, match=r"Phi_4\(2\)"):
            mersenne_binomial(12, 5)
        with pytest.raises(InvariantError, match=r"Phi_4\(2\)"):
            factor_mersenne(12)
    finally:
        clear()


def gaussian_rows_oracle(n_max):
    # rows 0..n_max of the whole Pascal triangle at q = 2
    row = [1]
    yield row
    for i in range(1, n_max + 1):
        prev = row
        row = [1] * (i + 1)
        for j in range(1, i):
            row[j] = prev[j - 1] + (prev[j] << j)
        yield row


def test_gaussian_band_against_the_whole_triangle_to_60():
    for n, row in enumerate(gaussian_rows_oracle(60)):
        assert [gaussian_binomial_at_2(n, r) for r in range(n + 1)] == row


def test_gaussian_band_against_the_whole_triangle_to_300():
    rng = random.Random(SEED)
    for n, row in enumerate(gaussian_rows_oracle(300)):
        for r in {0, 1, n // 2, n - 1, n, rng.randint(0, n)}:
            if 0 <= r <= n:
                assert gaussian_binomial_at_2(n, r) == row[r], (n, r)


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
    with pytest.raises(ValueError, match="got -1"):
        factorial_valuation(-1, 3)


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
