import importlib
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import trial_valuation
from magmaexp import (
    BoundExceededError,
    divisors,
    factor_mersenne,
    factorize,
    is_prime,
    mersenne,
    mersenne_binomial,
    mersenne_order,
    mersenne_valuation,
    order_record,
    pi_m,
    primes_up_to,
    wieferich_exponent,
    wieferich_search,
)
from magmaexp.orders import FACTOR_BOUND_ENV, WIEFERICH_SEARCH_CAP, factor_bound

orders = importlib.import_module("magmaexp.orders")


def trial_factorization(m):
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def test_order_known_values():
    assert mersenne_order(7) == 3
    assert mersenne_order(3) == 2
    assert mersenne_order(31) == 5
    assert mersenne_order(73) == 9
    assert mersenne_order(1093) == 364
    assert mersenne_order(3511) == 1755


def test_order_rejects_bad_input():
    with pytest.raises(ValueError):
        mersenne_order(2)
    with pytest.raises(ValueError):
        mersenne_order(100)
    with pytest.raises(ValueError):
        mersenne_order(1)


def test_wieferich_exponent_values():
    assert wieferich_exponent(7) == 1
    assert wieferich_exponent(3) == 1
    assert wieferich_exponent(1093) == 2
    assert wieferich_exponent(3511) == 2


def test_order_invariants_all_odd_primes_to_10000():
    for p in primes_up_to(10_000):
        if p == 2:
            continue
        record = order_record(p)
        v = record.order
        assert (p - 1) % v == 0
        assert pow(2, v, p) == 1
        assert (1 << v) > p
        assert record.wieferich_exponent >= 1
        # minimality: no proper divisor of the order works
        for r in divisors(v):
            if r < v:
                assert pow(2, r, p) != 1


def test_mersenne_valuation_examples():
    assert mersenne_valuation(7, 21) == 2
    assert mersenne_valuation(23, 11) == 1
    assert mersenne_valuation(5, 6) == 0
    assert mersenne_valuation(2, 8) == 0  # Mersenne numbers are odd
    with pytest.raises(ValueError):
        mersenne_valuation(7, 0)


def test_mersenne_valuation_matches_trial_division():
    odd_primes = [p for p in primes_up_to(500) if p != 2]
    for n in range(1, 41):
        m = mersenne(n)
        for p in odd_primes:
            assert mersenne_valuation(p, n) == trial_valuation(m, p)


def test_factor_mersenne_against_trial_oracle():
    assert factor_mersenne(1) == {}
    assert factor_mersenne(11) == trial_factorization(mersenne(11)) == {23: 1, 89: 1}
    assert factor_mersenne(15) == trial_factorization(mersenne(15)) == {7: 1, 31: 1, 151: 1}
    assert factor_mersenne(21) == trial_factorization(mersenne(21)) == {7: 2, 127: 1, 337: 1}
    assert factor_mersenne(6) == {3: 2, 7: 1}


def test_factor_mersenne_reassembles_to_bound():
    for n in range(1, 65):
        product = 1
        for p, e in factor_mersenne(n).items():
            product *= p**e
        assert product == mersenne(n)


def test_primitive_parts_beyond_the_digests():
    # the CLI digests pin n <= 64
    for n in range(65, 129):
        factors = factor_mersenne(n, bound=128)
        product = 1
        for p, e in factors.items():
            assert is_prime(p) and e == mersenne_valuation(p, n), (n, p, e)
            product *= p**e
        assert product == mersenne(n), n
    # primitive primes below 50,000 beside one or two large ones
    assert factor_mersenne(73, bound=100) == {439: 1, 2298041: 1, 9361973132609: 1}
    assert factor_mersenne(79, bound=100) == {2687: 1, 202029703: 1, 1113491139767: 1}
    assert factor_mersenne(83, bound=100) == {167: 1, 57912614113275649087721: 1}
    assert factor_mersenne(97, bound=100) == {11447: 1, 13842607235828485645766393: 1}
    # primitive parts with two large primes, split by rho on y**(2n) + c
    assert factor_mersenne(101, bound=128) == {7432339208719: 1, 341117531003194129: 1}
    assert factor_mersenne(125, bound=128) == {
        31: 1, 601: 1, 1801: 1, 269089806001: 1, 4710883168879506001: 1,
    }


def test_cyclotomic_values_multiply_to_each_mersenne_number():
    for n in range(1, 601):
        product = 1
        for d in divisors(n):
            product *= orders._cyclotomic_at_2(d)
        assert product == mersenne(n), n


def test_cyclotomic_primes_have_order_d_but_one_prime_of_d():
    exceptions = []
    for d in range(1, 65):
        others = [
            (p, e)
            for p, e in factorize(orders._cyclotomic_at_2(d)).items()
            if mersenne_order(p) != d
        ]
        assert len(others) <= 1, d
        for p, e in others:
            assert d % p == 0 and e == 1, (d, p, e)
            exceptions.append((d, p))
    assert exceptions == [(6, 3), (18, 3), (20, 5), (21, 7), (54, 3)]


def test_an_edge_binomial_reaches_only_its_carrying_d_and_their_divisors():
    n, r = 4000, 3
    carrying = [d for d in range(2, n + 1) if n // d - r // d - (n - r) // d == 1]
    reached = {e for d in carrying for e in divisors(d)}
    orders._cyclotomic_at_2.cache_clear()
    mersenne_binomial.cache_clear()
    try:
        mersenne_binomial(n, r)
        info = orders._cyclotomic_at_2.cache_info()
        assert info.currsize == len(reached) == 33
        for d in reached:
            orders._cyclotomic_at_2(d)
        assert orders._cyclotomic_at_2.cache_info().misses == info.misses
    finally:
        orders._cyclotomic_at_2.cache_clear()
        mersenne_binomial.cache_clear()


def test_factor_mersenne_bound():
    with pytest.raises(BoundExceededError):
        factor_mersenne(65)
    assert factor_mersenne(65, bound=65)[8191] == 1
    with pytest.raises(ValueError):
        factor_mersenne(0)


def test_factor_bound_env_override(monkeypatch):
    monkeypatch.setenv(FACTOR_BOUND_ENV, "48")
    assert factor_bound() == 48
    with pytest.raises(BoundExceededError):
        factor_mersenne(49)
    monkeypatch.setenv(FACTOR_BOUND_ENV, "not-a-number")
    with pytest.raises(ValueError):
        factor_bound()
    monkeypatch.setenv(FACTOR_BOUND_ENV, "0")
    with pytest.raises(ValueError, match="^MAGMAEXP_FACTOR_BOUND must be >= 1, got 0$"):
        factor_bound()
    monkeypatch.delenv(FACTOR_BOUND_ENV)
    assert factor_bound() == 64


def test_pi_m_values():
    assert pi_m(2) == (0, [])
    assert pi_m(4) == (2, [3, 7])
    count, primes = pi_m(17)
    assert count == 15
    assert primes == [3, 5, 7, 11, 13, 17, 23, 31, 43, 73, 89, 127, 151, 257, 8191]
    # the order-(x-1) convention at x = 16 drops exactly the order-16 prime 257
    count16, primes16 = pi_m(16)
    assert count16 == 14
    assert set(primes) - set(primes16) == {257}


def test_pi_m_monotone_and_bounded():
    counts = [pi_m(x)[0] for x in range(2, 21)]
    assert counts == sorted(counts)
    with pytest.raises(ValueError):
        pi_m(1)
    with pytest.raises(BoundExceededError):
        pi_m(100)


def test_factor_bound_errors_name_the_exponent_and_the_variable(monkeypatch):
    monkeypatch.delenv(FACTOR_BOUND_ENV, raising=False)
    message = "^factoring bound exceeded: exponent 99 > 64; .* MAGMAEXP_FACTOR_BOUND$"
    with pytest.raises(BoundExceededError, match=message):
        pi_m(100)
    with pytest.raises(BoundExceededError, match=message):
        factor_mersenne(99)


@pytest.fixture
def empty_wieferich_cache():
    """Start from an empty block cache whatever ran before; leave it empty."""
    orders._wieferich_block.cache_clear()
    yield
    orders._wieferich_block.cache_clear()


def blocks_cached():
    return orders._wieferich_block.cache_info().currsize


def wieferich_by_definition(limit):
    return [p for p in primes_up_to(limit) if p != 2 and wieferich_exponent(p) >= 2]


def test_wieferich_search():
    assert wieferich_search(3) == []
    assert wieferich_search(1000) == []
    assert wieferich_search(4000) == [1093, 3511]
    with pytest.raises(BoundExceededError):
        wieferich_search(10**8)
    with pytest.raises(ValueError):
        wieferich_search(-1)


def test_wieferich_search_agrees_with_exponent_definition():
    assert wieferich_search(5000) == wieferich_by_definition(5000)


def test_wieferich_search_widening_and_narrowing(empty_wieferich_cache):
    for limit in (5000, 0, 1, 2, 1092, 1093, 3510, 3511, 1000, 8000):
        assert wieferich_search(limit) == wieferich_by_definition(limit), limit
    assert blocks_cached() == 1  # every limit lies in (0, 2**16]


def test_wieferich_search_within_the_record_does_not_sieve(
    empty_wieferich_cache, monkeypatch
):
    assert wieferich_search(8000) == [1093, 3511]
    monkeypatch.setattr(orders, "_primes_between", lambda low, limit: pytest.fail("sieved"))
    assert wieferich_search(8000) == [1093, 3511]
    assert wieferich_search(3510) == [1093]
    assert wieferich_search(2**16) == [1093, 3511]


def test_wieferich_search_answers_are_private(empty_wieferich_cache):
    first = wieferich_search(4000)
    first.append(5)
    first.remove(1093)
    again = wieferich_search(4000)
    assert again == [1093, 3511]
    again.clear()
    assert wieferich_search(3600) == [1093, 3511]
    assert wieferich_search(5000) == [1093, 3511]


@pytest.mark.parametrize("limit", [4000.0, 5.5, "4000", None])
def test_wieferich_search_refuses_non_integers(empty_wieferich_cache, limit):
    with pytest.raises(TypeError):
        wieferich_search(limit)
    assert wieferich_search(10**4) == [1093, 3511]
    with pytest.raises(TypeError):
        wieferich_search(limit)
    assert blocks_cached() == 1


def test_wieferich_search_accepts_bool_as_int(empty_wieferich_cache):
    assert wieferich_search(True) == []
    assert wieferich_search(False) == []


def test_wieferich_search_refusals_after_a_wide_search(empty_wieferich_cache):
    assert wieferich_search(10**5) == [1093, 3511]
    with pytest.raises(ValueError):
        wieferich_search(-1)
    with pytest.raises(BoundExceededError):
        wieferich_search(WIEFERICH_SEARCH_CAP + 1)
    assert blocks_cached() == 2


def test_wieferich_search_extension_sieves_only_the_new_range(
    empty_wieferich_cache, monkeypatch
):
    assert wieferich_search(999_000) == [1093, 3511]
    sieve = orders._primes_between
    sieved = []

    def recording_sieve(low, limit):
        sieved.append((low, limit))
        return sieve(low, limit)

    monkeypatch.setattr(orders, "_primes_between", recording_sieve)
    assert wieferich_search(10**6) == [1093, 3511]
    assert sieved == []  # 10**6 lies in block 15, searched for 999_000
    assert wieferich_search(1_100_000) == [1093, 3511]
    assert sieved == [(16 * 2**16, 17 * 2**16)]
    assert blocks_cached() == 17


def test_wieferich_search_cache_is_bounded_by_the_cap(
    empty_wieferich_cache, monkeypatch
):
    sieved = []  # (low, limit) of each sieve, which finds no primes: no pow tests
    monkeypatch.setattr(
        orders, "_primes_between", lambda low, limit: sieved.append((low, limit)) or []
    )
    assert wieferich_search(WIEFERICH_SEARCH_CAP) == []
    assert len(sieved) == blocks_cached() == 153
    assert sieved[-1] == (152 * 2**16, 153 * 2**16)


def test_wieferich_search_from_threads(empty_wieferich_cache):
    limits = [30_000, 1092, 200_000, 3511, 50_000, 1093, 140_000, 3510, 70_000, 0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the searches
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(wieferich_search, limits, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    # no Wieferich prime lies in (3511, 200_000]: the definition is asked to 50_000
    known = wieferich_by_definition(50_000)
    for limit, answer in zip(limits, answers):
        assert answer == [p for p in known if p <= limit], limit
    assert blocks_cached() == 4  # 200_000 lies in block 3
    assert wieferich_search(3000) == [1093]
