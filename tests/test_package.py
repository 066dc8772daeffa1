import types

import magmaexp

# the public names, one copy: a change to the package surface shows here
PUBLIC = [
    "BoundExceededError",
    "CheckResult",
    "ClassicalSeries",
    "DEFAULT_FACTOR_BOUND",
    "DEFAULT_TREE_BUDGET",
    "FACTOR_BOUND_ENV",
    "InvariantError",
    "MagmaTree",
    "OrderRecord",
    "ParseError",
    "TreeSeries",
    "UNIT",
    "WIEFERICH_SEARCH_CAP",
    "X",
    "a_coefficient",
    "a_hat",
    "a_hat_product",
    "a_hat_recursion_check",
    "canonical_rank",
    "canonical_sort_key",
    "catalan",
    "coefficient_rows",
    "comb_trees",
    "convolution_term",
    "decompose",
    "digit_sum",
    "divisors",
    "enumerate_trees",
    "exp_series",
    "factor_bound",
    "factor_mersenne",
    "factorial_valuation",
    "factorize",
    "gaussian_binomial_at_2",
    "generator",
    "graft",
    "inner_nodes",
    "is_prime",
    "mersenne",
    "mersenne_binomial",
    "mersenne_factorial",
    "mersenne_order",
    "mersenne_valuation",
    "omega",
    "omega_factorization",
    "omega_valuation",
    "one",
    "order_record",
    "parse",
    "pi_m",
    "primes_up_to",
    "render",
    "run_verification",
    "trees_with_a_hat_one",
    "valuation",
    "verify_derivative",
    "verify_functional_equation",
    "verify_split_sums",
    "wieferich_exponent",
    "wieferich_search",
    "zero",
]


def test_all_is_the_sorted_public_surface():
    assert magmaexp.__all__ == PUBLIC
    assert len(PUBLIC) == 61
    exported = [getattr(magmaexp, name) for name in magmaexp.__all__]
    assert not any(isinstance(value, types.ModuleType) for value in exported)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from magmaexp import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC
    assert all(namespace[n] is getattr(magmaexp, n) for n in PUBLIC)


def test_omega_and_mersenne_are_the_functions():
    assert magmaexp.omega(6) == 434
    assert magmaexp.mersenne(5) == 31
