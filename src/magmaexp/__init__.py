"""Exact Mersenne-number combinatorics and the exponential series of the
free unital magma on one generator.

Everything is integer or rational arithmetic; no floating point anywhere.
"""

from types import ModuleType as _ModuleType

from .errors import BoundExceededError, InvariantError
from .exponential import (
    a_coefficient,
    a_hat,
    a_hat_product,
    a_hat_recursion_check,
    coefficient_rows,
    exp_series,
    trees_with_a_hat_one,
)
from .mersenne import (
    digit_sum,
    factorial_valuation,
    gaussian_binomial_at_2,
    mersenne,
    mersenne_binomial,
    mersenne_factorial,
)
from .omega import (
    convolution_term,
    omega,
    omega_factorization,
    omega_valuation,
)
from .orders import (
    DEFAULT_FACTOR_BOUND,
    FACTOR_BOUND_ENV,
    WIEFERICH_SEARCH_CAP,
    OrderRecord,
    factor_bound,
    factor_mersenne,
    mersenne_order,
    mersenne_valuation,
    order_record,
    pi_m,
    wieferich_exponent,
    wieferich_search,
)
from .primes import divisors, factorize, is_prime, primes_up_to, valuation
from .series import ClassicalSeries, TreeSeries, generator, one, zero
from .trees import (
    DEFAULT_TREE_BUDGET,
    UNIT,
    X,
    MagmaTree,
    ParseError,
    canonical_rank,
    canonical_sort_key,
    catalan,
    comb_trees,
    decompose,
    enumerate_trees,
    graft,
    inner_nodes,
    parse,
    render,
)
from .verify import (
    CheckResult,
    run_verification,
    verify_derivative,
    verify_functional_equation,
    verify_split_sums,
)

__version__ = "0.1.0"

# every public name imported above, once: no module object and no private name
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
