"""The identity checks: one function per identity, bundled for `magmaexp verify`.

Every identity is computed here and nowhere else.  A check returns None when
its identity holds, or the first counterexample rendered as text.  The two
series checks take the exponential series truncated at a degree budget; the
others take one degree, and `_each_degree` runs them up to the budget.  The
coefficient-sums row also checks the split sums, binomial-product the combs.
`run_verification` builds the series once per call.  The boolean helpers and
`run_verification` run the same checks through one runner, `_run`.  All
checks are exact; there are no tolerances anywhere.  A broken invariant
inside a check (an InvariantError, such as a non-integer a_hat) fails that
check with the error's text as its counterexample: `run_verification` still
runs the other checks, and a boolean helper returns False.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import InvariantError
from .exponential import (
    a_hat,
    a_hat_product,
    a_hat_recursion_check,
    exp_series,
    trees_with_a_hat_one,
)
from .omega import convolution_term, omega, omega_factorization
from .orders import factor_bound, factor_mersenne
from .series import TreeSeries
from .trees import comb_trees, enumerate_trees, render


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _first_difference(left: TreeSeries, right: TreeSeries) -> str | None:
    # subtracts only on a mismatch, so a passing check pays one comparison
    if left == right:
        return None
    t, c = next((left - right).terms())
    return f"coefficient of {render(t)} off by {c}"


def _functional_equation(e: TreeSeries) -> str | None:
    return _first_difference(e * e, e.dilate(2))


def _derivative(e: TreeSeries) -> str | None:
    # stays within the degree budget: compares d(exp) against exp one lower
    below = e.truncation - 1
    return _first_difference(e.derivative().truncate(below), e.truncate(below))


def _each_degree(first: int, check):
    """The series check that runs check at each degree from first up to the
    truncation and returns the first counterexample, or None."""

    def over_degrees(e: TreeSeries) -> str | None:
        for n in range(first, e.truncation + 1):
            counterexample = check(n)
            if counterexample is not None:
                return counterexample
        return None

    return over_degrees


def _sums_at(n: int) -> str | None:
    # a_hat(t) and omega(n) are a(t) and 1/n! times 2**(n-1) * (n-1)!_M, so
    # this integer sum also proves sum a(t) = 1/n!
    trees = enumerate_trees(n)
    integral = sum(map(a_hat, trees))
    if integral != omega(n):
        return f"sum of a_hat at degree {n} is {integral}"
    if n == 1:
        return None
    # split by the root's left degree k, the sum is the k-th convolution term;
    # canonical order keeps the trees of one k next to each other
    for k, split in groupby(trees, key=lambda t: t.left.degree):
        grouped = sum(map(a_hat, split))
        if grouped != convolution_term(n, k):
            return f"sum of a_hat at degree {n} with left degree {k} is {grouped}"
    return None


def _products_at(n: int) -> str | None:
    # both routes to a_hat agree, and a_hat(t) = 1 exactly on the combs
    for t in enumerate_trees(n):
        if a_hat(t) != a_hat_product(t):
            return f"{render(t)}: recursion gives {a_hat(t)}, product {a_hat_product(t)}"
    if trees_with_a_hat_one(n) != comb_trees(n):
        return f"a_hat is 1 off the comb trees at degree {n}"
    return None


def _recursion_at(n: int) -> str | None:
    for t in enumerate_trees(n):
        if not a_hat_recursion_check(t):
            return f"recursion step fails at {render(t)}"
    return None


def _convolution_at(n: int) -> str | None:
    if sum(convolution_term(n, k) for k in range(1, n)) != omega(n):
        return f"convolution misses omega({n})"
    return None


def _factorizations_at(n: int) -> str | None:
    # both factorizations check their own reassembly and raise on a mismatch
    if n <= factor_bound():
        factor_mersenne(n)
        omega_factorization(n)
    return None


def _run(check, arg) -> str | None:
    """The check's counterexample, or None; a broken invariant is one too."""
    try:
        return check(arg)
    except InvariantError as exc:  # a BoundExceededError still propagates
        return str(exc)


# (name, least degree, check); below its least degree a check passes vacuously
_CHECKS = (
    ("functional-equation", 0, _functional_equation),
    ("derivative", 1, _derivative),
    ("coefficient-sums", 0, _each_degree(1, _sums_at)),
    ("binomial-product", 0, _each_degree(1, _products_at)),
    ("binomial-recursion", 0, _each_degree(2, _recursion_at)),
    ("omega-recursion", 0, _each_degree(2, _convolution_at)),
    ("factorizations", 0, _each_degree(1, _factorizations_at)),
)


def run_verification(max_degree: int) -> list[CheckResult]:
    """Run every identity check up to max_degree, in a fixed order."""
    if max_degree < 0:
        raise ValueError(f"degree must be >= 0, got {max_degree}")
    e = exp_series(max_degree)  # one series per call, read by every check
    results = []
    for name, least, check in _CHECKS:
        if max_degree < least:
            results.append(CheckResult(name, True, f"vacuous below degree {least}"))
            continue
        counterexample = _run(check, e)
        results.append(CheckResult(name, counterexample is None, counterexample or ""))
    return results


def verify_functional_equation(truncation: int) -> bool:
    """exp * exp == exp(2x) up to the truncation."""
    return _run(_functional_equation, exp_series(truncation)) is None


def verify_derivative(truncation: int) -> bool:
    """The derivative of exp agrees with exp through the truncation.

    Computed one degree higher so differentiation loses nothing below the
    comparison window.
    """
    return _run(_derivative, exp_series(truncation + 1)) is None


def verify_split_sums(n: int) -> bool:
    """Degree-n coefficient sums, whole and split by the root's left degree.

    The whole sum of a_hat is omega(n), hence sum a(t) = 1/n!.  For each k,
    summing a_hat(t1 * t2) over deg t1 = k, deg t2 = n - k gives
    convolution_term(n, k).
    """
    if n < 2:
        raise ValueError(f"split sums need n >= 2, got {n}")
    return _run(_sums_at, n) is None
