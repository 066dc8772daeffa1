"""The identity checks: one function per identity, bundled for `magmaexp verify`.

Each check takes the exponential series truncated at a degree budget and
returns None when its identity holds up to that degree, or the first
counterexample rendered as text.  `run_verification` builds the series once
per call and hands it to every check; the checks that do not read its
coefficients read only its truncation.  The boolean `verify_*` helpers and
`run_verification` run the same checks through one runner, `_run`.  All
checks are exact; there are no tolerances anywhere.  A broken invariant
inside a check (an InvariantError, such as a non-integer a_hat) fails that
check with the error's text as its counterexample: `run_verification` still
runs the other checks, and a boolean helper returns False.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .exponential import a_hat, a_hat_product, a_hat_recursion_check, exp_series
from .omega import omega, omega_factorization, verify_omega_recursion
from .orders import factor_bound, factor_mersenne
from .series import TreeSeries
from .trees import enumerate_trees, render


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


def _sums_at(n: int) -> str | None:
    # a_hat(t) and omega(n) are a(t) and 1/n! times 2**(n-1) * (n-1)!_M, so
    # this integer sum also proves sum a(t) = 1/n!
    integral = sum(a_hat(t) for t in enumerate_trees(n))
    if integral != omega(n):
        return f"sum of a_hat at degree {n} is {integral}"
    return None


def _coefficient_sums(e: TreeSeries) -> str | None:
    for n in range(1, e.truncation + 1):
        counterexample = _sums_at(n)
        if counterexample is not None:
            return counterexample
    return None


def _binomial_product(e: TreeSeries) -> str | None:
    for n in range(1, e.truncation + 1):
        for t in enumerate_trees(n):
            if a_hat(t) != a_hat_product(t):
                return f"{render(t)}: recursion gives {a_hat(t)}, product {a_hat_product(t)}"
    return None


def _binomial_recursion(e: TreeSeries) -> str | None:
    for n in range(2, e.truncation + 1):
        for t in enumerate_trees(n):
            if not a_hat_recursion_check(t):
                return f"recursion step fails at {render(t)}"
    return None


def _omega_recursion(e: TreeSeries) -> str | None:
    for n in range(2, e.truncation + 1):
        if not verify_omega_recursion(n):
            return f"convolution misses omega({n})"
    return None


def _factorizations(e: TreeSeries) -> str | None:
    # both factorizations check their own reassembly and raise on a mismatch
    for n in range(1, min(e.truncation, factor_bound()) + 1):
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
    ("coefficient-sums", 0, _coefficient_sums),
    ("binomial-product", 0, _binomial_product),
    ("binomial-recursion", 0, _binomial_recursion),
    ("omega-recursion", 0, _omega_recursion),
    ("factorizations", 0, _factorizations),
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


def verify_sums(n: int) -> bool:
    """Degree-n coefficient sums: sum a_hat(t) = omega(n), hence sum a(t) = 1/n!."""
    if n < 1:
        raise ValueError(f"coefficient sums start at degree 1, got {n}")
    return _run(_sums_at, n) is None
