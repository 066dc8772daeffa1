import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import magmaexp
import magmaexp.verify as verify
from magmaexp import (
    CheckResult,
    TreeSeries,
    a_hat_product,
    a_hat_recursion_check,
    comb_trees,
    convolution_term,
    exp_series,
    omega,
    parse,
    run_verification,
    verify_derivative,
    verify_functional_equation,
    verify_split_sums,
)

# the package re-exports the function omega under the submodule's name
omega_module = importlib.import_module("magmaexp.omega")


def test_degree_zero_is_vacuous():
    assert run_verification(0) == [
        CheckResult("functional-equation", True, ""),
        CheckResult("derivative", True, "vacuous below degree 1"),
        CheckResult("coefficient-sums", True, ""),
        CheckResult("binomial-product", True, ""),
        CheckResult("binomial-recursion", True, ""),
        CheckResult("omega-recursion", True, ""),
        CheckResult("factorizations", True, ""),
    ]


def test_negative_degrees_are_refused():
    with pytest.raises(ValueError, match="got -1"):
        run_verification(-1)
    with pytest.raises(ValueError, match="got 1"):
        verify_split_sums(1)


def test_failing_checks_name_their_counterexamples(monkeypatch):
    # perturb one coefficient of the series every check reads, and put
    # omega off by one for the checks that read omega
    t, delta = parse("(x*(x*x))"), Fraction(1, 5)

    def perturbed_exp_series(n):
        e = exp_series(n)
        return e + TreeSeries(n, {t: delta}) if t.degree <= n else e

    def omega_off_by_one(n):
        return omega(n) + 1

    monkeypatch.setattr(verify, "exp_series", perturbed_exp_series)
    monkeypatch.setattr(verify, "omega", omega_off_by_one)
    monkeypatch.setattr(omega_module, "omega", omega_off_by_one)
    products = []
    multiply = TreeSeries.__mul__

    def counting_mul(a, b):
        products.append(b)
        return multiply(a, b)

    monkeypatch.setattr(TreeSeries, "__mul__", counting_mul)

    results = run_verification(4)
    assert len(products) == 1  # the failing functional equation multiplies once
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("functional-equation", False, "coefficient of (x*(x*x)) off by -6/5"),
        ("derivative", False, "coefficient of (x*x) off by 3/5"),
        ("coefficient-sums", False, "sum of a_hat at degree 1 is 1"),
        ("binomial-product", True, ""),
        ("binomial-recursion", True, ""),
        ("omega-recursion", False, "convolution misses omega(2)"),
        ("factorizations", False, "omega(1) factorization does not reassemble"),
    ]
    passed = {r.name: r.passed for r in results}
    assert verify_functional_equation(4) == passed["functional-equation"]
    assert verify_derivative(3) == passed["derivative"]
    assert all(verify_split_sums(n) for n in range(2, 5)) == passed["coefficient-sums"]


def test_a_broken_invariant_fails_its_own_checks_and_the_rest_still_run(
    double_denominator,
):
    # a(((x*x)*x)) halved: every check that reads a_hat meets its
    # InvariantError; the series checks see the changed coefficient
    double_denominator(parse("((x*x)*x)"))
    broken = "a_hat(((x*x)*x)) is not a positive integer"
    assert [(r.name, r.passed, r.detail) for r in run_verification(4)] == [
        ("functional-equation", False, "coefficient of ((x*x)*x) off by 1/4"),
        ("derivative", False, "coefficient of (x*x) off by -1/8"),
        ("coefficient-sums", False, broken),
        ("binomial-product", False, broken),
        ("binomial-recursion", False, broken),
        ("omega-recursion", True, ""),
        ("factorizations", True, ""),
    ]


def test_boolean_helpers_return_false_on_a_broken_invariant(double_denominator):
    # the helpers share run_verification's failure path: a non-integer a_hat
    # is a failed identity, not an exception
    double_denominator(parse("((x*x)*x)"))
    passed = {r.name: r.passed for r in run_verification(4)}
    assert verify_split_sums(3) is False
    assert verify_functional_equation(4) is False
    assert verify_derivative(3) is False
    assert verify_functional_equation(4) == passed["functional-equation"]
    assert verify_derivative(3) == passed["derivative"]
    assert all(verify_split_sums(n) for n in range(2, 5)) == passed["coefficient-sums"]


def test_a_wrong_convolution_term_fails_the_split_sums(monkeypatch):
    def off_at_two(n, k):
        return convolution_term(n, k) + (k == 2)

    monkeypatch.setattr(verify, "convolution_term", off_at_two)
    results = {r.name: r for r in run_verification(4)}
    assert results["coefficient-sums"] == CheckResult(
        "coefficient-sums", False, "sum of a_hat at degree 3 with left degree 2 is 1"
    )
    assert verify_split_sums(3) is False
    assert verify_split_sums(2) is True


def test_a_missing_comb_fails_the_binomial_products(monkeypatch):
    def one_short_at_four(n):
        combs = comb_trees(n)
        return combs[1:] if n == 4 else combs

    monkeypatch.setattr(verify, "comb_trees", one_short_at_four)
    results = {r.name: r for r in run_verification(5)}
    assert results["binomial-product"] == CheckResult(
        "binomial-product", False, "a_hat is 1 off the comb trees at degree 4"
    )
    assert verify._products_at(3) is None
    assert verify._products_at(4) == "a_hat is 1 off the comb trees at degree 4"


def test_wrong_binomial_routes_name_their_trees(monkeypatch):
    bad = parse("(x*(x*x))")

    def product_off_at_bad(t):
        return a_hat_product(t) + (t is bad)

    def recursion_fails_at_bad(t):
        return t is not bad and a_hat_recursion_check(t)

    monkeypatch.setattr(verify, "a_hat_product", product_off_at_bad)
    monkeypatch.setattr(verify, "a_hat_recursion_check", recursion_fails_at_bad)
    results = {r.name: r for r in run_verification(4)}
    assert results["binomial-product"] == CheckResult(
        "binomial-product", False, "(x*(x*x)): recursion gives 1, product 2"
    )
    assert results["binomial-recursion"] == CheckResult(
        "binomial-recursion", False, "recursion step fails at (x*(x*x))"
    )


def test_only_verify_defines_identity_checks():
    for info in pkgutil.iter_modules(magmaexp.__path__):
        if info.name == "__main__":
            continue
        name = f"magmaexp.{info.name}"
        module = importlib.import_module(name)
        defined = [
            attr
            for attr, value in vars(module).items()
            if attr.startswith("verify_")
            and inspect.isfunction(value)
            and value.__module__ == name
        ]
        assert defined == [] or info.name == "verify", (name, defined)
