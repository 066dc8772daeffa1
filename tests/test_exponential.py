import importlib
import random
from fractions import Fraction
from math import factorial

import pytest

import magmaexp.verify as verify
from magmaexp import (
    BoundExceededError,
    InvariantError,
    TreeSeries,
    UNIT,
    X,
    a_coefficient,
    a_hat,
    a_hat_product,
    a_hat_recursion_check,
    coefficient_rows,
    comb_trees,
    enumerate_trees,
    exp_series,
    graft,
    omega,
    parse,
    render,
    run_verification,
    trees_with_a_hat_one,
    verify_derivative,
    verify_functional_equation,
    verify_split_sums,
)
from magmaexp.trees import _trees_by_degree

from conftest import SEED


def a_oracle(t):
    # independent recursion, no caching, straight from the definition
    if t.degree <= 1:
        return Fraction(1)
    return a_oracle(t.left) * a_oracle(t.right) / (2**t.degree - 2)


def test_a_coefficient_values():
    assert a_coefficient(UNIT) == 1
    assert a_coefficient(X) == 1
    assert a_coefficient(parse("(x*x)")) == Fraction(1, 2)
    assert a_coefficient(parse("(x*(x*x))")) == Fraction(1, 12)
    assert a_coefficient(parse("((x*x)*(x*x))")) == Fraction(1, 56)


def test_a_coefficient_against_oracle():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert a_coefficient(t) == a_oracle(t)


def balanced_tree(n):
    return X if n == 1 else graft(balanced_tree(n // 2), balanced_tree(n - n // 2))


@pytest.mark.parametrize("bad", [parse("((x*x)*x)"), balanced_tree(1024)])
def test_a_hat_names_the_tree_of_a_broken_coefficient(bad, double_denominator):
    # every a_hat is odd, so halving a(t) leaves a remainder; the message
    # names the tree and not the numbers, here far past the int-to-str limit
    double_denominator(bad)
    with pytest.raises(InvariantError) as failure:
        a_hat(bad)
    assert str(failure.value) == f"a_hat({render(bad)}) is not a positive integer"


def test_exp_series_small():
    e = exp_series(2)
    assert e.truncation == 2
    assert e.coefficient(UNIT) == 1
    assert e.coefficient(X) == 1
    assert e.coefficient(parse("(x*x)")) == Fraction(1, 2)
    assert exp_series(0) == TreeSeries(0, {UNIT: 1})


def test_exp_series_refuses_an_over_budget_truncation_before_building(monkeypatch):
    # degree 15 has 2,674,440 trees; degree 14, inside the budget, would cost
    # 742,900 trees and about 10 s if it were built on the way there.  Other
    # suites may have built it already, so it is taken out for this test.
    monkeypatch.delitem(_trees_by_degree, 14, raising=False)
    with pytest.raises(BoundExceededError, match="degree 15"):
        exp_series(15)
    assert 14 not in _trees_by_degree
    # the tree count stops at the budget, so a huge degree is refused at once
    with pytest.raises(BoundExceededError, match="^degree 1000000 has more than "):
        exp_series(10**6)


def test_exp_series_takes_its_truncation_like_tree_series():
    text = exp_series(True).to_text()
    assert text.startswith("truncation\t1\n")
    assert TreeSeries.from_text(text) == exp_series(1)
    with pytest.raises(TypeError):
        TreeSeries(2.5)
    with pytest.raises(TypeError):
        exp_series(2.0)
    with pytest.raises(ValueError, match="truncation must be >= 0"):
        exp_series(-1)


def test_a_hat_values():
    assert a_hat(X) == 1
    assert a_hat(parse("(x*x)")) == 1
    assert a_hat(parse("((x*x)*(x*x))")) == 3
    assert all(a_hat(t) == 1 for t in comb_trees(6))
    with pytest.raises(ValueError):
        a_hat(UNIT)


def test_a_hat_triple_agreement():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert a_coefficient(t).numerator == 1
            value = a_hat(t)
            assert value == a_hat_product(t)
            if n >= 2:
                assert a_hat_recursion_check(t)


def random_tree(rng, n):
    if n == 1:
        return X
    k = rng.randint(1, n - 1)
    return graft(random_tree(rng, k), random_tree(rng, n - k))


def test_a_coefficient_above_the_recursion_degree():
    # from degree 65 on, a(t) is one product over the inner nodes
    rng = random.Random(SEED)
    for n in (64, 65, 66, 90):
        for _ in range(5):
            t = random_tree(rng, n)
            assert a_coefficient(t) == a_oracle(t)
            assert a_hat(t) == a_hat_product(t)


def test_a_hat_of_a_deep_comb():
    # 1,501 leaves are past the recursion limit
    comb = X
    for _ in range(1500):
        comb = graft(comb, X)
    assert a_coefficient(comb).numerator == 1
    assert a_hat(comb) == a_hat_product(comb) == 1


def test_a_hat_product_skips_the_binomials_that_are_one(monkeypatch):
    # a leaf factor gives B(m - 2, 0) or B(m - 2, m - 2), both 1, so no call
    exponential = importlib.import_module("magmaexp.exponential")
    original = exponential.mersenne_binomial
    calls = []

    def recorded(n, r):
        calls.append((n, r))
        return original(n, r)

    trees = [t for n in range(1, 10) for t in enumerate_trees(n)]
    expected = [a_hat(t) for t in trees]
    monkeypatch.setattr(exponential, "mersenne_binomial", recorded)
    assert [a_hat_product(t) for t in trees] == expected
    assert calls and all(1 <= r <= n - 1 for n, r in calls)


def test_a_hat_product_examples():
    t = parse("((x*x)*(x*x))")
    assert a_hat_product(t) == 3
    assert a_hat_product(X) == 1
    with pytest.raises(ValueError):
        a_hat_product(UNIT)
    with pytest.raises(ValueError):
        a_hat_recursion_check(X)


def test_coefficient_sums():
    # degree 1 here; degrees 2..10 run the same check in test_split_sums
    (sums,) = [r for r in run_verification(1) if r.name == "coefficient-sums"]
    assert sums.passed
    # explicit degree-4 data: four combs and the balanced tree
    values = sorted(a_hat(t) for t in enumerate_trees(4))
    assert values == [1, 1, 1, 1, 3]
    assert sum(a_coefficient(t) for t in enumerate_trees(4)) == Fraction(1, factorial(4))
    assert sum(values) == omega(4) == 7


def test_classical_projection_is_ordinary_exp():
    # summing a(t) over each degree collapses the series to sum x^n / n!
    dense = exp_series(6).classical_projection()
    assert dense.coefficients == tuple(Fraction(1, factorial(n)) for n in range(7))


def test_functional_equation():
    for n in (0, 1, 4, 6):
        assert verify_functional_equation(n)


def test_derivative_identity():
    for n in (0, 1, 3, 5):
        assert verify_derivative(n)


def test_exp_multiplicativity_explicitly():
    e = exp_series(6)
    assert e * e == e.dilate(2)
    # and the substitution route gives the same thing
    two_x = TreeSeries(6, {X: 2})
    assert e.substitute(two_x) == e.dilate(2)


def test_comb_characterization():
    for n in range(2, 11):
        assert verify._products_at(n) is None
        ones = trees_with_a_hat_one(n)
        assert len(ones) == 2 ** (n - 2)
    assert trees_with_a_hat_one(1) == [X]


def test_split_sums():
    for n in range(2, 11):
        assert verify_split_sums(n)


def test_uniqueness_perturbation_breaks_functional_equation():
    rng = random.Random(SEED)
    e = exp_series(6)
    trees = [UNIT, X]
    for n in range(2, 7):
        trees.extend(enumerate_trees(n))
    for _ in range(20):
        t = rng.choice(trees)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            delta = -delta
        perturbed = e + TreeSeries(6, {t: delta})
        assert perturbed * perturbed != perturbed.dilate(2)


def test_coefficient_rows():
    rows = coefficient_rows(4)
    assert [r[0] for r in rows] == [
        "(x*(x*(x*x)))",
        "(x*((x*x)*x))",
        "((x*x)*(x*x))",
        "((x*(x*x))*x)",
        "(((x*x)*x)*x)",
    ]
    assert rows[2] == ("((x*x)*(x*x))", 4, 1, 56, 3)
    assert all(r[1] == 4 for r in rows)
    with pytest.raises(ValueError):
        coefficient_rows(0)
    with pytest.raises(BoundExceededError, match="^degree 100000 has more than "):
        coefficient_rows(10**5)


def test_graft_consistency_of_exponential():
    # the defining recursion, checked through the public pieces
    for n in range(2, 9):
        for t in enumerate_trees(n):
            assert a_coefficient(t) == a_coefficient(t.left) * a_coefficient(
                t.right
            ) / (2**n - 2)
            assert graft(t.left, t.right) == t
