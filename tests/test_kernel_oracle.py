"""The series kernel against the plain all-pairs kernel it replaced.

The reference functions below are the straightforward algorithms: the
product visits every pair of terms and drops those above the truncation,
and every contribution is added as a Fraction, one term at a time.  They
work on plain dicts of Fractions and share no code with `magmaexp.series`
beyond tree grafting.  After every operation the kernel's stored terms must
also keep the series invariants: no degree above the truncation, and every
value an integer pair (p, q) with p != 0, q > 0 and gcd(p, q) == 1.
"""

import copy
import math
import random
from fractions import Fraction

import pytest

from conftest import SEED, random_series
from magmaexp import UNIT, X, TreeSeries, exp_series, graft, parse


# -- reference kernel --------------------------------------------------------


def _accumulate(acc, t, c):
    s = acc.get(t, Fraction(0)) + c
    if s:
        acc[t] = s
    else:
        acc.pop(t, None)


def reference_series(pairs):
    acc = {}
    for t, c in pairs:
        _accumulate(acc, t, Fraction(c))
    return acc


def all_pairs_product(a, b, truncation):
    acc = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            if t1.degree + t2.degree > truncation:
                continue
            _accumulate(acc, graft(t1, t2), c1 * c2)
    return acc


def reference_sum(a, b, sign=1):
    acc = dict(a)
    for t, c in b.items():
        _accumulate(acc, t, sign * c)
    return acc


def monomial_derivative(t):
    if t.degree == 0:
        return {}
    if t.left is None:
        return {UNIT: 1}
    acc = {}
    for s, m in monomial_derivative(t.left).items():
        key = graft(s, t.right)
        acc[key] = acc.get(key, 0) + m
    for s, m in monomial_derivative(t.right).items():
        key = graft(t.left, s)
        acc[key] = acc.get(key, 0) + m
    return acc


def per_term_derivative(a):
    acc = {}
    for t, c in a.items():
        for s, m in monomial_derivative(t).items():
            _accumulate(acc, s, c * m)
    return acc


def per_term_dilate(a, c):
    c = Fraction(c)
    return {t: v * c**t.degree for t, v in a.items() if v * c**t.degree}


def reference_substitute(a, g, truncation):
    def image(t):
        if t.degree == 0:
            return {UNIT: Fraction(1)}
        if t.left is None:
            return dict(g)
        return all_pairs_product(image(t.left), image(t.right), truncation)

    acc = {}
    for t, c in a.items():
        for s, v in image(t).items():
            _accumulate(acc, s, c * v)
    return acc


# -- checks ------------------------------------------------------------------


def assert_invariants(s):
    for t, pair in s._coeffs.items():
        assert type(pair) is tuple and len(pair) == 2
        p, q = pair
        assert type(p) is int and type(q) is int
        assert p != 0
        assert q > 0
        assert math.gcd(p, q) == 1
        assert t.degree <= s.truncation


def assert_matches(result, expected):
    assert_invariants(result)
    assert dict(result.terms()) == expected


def check_all_operations(f, g, h):
    """Every kernel operation on f and g (and h, of order >= 1) vs the reference."""
    n = f.truncation
    a, b = dict(f.terms()), dict(g.terms())
    assert_matches(f * g, all_pairs_product(a, b, n))
    assert_matches(g * f, all_pairs_product(b, a, n))
    assert_matches(f * f, all_pairs_product(a, a, n))
    assert_matches(f * copy.copy(f), all_pairs_product(a, a, n))
    assert_matches(f + g, reference_sum(a, b))
    assert_matches(f - g, reference_sum(a, b, -1))
    assert_matches(f - f, {})
    assert_matches(f.derivative(), per_term_derivative(a))
    for c in (2, Fraction(-2, 3), 0):
        assert_matches(f.dilate(c), per_term_dilate(a, c))
    assert_matches(f.substitute(h), reference_substitute(a, dict(h.terms()), n))


def order_one(rng, truncation):
    """A sparse random series without constant term."""
    s = random_series(rng, truncation, density=0.15)
    return TreeSeries(truncation, [(t, c) for t, c in s.terms() if t.degree >= 1])


@pytest.mark.parametrize("truncation", range(8))
def test_random_series_match_reference(truncation):
    rng = random.Random(SEED + truncation)
    for _ in range(3):
        f = random_series(rng, truncation)
        g = random_series(rng, truncation)
        check_all_operations(f, g, order_one(rng, truncation))
    # each degree of exp has several denominators, with the comb's as their
    # lcm; series-io's coefficients, up to 10**6 over up to 10**6, give each
    # degree an lcm far above any one of its denominators
    inputs = [exp_series(truncation)]
    if truncation <= 6:
        inputs.append(random_series(rng, truncation, magnitude=10**6))
    for f in inputs:
        g = random_series(rng, truncation)
        check_all_operations(f, g, order_one(rng, truncation))


@pytest.mark.parametrize("truncation", range(8))
def test_unit_coefficient_other_than_one(truncation):
    rng = random.Random(SEED - truncation)
    for unit in (Fraction(3, 2), Fraction(-7, 5)):
        f = random_series(rng, truncation) + TreeSeries(truncation, {UNIT: unit})
        g = random_series(rng, truncation)
        check_all_operations(f, g, order_one(rng, truncation))


def test_product_sums_that_cancel():
    # (1 + x)(1 - x) = 1 - x*x: the two x contributions cancel
    f = TreeSeries(3, {UNIT: 1, X: 1})
    g = TreeSeries(3, {UNIT: 1, X: -1})
    product = f * g
    assert_matches(product, all_pairs_product(dict(f.terms()), dict(g.terms()), 3))
    assert dict(product.terms()) == {UNIT: 1, graft(X, X): -1}


def test_derivative_sums_that_cancel():
    # both degree-3 trees differentiate to 3 (x*x)
    f = TreeSeries(3, {parse("((x*x)*x)"): 1, parse("(x*(x*x))"): -1, X: 5})
    d = f.derivative()
    assert_matches(d, per_term_derivative(dict(f.terms())))
    assert dict(d.terms()) == {UNIT: 5}
    assert_matches(TreeSeries(3, {X: 5}).derivative().derivative(), {})


def test_mixed_denominators():
    # x coefficient: 1/2 * 1/7 + 1/3 * 1/5 = 1/14 + 1/15, no common denominator
    f = TreeSeries(2, {UNIT: Fraction(1, 2), X: Fraction(1, 3)})
    g = TreeSeries(2, {UNIT: Fraction(1, 5), X: Fraction(1, 7)})
    assert_matches(f * g, all_pairs_product(dict(f.terms()), dict(g.terms()), 2))
    assert (f * g).coefficient(X) == Fraction(29, 210)
    # 1/2 * 1/3 + 1/3 * 1 = 1/6 + 2/6 sums to 3/6, which must come out as 1/2
    h = TreeSeries(2, {UNIT: 1, X: Fraction(1, 3)})
    assert_matches(f * h, all_pairs_product(dict(f.terms()), dict(h.terms()), 2))
    assert (f * h).coefficient(X) == Fraction(1, 2)
    # derivative: 3/4 + 3/6 lands on (x*x) from two trees
    k = TreeSeries(3, {parse("((x*x)*x)"): Fraction(1, 4), parse("(x*(x*x))"): Fraction(1, 6)})
    assert_matches(k.derivative(), per_term_derivative(dict(k.terms())))
    assert k.derivative().coefficient(graft(X, X)) == Fraction(5, 4)


def test_constructor_merges_repeated_pairs():
    xx = graft(X, X)
    pairs = [
        (X, Fraction(1, 2)), (xx, 2), (X, Fraction(1, 3)), (UNIT, 1),
        (xx, -2), (X, Fraction(1, 6)), (UNIT, 0),
    ]
    s = TreeSeries(3, pairs)
    assert_matches(s, reference_series(pairs))
    assert dict(s.terms()) == {X: 1, UNIT: 1}
    # a tree whose sum cancelled can come back
    again = [(X, 1), (X, -1), (X, 5), (xx, Fraction(0))]
    assert_matches(TreeSeries(3, again), {X: 5})
    assert_matches(TreeSeries(3, {X: 0}), {})


def test_public_edge_gives_normalized_fractions():
    xx = graft(X, X)
    s = TreeSeries(3, {UNIT: 4, X: Fraction(2, 4), xx: Fraction(-3, 6)})
    assert_invariants(s)
    assert s._coeffs == {UNIT: (4, 1), X: (1, 2), xx: (-1, 2)}
    for t, c in list(s.terms()) + [(t, s.coefficient(t)) for t in (UNIT, X, xx)]:
        assert type(c) is Fraction
        assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
    assert s.coefficient(X) == Fraction(1, 2)
    assert s.coefficient(parse("(x*(x*x))")) == 0
    assert type(s.coefficient(parse("(x*(x*x))"))) is Fraction
    # each text line is reduced with its sign on the numerator
    lines = TreeSeries.from_text("truncation\t3\n1\t-8/-2\nx\t2/4\n(x*x)\t1/-2\n((x*x)*x)\t0/-3\n")
    assert_invariants(lines)
    assert lines == TreeSeries.from_text("truncation\t3\n1\t4/1\nx\t1/2\n(x*x)\t-1/2\n")
    assert lines == s
    assert lines.to_text() == "truncation\t3\n1\t4/1\nx\t1/2\n(x*x)\t-1/2\n"
