"""Randomized and exhaustive property suites, one bundle per module family.

Each check_* function is self-contained so the acceptance suite can time the
whole bundle; the pytest wrappers below run the same functions one by one.
All randomness comes from random.Random(SEED) with SEED from conftest.
"""

import random
from fractions import Fraction

from magmaexp import (
    TreeSeries,
    enumerate_trees,
    gaussian_binomial_at_2,
    generator,
    mersenne_binomial,
    one,
    parse,
    render,
)

from conftest import SEED, random_series


def check_ring_laws(rng):
    # associativity of + and both distributive laws; * is nonassociative
    for _ in range(25):
        n = rng.randint(0, 6)
        f = random_series(rng, n)
        g = random_series(rng, n)
        h = random_series(rng, n)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f * one(n) == f
        assert one(n) * f == f
        assert (f - f).is_zero()
        assert f.scale(0).is_zero()
    x = generator(3)
    assert (x * x) * x != x * (x * x)


def check_leibniz(rng):
    # the product rule determines degrees < n only: the derivative of a
    # truncation-n product is blind to what degree n+1 would contribute
    for _ in range(25):
        n = rng.randint(0, 6)
        f = random_series(rng, n)
        g = random_series(rng, n)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        cut = max(n - 1, 0)
        assert lhs.truncate(cut) == rhs.truncate(cut)
        assert (f + g).derivative() == f.derivative() + g.derivative()


def check_substitution_homomorphism(rng):
    for _ in range(15):
        n = rng.randint(1, 5)
        f = random_series(rng, n)
        g = random_series(rng, n)
        h = random_series(rng, n)
        h = h - TreeSeries(n, {t: c for t, c in h.terms() if t.degree == 0})
        assert h.order() >= 1
        assert (f * g).substitute(h) == f.substitute(h) * g.substitute(h)
        assert (f + g).substitute(h) == f.substitute(h) + g.substitute(h)


def check_ord_additivity(rng):
    found = 0
    while found < 40:
        n = rng.randint(1, 6)
        f = random_series(rng, n, density=0.4)
        g = random_series(rng, n, density=0.4)
        if f.is_zero() or g.is_zero():
            continue
        if f.order() + g.order() > n:
            continue
        assert (f * g).order() == f.order() + g.order()
        found += 1


def check_classical_projection(rng):
    def dense_multiply(a, b, n):
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i + j <= n:
                    out[i + j] += ai * bj
        return tuple(out)

    for _ in range(20):
        n = rng.randint(0, 6)
        f = random_series(rng, n)
        g = random_series(rng, n)
        product = (f * g).classical_projection()
        expected = dense_multiply(
            f.classical_projection().coefficients,
            g.classical_projection().coefficients,
            n,
        )
        assert product.coefficients == expected
        total = (f + g).classical_projection()
        assert total.coefficients == tuple(
            a + b
            for a, b in zip(
                f.classical_projection().coefficients,
                g.classical_projection().coefficients,
            )
        )


def check_round_trip_parsing():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert parse(render(t)) == t
    # normalization of messy but grammatical input
    assert render(parse(" (  1 * ( x *\tx ) ) ")) == "(x*x)"


def check_catalan_counts():
    # stops at degree 13; tests/test_trees.py counts degree 14 in a child
    cat = [1]
    for n in range(1, 13):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    for n in range(1, 14):
        assert len(enumerate_trees(n)) == cat[n - 1]


def check_gaussian_agreement():
    for n in range(41):
        for r in range(n + 1):
            assert mersenne_binomial(n, r) == gaussian_binomial_at_2(n, r)


def check_serialization_round_trip(rng):
    for _ in range(20):
        n = rng.randint(0, 6)
        f = random_series(rng, n)
        assert TreeSeries.from_text(f.to_text()) == f


ALL_CHECKS = (
    check_ring_laws,
    check_leibniz,
    check_substitution_homomorphism,
    check_ord_additivity,
    check_classical_projection,
    check_round_trip_parsing,
    check_catalan_counts,
    check_gaussian_agreement,
    check_serialization_round_trip,
)


def run_bundle():
    """Run every check with a fresh seeded generator; used by acceptance."""
    for check in ALL_CHECKS:
        if check.__code__.co_argcount:
            check(random.Random(SEED))
        else:
            check()


def test_ring_laws(rng):
    check_ring_laws(rng)


def test_leibniz(rng):
    check_leibniz(rng)


def test_substitution_homomorphism(rng):
    check_substitution_homomorphism(rng)


def test_ord_additivity(rng):
    check_ord_additivity(rng)


def test_classical_projection(rng):
    check_classical_projection(rng)


def test_round_trip_parsing():
    check_round_trip_parsing()


def test_catalan_counts():
    check_catalan_counts()


def test_gaussian_agreement():
    check_gaussian_agreement()


def test_serialization_round_trip(rng):
    check_serialization_round_trip(rng)
