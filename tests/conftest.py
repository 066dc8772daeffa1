"""Shared fixtures.  SEED fixes every randomized suite; change it and the
whole run changes together, reproducibly."""

import importlib
import random
from fractions import Fraction

import pytest

from magmaexp import UNIT, TreeSeries, enumerate_trees

SEED = 20250821


def trial_valuation(m, p):
    """Exponent of p in m != 0, by repeated division."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@pytest.fixture
def rng():
    return random.Random(SEED)


def random_series(rng, truncation, density=0.5, magnitude=9):
    """Sparse series with small random rational coefficients."""
    terms = {}
    for n in range(truncation + 1):
        for t in [UNIT] if n == 0 else enumerate_trees(n):
            if rng.random() < density:
                num = rng.randint(-magnitude, magnitude)
                if num:
                    terms[t] = Fraction(num, rng.randint(1, magnitude))
    return TreeSeries(truncation, terms)


@pytest.fixture
def make_series(rng):
    def build(truncation, density=0.5, magnitude=9):
        return random_series(rng, truncation, density, magnitude)

    return build


@pytest.fixture
def double_denominator(monkeypatch):
    """patch(bad) makes a_coefficient(bad) return half its value, so that
    a_hat(bad) is no longer an integer; the a_hat cache is emptied around it."""
    exponential = importlib.import_module("magmaexp.exponential")
    original = exponential.a_coefficient

    def patch(bad):
        def halved(t):
            a = original(t)
            return Fraction(a.numerator, 2 * a.denominator) if t is bad else a

        monkeypatch.setattr(exponential, "a_coefficient", halved)

    exponential.a_hat.cache_clear()
    yield patch
    exponential.a_hat.cache_clear()
