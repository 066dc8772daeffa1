"""The exponential series over the free magma and its integer normalization.

The coefficient a(t) is fixed by a(1) = a(x) = 1 and, for a tree of degree
n >= 2 with factors t1 and t2,

    a(t1 * t2) = a(t1) * a(t2) / (2**n - 2).

The series exp = sum a(t) t satisfies exp * exp = exp(2x) and exp' = exp,
and is the unique such series with constant term 1 and a(x) = 1.  Scaling by
2**(n-1) * (n-1)!_M turns a(t) into a positive integer a_hat(t), which also
equals a product of Mersenne binomials over the inner nodes of t; both
routes are implemented here, and `verify` checks them against each other.
The trees with a_hat(t) = 1 are exactly the comb trees.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvariantError
from .mersenne import _product, mersenne_binomial, mersenne_factorial
from .series import TreeSeries, _truncation
from .trees import (
    UNIT,
    MagmaTree,
    _render_each,
    decompose,
    enumerate_trees,
    inner_nodes,
    render,
)


# trees above this degree take a(t) from one walk over their inner nodes
_RECURSION_DEGREE = 64


@lru_cache(maxsize=None)
def a_coefficient(t: MagmaTree) -> Fraction:
    """Exact coefficient of the tree t in the exponential series.

    Unrolled, the recursion is 1 / prod(2**m - 2) over the degrees m of the
    inner nodes: the reciprocal of an integer.  Trees above degree 64 take that
    product over an explicit walk, so deep trees never reach the recursion limit.
    """
    if t.degree <= 1:
        return Fraction(1)
    if t.degree > _RECURSION_DEGREE:
        factors = [(1 << s.degree) - 2 for s, _ in inner_nodes(t)]
        return Fraction(1, _product(factors))
    denominator = a_coefficient(t.left).denominator * a_coefficient(t.right).denominator
    return Fraction(1, denominator * ((1 << t.degree) - 2))


def exp_series(truncation: int) -> TreeSeries:
    """The exponential series with all tree coefficients up to the truncation."""
    truncation = _truncation(truncation)
    # the top degree first: an over-budget truncation is refused before any tree is built
    enumerate_trees(max(truncation, 1))
    coeffs: dict[MagmaTree, tuple[int, int]] = {UNIT: (1, 1)}
    for n in range(1, truncation + 1):
        for t in enumerate_trees(n):
            coeffs[t] = a_coefficient(t).as_integer_ratio()
    return TreeSeries._raw(truncation, coeffs)


@lru_cache(maxsize=None)
def a_hat(t: MagmaTree) -> int:
    """The integer 2**(n-1) * (n-1)!_M * a(t) for a tree of degree n >= 1.

    Integrality and positivity are theorems; violations raise, naming the tree.
    """
    n = t.degree
    if n < 1:
        raise ValueError("a_hat is defined for trees of degree >= 1")
    a = a_coefficient(t)
    value, remainder = divmod(a.numerator * _a_hat_scale(n), a.denominator)
    if remainder or value <= 0:
        raise InvariantError(f"a_hat({render(t)}) is not a positive integer")
    return value


@lru_cache(maxsize=64)
def _a_hat_scale(n: int) -> int:
    """The normalization 2**(n-1) * (n-1)!_M that turns a(t) into a_hat(t)."""
    return mersenne_factorial(n - 1) << (n - 1)


def a_hat_product(t: MagmaTree) -> int:
    """a_hat as the product of one Mersenne binomial per inner node.

    An inner node whose subtree has degree m and left degree k contributes
    mersenne_binomial(m - 2, k - 1), which is 1 when a factor is the leaf x
    (k = 1 or k = m - 1), so only the other nodes multiply.  Independent of
    a_hat's recursion: one walk over the inner nodes on an explicit stack,
    never a call per subtree.
    """
    if t.degree < 1:
        raise ValueError("a_hat_product is defined for trees of degree >= 1")
    product = 1
    stack = [t]
    while stack:
        s = stack.pop()
        while s.left is not None:  # down the left spine, right factors to the stack
            if 1 < s.left.degree < s.degree - 1:
                product *= mersenne_binomial(s.degree - 2, s.left.degree - 1)
            stack.append(s.right)
            s = s.left
    return product


def a_hat_recursion_check(t: MagmaTree) -> bool:
    """One step of the a_hat recursion, checked against the cached values."""
    if t.degree < 2:
        raise ValueError("the recursion applies to trees of degree >= 2")
    t1, t2 = decompose(t)
    step = mersenne_binomial(t.degree - 2, t1.degree - 1) * a_hat(t1) * a_hat(t2)
    return a_hat(t) == step


def trees_with_a_hat_one(n: int) -> list[MagmaTree]:
    """All degree-n trees whose normalized coefficient is 1, canonical order."""
    return [t for t in enumerate_trees(n) if a_hat(t) == 1]


def coefficient_rows(degree: int) -> list[tuple[str, int, int, int, int]]:
    """Table rows (tree, degree, a numerator, a denominator, a_hat).

    One row per degree-`degree` tree, in canonical order.
    """
    if degree < 1:
        raise ValueError(f"coefficient tables start at degree 1, got {degree}")
    trees = enumerate_trees(degree)
    rows = []
    for t, text in zip(trees, _render_each(trees)):
        a = a_coefficient(t)
        rows.append((text, t.degree, a.numerator, a.denominator, a_hat(t)))
    return rows
