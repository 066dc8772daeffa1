"""Planar binary rooted trees, the free unital magma on one generator x.

A tree is the unit 1, the generator x, or a grafted pair t1 * t2 of nonunit
trees.  Grafting absorbs the unit on either side, so products never store a
unit child and every tree of degree >= 2 decomposes uniquely into its two
subtrees.  The degree (leaf count) is additive under grafting.

Canonical order inside one degree: ascending by the degree of the left
factor, then by the left factor's own canonical position, then the right
factor's.  enumerate_trees lists trees in exactly that order (Catalan many
per degree) and canonical_rank computes a tree's position without
enumerating anything.

Wire format: t ::= "1" | "x" | "(" t "*" t ")", whitespace insignificant.
render always emits the fully parenthesized canonical form; parse accepts
any grammar-conforming string and normalizes units away per the unit law.
"""

from __future__ import annotations

import threading
from math import comb

from .errors import BoundExceededError

DEFAULT_TREE_BUDGET = 1_000_000


def catalan(n: int) -> int:
    """The n-th Catalan number; catalan(0) == 1."""
    if n < 0:
        raise ValueError(f"catalan needs n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


class MagmaTree:
    """Immutable tree value with structural equality and a cached hash.

    Do not call the constructor with unit children; build trees with graft,
    parse, or enumerate_trees.  UNIT and X are the only atoms and are module
    singletons, so identity comparison is valid for them.
    """

    __slots__ = ("left", "right", "degree", "_hash")

    def __init__(self, left: "MagmaTree", right: "MagmaTree"):
        if left.degree == 0 or right.degree == 0:
            raise ValueError("unit children are collapsed by graft(), not stored")
        self.left = left
        self.right = right
        self.degree = left.degree + right.degree
        self._hash = hash((left._hash, right._hash))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MagmaTree):
            return NotImplemented
        # explicit stack, so deep trees never reach the recursion limit
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.degree != b.degree or a._hash != b._hash:
                return False
            if a.left is None or b.left is None:
                return False  # atoms are singletons
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        return True

    def __repr__(self) -> str:
        return f"MagmaTree({render(self)!r})"


def _atom(degree: int, tag: str) -> MagmaTree:
    t = MagmaTree.__new__(MagmaTree)
    t.left = None
    t.right = None
    t.degree = degree
    t._hash = hash(("magma-atom", tag))
    return t


UNIT = _atom(0, "1")
X = _atom(1, "x")


def graft(t1: MagmaTree, t2: MagmaTree) -> MagmaTree:
    """Magma product; the unit is absorbed on either side."""
    if t1.degree == 0:
        return t2
    if t2.degree == 0:
        return t1
    return MagmaTree(t1, t2)


def decompose(t: MagmaTree) -> tuple[MagmaTree, MagmaTree]:
    """The unique factors of a tree of degree >= 2."""
    if t.left is None:
        raise ValueError(f"degree-{t.degree} trees do not decompose")
    return t.left, t.right


_trees_lock = threading.Lock()
_trees_by_degree: dict[int, tuple[MagmaTree, ...]] = {1: (X,)}


def enumerate_trees(n: int, max_trees: int | None = None) -> list[MagmaTree]:
    """All trees of degree n in canonical order (Catalan(n-1) of them).

    Refuses degrees whose tree count exceeds the budget (default
    DEFAULT_TREE_BUDGET) instead of exhausting memory.
    """
    if n < 1:
        raise ValueError(f"enumerate_trees needs n >= 1, got {n}")
    budget = DEFAULT_TREE_BUDGET if max_trees is None else max_trees
    count = catalan(n - 1)
    if count > budget:
        raise BoundExceededError(
            f"degree {n} has {count} trees, over the budget of {budget}"
        )
    if n not in _trees_by_degree:
        with _trees_lock:
            for d in range(2, n + 1):
                if d in _trees_by_degree:
                    continue
                _trees_by_degree[d] = tuple(
                    MagmaTree(l, r)
                    for k in range(1, d)
                    for l in _trees_by_degree[k]
                    for r in _trees_by_degree[d - k]
                )
    return list(_trees_by_degree[n])


def canonical_rank(t: MagmaTree) -> int:
    """Position of t within enumerate_trees(t.degree), without enumerating."""
    if t.degree == 0:
        return 0
    if t.left is None:
        return 0
    n = t.degree
    k = t.left.degree
    rank = sum(catalan(j - 1) * catalan(n - j - 1) for j in range(1, k))
    return rank + canonical_rank(t.left) * catalan(n - k - 1) + canonical_rank(t.right)


def canonical_sort_key(t: MagmaTree) -> tuple[int, int]:
    """Sort key ordering trees by (degree, canonical position)."""
    return (t.degree, canonical_rank(t))


def comb_trees(n: int) -> list[MagmaTree]:
    """The comb trees of degree n: x itself, then x*t and t*x recursively.

    There are 2**(n-2) of them for n >= 2, returned in canonical order.
    """
    if n < 1:
        raise ValueError(f"comb_trees needs n >= 1, got {n}")
    level = [X]
    for d in range(2, n + 1):
        if d == 2:
            level = [MagmaTree(X, X)]
            continue
        level = [MagmaTree(X, t) for t in level] + [MagmaTree(t, X) for t in level]
    return level


def inner_nodes(t: MagmaTree) -> list[tuple[MagmaTree, int]]:
    """Preorder list of (subtree rooted at an inner node, its left degree).

    A degree-n tree yields n - 1 entries; atoms yield none.
    """
    if t.degree < 1:
        raise ValueError("inner_nodes is for trees of degree >= 1")
    out: list[tuple[MagmaTree, int]] = []
    stack = [t]
    while stack:
        s = stack.pop()
        if s.left is None:
            continue
        out.append((s, s.left.degree))
        stack.append(s.right)
        stack.append(s.left)
    return out


class ParseError(ValueError):
    """Syntax error in the tree wire format, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


def render(t: MagmaTree) -> str:
    """Fully parenthesized canonical string for t."""
    if t.left is None:
        return "1" if t.degree == 0 else "x"
    return f"({render(t.left)}*{render(t.right)})"


def parse(text: str) -> MagmaTree:
    """Parse the wire format; inverse of render up to unit normalization."""
    pos = _skip_ws(text, 0)
    t, pos = _parse_tree(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return t


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_tree(text: str, pos: int) -> tuple[MagmaTree, int]:
    if pos >= len(text):
        raise ParseError("expected '1', 'x' or '(', found end of input", pos)
    c = text[pos]
    if c == "1":
        return UNIT, pos + 1
    if c == "x":
        return X, pos + 1
    if c == "(":
        left, pos = _parse_tree(text, _skip_ws(text, pos + 1))
        pos = _expect(text, _skip_ws(text, pos), "*")
        right, pos = _parse_tree(text, _skip_ws(text, pos))
        pos = _expect(text, _skip_ws(text, pos), ")")
        return graft(left, right), pos
    raise ParseError(f"expected '1', 'x' or '(', found {c!r}", pos)


def _expect(text: str, pos: int, token: str) -> int:
    if pos >= len(text):
        raise ParseError(f"expected {token!r}, found end of input", pos)
    if text[pos] != token:
        raise ParseError(f"expected {token!r}, found {text[pos]!r}", pos)
    return pos + 1
