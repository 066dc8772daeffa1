"""Planar binary rooted trees, the free unital magma on one generator x.

A tree is the unit 1, the generator x, or a grafted pair t1 * t2 of nonunit
trees.  Grafting absorbs the unit on either side, so products never store a
unit child and every tree of degree >= 2 decomposes uniquely into its two
subtrees.  The degree (leaf count) is additive under grafting.

Equal trees are one object: every node is built once, through one table
keyed by its two children, so equality and hashing are identity.  The table
is never cleared, since a node built afresh would not equal an older tree of
the same shape.  parse, render, canonical_rank and _bottom_up walk trees over
an explicit stack (render recurses only below degree 16), so deep trees never
reach the recursion limit.

Canonical order inside one degree: ascending by the degree of the left
factor, then by the left factor's own canonical position, then the right
factor's; that is, lexicographic in the left degrees of the inner nodes in
preorder (canonical_sort_key).  enumerate_trees lists trees in that order and
canonical_rank gives a tree's position without enumerating anything.

Wire format: t ::= "1" | "x" | "(" t "*" t ")", whitespace insignificant.
render always emits the fully parenthesized canonical form; parse accepts
any grammar-conforming string and normalizes units away per the unit law.
Within one call, render builds the text of each distinct shallow subtree
once, and _render_each shares those texts across a whole list of trees.
"""

from __future__ import annotations

from math import comb, inf
from typing import Callable, Iterator

from .errors import BoundExceededError

DEFAULT_TREE_BUDGET = 1_000_000


def catalan(n: int) -> int:
    """The n-th Catalan number; catalan(0) == 1."""
    if n < 0:
        raise ValueError(f"catalan needs n >= 0, got {n}")
    return comb(2 * n, n) // (n + 1)


def _catalans(n: int, bound: float = inf) -> list[int]:
    """[catalan(0), ..., catalan(n - 1)], cut after the first value above bound."""
    cat = [1]
    for i in range(1, n):
        cat.append(cat[-1] * (4 * i - 2) // (i + 1))
        if cat[-1] > bound:
            break
    return cat


class MagmaTree:
    """Immutable tree value; equal trees are one object.

    MagmaTree(left, right) returns the one node with those children, building
    it on first use and keeping it in a table that is never cleared, so == and
    hash are identity.  Do not pass unit children; build trees with graft,
    parse, or enumerate_trees.  UNIT and X are the only atoms.
    """

    __slots__ = ("left", "right", "degree")

    def __new__(cls, left: "MagmaTree", right: "MagmaTree") -> "MagmaTree":
        key = (left, right)
        t = _nodes.get(key)
        if t is None:
            if left.degree == 0 or right.degree == 0:
                raise ValueError("unit children are collapsed by graft(), not stored")
            t = object.__new__(cls)
            t.left = left
            t.right = right
            t.degree = left.degree + right.degree
            # the one point of synchronisation: racing builders keep the first
            t = _nodes.setdefault(key, t)
        return t

    def __reduce__(self):
        # pickle and copy hand back the same object; a node goes by its text,
        # since reducing it to its children would recurse through deep trees
        if self.left is None:
            return "UNIT" if self.degree == 0 else "X"
        return parse, (render(self),)

    def __repr__(self) -> str:
        return f"MagmaTree({render(self)!r})"


# every node ever built, by its children; never cleared, because a node
# built after clearing would not be equal to an older tree of the same shape
_nodes: dict[tuple[MagmaTree, MagmaTree], MagmaTree] = {}


def _atom(degree: int) -> MagmaTree:
    t = object.__new__(MagmaTree)
    t.left = None
    t.right = None
    t.degree = degree
    return t


UNIT = _atom(0)
X = _atom(1)


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


_trees_by_degree: dict[int, tuple[MagmaTree, ...]] = {1: (X,)}


def enumerate_trees(n: int) -> list[MagmaTree]:
    """All trees of degree n in canonical order (Catalan(n-1) of them).

    Refuses a degree with more than DEFAULT_TREE_BUDGET trees at once, since
    the count stops at the budget, instead of exhausting memory.
    """
    if n < 1:
        raise ValueError(f"enumerate_trees needs n >= 1, got {n}")
    # the Catalan numbers never decrease, so the count stops past the budget
    if _catalans(n, DEFAULT_TREE_BUDGET)[-1] > DEFAULT_TREE_BUDGET:
        raise BoundExceededError(
            f"degree {n} has more than {DEFAULT_TREE_BUDGET} trees"
        )
    # no lock: threads that build a degree at once build the same nodes
    for d in range(2, n + 1):
        if d not in _trees_by_degree:
            _trees_by_degree[d] = tuple(
                MagmaTree(l, r)
                for k in range(1, d)
                for l in _trees_by_degree[k]
                for r in _trees_by_degree[d - k]
            )
    return list(_trees_by_degree[n])


def canonical_rank(t: MagmaTree) -> int:
    """Position of t within enumerate_trees(t.degree), without enumerating."""
    cat = _catalans(t.degree)

    def rank(s: MagmaTree) -> int:
        n, k = s.degree, s.left.degree
        # trees whose left factor has degree < k come first; the shorter of
        # the two sums that make up catalan(n - 1) counts them
        if 2 * k <= n:
            start = sum(cat[j - 1] * cat[n - j - 1] for j in range(1, k))
        else:
            start = cat[n - 1] - sum(cat[j - 1] * cat[n - j - 1] for j in range(k, n))
        return start + ranks[s.left] * cat[n - k - 1] + ranks[s.right]

    ranks = {UNIT: 0, X: 0}
    return _bottom_up(t, ranks, rank)


def canonical_sort_key(t: MagmaTree) -> list[int]:
    """Sort key in canonical order: the degree, then inner left degrees in preorder."""
    key = [t.degree]
    stack = [t]
    while stack:
        s = stack.pop()
        while s.left is not None:
            key.append(s.left.degree)
            stack.append(s.right)
            s = s.left
    return key


def comb_trees(n: int) -> list[MagmaTree]:
    """The comb trees of degree n: x itself, then x*t and t*x recursively.

    There are 2**(n-2) of them for n >= 2, returned in canonical order.
    """
    if n < 1:
        raise ValueError(f"comb_trees needs n >= 1, got {n}")
    level = [X] if n == 1 else [MagmaTree(X, X)]
    for _ in range(3, n + 1):
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


def _bottom_up(t: MagmaTree, cache: dict, combine: Callable[[MagmaTree], object]):
    """cache[t], first filling cache[s] = combine(s) for every missing subtree s.

    Post-order over an explicit stack: combine(s) runs only once both factors
    of s are cached.  The atoms must be cached beforehand.
    """
    stack = [t]
    while stack:
        s = stack[-1]
        if s in cache:
            stack.pop()
        elif s.left in cache and s.right in cache:
            cache[stack.pop()] = combine(s)
        else:
            stack += (s.right, s.left)
    return cache[t]


class ParseError(ValueError):
    """Syntax error in the tree wire format, with a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# render recurses only inside subtrees below this degree, so at most 15 deep
_SHALLOW_DEGREE = 16


def render(t: MagmaTree) -> str:
    """Fully parenthesized canonical string for t."""
    return _render(t, {UNIT: "1", X: "x"}, t.degree)


def _render_each(trees: list[MagmaTree]) -> Iterator[str]:
    """render(t) for each of trees, in order, through one memo of subtree texts.

    A subtree that a later tree can contain (one below the largest degree in
    trees) is rendered once, and its text is then spliced into every tree
    that holds it.  The memo lives only as long as the iteration.
    """
    below = max((t.degree for t in trees), default=0)
    memo = {UNIT: "1", X: "x"}
    for t in trees:
        yield _render(t, memo, below)


def _render(t: MagmaTree, memo: dict[MagmaTree, str], below: int) -> str:
    """render(t), keeping in memo the texts of its subtrees below degree `below`.

    Only subtrees below _SHALLOW_DEGREE are kept, so a stored text is under
    61 characters and a deep comb cannot fill the memo quadratically.
    """
    if t.degree < _SHALLOW_DEGREE:
        return _render_shallow(t, memo, below)
    parts = []
    # right factors still to render, each above a None that stands for its ")"
    pending: list[MagmaTree | None] = []
    s = t
    while True:
        while s.degree >= _SHALLOW_DEGREE:
            parts.append("(")
            pending += (None, s.right)
            s = s.left
        parts.append(_render_shallow(s, memo, below))
        while True:
            if not pending:
                return "".join(parts)
            s = pending.pop()
            if s is not None:
                break
            parts.append(")")
        parts.append("*")


def _render_shallow(t: MagmaTree, memo: dict[MagmaTree, str], below: int) -> str:
    text = memo.get(t)
    if text is None:
        left = _render_shallow(t.left, memo, below)
        text = f"({left}*{_render_shallow(t.right, memo, below)})"
        if t.degree < below:
            memo[t] = text
    return text


def parse(text: str) -> MagmaTree:
    """Parse the wire format; inverse of render up to unit normalization."""
    # open products, innermost last: None until its left factor is read
    open_products: list[MagmaTree | None] = []
    t = None  # the term just read, or None while a term is expected
    for pos, c in enumerate(text):
        if c == "x" or c == "1":
            if t is not None:
                raise _parse_error(text, pos, t, open_products)
            t = X if c == "x" else UNIT
        elif c == "(":
            if t is not None:
                raise _parse_error(text, pos, t, open_products)
            open_products.append(None)
        elif c == "*":
            if t is None or not open_products or open_products[-1] is not None:
                raise _parse_error(text, pos, t, open_products)
            open_products[-1] = t
            t = None
        elif c == ")":
            if t is None or not open_products or open_products[-1] is None:
                raise _parse_error(text, pos, t, open_products)
            left = open_products.pop()
            if t is UNIT:
                t = left
            elif left is not UNIT:
                t = _nodes.get((left, t)) or MagmaTree(left, t)
        elif not c.isspace():
            raise _parse_error(text, pos, t, open_products)
    if t is None or open_products:
        raise _parse_error(text, len(text), t, open_products)
    return t


def _parse_error(
    text: str, pos: int, t: MagmaTree | None, open_products: list
) -> ParseError:
    """The error for text[pos] (end of input past the text) in parse's state."""
    found = repr(text[pos]) if pos < len(text) else "end of input"
    if t is None:
        return ParseError(f"expected '1', 'x' or '(', found {found}", pos)
    if not open_products:
        return ParseError(f"trailing input {found}", pos)
    token = "*" if open_products[-1] is None else ")"
    return ParseError(f"expected {token!r}, found {found}", pos)
