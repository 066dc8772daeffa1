"""Truncated power series with tree monomials and rational coefficients.

A TreeSeries of truncation N stores finitely many (tree, coefficient) pairs
with degrees <= N and no zero coefficients.  Each coefficient is stored as a
normalized integer pair (p, q): q > 0, gcd(p, q) == 1 and p != 0, so equal
series have equal stores.  Fractions appear only at the API edge: the
constructor, scale, dilate and * take ints and Fractions and raise TypeError
on anything else; coefficient, terms, classical_projection and repr give
Fractions back.  Binary operations require equal truncations; mixing
truncations is a programming error and raises, equality included.
Multiplication enumerates every factorization of the target tree, unit
factors and all, and is therefore not associative in general, exactly like
the underlying magma product.

The product and the derivative put each degree of an operand over one
denominator, the lcm of its distinct denominators, and add plain integers,
reduced by one math.gcd per output term; sums that cancel to zero are
dropped.  For exp that lcm is the comb's denominator prod(2**m - 2), and the
integers are a_hat(t).  A block costs more as its lcm grows: random
denominators up to 10**6 make numerators thousands of digits long.  The
product visits only the degree pairs whose sum stays within the truncation.
Sums and substitutions bring the contributions to each tree to a common
denominator with math.lcm.
Tree recursions (derivatives of monomials, images under substitution) run
over an explicit stack, so deep trees never reach the recursion limit.

The text format puts the truncation in a header line and one
"tree<TAB>numerator/denominator" row per term, sorted by degree and then
canonical order, so serialized output is byte deterministic.  Each call
handles each distinct subtree once: to_text renders the terms through one
memo of subtree texts, and from_text grafts a line that reads "(" A "*" B ")"
from the trees of earlier lines with texts A and B, instead of parsing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import index
from typing import Iterable, Iterator, Mapping, Union

from .trees import (
    UNIT,
    X,
    MagmaTree,
    ParseError,
    _bottom_up,
    _nodes,
    _render_each,
    canonical_sort_key,
    graft,
    parse,
    render,
)

Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


def _scalar(c: Scalar) -> _Pair:
    # the rule of __mul__: Fraction() alone takes a float's binary value or parses a str
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"scalar must be an int or a Fraction, got {type(c).__name__}")
    return c.as_integer_ratio()


def _truncation(n: int) -> int:
    n = index(n)  # a bool becomes its int; a float or str raises TypeError
    if n < 0:
        raise ValueError(f"truncation must be >= 0, got {n}")
    return n


@dataclass(frozen=True)
class ClassicalSeries:
    """A truncated ordinary power series in one variable, dense and exact."""

    truncation: int
    coefficients: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")
        if len(self.coefficients) != self.truncation + 1:
            raise ValueError("need exactly truncation + 1 coefficients")

    def coefficient(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise ValueError(f"degree {n} outside truncation {self.truncation}")
        return self.coefficients[n]


class TreeSeries:
    """Sparse tree-indexed series, immutable once constructed."""

    __slots__ = ("truncation", "_coeffs")

    def __init__(
        self,
        truncation: int,
        coefficients: Mapping[MagmaTree, Scalar]
        | Iterable[tuple[MagmaTree, Scalar]] = (),
    ):
        truncation = _truncation(truncation)
        items = (
            coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        )
        acc: _Sums = {}
        for t, c in items:
            if t.degree > truncation:
                raise ValueError(
                    f"term of degree {t.degree} exceeds truncation {truncation}"
                )
            _add(acc, t, *_scalar(c))
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "_coeffs", _normalized(acc))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TreeSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _raw; the default state restore
        # would go through the __setattr__ above and fail
        return TreeSeries._raw, (self.truncation, self._coeffs)

    @classmethod
    def _raw(cls, truncation: int, coeffs: dict[MagmaTree, _Pair]) -> "TreeSeries":
        # trusted constructor: coeffs already normalized, bounded, and private
        series = cls.__new__(cls)
        object.__setattr__(series, "truncation", truncation)
        object.__setattr__(series, "_coeffs", coeffs)
        return series

    def coefficient(self, t: MagmaTree) -> Fraction:
        pair = self._coeffs.get(t)
        return _ZERO if pair is None else Fraction(*pair)

    def terms(self) -> Iterator[tuple[MagmaTree, Fraction]]:
        """Terms sorted by (degree, canonical order)."""
        for t in self.support():
            yield t, Fraction(*self._coeffs[t])

    def support(self) -> list[MagmaTree]:
        """Trees with a nonzero coefficient, sorted like terms()."""
        return sorted(self._coeffs, key=canonical_sort_key)

    def order(self) -> int | float:
        """Least degree with a nonzero coefficient; math.inf for the zero series."""
        return min((t.degree for t in self._coeffs), default=math.inf)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _require_same_truncation(self, other: "TreeSeries") -> None:
        if self.truncation != other.truncation:
            raise ValueError(
                f"truncation mismatch: {self.truncation} vs {other.truncation}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeSeries):
            return NotImplemented
        self._require_same_truncation(other)
        return self._coeffs == other._coeffs

    __hash__ = None  # mutable-value semantics are wrong for dict keys

    def __add__(self, other: "TreeSeries") -> "TreeSeries":
        if not isinstance(other, TreeSeries):
            return NotImplemented
        self._require_same_truncation(other)
        acc: _Sums = {t: [p, q] for t, (p, q) in self._coeffs.items()}
        for t, (p, q) in other._coeffs.items():
            _add(acc, t, p, q)
        return TreeSeries._raw(self.truncation, _normalized(acc))

    def __neg__(self) -> "TreeSeries":
        return TreeSeries._raw(
            self.truncation, {t: (-p, q) for t, (p, q) in self._coeffs.items()}
        )

    def __sub__(self, other: "TreeSeries") -> "TreeSeries":
        if not isinstance(other, TreeSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "TreeSeries":
        cp, cq = _scalar(c)
        if not cp:
            return TreeSeries._raw(self.truncation, {})
        return TreeSeries._raw(
            self.truncation,
            {t: _reduced(p * cp, q * cq) for t, (p, q) in self._coeffs.items()},
        )

    def __mul__(self, other: Union["TreeSeries", Scalar]) -> "TreeSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TreeSeries):
            return NotImplemented
        self._require_same_truncation(other)
        n = self.truncation
        left = _blocks(self._coeffs)
        right = left if other is self else _blocks(other._coeffs)
        pairs = [(d1, d2) for d1 in left for d2 in right if d1 + d2 <= n]
        # one denominator per output degree: the lcm of L1 * L2 over its pairs
        dens: dict[int, int] = {}
        for d1, d2 in pairs:
            m = d1 + d2
            dens[m] = math.lcm(dens.get(m, 1), left[d1][0] * right[d2][0])
        # nonunit pairs first: each is the one factorization of its tree, so
        # it sets that tree's value, and a pair with a unit factor adds to it
        pairs.sort(key=lambda pair: 0 in pair)
        acc: dict[MagmaTree, int] = {}
        for d1, d2 in pairs:
            (l1, terms1), (l2, terms2) = left[d1], right[d2]
            scale = dens[d1 + d2] // (l1 * l2)
            if d1 and d2:
                for t1, p1 in terms1:
                    p1 *= scale
                    for t2, p2 in terms2:
                        acc[_nodes.get((t1, t2)) or MagmaTree(t1, t2)] = p1 * p2
                continue
            # the unit's block is its one term (UNIT, p)
            terms, ((_, unit),) = (terms2, terms1) if d1 == 0 else (terms1, terms2)
            unit *= scale
            for t, p in terms:
                acc[t] = acc.get(t, 0) + unit * p
        return TreeSeries._raw(
            n, {t: _reduced(p, dens[t.degree]) for t, p in acc.items() if p}
        )

    def __rmul__(self, other: Scalar) -> "TreeSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def derivative(self) -> "TreeSeries":
        """Leibniz derivative: d(1) = 0, d(x) = 1, d(t1*t2) = d(t1)*t2 + t1*d(t2)."""
        out: dict[MagmaTree, _Pair] = {}
        # a term of degree d - 1 comes only from degree d: one block, one denominator
        for denominator, terms in _blocks(self._coeffs).values():
            acc: dict[MagmaTree, int] = {}
            for t, p in terms:
                for s, multiplicity in _bottom_up(t, _derivatives, _leibniz):
                    acc[s] = acc.get(s, 0) + p * multiplicity
            out.update((s, _reduced(p, denominator)) for s, p in acc.items() if p)
        return TreeSeries._raw(self.truncation, out)

    def substitute(self, g: "TreeSeries") -> "TreeSeries":
        """The algebra homomorphism sending x to g, applied to this series.

        Requires order(g) >= 1 so that images of high-degree trees stay above
        the truncation and the result is well defined.
        """
        if not isinstance(g, TreeSeries):
            raise TypeError("substitute needs a TreeSeries argument")
        self._require_same_truncation(g)
        if g.order() == 0:
            raise ValueError("substitution needs a series of order >= 1")
        images: dict[MagmaTree, TreeSeries] = {
            UNIT: one(self.truncation),
            X: g,
        }

        def product(t: MagmaTree) -> TreeSeries:
            return images[t.left] * images[t.right]

        acc: _Sums = {}
        for t, (p, q) in self._coeffs.items():
            for s, (pv, qv) in _bottom_up(t, images, product)._coeffs.items():
                _add(acc, s, p * pv, q * qv)
        return TreeSeries._raw(self.truncation, _normalized(acc))

    def dilate(self, c: Scalar) -> "TreeSeries":
        """Substitution of c*x for x: degree-n coefficients pick up c**n."""
        cp, cq = _scalar(c)
        powers = {d: (cp**d, cq**d) for d in {t.degree for t in self._coeffs}}
        acc: dict[MagmaTree, _Pair] = {}
        for t, (p, q) in self._coeffs.items():
            pd, qd = powers[t.degree]
            if pd:  # only 0**d with d >= 1 vanishes
                acc[t] = _reduced(p * pd, q * qd)
        return TreeSeries._raw(self.truncation, acc)

    def truncate(self, truncation: int) -> "TreeSeries":
        """Drop terms above a new, not larger, truncation."""
        truncation = _truncation(truncation)
        if truncation > self.truncation:
            raise ValueError(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        return TreeSeries._raw(
            truncation,
            {t: c for t, c in self._coeffs.items() if t.degree <= truncation},
        )

    def classical_projection(self) -> ClassicalSeries:
        """Forget tree shapes: each degree-n tree maps to x**n."""
        coeffs = [_ZERO] * (self.truncation + 1)
        for t, pair in self._coeffs.items():
            coeffs[t.degree] += Fraction(*pair)
        return ClassicalSeries(self.truncation, tuple(coeffs))

    def to_text(self) -> str:
        lines = [f"truncation\t{self.truncation}"]
        support = self.support()
        try:
            for t, tree_text in zip(support, _render_each(support)):
                p, q = self._coeffs[t]
                lines.append(f"{tree_text}\t{p}/{q}")
        except ValueError as exc:  # past the int-to-str digit limit
            raise ValueError(
                f"cannot write the coefficient of {render(t)}: {exc}"
            ) from None
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TreeSeries":
        """Inverse of to_text; every error is a ValueError naming its line."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("missing header line")
        # read by pops from the end of the reversed list, so each line is
        # freed once read
        lines.reverse()
        header = lines.pop()
        head = header.split("\t")
        if len(head) != 2 or head[0] != "truncation":
            raise ValueError(f"bad header line {header!r}")
        try:
            truncation = int(head[1])
        except ValueError as exc:
            raise ValueError(f"bad header line {header!r}: {exc}") from None
        if truncation < 0:
            raise ValueError(f"negative truncation in header line {header!r}")
        terms: dict[MagmaTree, _Pair] = {}
        zeros: list[MagmaTree] = []
        # the tree text of each line a later line can graft: degree < truncation
        halves: dict[str, MagmaTree] = {}
        while lines:
            line = lines.pop()
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"bad term line {line!r}")
            num, _, den = fields[1].partition("/")
            if not den:
                raise ValueError(
                    f"coefficient is not numerator/denominator in term line {line!r}"
                )
            try:
                t = _graft_of_halves(fields[0], halves) or parse(fields[0])
            except ParseError as exc:
                raise ValueError(f"bad tree in term line {line!r}: {exc}") from exc
            if t.degree > truncation:
                raise ValueError(
                    f"term of degree {t.degree} exceeds truncation {truncation}"
                    f" in term line {line!r}"
                )
            if t in terms:
                raise ValueError(f"repeated tree in term line {line!r}")
            if t.degree < truncation:
                halves[fields[0]] = t
            try:
                p, q = int(num), int(den)
            except ValueError as exc:  # not an integer, or past the digit limit
                raise ValueError(
                    f"bad coefficient in term line {line!r}: {exc}"
                ) from None
            if not q:
                raise ValueError(f"zero denominator in term line {line!r}")
            if q < 0:
                p, q = -p, -q
            terms[t] = _reduced(p, q)
            if not p:
                zeros.append(t)
        for t in zeros:  # kept until now so that a repeat of them is still caught
            del terms[t]
        return cls._raw(truncation, terms)

    def __repr__(self) -> str:
        shown = [f"{c}*{render(t)}" for t, c in islice(self.terms(), 6)]
        if len(self._coeffs) > 6:
            shown.append("...")
        body = " + ".join(shown) if shown else "0"
        return f"TreeSeries(N={self.truncation}, {body})"


def _graft_of_halves(text: str, halves: dict[str, MagmaTree]) -> MagmaTree | None:
    """parse(text) when text is "(" A "*" B ")" with A and B keys of halves.

    None otherwise, and then parse reads text.  Text with n x's and nothing
    but the 3(n - 1) brackets and stars of their products has length 4n - 3;
    any unit or whitespace makes it longer.  In such text a left half of
    degree k is followed by its "*" at 4k - 2, and text ending in "*x)" has its
    right half x, so its split is the last star.  Tree texts are prefix-free, so
    the first of those stars whose left slice is a tree text is the only
    possible split, and when both halves are tree texts their graft is the
    tree that parse builds.
    """
    if len(text) != 4 * text.count("x") - 3 or text[0] != "(" or text[-1] != ")":
        return None
    stars = range(2, len(text) - 2, 4)
    if text[-3] == "*":  # the right half is one x: only the last star can split
        stars = (len(text) - 3,)
    for star in stars:
        left = halves.get(text[1:star]) if text[star] == "*" else None
        if left is not None:
            right = halves.get(text[star + 1 : -1])
            return None if right is None else graft(left, right)
    return None


# a stored coefficient p/q: q > 0, gcd(p, q) == 1 and p != 0
_Pair = tuple[int, int]
# exact sum per tree as [numerator, denominator]; denominators stay positive
_Sums = dict[MagmaTree, list[int]]


def _add(acc: _Sums, t: MagmaTree, p: int, q: int) -> None:
    """Add p/q to the exact sum of t in acc."""
    entry = acc.get(t)
    if entry is None:
        acc[t] = [p, q]
    elif entry[1] == q:
        entry[0] += p
    else:
        common = math.lcm(entry[1], q)
        entry[0] = entry[0] * (common // entry[1]) + p * (common // q)
        entry[1] = common


def _reduced(p: int, q: int) -> _Pair:
    """p/q in lowest terms, for q > 0."""
    g = math.gcd(p, q)
    return (p, q) if g == 1 else (p // g, q // g)


def _normalized(acc: _Sums) -> dict[MagmaTree, _Pair]:
    """Each sum in lowest terms; sums that cancel to zero are dropped."""
    return {t: _reduced(p, q) for t, (p, q) in acc.items() if p}


def _blocks(coeffs: Mapping[MagmaTree, _Pair]) -> dict[int, tuple[int, list]]:
    """Each degree's terms over one denominator: {d: (L, [(t, p * L // q), ...])}.

    L is the lcm of the distinct denominators of degree d.
    """
    by_degree: dict[int, list[tuple[MagmaTree, _Pair]]] = {}
    for t, pair in coeffs.items():
        by_degree.setdefault(t.degree, []).append((t, pair))
    blocks = {}
    for d, terms in by_degree.items():
        denominators = {q for _, (_, q) in terms}
        common = math.lcm(*denominators)
        factors = {q: common // q for q in denominators}
        blocks[d] = (common, [(t, p * factors[q]) for t, (p, q) in terms])
    return blocks


_derivatives: dict[MagmaTree, tuple[tuple[MagmaTree, int], ...]] = {
    UNIT: (),
    X: ((UNIT, 1),),
}


def _leibniz(t: MagmaTree) -> tuple[tuple[MagmaTree, int], ...]:
    acc: dict[MagmaTree, int] = {}
    for s, m in _derivatives[t.left]:
        key = graft(s, t.right)
        acc[key] = acc.get(key, 0) + m
    for s, m in _derivatives[t.right]:
        key = graft(t.left, s)
        acc[key] = acc.get(key, 0) + m
    return tuple(acc.items())


def zero(truncation: int) -> TreeSeries:
    return TreeSeries(truncation)


def one(truncation: int) -> TreeSeries:
    return TreeSeries(truncation, {UNIT: 1})


def generator(truncation: int) -> TreeSeries:
    """The series x (requires truncation >= 1)."""
    return TreeSeries(truncation, {X: 1})
