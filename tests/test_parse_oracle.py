"""The one-pass parse against the shift-reduce parser it replaced, the
subtree-sharing series codec against per-term oracles, and a seeded fuzz of
TreeSeries.from_text.

reference_parse below is the earlier parse, kept verbatim as the oracle: on
every input both must give the same tree object, or the same ParseError text
and position.  reference_to_text renders and sorts each term on its own, the
way to_text did before it shared subtree texts between terms.
"""

import random
import re
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest

from conftest import SEED, random_series
import magmaexp.series as series
from magmaexp import (
    UNIT,
    X,
    ParseError,
    TreeSeries,
    canonical_sort_key,
    enumerate_trees,
    exp_series,
    graft,
    parse,
    render,
)

_ATOMS = {"1": UNIT, "x": X}


def reference_parse(text: str):
    open_products = []
    pos = _skip_ws(text, 0)
    while True:
        c = text[pos : pos + 1]
        if c == "(":
            open_products.append(None)
            pos = _skip_ws(text, pos + 1)
            continue
        t = _ATOMS.get(c)
        if t is None:
            found = repr(c) if c else "end of input"
            raise ParseError(f"expected '1', 'x' or '(', found {found}", pos)
        pos = _skip_ws(text, pos + 1)
        while open_products and open_products[-1] is not None:
            pos = _skip_ws(text, _expect(text, pos, ")"))
            t = graft(open_products.pop(), t)
        if not open_products:
            break
        open_products[-1] = t
        pos = _skip_ws(text, _expect(text, pos, "*"))
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos]!r}", pos)
    return t


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text, pos, token):
    if pos >= len(text):
        raise ParseError(f"expected {token!r}, found end of input", pos)
    if text[pos] != token:
        raise ParseError(f"expected {token!r}, found {text[pos]!r}", pos)
    return pos + 1


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return (str(exc), exc.position)


def _assert_same(text):
    got, want = _outcome(parse, text), _outcome(reference_parse, text)
    if isinstance(want, tuple):
        assert got == want, text
    else:
        assert got is want, text


ALPHABET = "()*x1 \t y+"


def test_random_strings_match_reference():
    rng = random.Random(SEED)
    for _ in range(4000):
        text = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))
        _assert_same(text)


def test_random_grammar_shaped_strings_match_reference():
    # mostly well formed, so the deeper states and their errors are reached
    rng = random.Random(SEED)
    pieces = ("(", ")", "*", "x", "1", " ", "(x*x)", "(1*")
    for _ in range(3000):
        _assert_same("".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))))


def _sample_renders(rng):
    for n in range(1, 12):
        trees = enumerate_trees(n)
        for t in rng.sample(trees, min(len(trees), 40)):
            yield render(t)


def test_renders_with_one_edit_match_reference():
    rng = random.Random(SEED)
    for text in _sample_renders(rng):
        _assert_same(text)
        i = rng.randrange(len(text) + 1)
        _assert_same(text[:i] + rng.choice(ALPHABET) + text[i:])
        j = rng.randrange(len(text))
        _assert_same(text[:j] + text[j + 1 :])


def test_renders_with_spaces_match_reference():
    rng = random.Random(SEED)
    for text in _sample_renders(rng):
        spaced = text.replace("*", rng.choice((" * ", "\t*", "* ", " *\n")))
        _assert_same(spaced)
        _assert_same(f" {spaced} ")


def test_deep_comb_matches_reference():
    comb = X
    for _ in range(1500):
        comb = graft(comb, X)
    text = render(comb)
    assert parse(text) is comb
    _assert_same(text)
    _assert_same(text[:-1])


def _mutations(text, rng):
    lines = text.splitlines(keepends=True)
    for _ in range(600):
        kind = rng.randrange(4)
        out = list(lines)
        i = rng.randrange(len(out))
        if kind == 0:
            del out[i]
        elif kind == 1:
            out.insert(i, out[i])
        elif kind == 2:
            fields = out[i].rstrip("\n").split("\t")
            out[i] = "\t".join(reversed(fields)) + "\n"
        else:
            line = out[i]
            j = rng.randrange(len(line))
            out[i] = line[:j] + rng.choice("()*x1 \t/0-9a\n") + line[j + 1 :]
        yield "".join(out)


def test_from_text_fuzz_raises_only_value_errors_naming_a_line():
    text = exp_series(4).to_text()
    rng = random.Random(SEED)
    for mutated in _mutations(text, rng):
        try:
            result = TreeSeries.from_text(mutated)
        except ValueError as exc:
            assert any(repr(line) in str(exc) for line in mutated.splitlines()), (
                mutated,
                str(exc),
            )
        else:
            assert isinstance(result, TreeSeries)


def test_from_text_round_trip_unmutated():
    e = exp_series(6)
    assert TreeSeries.from_text(e.to_text()) == e


@pytest.mark.parametrize(
    "text, named",
    [
        ("truncation\t3\nx\tabc/1\n", "'x\\tabc/1'"),
        ("truncation\t3\n(x*\t1/1\n", "'(x*\\t1/1'"),
        ("truncation\t1\n(x*x)\t1/1\n", "'(x*x)\\t1/1'"),
        ("truncation\tthree\n", "'truncation\\tthree'"),
        ("truncation\t-1\n", "'truncation\\t-1'"),
        ("truncation\t3\nx\t1\n", "'x\\t1'"),
    ],
)
def test_from_text_errors_name_the_line(text, named):
    with pytest.raises(ValueError) as err:
        TreeSeries.from_text(text)
    assert named in str(err.value)


def test_from_text_keeps_the_parse_error_text():
    message = "expected '1', 'x' or '(', found end of input at offset 3"
    with pytest.raises(ValueError, match=re.escape(message)):
        TreeSeries.from_text("truncation\t3\n(x*\t1/1\n")
    # both slices around the star at 2 are the key "x": only the guard on the
    # last character keeps the codec from grafting (x*x) out of this line
    message = "expected ')', found '*' at offset 4"
    with pytest.raises(ValueError, match=re.escape(message)):
        TreeSeries.from_text("truncation\t3\nx\t1/1\n(x*x*\t1/2\n")


def test_from_text_drops_zero_coefficients_but_not_their_repeats():
    assert TreeSeries.from_text("truncation\t2\nx\t0/5\n").is_zero()
    with pytest.raises(ValueError, match="repeated tree"):
        TreeSeries.from_text("truncation\t2\nx\t0/1\nx\t1/1\n")


# -- the subtree-sharing codec -------------------------------------------------


def reference_render(t):
    out = []
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, str):
            out.append(s)
        elif s.left is None:
            out.append("1" if s.degree == 0 else "x")
        else:
            stack += (")", s.right, "*", s.left, "(")
    return "".join(out)


def reference_to_text(series):
    lines = [f"truncation\t{series.truncation}"]
    for t, c in sorted(series.terms(), key=lambda term: canonical_sort_key(term[0])):
        lines.append(f"{reference_render(t)}\t{c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def _comb(n):
    return reduce(graft, [X] * n)


def _balanced(n):
    return X if n == 1 else graft(_balanced(n // 2), _balanced(n - n // 2))


def _codec_inputs():
    for n in range(10):
        yield exp_series(n)
    rng = random.Random(SEED)
    for truncation in (0, 1, 5, 8, 9):
        yield random_series(rng, truncation, density=0.3)
    comb, balanced = _comb(1501), _balanced(1024)
    shared = [comb.left.left, comb.left.left.left, balanced.left, graft(balanced, X)]
    yield TreeSeries(1501, {comb: 3, balanced: -1, X: 2, UNIT: 1})
    yield TreeSeries(1501, {t: i + 1 for i, t in enumerate(shared + [comb, balanced])})


def test_to_text_matches_the_per_term_oracle():
    for series in _codec_inputs():
        text = series.to_text()
        assert text == reference_to_text(series)
        assert TreeSeries.from_text(text) == series


def _line_outcome(prefix, line):
    """from_text of one tree line after the lines of prefix: its tree or error text."""
    body = "".join(f"{render(t)}\t1/1\n" for t in prefix) + f"{line}\t2/1\n"
    try:
        series = TreeSeries.from_text(f"truncation\t9\n{body}")
    except ValueError as exc:
        return str(exc)
    (t,) = set(series.support()) - set(prefix)
    return t


def _parse_outcome(prefix, line):
    """What parse makes of the same line, worded as from_text words it."""
    term_line = f"{line}\t2/1"
    try:
        t = parse(line)
    except ParseError as exc:
        return f"bad tree in term line {term_line!r}: {exc}"
    return f"repeated tree in term line {term_line!r}" if t in prefix else t


@pytest.mark.parametrize(
    "line",
    [
        "*x*x*",
        "x(*x)",
        ")x*x(",
        "(x)(x*x))",
        "(x*)x*x()",
        "((x*x)(*x*x))",
        "((x*x)*x(*x))",
        "(x*x*",  # both halves are keys, but the line does not end in ")"
        ")x*x)",  # both halves are keys, but the line does not start with "("
        "((x)*x*x)",  # the only star at 4k - 2 has the non-key "(x)*x" before it
    ],
)
def test_canonical_length_non_terms_keep_the_parse_error(line):
    assert len(line) == 4 * line.count("x") - 3
    with pytest.raises(ParseError) as err:
        parse(line)
    term_line = f"{line}\t1/1"
    message = f"bad tree in term line {term_line!r}: {err.value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        TreeSeries.from_text(f"truncation\t5\nx\t1/1\n(x*x)\t1/1\n{term_line}\n")


def _grafted_lines(s):
    """What the codec's shortcut returns for each tree line of s.to_text(),
    given the lines before it; each must be None or parse's own tree."""
    halves, grafted = {}, []
    for line in s.to_text().splitlines()[1:]:
        text = line.partition("\t")[0]
        t = parse(text)
        got = series._graft_of_halves(text, halves)
        assert got is None or got is t, text
        grafted.append(got)
        if t.degree < s.truncation:
            halves[text] = t
    return grafted


def test_graft_of_halves_is_none_or_parse():
    e = exp_series(8)
    # exp holds every tree, so each product line finds both of its halves
    assert [t is None for t in _grafted_lines(e)] == [t.degree < 2 for t in e.support()]
    assert any(_grafted_lines(random_series(random.Random(SEED), 8, density=0.3)))


def test_a_left_comb_line_looks_up_only_its_last_split():
    class CountingHalves(dict):
        gets = 0

        def get(self, key, default=None):
            CountingHalves.gets += 1
            return super().get(key, default)

    left = _comb(1499)
    halves = CountingHalves({render(left): left, "x": X})
    assert series._graft_of_halves(render(_comb(1500)), halves) is graft(left, X)
    assert CountingHalves.gets <= 2


def test_lines_of_canonical_length_match_parse():
    # every tree of degree <= 4 precedes the line, so any split can be looked up
    prefix = [t for n in range(1, 5) for t in enumerate_trees(n)]
    rng = random.Random(SEED)
    for _ in range(3000):
        n = rng.randint(2, 5)
        line = "(" + "".join(rng.choice("(*)x") for _ in range(4 * n - 5)) + ")"
        if line.count("x") == n:
            assert _line_outcome(prefix, line) == _parse_outcome(prefix, line), line
    for t in enumerate_trees(5):
        assert _line_outcome(prefix, render(t)) is t


def test_lines_with_later_halves_units_or_spaces_match_parse():
    lines = [
        "((x*x)*(x*(x*x)))",
        "(x*(x*x))",
        "((1*x)*((x*x)*x))",
        "(x * (x*(x*x)))",
        "(x*x)",
        " ((x*x)*x) ",
        "(((x*x)*x)*(x*1))",
    ]
    text = "truncation\t6\n" + "".join(f"{line}\t{i + 1}/7\n" for i, line in enumerate(lines))
    want = TreeSeries(6, {parse(line): Fraction(i + 1, 7) for i, line in enumerate(lines)})
    assert len(want.support()) == len(lines)
    assert TreeSeries.from_text(text) == want


@pytest.mark.parametrize(
    "first, second",
    [("(x*x)", "(x*(1*x))"), ("( x*x)", "(x*x)"), ("((x*x)*x)", "(((x*1)*x)*x)")],
)
def test_a_tree_spelled_two_ways_is_repeated(first, second):
    with pytest.raises(ValueError, match="repeated tree"):
        TreeSeries.from_text(f"truncation\t4\nx\t1/1\n{first}\t1/2\n{second}\t1/3\n")


def test_to_text_of_a_deep_comb_stays_linear_in_memory():
    series = TreeSeries(3000, {_comb(3000): 1})
    size = len(series.to_text())
    tracemalloc.start()
    try:
        series.to_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * size
