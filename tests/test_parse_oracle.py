"""The one-pass parse against the shift-reduce parser it replaced, and a
seeded fuzz of TreeSeries.from_text.

reference_parse below is the earlier parse, kept verbatim as the oracle: on
every input both must give the same tree object, or the same ParseError text
and position.
"""

import random
import re

import pytest

from conftest import SEED
from magmaexp import (
    UNIT,
    X,
    ParseError,
    TreeSeries,
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


def test_from_text_drops_zero_coefficients_but_not_their_repeats():
    assert TreeSeries.from_text("truncation\t2\nx\t0/5\n").is_zero()
    with pytest.raises(ValueError, match="repeated tree"):
        TreeSeries.from_text("truncation\t2\nx\t0/1\nx\t1/1\n")
