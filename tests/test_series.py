import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from magmaexp import (
    ClassicalSeries,
    TreeSeries,
    UNIT,
    X,
    a_coefficient,
    exp_series,
    generator,
    graft,
    one,
    parse,
    render,
    zero,
)

from conftest import SEED, random_series


def test_constructor_normalizes():
    s = TreeSeries(3, [(X, Fraction(1, 2)), (X, Fraction(-1, 2)), (UNIT, 2)])
    assert s.coefficient(X) == 0
    assert s.coefficient(UNIT) == 2
    assert s.support() == [UNIT]
    with pytest.raises(ValueError):
        TreeSeries(1, {graft(X, X): 1})
    with pytest.raises(ValueError):
        TreeSeries(-1)


def test_zero_coefficients_never_stored():
    f = TreeSeries(2, {X: 1, graft(X, X): Fraction(3, 4)})
    g = TreeSeries(2, {X: -1, graft(X, X): Fraction(1, 4)})
    total = f + g
    assert total.support() == [graft(X, X)]
    assert all(c != 0 for _, c in total.terms())


def test_addition_and_scaling():
    f = TreeSeries(2, {UNIT: 1, X: 2})
    g = TreeSeries(2, {X: Fraction(1, 2)})
    assert (f + g).coefficient(X) == Fraction(5, 2)
    assert (f - f).is_zero()
    assert (3 * g).coefficient(X) == Fraction(3, 2)
    assert (g * Fraction(2, 5)).coefficient(X) == Fraction(1, 5)
    assert (-f).coefficient(UNIT) == -1


def test_multiplication_enumerates_all_factorizations():
    # (1 + x)^2 = 1 + 2x + xx
    f = one(3) + generator(3)
    square = f * f
    assert square.coefficient(UNIT) == 1
    assert square.coefficient(X) == 2
    assert square.coefficient(graft(X, X)) == 1
    # unit acts as identity
    assert f * one(3) == f
    assert one(3) * f == f


def test_multiplication_truncates():
    x = generator(2)
    xx = x * x
    assert xx.support() == [graft(X, X)]
    assert (xx * x).is_zero()  # degree 3 exceeds truncation 2


def test_multiplication_not_associative():
    x = generator(3)
    left = (x * x) * x
    right = x * (x * x)
    assert left != right
    assert left.support() == [parse("((x*x)*x)")]
    assert right.support() == [parse("(x*(x*x))")]


def test_equality_requires_same_truncation():
    with pytest.raises(ValueError):
        zero(2) == zero(3)
    with pytest.raises(ValueError):
        generator(2) + generator(3)
    with pytest.raises(ValueError):
        generator(2) * generator(3)


def test_immutability():
    f = generator(2)
    with pytest.raises(AttributeError):
        f.truncation = 5


def test_copy_and_pickle_round_trips():
    for s in (exp_series(4), random_series(random.Random(SEED), 5)):
        assert copy.copy(s) == s
        assert copy.deepcopy(s) == s
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, protocol)) == s


def test_order():
    assert zero(4).order() == math.inf
    assert one(4).order() == 0
    assert generator(4).order() == 1
    assert (generator(4) * generator(4)).order() == 2


def test_derivative_leibniz_examples():
    x = generator(3)
    xx = x * x
    assert xx.derivative() == 2 * x
    # d((x*x)*x) = 3 (x*x): two from the left factor, one from the right
    t = TreeSeries(3, {parse("((x*x)*x)"): 1})
    assert t.derivative() == 2 * xx + xx
    assert one(3).derivative().is_zero()
    assert x.derivative() == one(3)


def test_substitute_is_homomorphic_on_monomials():
    g = TreeSeries(4, {graft(X, X): 1})
    f = TreeSeries(4, {graft(X, X): 1})
    image = f.substitute(g)
    assert image.support() == [parse("((x*x)*(x*x))")]
    # substituting x for x is the identity
    assert f.substitute(generator(4)) == f


def test_substitute_rejects_order_zero():
    with pytest.raises(ValueError):
        generator(3).substitute(one(3))
    # the zero series has infinite order and is allowed
    assert generator(3).substitute(zero(3)).is_zero()
    with pytest.raises(TypeError, match="needs a TreeSeries"):
        generator(3).substitute(1)


def test_repr_shows_the_first_six_terms():
    assert repr(exp_series(3)) == (
        "TreeSeries(N=3, 1*1 + 1*x + 1/2*(x*x) + 1/12*(x*(x*x)) + 1/12*((x*x)*x))"
    )
    assert repr(zero(2)) == "TreeSeries(N=2, 0)"
    assert repr(exp_series(4)).endswith(" + ...)")


def test_other_operand_types_reach_the_python_fallbacks():
    s = exp_series(2)
    assert (s == 3) is False and (3 == s) is False
    for operation in (
        lambda: s + 1,
        lambda: 1 + s,
        lambda: s - 1,
        lambda: s * "a",
        lambda: "a" * s,
    ):
        with pytest.raises(TypeError):
            operation()


def test_deep_comb_derivative_and_substitution():
    t = X
    for _ in range(1500):
        t = graft(t, X)
    s = TreeSeries(1501, {t: 1})
    assert s.derivative().classical_projection().coefficient(1500) == 1501
    assert s.substitute(generator(1501)) == s


def test_dilate():
    x = generator(3)
    f = one(3) + x + (x * x).scale(Fraction(1, 2))
    d = f.dilate(2)
    assert d.coefficient(UNIT) == 1
    assert d.coefficient(X) == 2
    assert d.coefficient(graft(X, X)) == 2
    assert f.dilate(1) == f
    assert f.dilate(0) == one(3)
    # dilation agrees with substituting c*x for x
    assert f.dilate(Fraction(2, 3)) == f.substitute(generator(3).scale(Fraction(2, 3)))


def test_truncate():
    x = generator(3)
    f = one(3) + x + x * x
    g = f.truncate(1)
    assert g.truncation == 1
    assert g.support() == [UNIT, X]
    with pytest.raises(ValueError):
        f.truncate(4)


def test_truncation_is_always_a_nonnegative_int():
    with pytest.raises(ValueError, match="got -1"):
        exp_series(3).truncate(-1)
    with pytest.raises(TypeError):
        TreeSeries(2.5)
    with pytest.raises(TypeError):
        exp_series(3).truncate(2.5)
    assert TreeSeries(True).to_text() == "truncation\t1\n"
    assert type(exp_series(3).truncate(True).truncation) is int


ENTRY_POINTS = {
    "constructor": lambda c: TreeSeries(3, {X: c}),
    "scale": lambda c: generator(3).scale(c),
    "dilate": lambda c: generator(3).dilate(c),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("c", [0.5, "1/3", float("inf"), Decimal("0.1")], ids=repr)
def test_scalars_are_ints_or_fractions_only(entry, c):
    with pytest.raises(TypeError, match=type(c).__name__):
        ENTRY_POINTS[entry](c)


def test_classical_projection():
    x = generator(3)
    f = x * x + TreeSeries(3, {parse("((x*x)*x)"): Fraction(1, 3), parse("(x*(x*x))"): Fraction(2, 3)})
    c = f.classical_projection()
    assert c == ClassicalSeries(3, (Fraction(0), Fraction(0), Fraction(1), Fraction(1)))
    assert c.coefficient(2) == 1
    with pytest.raises(ValueError):
        c.coefficient(4)
    with pytest.raises(ValueError, match="truncation must be >= 0, got -1"):
        ClassicalSeries(-1, ())
    with pytest.raises(ValueError, match="need exactly truncation \\+ 1 coefficients"):
        ClassicalSeries(2, (Fraction(1),))


def test_serialization_golden_and_round_trip():
    f = TreeSeries(
        3,
        {
            UNIT: 1,
            X: 1,
            graft(X, X): Fraction(1, 2),
            parse("(x*(x*x))"): Fraction(1, 12),
            parse("((x*x)*x)"): Fraction(1, 12),
        },
    )
    text = f.to_text()
    assert text == (
        "truncation\t3\n"
        "1\t1/1\n"
        "x\t1/1\n"
        "(x*x)\t1/2\n"
        "(x*(x*x))\t1/12\n"
        "((x*x)*x)\t1/12\n"
    )
    assert TreeSeries.from_text(text) == f
    assert TreeSeries.from_text(zero(5).to_text()) == zero(5)


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        TreeSeries.from_text("")
    with pytest.raises(ValueError):
        TreeSeries.from_text("truncated\t3\n")
    with pytest.raises(ValueError):
        TreeSeries.from_text("truncation\t3\nx\t0.5\n")
    with pytest.raises(ValueError, match=r"'x\\t1/0'"):
        TreeSeries.from_text("truncation\t3\nx\t1/0\n")
    with pytest.raises(ValueError, match=r"'x\\t2/1'"):
        TreeSeries.from_text("truncation\t3\nx\t1/1\nx\t2/1\n")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit",
)
def test_serialization_past_the_digit_limit_names_the_term():
    comb = X
    for _ in range(200):
        comb = graft(comb, X)
    s = TreeSeries(201, {comb: a_coefficient(comb)})
    with pytest.raises(ValueError, match="Exceeds the limit") as err:
        s.to_text()
    assert render(comb) in str(err.value)
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    line = f"{render(comb)}\t1/{digits}"
    with pytest.raises(ValueError, match="Exceeds the limit") as err:
        TreeSeries.from_text(f"truncation\t201\n{line}\n")
    assert repr(line) in str(err.value)
