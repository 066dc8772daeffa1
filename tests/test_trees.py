import pytest

from magmaexp import (
    BoundExceededError,
    UNIT,
    X,
    MagmaTree,
    ParseError,
    canonical_rank,
    catalan,
    comb_trees,
    decompose,
    enumerate_trees,
    graft,
    inner_nodes,
    parse,
    render,
)


def catalan_recurrence_oracle(limit):
    cat = [1]
    for n in range(1, limit + 1):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return cat


def test_atoms():
    assert UNIT.degree == 0
    assert X.degree == 1
    assert UNIT != X
    assert render(UNIT) == "1"
    assert render(X) == "x"


def test_graft_unit_laws_and_degree():
    t = graft(X, X)
    assert t.degree == 2
    assert graft(UNIT, t) is t
    assert graft(t, UNIT) is t
    assert graft(UNIT, UNIT) is UNIT
    for n in range(1, 7):
        for a in enumerate_trees(n):
            for b in enumerate_trees(7 - n):
                assert graft(a, b).degree == a.degree + b.degree


def test_direct_node_construction_rejects_unit_children():
    with pytest.raises(ValueError):
        MagmaTree(UNIT, X)
    with pytest.raises(ValueError):
        MagmaTree(X, UNIT)


def test_decompose_inverts_graft():
    for n in range(2, 9):
        for t in enumerate_trees(n):
            left, right = decompose(t)
            assert graft(left, right) == t
    with pytest.raises(ValueError):
        decompose(X)
    with pytest.raises(ValueError):
        decompose(UNIT)


def test_structural_equality_and_hash():
    a = graft(X, graft(X, X))
    b = graft(X, graft(X, X))
    c = graft(graft(X, X), X)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def left_comb(n):
    t = X
    for _ in range(n - 1):
        t = graft(t, X)
    return t


def test_equality_of_deep_trees():
    # separately built 1,501-leaf combs share no nodes below the atoms
    assert left_comb(1501) == left_comb(1501)
    assert left_comb(1501) != graft(X, left_comb(1500))
    assert left_comb(1501) != left_comb(1500)


def test_enumeration_counts_match_catalan_recurrence():
    oracle = catalan_recurrence_oracle(14)
    for n in range(1, 15):
        assert len(enumerate_trees(n)) == oracle[n - 1]
        assert catalan(n - 1) == oracle[n - 1]


def test_enumeration_canonical_order():
    assert [render(t) for t in enumerate_trees(1)] == ["x"]
    assert [render(t) for t in enumerate_trees(2)] == ["(x*x)"]
    assert [render(t) for t in enumerate_trees(3)] == ["(x*(x*x))", "((x*x)*x)"]
    assert [render(t) for t in enumerate_trees(4)] == [
        "(x*(x*(x*x)))",
        "(x*((x*x)*x))",
        "((x*x)*(x*x))",
        "((x*(x*x))*x)",
        "(((x*x)*x)*x)",
    ]
    # left-factor degree is ascending within each degree
    for n in range(2, 10):
        left_degrees = [t.left.degree for t in enumerate_trees(n)]
        assert left_degrees == sorted(left_degrees)


def test_enumeration_has_no_duplicates():
    for n in range(1, 11):
        trees = enumerate_trees(n)
        assert len(set(trees)) == len(trees)
        assert all(t.degree == n for t in trees)


def test_enumerate_budget():
    with pytest.raises(BoundExceededError):
        enumerate_trees(40)
    with pytest.raises(BoundExceededError):
        enumerate_trees(5, max_trees=13)
    assert len(enumerate_trees(5, max_trees=14)) == 14
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_canonical_rank_matches_enumeration():
    for n in range(1, 10):
        for i, t in enumerate(enumerate_trees(n)):
            assert canonical_rank(t) == i


def test_comb_trees():
    assert comb_trees(1) == [X]
    assert [render(t) for t in comb_trees(2)] == ["(x*x)"]
    assert [render(t) for t in comb_trees(3)] == ["(x*(x*x))", "((x*x)*x)"]
    for n in range(2, 13):
        combs = comb_trees(n)
        assert len(combs) == 2 ** (n - 2)
        assert len(set(combs)) == len(combs)
        enumerated = set(enumerate_trees(n))
        assert all(t in enumerated for t in combs)
        ranks = [canonical_rank(t) for t in combs]
        assert ranks == sorted(ranks)
    with pytest.raises(ValueError):
        comb_trees(0)


def test_inner_nodes():
    assert inner_nodes(X) == []
    xx = graft(X, X)
    assert inner_nodes(xx) == [(xx, 1)]
    t = graft(xx, xx)
    assert inner_nodes(t) == [(t, 2), (xx, 1), (xx, 1)]
    for n in range(1, 9):
        for tree in enumerate_trees(n):
            assert len(inner_nodes(tree)) == n - 1
    with pytest.raises(ValueError):
        inner_nodes(UNIT)


def test_parse_examples():
    assert parse("x") is X
    assert parse("1") is UNIT
    assert parse("(x*(x*x))") == graft(X, graft(X, X))
    assert parse(" ( x * ( x * x ) ) ") == graft(X, graft(X, X))
    # units inside products are normalized away
    assert parse("(1*x)") is X
    assert parse("((x*1)*(1*(x*x)))") == graft(X, graft(X, X))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("(x*")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse("(x*(x*x)")
    assert err.value.position == 8
    with pytest.raises(ParseError) as err:
        parse("y")
    assert err.value.position == 0
    with pytest.raises(ParseError) as err:
        parse("(x+x)")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse("(x*x) junk")
    assert err.value.position == 6
    with pytest.raises(ParseError):
        parse("")


def test_render_parse_round_trip():
    for n in range(1, 11):
        for t in enumerate_trees(n):
            assert parse(render(t)) == t
