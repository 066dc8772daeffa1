import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import magmaexp
from conftest import SEED
from magmaexp import (
    BoundExceededError,
    UNIT,
    X,
    MagmaTree,
    ParseError,
    canonical_rank,
    canonical_sort_key,
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
    assert repr(X) == "MagmaTree('x')"
    assert repr(graft(graft(X, X), X)) == "MagmaTree('((x*x)*x)')"


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
            assert graft(*decompose(t)) is t
    with pytest.raises(ValueError):
        decompose(X)
    with pytest.raises(ValueError):
        decompose(UNIT)


def test_structural_equality_and_hash():
    a = graft(X, graft(X, X))
    b = graft(X, graft(X, X))
    c = graft(graft(X, X), X)
    assert a is b
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
    # 1,501 leaves are past the recursion limit: every walk must be iterative
    comb = left_comb(1501)
    assert left_comb(1501) is comb
    assert comb != graft(X, left_comb(1500))
    assert comb != left_comb(1500)
    text = render(comb)
    assert len(text) == 4 * 1501 - 3
    assert parse(text) is comb
    # the left comb is the last tree of its degree, the right comb the first
    assert canonical_rank(comb) == catalan(1500) - 1
    right_comb = X
    for _ in range(1500):
        right_comb = graft(X, right_comb)
    assert parse(render(right_comb)) is right_comb
    assert canonical_rank(right_comb) == 0


def test_copy_and_pickle_return_the_same_object():
    # the 1,501-leaf comb is past the recursion limit
    for t in (UNIT, X, graft(X, graft(X, X)), left_comb(50), left_comb(1501)):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t


def random_tree_text(rng, n):
    """Wire format of a random degree-n tree, made without building the tree."""
    if n == 1:
        return "x"
    k = rng.randint(1, n - 1)
    return f"({random_tree_text(rng, k)}*{random_tree_text(rng, n - k)})"


# runs in a fresh interpreter, where no degree-12 tree exists yet; the
# threads meet at a barrier every ten texts, so they race to build the same
# new nodes (a node table written without setdefault fails this test)
_INTERNING_RACE = """
import json, sys, threading
from magmaexp import enumerate_trees, parse
from magmaexp.trees import _nodes

texts = json.load(sys.stdin)
assert all(t.degree < 12 for t in _nodes.values())
sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
results = [None] * 8

def work(i):
    parsed = []
    for k in range(0, len(texts), 10):
        start.wait()
        parsed += [parse(s) for s in texts[k:k + 10]]
    start.wait()
    results[i] = parsed, enumerate_trees(10)

threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
assert not any(thread.is_alive() for thread in threads)
json.dump([[[id(t) for t in trees] for trees in result] for result in results], sys.stdout)
"""


def _child_env():
    """The environment of a child interpreter that imports this magmaexp."""
    src = str(Path(magmaexp.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_threads_intern_one_object_per_tree():
    rng = random.Random(SEED)
    texts = [random_tree_text(rng, 12) for _ in range(300)]
    done = subprocess.run(
        [sys.executable, "-c", _INTERNING_RACE],
        input=json.dumps(texts),
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 8
    parsed, enumerated = results[0]
    assert len(parsed) == len(texts) and len(enumerated) == catalan(9)
    for other_parsed, other_enumerated in results[1:]:
        assert other_parsed == parsed
        assert other_enumerated == enumerated


def test_enumeration_counts_match_catalan_recurrence():
    oracle = catalan_recurrence_oracle(13)
    for n in range(1, 14):
        assert len(enumerate_trees(n)) == oracle[n - 1]
        assert catalan(n - 1) == oracle[n - 1]
    with pytest.raises(ValueError, match="got -1"):
        catalan(-1)
    # degree 14 is 742,900 trees: counted in a child, so that this process
    # does not hold them in the enumeration cache for the rest of the run
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "from magmaexp import catalan, enumerate_trees;"
            "print(len(enumerate_trees(14)), catalan(13))",
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=180,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(oracle[13])] * 2


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


def test_enumerate_budget(monkeypatch):
    with pytest.raises(BoundExceededError):
        enumerate_trees(40)
    # catalan(10**5 - 1) has about 60,000 digits; the count stops at the budget
    with pytest.raises(BoundExceededError, match="^degree 100000 has more than "):
        enumerate_trees(10**5)
    # degree 5 has catalan(4) = 14 trees
    monkeypatch.setattr(magmaexp.trees, "DEFAULT_TREE_BUDGET", 13)
    with pytest.raises(BoundExceededError, match="^degree 5 has more than 13 trees$"):
        enumerate_trees(5)
    monkeypatch.setattr(magmaexp.trees, "DEFAULT_TREE_BUDGET", 14)
    assert len(enumerate_trees(5)) == 14
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_canonical_rank_matches_enumeration():
    for n in range(1, 10):
        for i, t in enumerate(enumerate_trees(n)):
            assert canonical_rank(t) == i


def test_sort_key_restores_canonical_order():
    # one shuffle of the unit and every tree of degree 1..11: sorting must
    # restore each degree's enumeration order, the degrees ascending
    canonical = [UNIT]
    for n in range(1, 12):
        canonical += enumerate_trees(n)
    shuffled = canonical[:]
    random.Random(SEED).shuffle(shuffled)
    assert sorted(shuffled, key=canonical_sort_key) == canonical


def test_sort_key_agrees_with_canonical_rank():
    rng = random.Random(SEED)
    trees = [UNIT, X, left_comb(1501)]
    trees += [parse(random_tree_text(rng, n)) for n in range(1, 41) for _ in range(5)]
    keys = [canonical_sort_key(t) for t in trees]
    ranks = [(t.degree, canonical_rank(t)) for t in trees]
    for i, a in enumerate(trees):
        for j, b in enumerate(trees):
            assert (keys[i] < keys[j]) == (ranks[i] < ranks[j])
            assert (keys[i] == keys[j]) == (a is b)


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
            assert parse(render(t)) is t
