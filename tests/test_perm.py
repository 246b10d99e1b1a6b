import itertools
import math

import pytest

from braidcovers import groups, perm
from conftest import random_perm


def test_identity():
    assert perm.identity(1) == (0,)
    assert perm.identity(4) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        perm.identity(0)


def test_compose_is_left_to_right():
    # (1,2) then (2,3): 1 -> 2 -> 3, so the product is (1,3,2)
    t12 = perm.parse_cycles("(1,2)", 3)
    t23 = perm.parse_cycles("(2,3)", 3)
    assert perm.compose(t12, t23) == perm.parse_cycles("(1,3,2)", 3)
    assert perm.compose(t23, t12) == perm.parse_cycles("(1,2,3)", 3)
    with pytest.raises(ValueError):
        perm.compose(t12, perm.identity(4))


def test_conjugate_relabels_cycles():
    # conjugating (1,2) by (2,3) renames point 2 to 3
    t12 = perm.parse_cycles("(1,2)", 3)
    t23 = perm.parse_cycles("(2,3)", 3)
    assert perm.conjugate(t12, t23) == perm.parse_cycles("(1,3)", 3)
    c = perm.parse_cycles("(1,2,3)", 4)
    h = perm.parse_cycles("(3,4)", 4)
    assert perm.conjugate(c, h) == perm.parse_cycles("(1,2,4)", 4)
    with pytest.raises(ValueError):
        perm.conjugate(t12, h)


def test_group_laws_random(rng):
    # identity, inverses, associativity, conjugation as a right action,
    # anti-homomorphism of inversion
    for _ in range(10_000):
        n = rng.randint(1, 9)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        r = random_perm(rng, n)
        e = perm.identity(n)
        assert perm.compose(p, e) == p
        assert perm.compose(e, p) == p
        assert perm.compose(p, perm.inverse(p)) == e
        assert perm.compose(perm.inverse(p), p) == e
        assert perm.compose(perm.compose(p, q), r) == \
            perm.compose(p, perm.compose(q, r))
        assert perm.inverse(perm.compose(p, q)) == \
            perm.compose(perm.inverse(q), perm.inverse(p))
        assert perm.conjugate(p, q) == perm.compose(
            perm.inverse(q), perm.compose(p, q))
        assert perm.conjugate(perm.conjugate(p, q), r) == \
            perm.conjugate(p, perm.compose(q, r))
        assert perm.cycle_type(perm.conjugate(p, q)) == perm.cycle_type(p)


def test_cycle_type_and_order():
    p = perm.parse_cycles("(1,2)(3,4,5)", 6)
    assert perm.cycle_type(p) == (3, 2, 1)
    assert perm.order_of(p) == 6
    assert perm.order_of(perm.identity(5)) == 1
    assert perm.cycle_type(perm.identity(3)) == (1, 1, 1)


def test_cycle_lengths_match_disjoint_cycles(rng):
    # order_of and cycle_type read the cycle lengths off disjoint_cycles;
    # both must agree with the cycles it lists
    cases = [perm.identity(n) for n in range(1, 10)]
    cases += [random_perm(rng, rng.randint(1, 9)) for _ in range(500)]
    for p in cases:
        lengths = [len(c) for c in perm.disjoint_cycles(p)]
        assert perm.order_of(p) == math.lcm(*lengths), p
        assert perm.cycle_type(p) == tuple(sorted(lengths, reverse=True)), p


@pytest.mark.parametrize("p", [(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 2, 2, 3),
                               (1, 2, 3), (1.0, 0.0), (-1, 0), (0, -1, 1)])
def test_cycle_functions_reject_non_permutations(p):
    # a cycle walk that reaches a seen point other than its start, a
    # point beyond the degree, a negative point (which a tuple would read
    # from its end) or one that is not an int raises instead of looping,
    # reading off wrong lengths or failing with another error
    calls = [perm.disjoint_cycles, perm.format_cycles, perm.cycle_type,
             perm.order_of, lambda q: groups.centralizer_elements(q, len(q))]
    for call in calls:
        with pytest.raises(ValueError, match="not a permutation"):
            call(p)


def test_order_divides_group_order(rng):
    for _ in range(500):
        n = rng.randint(1, 8)
        p = random_perm(rng, n)
        k = perm.order_of(p)
        assert math.factorial(n) % k == 0
        # p^k is the identity and no smaller positive power is
        q = p
        for _ in range(1, k):
            assert q != perm.identity(n)
            q = perm.compose(q, p)
        assert q == perm.identity(n)


def test_is_transposition():
    assert perm.is_transposition(perm.parse_cycles("(1,2)", 4))
    assert not perm.is_transposition(perm.identity(4))
    assert not perm.is_transposition(perm.parse_cycles("(1,2)(3,4)", 4))
    assert not perm.is_transposition(perm.parse_cycles("(1,2,3)", 4))
    # moves two points but is not a permutation
    assert not perm.is_transposition((1, 2, 2))
    # equal to a transposition, but its points are floats
    assert not perm.is_transposition((1.0, 0.0, 2.0))


def test_transposition_constructor():
    assert perm.transposition(4, 1, 2) == perm.parse_cycles("(1,2)", 4)
    assert perm.transposition(4, 3, 4) == perm.parse_cycles("(3,4)", 4)
    with pytest.raises(ValueError):
        perm.transposition(4, 1, 1)
    with pytest.raises(ValueError):
        perm.transposition(4, 0, 2)
    with pytest.raises(ValueError):
        perm.transposition(4, 1, 5)


def test_parse_cycles():
    assert perm.parse_cycles("(1,2)(3,4,5)", 5) == (1, 0, 3, 4, 2)
    assert perm.parse_cycles("()", 3) == (0, 1, 2)
    assert perm.parse_cycles(" ( 1 , 2 ) ", 2) == (1, 0)
    assert perm.parse_cycles("(1,2)()", 3) == (1, 0, 2)
    for bad in ["", "(1,2", "1,2", "(1,2)x", "(1)", "(1,1)", "(1,2)(2,3)",
                "(0,1)", "(1,4)", "(a,b)"]:
        with pytest.raises(ValueError):
            perm.parse_cycles(bad, 3)
    # a point is ASCII digits only: no underscore, sign or other script
    for bad, n in [("(1_0,2)", 10), ("(+1,2)", 3), ("(\u0661,2)", 3)]:
        with pytest.raises(ValueError, match="malformed cycle string"):
            perm.parse_cycles(bad, n)


def test_format_cycles():
    assert perm.format_cycles(perm.identity(4)) == "()"
    assert perm.format_cycles((1, 0, 3, 4, 2)) == "(1,2)(3,4,5)"
    assert perm.format_cycles(perm.parse_cycles("(2,3)", 5)) == "(2,3)"


def test_format_cycles_memo_is_bounded():
    assert perm._cycle_text.cache_info().maxsize is not None
    # keyed by each point's type: a float twin of a memoized permutation
    # is refused, not answered from the memo
    assert perm.format_cycles((1, 0)) == "(1,2)"
    with pytest.raises(ValueError, match="not a permutation"):
        perm.format_cycles((1.0, 0.0))


def test_parse_format_round_trip(rng):
    for _ in range(2000):
        n = rng.randint(1, 9)
        p = random_perm(rng, n)
        assert perm.parse_cycles(perm.format_cycles(p), n) == p


def test_commutes_matches_definition(rng):
    for _ in range(2000):
        n = rng.randint(1, 8)
        p = random_perm(rng, n)
        q = random_perm(rng, n)
        assert perm.commutes(p, q) == (perm.compose(p, q) == perm.compose(q, p))
    with pytest.raises(ValueError):
        perm.commutes(perm.identity(3), perm.identity(4))


def test_disjoint_cycles_partition():
    p = perm.parse_cycles("(1,2)(4,5,6)", 7)
    cycles = perm.disjoint_cycles(p)
    assert cycles == [(0, 1), (2,), (3, 4, 5), (6,)]
    assert sorted(itertools.chain.from_iterable(cycles)) == list(range(7))
