import itertools
import math

import pytest

from braidcovers import groups, perm
from conftest import random_perm


def _cycle_type_reps(n):
    """One permutation per cycle type of S_n."""
    seen = {}
    for p in itertools.permutations(range(n)):
        seen.setdefault(perm.cycle_type(p), p)
    return list(seen.values())


def test_closure_of_transpositions_is_symmetric():
    gens = [perm.parse_cycles("(1,2)", 4), perm.parse_cycles("(1,2,3,4)", 4)]
    assert len(groups.closure(gens, 4)) == 24
    assert len(groups.closure([], 3)) == 1
    assert len(groups.closure([perm.parse_cycles("(1,2,3)", 5)], 5)) == 3


def test_closure_is_closed(rng):
    for _ in range(50):
        n = rng.randint(2, 6)
        gens = [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
        g = groups.closure(gens, n)
        elements = list(g)
        assert perm.identity(n) in g
        for p in elements:
            assert perm.inverse(p) in g
        if len(elements) <= 48:
            # exhaustively closed under products at small orders
            for p in elements:
                for q in elements:
                    assert perm.compose(p, q) in g
        else:
            for _ in range(30):
                p = elements[rng.randrange(len(elements))]
                q = elements[rng.randrange(len(elements))]
                assert perm.compose(p, q) in g
        assert math.factorial(n) % len(g) == 0  # Lagrange


def test_is_transitive():
    assert groups.is_transitive([perm.parse_cycles("(1,2,3)", 3)], 3)
    assert not groups.is_transitive([perm.parse_cycles("(1,2)", 3)], 3)
    assert groups.is_transitive(
        [perm.parse_cycles("(1,2)", 3), perm.parse_cycles("(2,3)", 3)], 3)
    assert not groups.is_transitive(
        [perm.parse_cycles("(1,2)(3,4)", 4)], 4)
    assert groups.is_transitive([], 1)
    assert not groups.is_transitive([], 2)


def test_centralizer_order_formula():
    assert groups.centralizer_order(perm.identity(4)) == 24
    assert groups.centralizer_order(perm.parse_cycles("(1,2)", 4)) == 4
    # type (3,3): 3^2 * 2! = 18
    assert groups.centralizer_order(perm.parse_cycles("(1,2,3)(4,5,6)", 6)) == 18


def test_centralizer_elements_match_brute_force(rng):
    # direct construction versus a full scan, for every cycle type up to
    # degree 6; at degree 8, distinct elements of the predicted number
    # that commute with g
    for n in range(1, 7):
        for g in _cycle_type_reps(n):
            built = groups.centralizer_elements(g, n)
            scanned = {p for p in itertools.permutations(range(n))
                       if perm.commutes(p, g)}
            assert set(built) == scanned, (n, perm.format_cycles(g))
            assert len(built) == groups.centralizer_order(g)
    for _ in range(20):
        g = random_perm(rng, 8)
        built = groups.centralizer_elements(g, 8)
        assert len(built) == len(set(built)) == groups.centralizer_order(g)
        for z in built[:: max(1, len(built) // 40)]:
            assert perm.commutes(z, g)


def test_centralizer_of_transposition():
    c = groups.centralizer_elements(perm.parse_cycles("(1,2)", 4), 4)
    expected = {perm.identity(4), perm.parse_cycles("(1,2)", 4),
                perm.parse_cycles("(3,4)", 4), perm.parse_cycles("(1,2)(3,4)", 4)}
    assert set(c) == expected
    # C((1,2)) = C((3,4)) in S_4, the same Klein four-group, and it meets
    # C((1,3)) only in the identity
    c34 = groups.centralizer_elements(perm.parse_cycles("(3,4)", 4), 4)
    c13 = groups.centralizer_elements(perm.parse_cycles("(1,3)", 4), 4)
    assert set(c) & set(c34) == set(c) == set(c34)
    assert set(c) & set(c13) == {perm.identity(4)}


def test_fingerprint_names():
    n3 = 3
    s3 = groups.fingerprint([perm.parse_cycles("(1,2)", n3),
                             perm.parse_cycles("(1,2,3)", n3)], n3)
    assert (s3.order, s3.name, s3.transitive, s3.abelian) == (6, "S3", True, False)
    assert s3.histogram_dict() == {1: 1, 2: 3, 3: 2}

    c2 = groups.fingerprint([perm.parse_cycles("(1,2)", 2)], 2)
    assert (c2.order, c2.name, c2.transitive, c2.abelian) == (2, "C2", True, True)

    d8 = groups.fingerprint([perm.parse_cycles("(1,2,3,4)", 4),
                             perm.parse_cycles("(1,3)", 4)], 4)
    assert (d8.order, d8.name) == (8, "D8")
    assert d8.histogram_dict() == {1: 1, 2: 5, 4: 2}

    klein = groups.fingerprint([perm.parse_cycles("(1,2)(3,4)", 4),
                                perm.parse_cycles("(1,3)(2,4)", 4)], 4)
    assert (klein.order, klein.name, klein.abelian) == (4, "C2 x C2", True)

    q8 = groups.fingerprint([perm.parse_cycles("(1,2,3,4)(5,6,7,8)", 8),
                             perm.parse_cycles("(1,5,3,7)(2,8,4,6)", 8)], 8)
    assert (q8.order, q8.name) == (8, "Q8")

    s4 = groups.fingerprint([perm.parse_cycles("(1,2)", 4),
                             perm.parse_cycles("(1,2,3,4)", 4)], 4)
    assert (s4.order, s4.name) == (24, "S4")

    a4 = groups.fingerprint([perm.parse_cycles("(1,2,3)", 4),
                             perm.parse_cycles("(1,2)(3,4)", 4)], 4)
    assert (a4.order, a4.name) == (12, "A4")

    trivial = groups.fingerprint([], 1)
    assert (trivial.order, trivial.name) == (1, "trivial")


def test_fingerprint_name_vocabulary():
    # one witness per remaining name in the fixed vocabulary
    cases = [
        ("C3", ["(1,2,3)"], 3),
        ("C4", ["(1,2,3,4)"], 4),
        ("C6", ["(1,2,3,4,5,6)"], 6),
        ("C8", ["(1,2,3,4,5,6,7,8)"], 8),
        ("C4 x C2", ["(1,2,3,4)", "(5,6)"], 6),
        ("C2 x C2 x C2", ["(1,2)", "(3,4)", "(5,6)"], 6),
        ("D12", ["(1,2,3,4,5,6)", "(2,6)(3,5)"], 6),
    ]
    for name, cycle_strings, n in cases:
        gens = [perm.parse_cycles(text, n) for text in cycle_strings]
        assert groups.fingerprint(gens, n).name == name


def test_fingerprint_unknown_group_is_other():
    # groups outside the naming vocabulary must not be misnamed
    s6 = groups.fingerprint([perm.parse_cycles("(1,2)", 6),
                             perm.parse_cycles("(1,2,3,4,5,6)", 6)], 6)
    assert s6.order == 720
    assert s6.name == "other"
    assert s6.transitive
    c5 = groups.fingerprint([perm.parse_cycles("(1,2,3,4,5)", 5)], 5)
    assert (c5.order, c5.name) == (5, "other")
    d16 = groups.fingerprint([perm.parse_cycles("(1,2,3,4,5,6,7,8)", 8),
                              perm.parse_cycles("(2,8)(3,7)(4,6)", 8)], 8)
    assert (d16.order, d16.name) == (16, "other")


def test_fingerprint_histogram_sums_to_order(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        gens = [random_perm(rng, n) for _ in range(2)]
        fp = groups.fingerprint(gens, n)
        assert sum(count for _, count in fp.order_histogram) == fp.order
        assert fp.to_json_dict()["order"] == fp.order


def test_centralizer_degree_mismatch():
    with pytest.raises(ValueError):
        groups.centralizer_elements(perm.identity(3), 4)
