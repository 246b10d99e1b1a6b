import itertools
import math
from collections import Counter

import pytest

from braidcovers import groups, perm
from conftest import random_perm, reference_centralizer


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


def _bfs_closure(gens, n):
    # reference: close under right multiplication by every generator,
    # breadth first from the identity
    seen = {perm.identity(n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = perm.compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _random_generators(rng, n):
    # up to four generators: repeats, identities, permutations of a few
    # points (small groups) and of all n points
    gens = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if gens and kind < 0.2:
            gens.append(rng.choice(gens))
        elif kind < 0.3:
            gens.append(perm.identity(n))
        elif kind < 0.75:
            points = rng.sample(range(n), rng.randint(1, min(n, 4)))
            images = list(range(n))
            for x, y in zip(points, rng.sample(points, len(points))):
                images[x] = y
            gens.append(tuple(images))
        else:
            gens.append(random_perm(rng, n))
    return gens


def test_closure_matches_breadth_first_reference(rng):
    cases = [([], n) for n in range(1, 8)]
    cases += [([perm.identity(n)] * 2, n) for n in range(1, 8)]
    for _ in range(240):
        n = rng.randint(1, 7)
        cases.append((_random_generators(rng, n), n))
    orders = set()
    for gens, n in cases:
        got = groups.closure(gens, n)
        assert isinstance(got, frozenset)
        assert got == _bfs_closure(gens, n), (n, gens)
        orders.add(len(got))
    assert {1, 2, 6, 24, 120, 720} <= orders


def test_closure_degree_mismatch():
    with pytest.raises(ValueError, match="degree 4, expected 3"):
        groups.closure([perm.identity(3), perm.identity(4)], 3)
    with pytest.raises(ValueError):
        groups.closure([perm.parse_cycles("(1,2)", 2)], 3)


def test_closure_rejects_non_permutation():
    # the error names the generator passed, not an element built from it
    with pytest.raises(ValueError,
                       match=r"not a permutation: \(0, 0, 1\)"):
        groups.closure([(0, 0, 1)], 3)
    with pytest.raises(ValueError, match=r"\(1, 2, 0, 1\)"):
        groups.closure([perm.identity(4), (1, 2, 0, 1)], 4)
    with pytest.raises(ValueError, match=r"\(0, 0, 1\)"):
        groups.fingerprint([(0, 0, 1)], 3)
    # a list, and a tuple of floats equal to a permutation, are refused
    # with ValueError, not a TypeError from the element set
    for call in (groups.closure, groups.fingerprint):
        with pytest.raises(ValueError,
                           match=r"generator is not a tuple: \[1, 0, 2\]"):
            call([[1, 0, 2]], 3)
        with pytest.raises(
                ValueError,
                match=r"generator is not a permutation: \(1\.0, 0\.0, 2\.0\)"):
            call([(1.0, 0.0, 2.0)], 3)


def _element_order(p):
    # by repeated multiplication, not from the cycle lengths
    q, k = p, 1
    while q != perm.identity(len(p)):
        q, k = perm.compose(q, p), k + 1
    return k


def test_fingerprint_counts_reference_closure(rng):
    for _ in range(60):
        n = rng.choice((5, 6))
        gens = _random_generators(rng, n)
        elements = _bfs_closure(gens, n)
        fp = groups.fingerprint(gens, n)
        assert fp.order == len(elements)
        assert fp.order_histogram == tuple(sorted(
            Counter(map(_element_order, elements)).items()))


def test_is_transitive():
    assert groups.is_transitive([perm.parse_cycles("(1,2,3)", 3)], 3)
    assert not groups.is_transitive([perm.parse_cycles("(1,2)", 3)], 3)
    assert groups.is_transitive(
        [perm.parse_cycles("(1,2)", 3), perm.parse_cycles("(2,3)", 3)], 3)
    assert not groups.is_transitive(
        [perm.parse_cycles("(1,2)(3,4)", 4)], 4)
    assert groups.is_transitive([], 1)
    assert not groups.is_transitive([], 2)
    with pytest.raises(ValueError):
        groups.is_transitive([perm.identity(3), perm.identity(4)], 3)


def _closure_transitive(gens, n):
    # the points the generated group, listed element by element, moves 0
    # to; repeats and the identity do not change the group
    return len({g[0] for g in groups.closure(sorted(set(gens)), n)}) == n


def _with_identities(rng, gens, n):
    gens = gens + [perm.identity(n)] * rng.randint(0, 5)
    rng.shuffle(gens)
    return gens


def test_is_transitive_matches_closure_orbit(rng):
    verdicts = {"short": set(), "long": set(), "last joins": set()}

    def check(family, gens, n):
        verdict = groups.is_transitive(gens, n)
        assert verdict == _closure_transitive(gens, n), (n, gens)
        verdicts[family].add(verdict)

    # a few random generators
    for _ in range(300):
        n = rng.randint(1, 6)
        check("short", [random_perm(rng, n)
                        for _ in range(rng.randint(0, 3))], n)
    # long lists drawn from a small centralizer, with repeats and
    # identities: transitive only when the cycles of g can be joined
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_perm(rng, n)
        while groups.centralizer_order(g) > 1000:
            g = random_perm(rng, n)
        cent = groups.centralizer_elements(g, n)
        gens = [rng.choice(cent) for _ in range(rng.randint(10, 40))]
        check("long", _with_identities(rng, gens, n), n)
    # every generator but the last fixes the final point: powers of a
    # cycle through the other points, and last a transposition onto it
    # or another power
    for n in [rng.randint(2, 7) for _ in range(40)] + [8]:
        points = list(range(n - 1))
        rng.shuffle(points)
        c = list(range(n))
        for x, y in zip(points, points[1:] + points[:1]):
            c[x] = y
        powers = [perm.identity(n)]
        while len(powers) < n - 1:
            powers.append(perm.compose(powers[-1], tuple(c)))
        gens = [rng.choice(powers) for _ in range(rng.randint(1, 30))]
        last = (perm.transposition(n, rng.randint(1, n - 1), n)
                if rng.random() < 0.7 else rng.choice(powers))
        check("last joins", _with_identities(rng, gens, n) + [last], n)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_centralizer_order_formula():
    assert groups.centralizer_order(perm.identity(4)) == 24
    assert groups.centralizer_order(perm.parse_cycles("(1,2)", 4)) == 4
    # type (3,3): 3^2 * 2! = 18
    assert groups.centralizer_order(perm.parse_cycles("(1,2,3)(4,5,6)", 6)) == 18


def test_centralizer_elements_match_reference_order(rng):
    # the same list, order included, as the pair-by-pair construction:
    # `list` writes solutions in orders built from these lists
    gs = [(n, g) for n in range(1, 8) for g in _cycle_type_reps(n)]
    gs += [(n, random_perm(rng, n)) for n in (8, 9) for _ in range(12)]
    gs += [(n, perm.transposition(n, 1, 2)) for n in (8, 9)]
    for n, g in gs:
        assert groups.centralizer_elements(g, n) \
            == reference_centralizer(g, n), (n, perm.format_cycles(g))


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
    assert dict(s3.order_histogram) == {1: 1, 2: 3, 3: 2}

    c2 = groups.fingerprint([perm.parse_cycles("(1,2)", 2)], 2)
    assert (c2.order, c2.name, c2.transitive, c2.abelian) == (2, "C2", True, True)

    d8 = groups.fingerprint([perm.parse_cycles("(1,2,3,4)", 4),
                             perm.parse_cycles("(1,3)", 4)], 4)
    assert (d8.order, d8.name) == (8, "D8")
    assert dict(d8.order_histogram) == {1: 1, 2: 5, 4: 2}

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


def test_fingerprint_memo_is_shared_by_generating_sets():
    # one group, two generating sets: equal fingerprints, and the second
    # is answered from the memo
    def parse(texts, n):
        return [perm.parse_cycles(text, n) for text in texts]

    memo = groups._group_fingerprint
    for first, second, n in [
            (["(1,2)", "(1,2,3)"], ["(1,2)", "(2,3)"], 3),
            (["(1,2,3,4)", "(1,3)"], ["(1,2)(3,4)", "(1,3)"], 4)]:
        a = groups.fingerprint(parse(first, n), n)
        hits = memo.cache_info().hits
        b = groups.fingerprint(parse(second, n), n)
        assert memo.cache_info().hits == hits + 1
        assert a == b
    assert (a.order, a.name) == (8, "D8")
    # same order and order histogram, one transitive and one not: the memo
    # tells the groups apart by their elements
    klein = groups.fingerprint(parse(["(1,2)(3,4)", "(1,3)(2,4)"], 4), 4)
    pairs = groups.fingerprint(parse(["(1,2)", "(3,4)"], 4), 4)
    assert klein.order_histogram == pairs.order_histogram
    assert (klein.transitive, pairs.transitive) == (True, False)


def _reference_fingerprint(gens, n):
    elements = groups.closure(gens, n)
    hist = Counter(map(perm.order_of, elements))
    abelian = all(perm.compose(g, h) == perm.compose(h, g)
                  for g in elements for h in elements)
    return groups.GroupFingerprint(
        order=len(elements),
        transitive={g[0] for g in elements} == set(range(n)),
        abelian=abelian,
        order_histogram=tuple(sorted(hist.items())),
        name=groups._group_name(len(elements), abelian, hist),
    )


def test_fingerprint_matches_reference_on_list_n6(n6_result):
    gen_sets = {(sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2)
                for sol in n6_result.solutions}
    assert len({frozenset(gens) for gens in gen_sets}) == 288
    for gens in sorted(gen_sets):
        assert groups.fingerprint(gens, 6) == _reference_fingerprint(gens, 6)


def test_fingerprint_memo_is_bounded():
    assert groups._group_fingerprint.cache_info().maxsize is not None


def test_centralizer_degree_mismatch():
    with pytest.raises(ValueError):
        groups.centralizer_elements(perm.identity(3), 4)
