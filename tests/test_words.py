import pytest

from braidcovers import perm, words
from braidcovers.words import Assignment, Gen
from conftest import random_perm


def _assignment(n, sigma, a1=None, a2=None, b1=None, b2=None):
    e = perm.identity(n)
    return Assignment(n, sigma, a1 or e, a2 or e, b1 or e, b2 or e)


def _failing(asg):
    # the labels of the relators that do not evaluate to the identity
    e = perm.identity(asg.n)
    return tuple(r.label for r in words.RELATORS
                 if words.evaluate(r.word, asg) != e)


def test_relator_table_shape():
    assert len(words.RELATORS) == 11
    assert tuple(r.label for r in words.RELATORS) == (
        "R2_a1", "R2_a2", "R2_b1", "R2_b2",
        "R3_a1_a2", "R3_b1_b2", "R3_a1_b2", "R3_b1_a2",
        "R4_a1_b1", "R4_a2_b2", "TR")
    # R2 words touch one non-sigma generator, R3/R4 two, TR all four
    for rel in words.RELATORS:
        gens = {g for g, _ in rel.word if g is not Gen.SIGMA}
        expected = {"R2": 1, "R3": 2, "R4": 2, "TR": 4}[rel.label.split("_")[0]]
        assert len(gens) == expected


def test_inverted():
    w = ((Gen.A1, 1), (Gen.SIGMA, -2))
    assert words.inverted(w) == ((Gen.SIGMA, 2), (Gen.A1, -1))
    asg = _assignment(3, perm.parse_cycles("(1,2)", 3),
                      a1=perm.parse_cycles("(1,2,3)", 3))
    prod = perm.compose(words.evaluate(w, asg),
                        words.evaluate(words.inverted(w), asg))
    assert prod == perm.identity(3)


def test_evaluate_left_to_right():
    asg = _assignment(3, perm.identity(3),
                      a1=perm.parse_cycles("(1,2)", 3),
                      b1=perm.parse_cycles("(2,3)", 3))
    w = ((Gen.A1, 1), (Gen.B1, 1))  # apply a1 first: 1 -> 2 -> 3
    assert words.evaluate(w, asg) == perm.parse_cycles("(1,3,2)", 3)
    assert words.evaluate(((Gen.A1, 2),), asg) == perm.identity(3)
    assert words.evaluate(((Gen.A1, -1),), asg) == perm.parse_cycles("(1,2)", 3)


def test_all_identity_non_sigma_images_pass():
    asg = _assignment(4, perm.parse_cycles("(1,2)", 4))
    assert _failing(asg) == ()
    assert words.satisfies_all_relations(asg)


def test_degree_two_all_swaps_pass():
    # S_2 is abelian and sigma^2 = 1, so every 5-tuple over S_2 works;
    # the extreme case is all five images equal to the swap
    t = perm.parse_cycles("(1,2)", 2)
    asg = Assignment(2, t, t, t, t, t)
    assert words.satisfies_all_relations(asg)


def test_degree_two_all_sixteen_assignments_pass():
    import itertools

    t = perm.parse_cycles("(1,2)", 2)
    passing = [
        Assignment(2, t, *images)
        for images in itertools.product((perm.identity(2), t), repeat=4)
        if words.satisfies_all_relations(Assignment(2, t, *images))
    ]
    assert len(passing) == 16


def test_three_cycle_with_trivial_partners_passes():
    # both commutators are trivial here, so the torus relation holds too
    asg = _assignment(3, perm.parse_cycles("(1,2)", 3),
                      a1=perm.parse_cycles("(1,2,3)", 3))
    assert _failing(asg) == ()
    assert words.satisfies_all_relations(asg)


def test_failing_assignment_reports_exact_labels():
    asg = _assignment(3, perm.parse_cycles("(1,2)", 3),
                      a1=perm.parse_cycles("(1,3)", 3),
                      b1=perm.parse_cycles("(2,3)", 3))
    assert _failing(asg) == ("R2_a1", "R2_b1", "TR")
    assert not words.satisfies_all_relations(asg)


def test_enumerated_solutions_pass(n3_result):
    for sol in n3_result[1][:20]:
        assert _failing(sol) == ()
        assert words.satisfies_all_relations(sol)


def test_assignment_validates_degrees():
    with pytest.raises(ValueError):
        Assignment(3, perm.identity(3), perm.identity(4), perm.identity(3),
                   perm.identity(3), perm.identity(3))


def test_assignment_rejects_non_permutations():
    # a tuple of the right degree that is not a permutation is refused,
    # however it reaches the constructor, and before any relation or
    # inverse is evaluated on it
    e = perm.identity(3)
    s = perm.transposition(3, 1, 2)
    Assignment(3, s, s, e, e, e)            # its images are remembered now
    for bad in [(0, 0, 1), (1, 2, 3), (0, 1, -1), (2, 2, 2)]:
        with pytest.raises(ValueError, match=r"a1 is not a permutation"):
            Assignment(3, s, bad, e, e, e)
        with pytest.raises(ValueError, match=r"b2 is not a permutation"):
            Assignment(3, s, e, e, e, bad)
        with pytest.raises(ValueError, match=r"a2 is not a permutation"):
            Assignment(3, s, e, e, e, e)._replace(a2=bad)
    with pytest.raises(ValueError, match=r"sigma has degree 2, expected 3"):
        Assignment(3, (1, 0), e, e, e, e)
    with pytest.raises(ValueError, match=r"a1 is not a tuple"):
        Assignment(3, s, [0, 1, 2], e, e, e)


def test_assignment_rejects_list_images():
    # images are tuples: a list is refused with ValueError, not a
    # TypeError, after a tuple of the same values was taken, and at every
    # position
    e = perm.identity(2)
    t = perm.transposition(2, 1, 2)
    Assignment(2, t, e, e, e, e)
    with pytest.raises(ValueError, match=r"sigma is not a tuple: \[1, 0\]"):
        Assignment(2, [1, 0], e, e, e, e)
    for i, name in enumerate(("a1", "a2", "b1", "b2")):
        images = [e] * 4
        images[i] = [0, 1]
        with pytest.raises(ValueError, match=rf"{name} is not a tuple"):
            Assignment(2, t, *images)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_assignment_rejects_non_int_points(warm):
    # a tuple of lists, and a tuple of floats equal to a permutation, are
    # refused with ValueError whether or not Assignment has already been
    # given the permutations they look like
    e = perm.identity(2)
    s = perm.transposition(2, 1, 2)
    if warm:
        Assignment(2, s, s, e, e, e)
    for bad in [([1], [0]), (1.0, 0.0)]:
        with pytest.raises(ValueError, match=r"a1 is not a permutation"):
            Assignment(2, s, bad, e, e, e)
        with pytest.raises(ValueError, match=r"b2 is not a permutation"):
            Assignment(2, s, e, e, e, bad)


def test_assignment_accessors():
    sig = perm.parse_cycles("(1,2)", 3)
    a1 = perm.parse_cycles("(1,2,3)", 3)
    asg = _assignment(3, sig, a1=a1)
    assert asg.image(Gen.SIGMA) == sig
    assert asg.image(Gen.A1) == a1
    assert asg.image(Gen.B2) == perm.identity(3)
    assert asg.sort_key() == sig + a1 + perm.identity(3) * 3
    assert "a1=(1,2,3)" in str(asg)


def test_conjugation_preserves_relation_report(rng):
    # relator words are conjugation-equivariant, so pass/fail patterns
    # are invariant under simultaneous conjugation
    for _ in range(1000):
        n = rng.randint(2, 6)
        asg = Assignment(n, *(random_perm(rng, n) for _ in range(5)))
        h = random_perm(rng, n)
        assert _failing(asg) == _failing(asg.conjugated(h))
        assert words.satisfies_all_relations(asg) == (_failing(asg) == ())


def test_r3_r4_are_centralizer_conditions(rng):
    # with sigma an involution, R3(x, y) and R4(x, y) each hold exactly
    # when y commutes with sigma x sigma, and R2(x) exactly when x does
    by_label = {r.label: r.word for r in words.RELATORS}
    ident = {n: perm.identity(n) for n in range(2, 7)}
    for _ in range(1000):
        n = rng.randint(2, 6)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        sig = perm.transposition(n, i, j)
        x = random_perm(rng, n)
        y = random_perm(rng, n)
        e = ident[n]
        sxs = perm.compose(sig, perm.compose(x, sig))
        on_a1_a2 = Assignment(n, sig, x, y, e, e)
        on_a1_b1 = Assignment(n, sig, x, e, y, e)
        r3 = words.evaluate(by_label["R3_a1_a2"], on_a1_a2) == e
        assert r3 == perm.commutes(y, sxs)
        r4 = words.evaluate(by_label["R4_a1_b1"], on_a1_b1) == e
        assert r4 == perm.commutes(y, sxs)
        r2 = words.evaluate(by_label["R2_a1"], on_a1_a2) == e
        assert r2 == perm.commutes(x, sxs)


def test_torus_relator_matches_direct_product(rng):
    tr = next(r for r in words.RELATORS if r.label == "TR")
    for _ in range(500):
        n = rng.randint(2, 6)
        asg = Assignment(n, *(random_perm(rng, n) for _ in range(5)))

        def comm(u, v):
            return perm.compose(
                u, perm.compose(v, perm.compose(perm.inverse(u),
                                                perm.inverse(v))))

        lhs = perm.compose(comm(asg.a1, perm.inverse(asg.b1)),
                           comm(asg.a2, perm.inverse(asg.b2)))
        rhs = perm.compose(asg.sigma, asg.sigma)
        holds = words.evaluate(tr.word, asg) == perm.identity(n)
        assert holds == (lhs == rhs)
