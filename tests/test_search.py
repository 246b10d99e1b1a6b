import itertools
import math
import os

import pytest

from braidcovers import groups, perm, search, words

EXPECTED_FIXED = {2: 16, 3: 80, 4: 480, 5: 0, 6: 2880}
EXPECTED_ORBITS = {2: 16, 3: 40, 4: 240}


def _keys(result):
    return {sol.sort_key() for sol in result.solutions}


@pytest.mark.parametrize("n,expected", sorted(EXPECTED_FIXED.items()))
def test_fixed_sigma_counts(n, expected):
    res = search.enumerate_fixed_sigma(n)
    assert res.fixed_count == expected
    assert res.transpositions == n * (n - 1) // 2
    assert res.total_count == expected * res.transpositions
    assert res.sigma == perm.transposition(n, 1, 2)
    assert res.solutions is None


def test_collected_solutions_are_consistent(n4_result):
    assert len(n4_result.solutions) == n4_result.fixed_count == 480
    assert len(_keys(n4_result)) == 480
    for sol in n4_result.solutions[:50]:
        assert sol.sigma == perm.transposition(4, 1, 2)
        assert words.check_relations(sol).passed
        assert groups.is_transitive(
            (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2), 4)


def test_every_n3_solution_satisfies_relations(n3_result):
    assert len(n3_result.solutions) == 80
    for sol in n3_result.solutions:
        assert words.satisfies_all_relations(sol)
        assert groups.is_transitive(
            (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2), 3)


def test_deterministic_repeat(n4_result):
    again = search.enumerate_fixed_sigma(4, collect=True)
    assert again.solutions == n4_result.solutions
    assert again.fixed_count == n4_result.fixed_count


def test_parallel_matches_single(n6_result):
    for workers in (2, 8):
        par = search.enumerate_fixed_sigma(6, collect=True, workers=workers)
        assert par.fixed_count == n6_result.fixed_count == 2880
        assert par.solutions == n6_result.solutions


def test_sink_streams_same_solutions(n3_result):
    # under the pool the sink runs in this process, in job order
    for workers in (1, 2):
        streamed = []
        res = search.enumerate_fixed_sigma(3, workers=workers,
                                           sink=streamed.append)
        assert res.fixed_count == 80
        assert res.solutions is None
        assert tuple(streamed) == n3_result.solutions


def test_sink_error_stops_pooled_search():
    # the sink's exception reaches the caller; the pool drops what is left
    def refuse(sol):
        raise RuntimeError("sink refused")

    with pytest.raises(RuntimeError, match="sink refused"):
        search.enumerate_fixed_sigma(6, workers=2, sink=refuse)


def test_progress_reports_all_slices():
    ticks = []
    search.enumerate_fixed_sigma(3, progress=lambda i, m: ticks.append((i, m)))
    assert ticks == [(i, len(ticks)) for i in range(1, len(ticks) + 1)]


def test_count_independent_of_which_transposition():
    for n in (3, 4):
        base = search.enumerate_fixed_sigma(n).fixed_count
        for (i, j) in ((1, 3), (2, 3), (1, n)):
            alt = search.enumerate_fixed_sigma(
                n, sigma=perm.transposition(n, i, j))
            assert alt.fixed_count == base


def test_sigma_validation():
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.identity(3))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.parse_cycles("(1,2,3)", 3))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(3, sigma=perm.transposition(4, 1, 2))
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(1)
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(13)
    with pytest.raises(ValueError):
        search.enumerate_fixed_sigma(4, workers=0)


def test_oracle_agrees_small():
    for n in (2, 3):
        brute = search.brute_force_oracle(n, collect=True)
        engine = search.enumerate_fixed_sigma(n, collect=True)
        assert brute.fixed_count == engine.fixed_count
        assert _keys(brute) == _keys(engine)
    with pytest.raises(ValueError):
        search.brute_force_oracle(5)


def _a1_reps(n, s):
    return search._orbit_reps(groups.centralizer_elements(s, n),
                              itertools.permutations(range(n)))


def test_conj_class_reps_partition_sn():
    # the orbit helper at the a1 level: orbit sizes sum to n!,
    # representatives are lex-least and distinct, and the orbit count
    # matches Burnside's lemma computed from scratch
    for n in (2, 3, 4, 5):
        s = perm.transposition(n, 1, 2)
        reps = _a1_reps(n, s)
        assert sum(size for _, size in reps) == math.factorial(n)
        assert len({rep for rep, _ in reps}) == len(reps)
        cent = groups.centralizer_elements(s, n)
        for rep, _ in reps[:20]:
            assert all(rep <= perm.conjugate(rep, h) for h in cent)
        fixed = sum(
            1 for h in cent for x in itertools.permutations(range(n))
            if perm.conjugate(x, h) == x)
        assert len(reps) * len(cent) == fixed


def test_b1_orbits_partition_filtered_c1():
    # the orbit helper at the b1 level: the orbits of C(s) n C(a1) on the
    # pruned C1 are disjoint, each lies inside the candidates, and they
    # cover the candidates, each led by its first candidate
    n = 5
    s = perm.transposition(n, 1, 2)
    cent = groups.centralizer_elements(s, n)
    checked = 0
    for a1, _ in _a1_reps(n, s):
        sa1s = search._sigma_conj(a1, s)
        if not perm.commutes(a1, sa1s):
            continue
        stab = [h for h in cent if perm.commutes(h, a1)]
        cands = [b1 for b1, _, _ in search._b1_candidates(
            s, a1, sa1s, groups.centralizer_elements(sa1s, n))]
        reps = search._orbit_reps(stab, cands)
        covered = set()
        for rep, size in reps:
            orbit = {perm.conjugate(rep, h) for h in stab}
            assert len(orbit) == size
            assert orbit <= set(cands)
            assert not orbit & covered
            assert min(cands.index(x) for x in orbit) == cands.index(rep)
            covered |= orbit
        assert covered == set(cands)
        assert sum(size for _, size in reps) == len(cands)
        checked += len(stab) > 1 and len(reps) < len(cands)
    assert checked  # some a1 had orbits of more than one candidate


def test_a1_candidates_are_the_r2_filter():
    # the pruned a1 list is S_n filtered by R2(a1) from the relator word
    # itself, in lexicographic order
    r2 = words.RELATORS[words.RELATOR_LABELS.index("R2_a1")].word
    for n in range(2, 8):
        s = perm.transposition(n, 1, 2)
        e = perm.identity(n)
        expected = [
            a1 for a1 in itertools.permutations(range(n))
            if words.evaluate(r2, words.Assignment(n, s, a1, e, e, e)) == e]
        assert list(search._a1_candidates(n, s)) == expected


def _per_a1_counts(n, sigma):
    cent = groups.centralizer_elements(sigma, n)
    return [(search._count_for_a1(n, sigma, a1, cent),
             sum(1 for _ in search._iter_for_a1(n, sigma, a1)))
            for a1, _ in search._orbit_reps(
                cent, search._a1_candidates(n, sigma))]


def test_factored_count_matches_plain_loop():
    # counting runs factor the a1, b1 and a2 levels by symmetry; collecting
    # runs keep the plain loop; both must produce the same counts, in total
    # and below every a1 representative
    for n in range(2, 7):
        fast = search.enumerate_fixed_sigma(n)
        plain = search.enumerate_fixed_sigma(n, collect=True)
        assert fast.fixed_count == plain.fixed_count
        assert fast.total_count == plain.total_count
    for factored, plain in _per_a1_counts(6, perm.transposition(6, 1, 2)):
        assert factored == plain
    for i, j in ((1, 3), (2, 3)):
        sig = perm.transposition(4, i, j)
        fast = search.enumerate_fixed_sigma(4, sigma=sig)
        plain = search.enumerate_fixed_sigma(4, collect=True, sigma=sig)
        assert fast.fixed_count == plain.fixed_count == 480
        for factored, plain_count in _per_a1_counts(4, sig):
            assert factored == plain_count


@pytest.mark.long
def test_factored_n8_heavy_subtrees():
    # the two a1 whose stabilizer is all of C(s), by both routes
    n = 8
    s = perm.transposition(n, 1, 2)
    cent = groups.centralizer_elements(s, n)
    for a1, expected in ((perm.identity(n), 17280),
                         (perm.transposition(n, 1, 2), 0)):
        assert search._count_for_a1(n, s, a1, cent) == expected
        assert sum(1 for _ in search._iter_for_a1(n, s, a1)) == expected


_RESULT_FIELDS = ("n", "sigma", "fixed_count", "transpositions",
                  "total_count", "orbit_count", "orbit_size_histogram",
                  "image_fingerprint_histogram")


@pytest.mark.parametrize("n,classes",
                         [(2, 16), (3, 40), (4, 240), (5, 0), (6, 60), (7, 0)])
def test_classify_matches_collected_decomposition(n, classes):
    # the classes from the factored walk equal those of the collected
    # plain-loop solutions, representatives, sizes and order included,
    # and the summary fields equal analyze's; degrees 5 and 7 have none
    collected = search.enumerate_fixed_sigma(n, collect=True, workers=2)
    expected = search.orbit_decomposition(list(collected.solutions), n)
    analyzed = search.analyze(collected)
    for workers in (1, 2):
        res, orbits = search.classify(n, workers=workers)
        assert len(orbits) == res.orbit_count == classes
        assert orbits == expected
        assert res.solutions is None
        for field in _RESULT_FIELDS:
            assert getattr(res, field) == getattr(analyzed, field), field


def test_out_of_memory_is_one_line(monkeypatch):
    # a chunk that runs out of memory ends either search with a
    # RuntimeError, not a MemoryError traceback
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(search, "_search_chunk", exhausted)
    for run in (lambda: search.enumerate_fixed_sigma(4),
                lambda: search.enumerate_fixed_sigma(4, collect=True),
                lambda: search.classify(4)):
        with pytest.raises(RuntimeError, match="out of memory in the "
                                               "degree-4 search"):
            run()


@pytest.mark.long
def test_classify_n8():
    res, orbits = search.classify(8, workers=os.cpu_count() or 1)
    assert res.fixed_count == 172800
    assert len(orbits) == res.orbit_count == 240
    assert {o.size for o in orbits} == {720}
    keys = [o.representative.sort_key() for o in orbits]
    assert keys == sorted(keys)
    for o in orbits:
        rep = o.representative
        image = groups.fingerprint(
            (rep.sigma, rep.a1, rep.a2, rep.b1, rep.b2), 8)
        assert image.order == 64


@pytest.mark.parametrize("n", [2, 3, 4])
def test_orbit_counts(n):
    res = search.enumerate_fixed_sigma(n, collect=True)
    orbits = search.orbit_decomposition(list(res.solutions), n)
    assert len(orbits) == EXPECTED_ORBITS[n]
    assert sum(o.size for o in orbits) == res.fixed_count
    # representatives are the least member of their orbit, listed sorted
    keys = [o.representative.sort_key() for o in orbits]
    assert keys == sorted(keys)


def test_orbit_sizes_are_uniform_small():
    # degree 2: conjugation is trivial; degrees 3 and 4: every class meets
    # the fixed-sigma slice in exactly two solutions
    for n, size in ((2, 1), (3, 2), (4, 2)):
        res = search.enumerate_fixed_sigma(n, collect=True)
        orbits = search.orbit_decomposition(list(res.solutions), n)
        assert {o.size for o in orbits} == {size}


def test_orbit_representative_is_member(n3_result):
    orbits = search.orbit_decomposition(list(n3_result.solutions), 3)
    keys = _keys(n3_result)
    for o in orbits:
        assert o.representative.sort_key() in keys


def test_orbit_decomposition_rejects_broken_input(n3_result):
    sols = list(n3_result.solutions)
    with pytest.raises(ValueError):
        search.orbit_decomposition(sols + [sols[0]], 3)  # duplicate
    with pytest.raises(AssertionError):
        search.orbit_decomposition(sols[:79], 3)  # not conjugation-closed
    mixed = sols[:1] + [sols[1].conjugated(perm.parse_cycles("(2,3)", 3))]
    with pytest.raises(ValueError):
        search.orbit_decomposition(mixed, 3)  # sigma differs
    assert search.orbit_decomposition([], 3) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_orbit_check(n):
    assert search.full_orbit_check(n)


@pytest.mark.parametrize("n,expected", [(2, 16), (3, 40), (4, 240), (6, 60)])
def test_orbit_count_matches_burnside(n, expected):
    # independent route: orbits = average number of fixed solutions over
    # the conjugating group (Burnside), using only membership tests
    res = search.enumerate_fixed_sigma(n, collect=True)
    keys = {(s.a1, s.a2, s.b1, s.b2) for s in res.solutions}
    total_fixed = 0
    for h in groups.centralizer_elements(res.sigma, n):
        total_fixed += sum(
            1 for key in keys
            if tuple(perm.conjugate(p, h) for p in key) == key)
    order = groups.centralizer_order(res.sigma)
    assert total_fixed % order == 0
    assert total_fixed // order == expected


def test_full_conjugacy_classes_n3():
    everything = []
    for i, j in ((1, 2), (1, 3), (2, 3)):
        res = search.enumerate_fixed_sigma(
            3, collect=True, sigma=perm.transposition(3, i, j))
        everything.extend(res.solutions)
    classes = search.full_conjugacy_classes(everything, 3)
    assert len(classes) == 40
    assert {c.size for c in classes} == {6}
    assert sum(c.size for c in classes) == 240


def test_image_name_histogram(n3_result, n4_result):
    assert search.image_name_histogram(n3_result.solutions, 3) == {"S3": 80}
    assert search.image_name_histogram(n4_result.solutions, 4) == {"D8": 480}


def test_analyze_fills_orbit_and_image_fields(n3_result, n4_result):
    import math

    done = search.analyze(n3_result)
    assert done.orbit_count == 40
    assert done.orbit_size_histogram == {6: 40}
    assert done.image_fingerprint_histogram == {"S3": 80}
    # the plain counts are untouched
    assert (done.n, done.fixed_count, done.total_count) == (3, 80, 240)
    assert done.solutions == n3_result.solutions

    done4 = search.analyze(n4_result)
    assert done4.orbit_count == 240
    assert done4.orbit_size_histogram == {12: 240}
    for size, count in done4.orbit_size_histogram.items():
        assert math.factorial(4) % size == 0
    assert sum(size * count
               for size, count in done4.orbit_size_histogram.items()) == 2880


def test_analyze_empty_degree():
    done = search.analyze(search.enumerate_fixed_sigma(5, collect=True))
    assert done.orbit_count == 0
    assert done.orbit_size_histogram == {}
    assert done.image_fingerprint_histogram == {}


def test_analyze_requires_collected_solutions():
    with pytest.raises(ValueError):
        search.analyze(search.enumerate_fixed_sigma(3))


def test_result_str(n3_result):
    text = str(n3_result)
    assert "80" in text and "240" in text and "(1,2)" in text
