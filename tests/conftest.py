import itertools
import os
import random

import pytest

from braidcovers import groups, perm, search


def pytest_collection_modifyitems(config, items):
    """Skip the long-marked tests unless BRAIDCOVERS_LONG_TESTS=1."""
    if os.environ.get("BRAIDCOVERS_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="set BRAIDCOVERS_LONG_TESTS=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


def collected(n, **kwargs):
    """(result, solutions) of search.enumerate_fixed_sigma(n, **kwargs),
    the solutions gathered through its sink, in the order it gets them."""
    solutions = []
    result = search.enumerate_fixed_sigma(
        n, sink=lambda sol, origin: solutions.append(sol), **kwargs)
    return result, tuple(solutions)


@pytest.fixture(scope="session")
def n3_result():
    return collected(3)


@pytest.fixture(scope="session")
def n4_result():
    return collected(4)


@pytest.fixture(scope="session")
def n6_result():
    return collected(6)


@pytest.fixture()
def rng():
    return random.Random(0x5eed)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def reversed_pool(jobs, size, oom):
    """An in-process stand-in for the forked workers (search._forked)
    whose jobs finish last to first."""
    for i in reversed(range(1, len(jobs))):
        yield i, search._search_chunk(jobs[i])


def plain_loop(n, s):
    """Every solution with sigma image s, in the order `list` writes: a1
    in lexicographic order, b1 in the order of C1 = C(s a1 s), and a2 and
    b2 in the order of C2 = C1 n C(s b1 s) and C3 = C2 n C(s a2 s), each
    filtered from the list the size rule picks (_intersect).  This is the
    factored walk over the trivial group as it was before it drew its
    lists from the elements of C1 that pass R2: each level is cut by R2,
    the a1 prune and transitivity of <s, prefix, list of the level>, a2
    by the cycle-type test of the torus relation, and each leaf must pass
    the torus relation, R2 and transitivity."""
    out = []
    for a1 in itertools.permutations(range(n)):
        sa1s = perm.conjugate(a1, s)
        if not (perm.commutes(a1, sa1s) and search._a1_transitive(n, s, a1)):
            continue
        c1 = groups.centralizer_elements(sa1s, n)
        for b1 in c1:
            sb1s = perm.conjugate(b1, s)
            if not perm.commutes(b1, sb1s):
                continue
            c2 = _intersect(c1, (sa1s,), sb1s)
            if not groups.is_transitive((s, a1, b1, *c2), n):
                continue
            # the torus relation says b2^-1 a2^-1 b2 = a2^-1 k^-1, with
            # k = [a1, b1^-1]
            k_inv = perm.compose(perm.compose(perm.compose(
                perm.inverse(b1), a1), b1), perm.inverse(a1))
            for a2 in c2:
                sa2s = perm.conjugate(a2, s)
                if not perm.commutes(a2, sa2s):
                    continue
                a2_inv = perm.inverse(a2)
                target = perm.compose(a2_inv, k_inv)
                if perm.cycle_type(a2_inv) != perm.cycle_type(target):
                    continue
                c3 = _intersect(c2, (sa1s, sb1s), sa2s)
                if not groups.is_transitive((s, a1, b1, a2, *c3), n):
                    continue
                for b2 in c3:
                    if (perm.conjugate(a2_inv, b2) == target
                            and perm.commutes(b2, perm.conjugate(b2, s))
                            and groups.is_transitive((s, a1, a2, b1, b2), n)):
                        out.append((a1, a2, b1, b2))
    return out


def _intersect(prev, prev_conjs, new_conj):
    # prev n C(new_conj), prev being the centralizer of prev_conjs, in the
    # order of C(new_conj) where |C(new_conj)| * (len(prev_conjs) + 2) is
    # under |prev|, else of prev: the size rule that sets `list`'s order
    route = prev
    if groups.centralizer_order(new_conj) * (len(prev_conjs) + 2) < len(prev):
        route = groups.centralizer_elements(new_conj, len(new_conj))
    conjs = (*prev_conjs, new_conj)
    return [z for z in route if all(perm.commutes(z, c) for c in conjs)]


def reference_centralizer(g, n):
    """C(g) in S_n built pair by pair, as groups.centralizer_elements once
    did: per cycle-length class, in increasing length, every map of the
    cycles onto themselves (itertools.permutations of their indices) with
    every rotation offset of each (itertools.product), applied to a copy
    of each partial image one (source, target) pair at a time.  Its order
    is the order `list` output depends on."""
    if g == tuple(range(n)):
        return list(itertools.permutations(range(n)))
    by_length = {}
    for c in perm.disjoint_cycles(g):
        by_length.setdefault(len(c), []).append(c)
    images = [[-1] * n]
    for length in sorted(by_length):
        cs = by_length[length]
        k = len(cs)
        options = []
        for pi in itertools.permutations(range(k)):
            for offsets in itertools.product(range(length), repeat=k):
                options.append([
                    (cs[j][t], cs[pi[j]][(t + offsets[j]) % length])
                    for j in range(k) for t in range(length)])
        extended = []
        for base in images:
            for pairs in options:
                im = base.copy()
                for src, dst in pairs:
                    im[src] = dst
                extended.append(im)
        images = extended
    return [tuple(im) for im in images]


def full_orbit_check(n):
    """Cross-check the fixed-sigma orbit decomposition against the orbits
    of the whole solution set (every sigma transposition) under all of
    S_n.  The whole set must hold no duplicates and be closed under
    conjugation; each slice orbit must lie in its own full class, of
    size n(n-1)/2 times the slice size, and every class must meet the
    slice.  Exhaustive, so n <= 4 only."""
    assert 2 <= n <= 4
    sym = list(itertools.permutations(range(n)))
    everything = [sol for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  for sol in collected(
                      n, sigma=perm.transposition(n, i, j))[1]]
    keys = {sol.sort_key() for sol in everything}
    if len(keys) != len(everything):  # duplicates
        return False
    classes = {}  # least member -> size of each full class
    for sol in everything:
        conjugates = [sol.conjugated(h).sort_key() for h in sym]
        if not keys.issuperset(conjugates):  # not closed under conjugation
            return False
        least = min(conjugates)
        classes[least] = classes.get(least, 0) + 1
    t = n * (n - 1) // 2
    expected_size = {2: 1, 3: 6, 4: 12}[n]
    met = set()
    base = perm.transposition(n, 1, 2)
    fixed = [sol for sol in everything if sol.sigma == base]
    for orbit in search.orbit_decomposition(fixed, n):
        least = min(orbit.representative.conjugated(h).sort_key()
                    for h in sym)
        size = classes[least]
        if size != orbit.size * t or size != expected_size or least in met:
            return False
        met.add(least)
    return len(met) == len(classes)
