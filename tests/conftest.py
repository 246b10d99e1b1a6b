import itertools
import os
import random

import pytest

from braidcovers import perm, search


def pytest_collection_modifyitems(config, items):
    """Skip the long-marked tests unless BRAIDCOVERS_LONG_TESTS=1."""
    if os.environ.get("BRAIDCOVERS_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="set BRAIDCOVERS_LONG_TESTS=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def n3_result():
    return search.enumerate_fixed_sigma(3, collect=True)


@pytest.fixture(scope="session")
def n4_result():
    return search.enumerate_fixed_sigma(4, collect=True)


@pytest.fixture(scope="session")
def n6_result():
    return search.enumerate_fixed_sigma(6, collect=True)


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
                  for sol in search.enumerate_fixed_sigma(
                      n, collect=True,
                      sigma=perm.transposition(n, i, j)).solutions]
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
