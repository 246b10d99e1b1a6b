"""Acceptance gate: every published claim the package must reproduce,
one pass/fail line per criterion.

Criterion 2 (degrees 8 and 9) takes a few seconds on two cores.
"""

import os
import random
import time

from braidcovers import groups, perm, search, surface, words
from conftest import full_orbit_check, random_perm


def _report(name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {name} failed: {detail}"


def test_criterion_1_count_table():
    # fixed-sigma counts 16, 80, 480, 0, 2880, 0 for degrees 2..7, with
    # totals scaled by n(n-1)/2; each degree in well under a second
    expected = {2: 16, 3: 80, 4: 480, 5: 0, 6: 2880, 7: 0}
    t0 = time.perf_counter()
    got = {n: search.enumerate_fixed_sigma(n) for n in range(2, 7)}
    small_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    got[7] = search.enumerate_fixed_sigma(7)
    seven_elapsed = time.perf_counter() - t1
    counts_ok = all(got[n].fixed_count == expected[n] for n in expected)
    totals_ok = all(
        got[n].total_count == expected[n] * n * (n - 1) // 2 for n in expected)
    time_ok = small_elapsed < 10.0 and seven_elapsed < 300.0
    _report(
        "1 (count table, degrees 2..7)",
        counts_ok and totals_ok and time_ok,
        f"counts={[got[n].fixed_count for n in sorted(got)]}, "
        f"2..6 in {small_elapsed:.1f}s, 7 in {seven_elapsed:.1f}s")


def test_criterion_2_large_degrees():
    # 172800 at degree 8 and none at degree 9, on every core
    workers = os.cpu_count() or 1
    r8 = search.enumerate_fixed_sigma(8, workers=workers)
    r9 = search.enumerate_fixed_sigma(9, workers=workers)
    _report(
        "2 (degrees 8 and 9)",
        r8.fixed_count == 172800 and r8.total_count == 4838400
        and r9.fixed_count == 0,
        f"n=8: {r8.fixed_count} in {r8.elapsed_seconds:.0f}s, "
        f"n=9: {r9.fixed_count} in {r9.elapsed_seconds:.0f}s")


def test_criterion_3_orbit_decomposition():
    # 16, 40 and 240 conjugacy classes at degrees 2, 3, 4, agreeing with
    # the full simultaneous-conjugation classes of the unrestricted set
    expected = {2: 16, 3: 40, 4: 240}
    t0 = time.perf_counter()
    counts = {}
    for n in expected:
        res = search.enumerate_fixed_sigma(n, collect=True)
        orbits = search.orbit_decomposition(list(res.solutions), n)
        counts[n] = len(orbits)
    cross = all(full_orbit_check(n) for n in expected)
    elapsed = time.perf_counter() - t0
    _report(
        "3 (orbit decomposition)",
        counts == expected and cross and elapsed < 30.0,
        f"orbit counts={counts}, full-set cross-check={cross}, "
        f"{elapsed:.1f}s")


def test_criterion_4_image_groups():
    # every degree-3 image is S3; every degree-4 image is D8 (order 8,
    # five involutions)
    res3 = search.enumerate_fixed_sigma(3, collect=True)
    res4 = search.enumerate_fixed_sigma(4, collect=True)
    names3 = search.image_name_histogram(res3.solutions, 3)
    names4 = search.image_name_histogram(res4.solutions, 4)
    sample = res4.solutions[0]
    fp = groups.fingerprint(
        (sample.sigma, sample.a1, sample.a2, sample.b1, sample.b2), 4)
    d8_shape = (fp.order == 8 and dict(fp.order_histogram)[2] == 5
                and not fp.abelian and fp.transitive)
    _report(
        "4 (image groups)",
        names3 == {"S3": 80} and names4 == {"D8": 480} and d8_shape,
        f"degree 3 -> {names3}, degree 4 -> {names4}")


def test_criterion_5_oracle_equivalence():
    # the pruned engine and the unpruned relation-table scan agree as
    # sets for every degree the scan can reach, degree 4 within minutes
    ok = True
    details = []
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        brute = search.brute_force_oracle(n)
        engine = search.enumerate_fixed_sigma(n, collect=True)
        elapsed = time.perf_counter() - t0
        same = ({s.sort_key() for s in brute.solutions}
                == {s.sort_key() for s in engine.solutions}
                and brute.fixed_count == engine.fixed_count)
        ok = ok and same and (n < 4 or elapsed < 120.0)
        details.append(f"n={n}: {brute.fixed_count} in {elapsed:.1f}s")
    _report("5 (oracle equivalence)", ok, "; ".join(details))


def test_criterion_6_surface_invariants():
    # chi=1, K^2=10-n, c_2=n+2 and Noether's identity across the range;
    # K^2 = 8, 7, 6 at degrees 2, 3, 4
    rows = {n: surface.invariants_for(n) for n in range(2, 10)}
    k2_ok = (rows[2].K2, rows[3].K2, rows[4].K2) == (8, 7, 6)
    table_ok = all(
        r.chi == 1 and r.K2 == 10 - n and r.c2 == n + 2
        and r.K2 + r.c2 == 12 * r.chi and r.pa_Z == 4 - n
        for n, r in rows.items())
    _report(
        "6 (surface invariants)",
        k2_ok and table_ok,
        f"K2 for degrees 2..9: {[rows[n].K2 for n in sorted(rows)]}")


def test_criterion_7_property_suites():
    # the five stated property families, at their stated sizes
    rng = random.Random(0xacce97)
    details = []

    # group laws, 10^4 random cases
    ok_laws = True
    for _ in range(10_000):
        n = rng.randint(1, 9)
        p, q = random_perm(rng, n), random_perm(rng, n)
        e = perm.identity(n)
        ok_laws = ok_laws and (
            perm.compose(p, perm.inverse(p)) == e
            and perm.compose(e, p) == p
            and perm.inverse(perm.compose(p, q))
            == perm.compose(perm.inverse(q), perm.inverse(p)))
        if not ok_laws:
            break
    details.append(f"group laws={ok_laws}")

    # centralizer orders against the cycle-type formula, every type n<=6
    ok_cent = True
    import itertools
    for n in range(1, 7):
        seen = set()
        for g in itertools.permutations(range(n)):
            t = perm.cycle_type(g)
            if t in seen:
                continue
            seen.add(t)
            ok_cent = ok_cent and (
                len(groups.centralizer_elements(g, n))
                == groups.centralizer_order(g))
    details.append(f"centralizer formula={ok_cent}")

    # relator verdicts invariant under conjugation, 10^3 cases
    ok_conj = True
    for _ in range(1000):
        n = rng.randint(2, 6)
        asg = words.Assignment(n, *(random_perm(rng, n) for _ in range(5)))
        h = random_perm(rng, n)
        e = perm.identity(n)
        ok_conj = ok_conj and all(
            (words.evaluate(r.word, asg) == e)
            == (words.evaluate(r.word, asg.conjugated(h)) == e)
            for r in words.RELATORS)
        if not ok_conj:
            break
    details.append(f"conjugation invariance={ok_conj}")

    # fixed-sigma counts do not depend on which transposition
    ok_sigma = True
    for n in (3, 4):
        base = search.enumerate_fixed_sigma(n).fixed_count
        for i, j in ((1, 3), (2, 3)):
            alt = search.enumerate_fixed_sigma(
                n, sigma=perm.transposition(n, i, j)).fixed_count
            ok_sigma = ok_sigma and alt == base
    details.append(f"sigma independence={ok_sigma}")

    # worker count never changes the result
    reference = search.enumerate_fixed_sigma(6, collect=True)
    ok_workers = True
    for workers in (2, 8):
        par = search.enumerate_fixed_sigma(6, collect=True, workers=workers)
        ok_workers = ok_workers and (
            par.fixed_count == reference.fixed_count
            and par.solutions == reference.solutions)
    details.append(f"worker determinism={ok_workers}")

    _report(
        "7 (property suites)",
        ok_laws and ok_cent and ok_conj and ok_sigma and ok_workers,
        "; ".join(details))
