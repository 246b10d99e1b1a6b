"""Exhaustive enumeration of the transitive representations.

The engine counts (and optionally collects) all 5-tuples of degree-n
permutations (sigma, a1, a2, b1, b2) with sigma a fixed transposition,
satisfying the eleven defining relations, whose images generate a
transitive subgroup.  Conjugating coordinatewise shows every solution
with sigma any transposition comes from one with sigma = (1,2), so the
total over the transposition class is the fixed-sigma count times
n(n-1)/2.

Loop structure and why it is lossless.  Write s for the sigma image and
note s = s^-1.  For an involution s the relation families reduce to
centralizer conditions:

    R2(x):      s x s^-1 x = x s^-1 x s   <=>  x  commutes with  s x s
    R3(x, y):   s^-1 x s y = y s^-1 x s   <=>  y  commutes with  s x s
    R4(x, y):   s^-1 x s^-1 y = y s^-1 x s  <=>  y  commutes with  s x s

so the six R3/R4 relations say exactly: b1 in C(s a1 s), a2 and b2 in
C(s a1 s) n C(s b1 s), and b2 in C(s a2 s).  The nested loops below run
a1 over the elements of S_n that pass R2, b1 over C1 = C(s a1 s), a2
over C2 = C1 n C(s b1 s), b2 over C3 = C2 n C(s a2 s), and check R2,
the torus relation and transitivity explicitly, which is therefore the
full solution set.  Three skips, the a1 one among them, are sound
necessary conditions:

  * R2(x) involves only x and s, so a failing x dooms its whole subtree;
  * a2 and b2 both lie in the subgroup C2 (for a2 this is membership,
    for b2 it is membership in C3 <= C2), hence so does [a2, b2^-1];
    the torus relation forces [a2, b2^-1] = k^-1 with k = [a1, b1^-1],
    so subtrees with k outside C2 (or, once a2 is fixed, outside C3)
    are barren;
  * the torus relation puts b2^-1 a2^-1 b2 = a2^-1 k^-1, conjugate
    elements share a cycle type, so a2^-1 and a2^-1 k^-1 must.

Pure counting runs factor every search level by symmetry (orderly
generation in the sense of McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  Let H be the subgroup of C(s) fixing the prefix
chosen so far: H0 = C(s) before a1, H1 = C(s) n C(a1) before b1 and
H2 = H1 n C(b1) before a2.  Conjugating coordinatewise by any h in H
  * fixes sigma and every coordinate of the prefix;
  * commutes with s, so h (s x s) h^-1 = s (h x h^-1) s and the next
    candidate list (S_n, C1 or C2) is mapped onto itself;
  * preserves R2, the k-membership tests, cycle types, the torus
    relation and transitivity, so it maps candidates that pass a prune
    to candidates that pass it, and solutions to solutions.
Hence the number of solutions below (prefix, x) is constant on each
H-orbit of the candidates x.  Counting visits one candidate per orbit
and multiplies by the orbit size (_orbit_reps), at the a1 level over the
elements of S_n that pass R2(a1), at the b1 level over C1 after the
R2(b1) and k in C2 prunes, and at the a2 level over C2 after the R2(a2),
k in C3 and cycle-type prunes; where H is trivial it keeps the plain
loop.  Collecting and streaming runs keep the plain loop at every level,
so the produced solution order never depends on the counting strategy.
Both paths take their a1 from the same pruned list (_a1_slices), share
their prune code at every level and are tested for equal counts below
every a1 representative.

The conjugacy classes of the fixed-sigma solutions (orbits of C(s)
acting by coordinatewise conjugation) come from the same factored walk
(classify).  Every class has members whose a1 is the least element of
a1's C(s)-class, which is the representative _orbit_reps picks; those
members form one H1-orbit, since two of them differ by an element of
C(s) fixing a1.  Below that a1 the walk visits at least one member of
every H1-orbit of solutions: conjugating by H1 brings any solution's b1
to its orbit representative, then conjugating by H2 brings its a2 to
its representative, and every b2 is visited.  So for each leaf not yet
seen below a1, its H1-orbit is built and marked seen; (a1,) plus the
least (a2, b1, b2) of that orbit is the least member of the whole class
in the (a1, a2, b1, b2) order, and the class meets the fixed-sigma
slice in |C(s)-class of a1| * |H1-orbit| solutions.  Sorting the
classes below each a1, with the a1 representatives in lexicographic
order, lists the classes in the order orbit_decomposition gives.  The
class sizes must add up to the weighted count of the same walk, which
is checked.

Exact agreement with the relation-table-driven brute force is enforced
by brute_force_oracle and its tests, not assumed.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import itertools
import math
import signal
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from typing import (Callable, Collection, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from . import groups, perm, words
from .perm import Perm
from .words import Assignment

MAX_DEGREE = 12

RawSolution = Tuple[Perm, Perm, Perm, Perm]  # (a1, a2, b1, b2)


@dataclasses.dataclass(frozen=True)
class EnumerationResult:
    """Counts for one degree, plus orbit and image data once analyzed.

    orbit_count, orbit_size_histogram and image_fingerprint_histogram
    are filled in by classify(), or by analyze() from collected
    solutions; they stay None on plain counting runs.  The size
    histogram is over full simultaneous-conjugacy classes (size ->
    number of classes), so its sizes weighted by multiplicity sum to
    total_count.
    """

    n: int
    sigma: Perm
    fixed_count: int
    transpositions: int
    total_count: int
    elapsed_seconds: float
    solutions: Optional[Tuple[Assignment, ...]] = None
    orbit_count: Optional[int] = None
    orbit_size_histogram: Optional[Dict[int, int]] = None
    image_fingerprint_histogram: Optional[Dict[str, int]] = None

    def __str__(self) -> str:
        return (f"n={self.n}: {self.fixed_count} representations with "
                f"sigma={perm.format_cycles(self.sigma)}, "
                f"{self.total_count} over all {self.transpositions} "
                f"transpositions")


@dataclasses.dataclass(frozen=True)
class Orbit:
    representative: Assignment
    size: int  # solutions in the fixed-sigma slice of the class


def _check_run(n: int, workers: int, allow_large: bool) -> None:
    if n < 2:
        raise ValueError(f"degree must be at least 2, got {n}")
    if n > MAX_DEGREE and not allow_large:
        raise ValueError(
            f"degree {n} exceeds the safety cap {MAX_DEGREE}; "
            f"pass allow_large=True to search anyway")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")


def _result(n: int, s: Perm, count: int, elapsed: float,
            solutions: Optional[Tuple[Assignment, ...]] = None
            ) -> EnumerationResult:
    t = n * (n - 1) // 2
    return EnumerationResult(n=n, sigma=s, fixed_count=count,
                             transpositions=t, total_count=count * t,
                             elapsed_seconds=elapsed, solutions=solutions)


def _sigma_conj(p: Perm, s: Perm) -> Perm:
    # s p s with s an involution
    return tuple(s[p[x]] for x in s)


def _commutes(p: Perm, q: Perm) -> bool:
    for i in range(len(p)):
        if q[p[i]] != p[q[i]]:
            return False
    return True


def _intersect_next(prev: Sequence[Perm], prev_conjs: Sequence[Perm],
                    new_conj: Perm) -> List[Perm]:
    """prev n C(new_conj), where prev is an intersection of centralizers
    of the permutations in prev_conjs.

    Two equivalent routes with very different costs: filter prev by a
    commuting test (|prev| tests), or enumerate C(new_conj) directly and
    keep the members of the earlier centralizers (about |C| * len(prev_conjs)
    tests, |C| from the cycle type alone).  Picking the cheaper keeps
    near-identity prefixes, where |prev| is huge, from dominating.
    """
    direct_size = groups.centralizer_order(new_conj)
    if direct_size * (len(prev_conjs) + 2) < len(prev):
        return [z for z in groups.centralizer_elements(new_conj,
                                                       len(new_conj))
                if all(_commutes(z, c) for c in prev_conjs)]
    return [z for z in prev if _commutes(z, new_conj)]


def _is_transitive_tuple(s: Perm, raw: RawSolution, n: int) -> bool:
    reached = 1 | 1 << s[0]
    size = 2 if s[0] else 1
    frontier = [0, s[0]] if s[0] else [0]
    gens = (s,) + raw
    while frontier and size < n:
        nxt = []
        for x in frontier:
            for g in gens:
                y = g[x]
                if not reached >> y & 1:
                    reached |= 1 << y
                    size += 1
                    nxt.append(y)
        frontier = nxt
    return size == n


def _orbit_reps(group: Sequence[Perm], candidates: Iterable[Perm]
                ) -> List[Tuple[Perm, int]]:
    """One (representative, orbit size) per orbit of group, acting by
    conjugation, on the candidates.

    group lists every element of the acting group and the candidates
    must be a union of its orbits.  The representative of an orbit is
    its first candidate, and orbits come in the order of their
    representatives; lexicographically ordered candidates therefore give
    lexicographically least representatives.
    """
    pairs = [(h, perm.inverse(h)) for h in group]
    seen: set = set()
    reps: List[Tuple[Perm, int]] = []
    for x in candidates:
        if x in seen:
            continue
        # h x h^-1 maps h(i) to h(x(i))
        orbit = {tuple([h[x[j]] for j in h_inv]) for h, h_inv in pairs}
        seen |= orbit
        reps.append((x, len(orbit)))
    return reps


def _weighted(group: Optional[Sequence[Perm]], items: Iterable[tuple]
              ) -> Iterable[Tuple[tuple, int]]:
    """Candidate items, each a tuple led by its permutation, paired with
    a weight.  Without a group, or with a trivial one, every item comes
    with weight 1 in its own order; otherwise one item per group orbit
    comes with the orbit size."""
    if group is None or len(group) == 1:
        return zip(items, itertools.repeat(1))
    by_perm = {item[0]: item for item in items}
    return [(by_perm[rep], size) for rep, size in _orbit_reps(group, by_perm)]


def _a1_candidates(n: int, s: Perm) -> Iterator[Perm]:
    """Every a1 in S_n that passes R2(a1), in lexicographic order."""
    for a1 in itertools.permutations(range(n)):
        if _commutes(a1, _sigma_conj(a1, s)):            # R2(a1)
            yield a1


def _b1_candidates(s: Perm, a1: Perm, sa1s: Perm, c1: Sequence[Perm]
                   ) -> Iterator[Tuple[Perm, Perm, Perm]]:
    """(b1, s b1 s, k) for every b1 in C1 that passes R2(b1) and whose
    k = [a1, b1^-1] lies in C2, in C1 order."""
    a1_inv = perm.inverse(a1)
    for b1 in c1:
        sb1s = _sigma_conj(b1, s)
        if not _commutes(b1, sb1s):                      # R2(b1)
            continue
        b1_inv = perm.inverse(b1)
        # k = [a1, b1^-1]; the torus relation will force
        # [a2, b2^-1] = k^-1, an element of C2, so k must lie in C2.
        k = tuple(b1[a1_inv[b1_inv[x]]] for x in a1)
        if not (_commutes(k, sa1s) and _commutes(k, sb1s)):
            continue
        yield b1, sb1s, k


def _a2_candidates(s: Perm, k: Perm, c2: Sequence[Perm]
                   ) -> Iterator[Tuple[Perm, Perm, Perm, Perm]]:
    """(a2, s a2 s, a2^-1, target) for every a2 in C2 that passes R2(a2),
    keeps k in C3 and passes the cycle-type test, in C2 order."""
    cycle_type = perm.cycle_type
    k_inv = perm.inverse(k)
    for a2 in c2:
        sa2s = _sigma_conj(a2, s)
        if not _commutes(a2, sa2s):                      # R2(a2)
            continue
        if not _commutes(k, sa2s):                       # k must lie in C3
            continue
        a2_inv = perm.inverse(a2)
        # torus relation, rearranged: b2^-1 a2^-1 b2 = a2^-1 k^-1
        target = tuple(k_inv[x] for x in a2_inv)
        if cycle_type(a2_inv) != cycle_type(target):
            continue
        yield a2, sa2s, a2_inv, target


def _iter_for_a1(n: int, s: Perm, a1: Perm,
                 stab: Optional[Sequence[Perm]] = None
                 ) -> Iterator[Tuple[RawSolution, int]]:
    """Solutions below one fixed a1 that passes R2(a1), each with a
    weight.

    Without stab this is the plain loop: every solution once, weight 1.
    With stab the elements of C(s) n C(a1), the b1 level walks one
    candidate per stab-orbit and the a2 level one per orbit of its
    subgroup fixing b1, and the weights sum to the count below a1.
    """
    sa1s = _sigma_conj(a1, s)
    c1 = groups.centralizer_elements(sa1s, n)
    for (b1, sb1s, k), w1 in _weighted(
            stab, _b1_candidates(s, a1, sa1s, c1)):
        c2 = _intersect_next(c1, (sa1s,), sb1s)
        stab2 = (None if stab is None
                 else [h for h in stab if _commutes(h, b1)])
        for (a2, sa2s, a2_inv, target), w2 in _weighted(
                stab2, _a2_candidates(s, k, c2)):
            c3 = _intersect_next(c2, (sa1s, sb1s), sa2s)
            for b2 in c3:
                ok = True
                for y in range(n):
                    if b2[a2_inv[y]] != target[b2[y]]:
                        ok = False
                        break
                if not ok:
                    continue
                if not _commutes(b2, _sigma_conj(b2, s)):  # R2(b2)
                    continue
                raw = (a1, a2, b1, b2)
                if _is_transitive_tuple(s, raw, n):
                    yield raw, w1 * w2


def _split_ranges(total: int, pieces: int) -> List[Tuple[int, int]]:
    pieces = max(1, min(pieces, total))
    step, extra = divmod(total, pieces)
    bounds = []
    lo = 0
    for i in range(pieces):
        hi = lo + step + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _count_for_a1(n: int, s: Perm, a1: Perm, cent: Sequence[Perm]) -> int:
    """Number of solutions below a1, orbit-factored; cent lists C(s)."""
    stab = [h for h in cent if _commutes(h, a1)]
    return sum(w for _, w in _iter_for_a1(n, s, a1, stab))


def _classes_for_a1(n: int, s: Perm, a1: Perm, cent: Sequence[Perm]
                    ) -> Tuple[int, List[Tuple[RawSolution, int]]]:
    """Number of solutions below a1, orbit-factored, and one (least
    member, orbit size) per orbit of H1 = C(s) n C(a1) on them, sorted;
    cent lists C(s).  See the module docstring for why the factored
    walk meets every orbit."""
    stab = [h for h in cent if _commutes(h, a1)]
    pairs = [(h, perm.inverse(h)) for h in stab]
    count = 0
    seen: set = set()
    classes = []
    for (_, a2, b1, b2), w in _iter_for_a1(n, s, a1, stab):
        count += w
        if (a2, b1, b2) in seen:
            continue
        # h x h^-1 maps h(i) to h(x(i))
        orbit = {tuple(tuple(h[p[j]] for j in h_inv) for p in (a2, b1, b2))
                 for h, h_inv in pairs}
        seen |= orbit
        classes.append(((a1,) + min(orbit), len(orbit)))
    classes.sort()
    return count, classes


def _search_chunk(args: Tuple[int, Perm, List[Tuple[Perm, int]], str]
                  ) -> Tuple[int, Optional[list]]:
    """The solutions below a slice of (a1, weight) pairs.

    mode "solutions" gives their number and the solutions, from the
    plain loop (every weight is 1).  Otherwise each a1 stands for its
    C(s)-class, weighted by the class size, and the search below it is
    orbit-factored: "count" gives the number alone, with no
    canonicalisation, and "classes" also the conjugacy classes in order,
    each with its fixed-sigma size.
    """
    n, s, pairs, mode = args
    if mode == "solutions":
        sols = [raw for a1, _ in pairs for raw, _ in _iter_for_a1(n, s, a1)]
        return len(sols), sols
    cent = groups.centralizer_elements(s, n)
    count = 0
    found: List[Orbit] = []
    for a1, size in pairs:
        if mode == "classes":
            below, classes = _classes_for_a1(n, s, a1, cent)
            found += [Orbit(representative=Assignment(n, s, *key),
                            size=size * orbit) for key, orbit in classes]
        else:
            below = _count_for_a1(n, s, a1, cent)
        count += size * below
    return count, found if mode == "classes" else None


def _a1_slices(n: int, s: Perm, workers: int, factored: bool
               ) -> List[List[Tuple[Perm, int]]]:
    """The a1 candidates in lexicographic order, each with its weight,
    cut into the slices of a run: every candidate with weight 1, or with
    factored one per C(s)-class with the class size."""
    candidates = _a1_candidates(n, s)
    pairs = (_orbit_reps(groups.centralizer_elements(s, n), candidates)
             if factored else [(a1, 1) for a1 in candidates])
    return [pairs[lo:hi]
            for lo, hi in _split_ranges(len(pairs), max(workers * 8, 32))]


def _drop_pending(futures: Collection[Future]) -> None:
    """Cancel the pool slices not yet started once a search stops.

    Ctrl-C kills the pool workers (their SIGINT action is SIG_DFL)
    and the pool then fails every pending slice itself; cancelling one
    first crashes the pool's manager thread (InvalidStateError on
    Python 3.11), so the pool gets a moment to do so."""
    wait(futures, timeout=1.0)
    for future in futures:
        future.cancel()


def _default_signals() -> None:
    """Pool worker initializer: Ctrl-C and SIGTERM end a worker at once,
    whatever handlers the parent process had installed."""
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, signal.SIG_DFL)


def _run_slices(n: int, s: Perm, mode: str, workers: int,
                absorb: Callable[..., None],
                progress: Optional[Callable[[int, int], None]]) -> None:
    """_search_chunk in the given mode on every a1 slice, in this process
    or in a pool of worker processes, with each output absorbed in job
    order, so aggregation and the progress calls (slices done, slices in
    all) are the same for every worker count.  Running out of memory
    becomes a RuntimeError with a one-line message."""
    jobs = [(n, s, pairs, mode) for pairs
            in _a1_slices(n, s, workers, factored=mode != "solutions")]
    try:
        with contextlib.ExitStack() as stack:
            outputs: Iterable[tuple] = map(_search_chunk, jobs)
            if workers > 1:
                pool = stack.enter_context(ProcessPoolExecutor(
                    max_workers=workers, initializer=_default_signals))
                pending = collections.deque(
                    pool.submit(_search_chunk, job) for job in jobs)
                stack.callback(_drop_pending, pending)
                outputs = (pending.popleft().result() for _ in jobs)
            for i, out in enumerate(outputs):
                absorb(*out)
                if progress is not None:
                    progress(i + 1, len(jobs))
    except MemoryError:
        raise RuntimeError(f"out of memory in the degree-{n} search") from None


def _resolve_sigma(n: int, sigma: Optional[Perm]) -> Perm:
    if sigma is None:
        return perm.transposition(n, 1, 2)
    if len(sigma) != n:
        raise ValueError(f"sigma has degree {len(sigma)}, expected {n}")
    if not perm.is_transposition(sigma):
        raise ValueError("sigma must be a transposition")
    return sigma


def enumerate_fixed_sigma(n: int, collect: bool = False, *,
                          workers: int = 1,
                          sigma: Optional[Perm] = None,
                          allow_large: bool = False,
                          sink: Optional[Callable[[Assignment], None]] = None,
                          progress: Optional[Callable[[int, int], None]] = None,
                          ) -> EnumerationResult:
    """Count (and with collect=True, return) all solutions with the given
    sigma image, default (1,2).

    With workers > 1 the a1 range is split into slices searched by worker
    processes.  Slices are absorbed in job order, so the result, the order
    of the solutions handed to sink and the progress calls (slices done,
    slices in all) are the same for every worker count.
    """
    _check_run(n, workers, allow_large)
    s = _resolve_sigma(n, sigma)
    keep = collect or sink is not None
    t0 = time.perf_counter()
    count = 0
    collected: List[Assignment] = []

    def absorb(chunk_count: int, raws: Optional[List[RawSolution]]) -> None:
        nonlocal count
        count += chunk_count
        if raws is None:
            return
        for a1, a2, b1, b2 in raws:
            asg = Assignment(n, s, a1, a2, b1, b2)
            if sink is not None:
                sink(asg)
            if collect:
                collected.append(asg)

    _run_slices(n, s, "solutions" if keep else "count", workers, absorb,
                progress)
    return _result(n, s, count, time.perf_counter() - t0,
                   tuple(collected) if collect else None)


def classify(n: int, *, workers: int = 1, allow_large: bool = False,
             progress: Optional[Callable[[int, int], None]] = None,
             ) -> Tuple[EnumerationResult, List[Orbit]]:
    """The conjugacy classes of the solutions with sigma = (1,2), and
    the result with its orbit and image fields filled in as analyze
    fills them, without keeping the solutions.

    The classes are those of orbit_decomposition, in its order and with
    the same representatives, found by the orbit-factored count search;
    workers and progress work as in enumerate_fixed_sigma.
    """
    _check_run(n, workers, allow_large)
    s = perm.transposition(n, 1, 2)
    t0 = time.perf_counter()
    count = 0
    orbits: List[Orbit] = []

    def absorb(chunk_count: int, classes: List[Orbit]) -> None:
        nonlocal count
        count += chunk_count
        orbits.extend(classes)

    _run_slices(n, s, "classes", workers, absorb, progress)
    res = _result(n, s, count, time.perf_counter() - t0)
    return _summarize(res, orbits), orbits


def brute_force_oracle(n: int, collect: bool = True) -> EnumerationResult:
    """Scan all (n!)^4 tuples against the relation tables; no pruning.

    Kept deliberately independent of the engine: solutions are recognised
    by evaluating every relator word from the defining presentation.
    Only sensible for n <= 4.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"the brute-force scan is restricted to 2 <= n <= 4, got {n}")
    s = perm.transposition(n, 1, 2)
    t0 = time.perf_counter()
    all_perms = list(itertools.permutations(range(n)))
    sols: List[Assignment] = []
    count = 0
    for a1 in all_perms:
        for a2 in all_perms:
            for b1 in all_perms:
                for b2 in all_perms:
                    asg = Assignment(n, s, a1, a2, b1, b2)
                    if not words.satisfies_all_relations(asg):
                        continue
                    if not groups.is_transitive((s, a1, a2, b1, b2), n):
                        continue
                    count += 1
                    if collect:
                        sols.append(asg)
    return _result(n, s, count, time.perf_counter() - t0,
                   tuple(sols) if collect else None)


def _conjugation_orbits(keys: Collection[Tuple[Perm, ...]],
                        group: Sequence[Perm]
                        ) -> List[Tuple[Tuple[Perm, ...], int]]:
    """(least member, size) for every orbit of group, acting by
    coordinatewise conjugation, on the set keys of permutation tuples,
    in increasing order of the least member.

    The walk visits the keys in sorted order, so the first key of each
    orbit it meets is that orbit's least member.  Raises AssertionError
    when an orbit leaves keys.
    """
    orbits: List[Tuple[Tuple[Perm, ...], int]] = []
    visited: set = set()
    for key in sorted(keys):
        if key in visited:
            continue
        orbit = set()
        for h in group:
            moved = tuple(perm.conjugate(p, h) for p in key)
            if moved not in keys:
                raise AssertionError(
                    "conjugation left the set; the input is not closed "
                    "under the acting group")
            orbit.add(moved)
        visited |= orbit
        orbits.append((key, len(orbit)))
    return orbits


def orbit_decomposition(solutions: Sequence[Assignment], n: int,
                        ) -> List[Orbit]:
    """Split a fixed-sigma solution set into orbits of the centralizer
    of sigma acting by coordinatewise conjugation.

    Conjugating by C(sigma) fixes the sigma coordinate and permutes the
    solution set, so these orbits are exactly the restrictions of the
    full simultaneous-conjugacy classes to the fixed-sigma slice.  The
    representative of each orbit is its lexicographically least member,
    and orbits come sorted by representative.
    """
    if not solutions:
        return []
    s = solutions[0].sigma
    key_set = set()
    for sol in solutions:
        if sol.n != n:
            raise ValueError(f"solution of degree {sol.n} in a degree-{n} set")
        if sol.sigma != s:
            raise ValueError("orbit decomposition needs a fixed-sigma set")
        key_set.add((sol.a1, sol.a2, sol.b1, sol.b2))
    if len(key_set) != len(solutions):
        raise ValueError("duplicate solutions")
    return [Orbit(representative=Assignment(n, s, *key), size=size)
            for key, size in _conjugation_orbits(
                key_set, groups.centralizer_elements(s, n))]


def full_conjugacy_classes(solutions: Sequence[Assignment], n: int
                           ) -> List[Orbit]:
    """Orbits under all of S_n acting on 5-tuples (sigma moves too)."""
    key_set = set()
    for sol in solutions:
        if sol.n != n:
            raise ValueError(f"solution of degree {sol.n} in a degree-{n} set")
        key_set.add((sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2))
    if len(key_set) != len(solutions):
        raise ValueError("duplicate solutions")
    return [Orbit(representative=Assignment(n, *key), size=size)
            for key, size in _conjugation_orbits(
                key_set, list(itertools.permutations(range(n))))]


def full_orbit_check(n: int) -> bool:
    """Cross-check the fixed-sigma orbit decomposition against the orbits
    of the whole solution set (every sigma transposition) under all of
    S_n.  The whole set must hold no duplicates and be closed under
    conjugation; each slice orbit must lie in its own full class, of
    size n(n-1)/2 times the slice size, and every class must meet the
    slice.  Exhaustive, so n <= 4 only.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"the full orbit check is restricted to 2 <= n <= 4, got {n}")
    base = perm.transposition(n, 1, 2)
    everything: List[Assignment] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = enumerate_fixed_sigma(
                n, collect=True, sigma=perm.transposition(n, i, j))
            everything.extend(res.solutions)
    try:
        classes = {c.representative.sort_key(): c.size
                   for c in full_conjugacy_classes(everything, n)}
    except (ValueError, AssertionError):  # duplicates, or not closed
        return False
    t = n * (n - 1) // 2
    expected_size = {2: 1, 3: 6, 4: 12}[n]
    met = set()
    fixed = [sol for sol in everything if sol.sigma == base]
    for orbit in orbit_decomposition(fixed, n):
        least = min(orbit.representative.conjugated(h).sort_key()
                    for h in itertools.permutations(range(n)))
        size = classes[least]
        if size != orbit.size * t or size != expected_size or least in met:
            return False
        met.add(least)
    return len(met) == len(classes)


def analyze(result: EnumerationResult) -> EnumerationResult:
    """Fill in orbit_count, orbit_size_histogram (full class sizes) and
    image_fingerprint_histogram from a collected result."""
    if result.solutions is None:
        raise ValueError("analyze needs a result with collected solutions")
    return _summarize(result,
                      orbit_decomposition(list(result.solutions), result.n))


def _summarize(result: EnumerationResult, orbits: Sequence[Orbit]
               ) -> EnumerationResult:
    """result with the orbit and image fields filled in from its
    fixed-sigma classes.  Image fingerprints are isomorphism invariants,
    so one representative per class is fingerprinted and counted once
    per solution of its class."""
    sizes: Dict[int, int] = {}
    for o in orbits:
        full = o.size * result.transpositions
        sizes[full] = sizes.get(full, 0) + 1
    total = sum(size * count for size, count in sizes.items())
    if total != result.total_count:
        raise AssertionError(
            f"orbit sizes sum to {total}, expected {result.total_count}")
    n_fact = math.factorial(result.n)
    for size in sizes:
        if n_fact % size:
            raise AssertionError(f"orbit size {size} does not divide {result.n}!")
    return dataclasses.replace(
        result,
        orbit_count=len(orbits),
        orbit_size_histogram=dict(sorted(sizes.items())),
        image_fingerprint_histogram=_image_names(
            ((o.representative, o.size) for o in orbits), result.n),
    )


def image_name_histogram(solutions: Sequence[Assignment], n: int
                         ) -> dict[str, int]:
    """Image-group name -> number of solutions."""
    return _image_names(((sol, 1) for sol in solutions), n)


def _image_names(weighted: Iterable[Tuple[Assignment, int]], n: int
                 ) -> dict[str, int]:
    """Image-group name -> total weight of the solutions with that
    image, with a cache keyed by the generator set (solutions heavily
    share images)."""
    cache: dict[frozenset, str] = {}
    out: dict[str, int] = {}
    for sol, weight in weighted:
        gens = (sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2)
        key = frozenset(gens)
        name = cache.get(key)
        if name is None:
            name = groups.fingerprint(gens, n).name
            cache[key] = name
        out[name] = out.get(name, 0) + weight
    return dict(sorted(out.items()))
