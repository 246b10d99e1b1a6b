"""Exhaustive enumeration of the transitive representations.

The engine counts (and optionally streams) all 5-tuples of degree-n
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
a1 over the elements of S_n that pass R2 (listed from their marked cycle
types, see below), and draw b1, a2 and b2 from R1, the elements of
C1 = C(s a1 s) that pass R2: b1 over R1, a2 over C2 = R1 n C(s b1 s),
b2 over C3 = C2 n C(s a2 s).  They check the torus relation and
transitivity explicitly, which is therefore the full solution set.
Two skips, the a1 one among them, are sound necessary conditions, and
one needs no test:

  * R2(x) involves only x and s, so a failing x dooms its whole subtree,
    and R2 is tested once per element of C1;
  * the torus relation forces [a2, b2^-1] = k^-1 with k = [a1, b1^-1],
    and k centralizes s a1 s, s b1 s and s a2 s, as a2 and b2 do: "y
    commutes with s x s" is symmetric in x and y, so R2(a1), b1 in C1
    and R2(b1) put a1 and b1 in C(s a1 s) n C(s b1 s), and a2 in C2 puts
    them in C(s a2 s);
  * that relation puts b2^-1 a2^-1 b2 = a2^-1 k^-1, conjugate elements
    share a cycle type, so a2^-1 and a2^-1 k^-1 must.

Transitivity is tested exactly at the leaves, and also cut above them.
Every later coordinate lies in the centralizer list of its level: b1, a2
and b2 in C1 (and in R1), a2 and b2 in C2, b2 in C3.  So the group a
solution generates lies in <s, a1, C1>, and in <s, a1, b1, C2> and
<s, a1, b1, a2, C3> below b1 and a2; if that group is not transitive, no
solution below the prefix is, and its subtree is cut.  At the b1 and a2
levels the walk holds C2 and C3 anyway, as masks (below), and reads them
point by point (_mask_transitive).  At the a1 level no list is needed
(_a1_transitive): an element of C(g) maps each cycle of g onto a cycle
of the same length, and swapping two such cycles or rotating one
centralizes g, so the point orbits of C(g) are exactly the unions of the
cycles of g of equal length.

Every run walks below each a1 with one walk (_iter_for_a1), factored
by symmetry (orderly generation in the sense of McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).  Let H be the subgroup of
C(s) fixing the prefix chosen so far: H0 = C(s) before a1,
H1 = C(s) n C(a1) before b1, H2 = H1 n C(b1) before a2 and
H3 = H2 n C(a2) before b2.  Conjugating coordinatewise by any h in H
  * fixes sigma and every coordinate of the prefix;
  * commutes with s, so h (s x s) h^-1 = s (h x h^-1) s and the next
    candidate list (S_n, R1, C2 or C3) is mapped onto itself;
  * preserves R2, cycle types, the torus relation and transitivity (it
    conjugates the group each transitivity prune tests), so it maps
    candidates that pass a prune to candidates that pass it, and
    solutions to solutions.
Hence the number of solutions below (prefix, x) is constant on each
H-orbit of the candidates x.  The walk visits one candidate per orbit
and multiplies by the orbit size (_orbit_reps), over R1 for b1, C2 for
a2 and, for b2, the members of C3 that pass the torus relation (H3 fixes
a2 and k); the cycle-type test is H2-invariant, so it is made on the
representative alone.  Each orbit is every conjugate of its first
candidate by an element of H.  Over the trivial group the walk gives
every solution once, in an order that reaches no output (see the end).
C2, C3, H2, H3 and the b2 that pass the torus relation are masks over
R1, read in its order (_fits).

The a1 level scans no S_n (_jobs).  With p and q the points s
moves, C(s) = <s> x Sym(the other points), so two permutations are
conjugate under C(s) exactly when they share a marked cycle type: the
cycle type off p and q, plus (L, d) when p and q share an L-cycle with
q = x^d(p), d and L - d being one type as s swaps them, or the unordered
(l1, l2) when they lie in cycles of those lengths.  R2(a1) and the a1
prune are C(s)-invariant, so each type is tested once (_marked_types)
and only the orbits that pass are built, breadth first from three
generators of C(s) (_orbit), each giving its least member r, its size
and C(s) n C(r), whose orders must multiply to |C(s)|.

Counts and classes never walk below a1 = (), the only a1 whose C1 is
all of S_n: they read that subtree off the walks below the other a1
representatives, by moves of the mapping-class-group action on the
presentation (Birman, "Braids, Links, and Mapping Class Groups", 1974;
Bellingeri, J. Algebra 2004).  The Nielsen move phi(a1, a2, b1, b2) =
(a1 b1, a2, b1, b2) maps solutions to solutions: "y commutes with s x s"
is symmetric in x and y and closed under products, so R2 and R3/R4 hold
for a1 b1; [a1 b1, b1^-1] = [a1, b1^-1] leaves the torus relation alone;
and the generated group does not change.  The handle swap (a1, a2, b1,
b2) -> (a2, a1, b2, b1) maps solutions to solutions too: by that symmetry
the six R3/R4 conditions go to one another, the torus relation goes to a
conjugate of itself, and the group stays.  phi^-1, the swap and the swap
after phi^-1 commute with conjugation by C(s), and they map the solutions
in {a1 = b1 != ()}, in {a1 != (), a2 = b2 = ()} and in their intersection
one-to-one onto the three parts of the solutions with a1 = () other than
((), (), (), ()): those with b1 != (), those with b1 = () and a2 != (),
and those with a2 = b1 = () and b2 != ().  So _search_chunk gives each
leaf (r, a2, b1, b2) of the walk below a representative r != () with its
images: ((), a2, r, b2) when b1 = r, ((), r, (), b1) when a2 = b2 = (),
and ((), (), (), r) when both hold.  Below r = () it gives only
((), (), (), ()), a solution exactly when <s> is transitive.  Conjugating
by H1 fixes b1 = r and a2 = b2 = (), so an image carries the weight
of its leaf, and the weights of a job, times the size of the C(s)-class
of r, count the solutions with a1 in that class and their images: summed
over the jobs (_run), every solution once, with no list the size
of S_n.  The jobs run in the pool module, the () job, empty at n >= 3,
first, and are absorbed as they arrive; no two jobs give one solution, so
that order reaches no output.

The conjugacy classes of the fixed-sigma solutions (orbits of C(s)
acting by coordinatewise conjugation) come from the same jobs: a job
only walks, and classify reads the classes off its weighted leaves.
A class with a1 != () has members whose a1 is the least element of a1's
C(s)-class, the representative r of its job; they form one H1-orbit,
and the walk below r visits each H1-orbit exactly once: H1 brings any
b1 to its orbit representative, then H2 any a2 and H3 any b2, and an h
in H1 mapping one leaf onto another fixes b1, both being representatives
of one H1-orbit, so lies in H2, likewise in H3, and fixes b2.  So a
leaf's weight, |H1 : H1 n C(leaf)|, is the size of its H1-orbit
(_h1_orbit), whose least member is the class's; its class has
|C(s)-class of r| times that many fixed-sigma solutions.
A class with a1 = () other than {((), (), (), ())} is the image of a
class in one of the three sets above, the images being one-to-one and
commuting with C(s), so one job meets it, through one leaf, and it has
the size of that leaf's class; its least member comes from _least, one
coordinate at a time over C(s).  The classes are sorted once, into the
order of orbit_decomposition, and their sizes, not the weights, must add
up to the weighted count.

A run given a sink, the one way solutions leave the search, expands the
same jobs (_expand): the solutions with a1 = r are the H1-orbits of the
job's leaves, and one g per H1-coset of C(s) conjugates them onto those
with a1 = g^-1 r g, each a1 of the class once; the images of every job,
so moved, are those with a1 = ().  A solution keeps the leaf or image it
comes from, conjugate to it, so `list` fingerprints one set per leaf or
image.  `list` writes a1 sorted, then b1 in C1 order, a2 in the order of
its route list, C(s b1 s) where |C(s b1 s)| * 3 < |C1|, else C1, and b2
in the order of C(s a2 s) where |C(s a2 s)| * 4 < |C2|, else of a2's
route list; changing either rule can change its bytes.  C2 and C3 are
their route lists filtered in order, so _block builds neither: below each
(a1, b1) that carries a solution it keeps a2's route list to the a2 and
b2 below b1, which lists both in order, and |C2|, counted over C1 once
per origin (a1, b1) a run.  The walk's own order reaches no output:
counts, classes and expansions read only the H1-orbits of its leaves.

Exact agreement with the relation-table-driven brute force is enforced
by brute_force_oracle and its tests, not assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import groups, perm, pool, words
from .perm import Perm
from .words import Assignment

MAX_DEGREE = 12

RawSolution = Tuple[Perm, Perm, Perm, Perm]  # (a1, a2, b1, b2)
_Output = Tuple[RawSolution, int, Tuple[RawSolution, ...]]  # leaf, w, images


class EnumerationResult(NamedTuple):
    """Counts for one degree, plus orbit and image data once analyzed.

    orbit_count, orbit_size_histogram and image_fingerprint_histogram
    are filled in by analyze(), which classify() calls; they stay None
    on counting and streaming runs.  The size histogram is over full
    simultaneous-conjugacy classes (size -> number of classes), so its
    sizes weighted by multiplicity sum to total_count.
    """

    n: int
    sigma: Perm
    fixed_count: int
    transpositions: int
    total_count: int
    orbit_count: Optional[int] = None
    orbit_size_histogram: Optional[Dict[int, int]] = None
    image_fingerprint_histogram: Optional[Dict[str, int]] = None

    def __str__(self) -> str:
        return (f"n={self.n}: {self.fixed_count} representations with "
                f"sigma={perm.format_cycles(self.sigma)}, "
                f"{self.total_count} over all {self.transpositions} "
                f"transpositions")


class Orbit(NamedTuple):
    representative: Assignment
    size: int  # solutions in the fixed-sigma slice of the class


def _a1_transitive(n: int, s: Perm, a1: Perm) -> bool:
    """The a1-level transitivity prune: <s, a1, C1> is transitive.

    The point orbits of C1 = C(s a1 s) are the unions of the cycles of
    s a1 s of equal length, so one permutation cycling through each
    union stands for all of C1.
    """
    unions: Dict[int, List[int]] = {}
    for c in perm.disjoint_cycles(perm.conjugate(a1, s)):
        unions.setdefault(len(c), []).extend(c)
    return groups.is_transitive((s, a1, _cycles_perm(n, unions.values())), n)


def _cycles_perm(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """The permutation of 0..n-1 with the given disjoint cycles."""
    image = list(range(n))
    for cycle in cycles:
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            image[x] = y
    return tuple(image)


def _orbit(x: Perm, gens: Sequence[Perm]) -> set:
    """The orbit of x under conjugation by the group gens generate, built
    breadth first (Butler, LNCS 559, 1991)."""
    orbit, frontier = {x}, [x]
    for y in frontier:
        new = {perm.conjugate(y, g) for g in gens} - orbit
        orbit |= new
        frontier += new
    return orbit


def _orbit_reps(group: Sequence[Perm], items: Iterable[Perm]
                ) -> List[Tuple[Perm, int]]:
    """One (x, orbit size) per orbit of group, acting by conjugation, on
    the permutations items, which must be a union of its orbits; the b1,
    a2 and b2 levels of the walk use it.

    An orbit is represented by its first item, and orbits come in the
    order of their representatives; each is every conjugate of its first
    item by an element of group.  AssertionError unless group lists
    exactly the elements of the group they generate.
    """
    closed = groups.closure(group, len(group[0]))
    if len(closed) != len(group) or closed != frozenset(group):
        raise AssertionError("the acting list is not a group")
    seen: set = set()
    reps: List[Tuple[Perm, int]] = []
    for x in items:
        if x not in seen:
            orbit = {perm.conjugate(x, h) for h in group}
            seen |= orbit
            reps.append((x, len(orbit)))
    return reps


def _fits(at: List[List[int]], mask: int, a: Perm, t: Perm) -> int:
    """The members x of mask with x a = t x, x[a[i]] == t[x[i]] for every
    i: the AND over i of the OR over j of at[i][j] & at[a[i]][t[j]]."""
    for row, ai in zip(at, a):
        col, hit = at[ai], 0
        for m, tj in zip(row, t):
            hit |= m & col[tj]
        mask &= hit
        if not mask:
            break
    return mask


def _members(items: Sequence[Perm], mask: int) -> List[Perm]:
    """The items whose bits are set in mask, in their order."""
    return list(itertools.compress(items, map("1".__eq__, bin(mask)[:1:-1])))


def _mask_transitive(n: int, gens: tuple, at: list, mask: int) -> bool:
    """groups.is_transitive on gens and the members of mask, read off at."""
    orbit = [0]
    for x in orbit:
        orbit += {g[x] for g in gens}.union(itertools.compress(
            range(n), [m & mask for m in at[x]])).difference(orbit)
        if len(orbit) == n:
            return True
    return False


def _iter_for_a1(n: int, s: Perm, a1: Perm, stab: Sequence[Perm]
                 ) -> Iterator[Tuple[RawSolution, int]]:
    """Solutions below one fixed a1 that passes R2(a1), each with a
    weight.

    stab lists a subgroup of C(s) n C(a1): the b1, a2 and b2 levels walk
    one candidate per orbit of its subgroup fixing the coordinates before
    them, so each leaf stands for its own stab-orbit, of its weight's
    size, and the weights sum to the count below a1.
    b1, a2 and b2 are drawn from R1, the elements of C1 that pass R2, and
    over the trivial group every solution comes once, with weight 1.
    """
    sa1s = perm.conjugate(a1, s)
    r1 = [x for x in groups.centralizer_elements(sa1s, n)
          if perm.commutes(x, perm.conjugate(x, s))]            # R2
    at = [[0] * n for _ in range(n)]  # bit k of at[i][j]: r1[k] maps i to j
    for k, x in enumerate(r1):
        for row, j in zip(at, x):
            row[j] |= 1 << k
    index = {x: k for k, x in enumerate(r1)}
    h1, every = sum({1 << index[h] for h in stab}), (1 << len(r1)) - 1
    a1_inv = perm.inverse(a1)
    cycle_type = perm.cycle_type

    @functools.lru_cache(maxsize=None)  # a2 levels may repeat a build
    def orbit_reps(group: int, items: int) -> list:
        return list(_orbit_reps(_members(r1, group), _members(r1, items)))

    for b1, w1 in orbit_reps(h1, every):
        sb1s = perm.conjugate(b1, s)
        c2 = _fits(at, every, sb1s, sb1s)
        if not _mask_transitive(n, (s, a1, b1), at, c2):      # a2, b2 in C2
            continue
        b1_inv = perm.inverse(b1)
        k_inv = perm.inverse(tuple(b1[a1_inv[b1_inv[x]]] for x in a1))
        h2 = _fits(at, h1, b1, b1)
        for a2, w2 in orbit_reps(h2, c2):
            sa2s = perm.conjugate(a2, s)
            c3 = _fits(at, c2, sa2s, sa2s)
            if not _mask_transitive(n, (s, a1, b1, a2), at, c3):  # b2 in C3
                continue
            a2_inv = perm.inverse(a2)
            # torus relation, rearranged: b2^-1 a2^-1 b2 = a2^-1 k^-1
            target = tuple(k_inv[x] for x in a2_inv)
            if cycle_type(a2_inv) != cycle_type(target):
                continue
            for b2, w3 in orbit_reps(_fits(at, h2, a2, a2),
                                     _fits(at, c3, a2_inv, target)):
                raw = (a1, a2, b1, b2)
                if groups.is_transitive((s,) + raw, n):
                    yield raw, w1 * w2 * w3


def _search_chunk(job: tuple) -> List[_Output]:
    """The outputs of one job (n, s, r, size, stab) of _jobs: the weighted
    leaves of the walk below r by stab, each with its images below a1 = ()
    (module docstring), or below r = () only ((), (), (), ()), with no
    image, when <s> is transitive."""
    n, s, r, _, stab = job
    e = perm.identity(n)
    if r == e:
        return [((e, e, e, e), 1, ())] if groups.is_transitive((s,), n) else []
    return [((r, a2, b1, b2), w, tuple(image for image, hit in (
                ((e, a2, r, b2), b1 == r), ((e, r, e, b1), a2 == b2 == e),
                ((e, e, e, r), b1 == r and a2 == b2 == e)) if hit))
            for (_, a2, b1, b2), w in _iter_for_a1(n, s, r, stab)]


def _h1_orbit(key: RawSolution, stab: Sequence[Perm]) -> set:
    """The H1-orbit of a job's leaf or image; H1, stab, fixes a1."""
    return {(key[0], *map(perm.conjugate, key[1:], [h] * 3)) for h in stab}


def _expand(job: tuple, outputs: Iterable[_Output], cent: Sequence[Perm],
            blocks: Dict[Perm, List[tuple]]) -> None:
    """Add to blocks, a1 -> (closed, g) entries, a job's solutions: closed
    maps the H1-orbit of each leaf, or image, to that leaf or image, and
    g, one per H1-coset of C(s) (cent), moves r to r^g and () to ()."""
    n, s, r, _, stab = job
    leaves: Dict[RawSolution, Assignment] = {}
    images: Dict[RawSolution, Assignment] = {}
    for leaf, _, leaf_images in outputs:
        leaves.update(dict.fromkeys(_h1_orbit(leaf, stab),
                                    Assignment._unchecked(n, s, *leaf)))
        for image in leaf_images:
            images.update(dict.fromkeys(_h1_orbit(image, stab),
                                        Assignment._unchecked(n, s, *image)))
    if not leaves:  # so no images either: nothing to file
        return
    for r_g, g in {perm.conjugate(r, g): g for g in cent}.items():
        for a1, closed in ((r_g, leaves), (perm.identity(n), images)):
            if closed:
                blocks.setdefault(a1, []).append((closed, g))


def _block(n: int, s: Perm, a1: Perm, entries: Iterable[tuple],
           sizes: dict) -> Iterator[Tuple[RawSolution, Assignment]]:
    """The solutions with this a1 in its entries (_expand), each with its
    leaf or image, in the order `list` writes (module docstring); sizes
    holds |C2| by origin (a1, b1), as conjugation by C(s) conjugates C2."""
    tree: Dict[Perm, Dict[Perm, Dict[Perm, Assignment]]] = {}
    for closed, g in entries:
        moved: Dict[Perm, Perm] = {}
        for key, origin in closed.items():
            _, a2, b1, b2 = [moved.get(p) or moved.setdefault(
                p, perm.conjugate(p, g)) for p in key]
            tree.setdefault(b1, {}).setdefault(a2, {})[b2] = origin
    c1 = groups.centralizer_elements(perm.conjugate(a1, s), n)
    for b1 in filter(tree.__contains__, c1):
        below_b1 = tree[b1]
        sb1s = perm.conjugate(b1, s)
        origin = next(iter(next(iter(below_b1.values())).values()))
        key = origin.a1, origin.b1
        size2 = sizes.get(key) or sizes.setdefault(key, sum(
            perm.commutes(z, sb1s) for z in c1))
        # C2 = C1 n C(s b1 s) is route filtered in order: C(s b1 s) where it
        # is under a third of C1, else C1, so kept lists the a2 and b2 below b1
        route = (groups.centralizer_elements(sb1s, n)
                 if groups.centralizer_order(sb1s) * 3 < len(c1) else c1)
        present = set(below_b1).union(*below_b1.values())
        kept = [z for z in route if z in present]
        for a2 in filter(below_b1.__contains__, kept):
            below_a2 = below_b1[a2]
            sa2s = perm.conjugate(a2, s)
            # C3 = C2 n C(s a2 s) likewise: C(s a2 s) under a quarter of C2
            b2s = (groups.centralizer_elements(sa2s, n)
                   if groups.centralizer_order(sa2s) * 4 < size2 else kept)
            for b2 in filter(below_a2.__contains__, b2s):
                yield (a1, a2, b1, b2), below_a2[b2]


def _least(key: Tuple[Perm, ...], group: Sequence[Perm]) -> Tuple[Perm, ...]:
    """The least member of the orbit of key under group acting by
    coordinatewise conjugation: the least image of each coordinate under
    the elements giving the least images of the coordinates before it."""
    e = perm.identity(len(key[0]))
    least = []
    for p in key:
        if p != e:                  # () is its own image and narrows nothing
            moved = [perm.conjugate(p, h) for h in group]
            p = min(moved)
            group = [h for h, q in zip(group, moved) if q == p]
        least.append(p)
    return tuple(least)


def _partitions(m: int, most: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of m into parts of at most most, parts descending."""
    if m == 0:
        yield ()
    for part in range(min(m, most), 0, -1):
        for rest in _partitions(m - part, part):
            yield (part,) + rest


def _marked_types(n: int, s: Perm) -> Iterator[Perm]:
    """One permutation of each marked cycle type, so one in each C(s)-orbit
    of S_n (module docstring).  With p < q the points s moves, its cycles,
    read in turn, run through p, j - 1 points s fixes, q and the other
    points s fixes: q is j steps after p in one cycle, or heads the cycle
    after p's, of length j."""
    p, q = (x for x in range(n) if s[x] != x)
    others = [x for x in range(n) if s[x] == x]
    heads = [(d, (big,)) for big in range(2, n + 1)
             for d in range(1, big // 2 + 1)]
    heads += [(l1, (l1, l2)) for l1 in range(1, n)
              for l2 in range(l1, n - l1 + 1)]
    for j, head in heads:
        points = [p, *others[:j - 1], q, *others[j - 1:]]
        for tail in _partitions(n - sum(head), n):
            lengths = head + tail
            yield _cycles_perm(n, [points[end - length:end] for end, length
                                   in zip(itertools.accumulate(lengths),
                                          lengths)])


def _jobs(n: int, s: Perm, cent: Sequence[Perm]) -> List[tuple]:
    """The _search_chunk jobs (n, s, r, size, stab), in order of r: one
    per C(s)-orbit of size size, least member r and stab = C(s) n C(r),
    of the a1 that pass R2(a1) and the a1 prune; cent lists C(s).  Both
    tests are C(s)-invariant, so they are made once per marked cycle type
    and only the orbits that pass are built, from generators of C(s)
    (Butler, LNCS 559, 1991): s, a transposition and a cycle of the
    points s fixes.  AssertionError unless size * |stab| = |C(s)|."""
    others = [x for x in range(n) if s[x] == x]
    gens = (s, _cycles_perm(n, [others[:2]]), _cycles_perm(n, [others]))
    jobs = []
    for a1 in _marked_types(n, s):
        if not (perm.commutes(a1, perm.conjugate(a1, s))   # R2(a1)
                and _a1_transitive(n, s, a1)):
            continue
        orbit = _orbit(a1, gens)
        r = min(orbit)
        stab = cent if len(orbit) == 1 else [
            h for h in groups.centralizer_elements(r, n)
            if perm.commutes(h, s)]
        if len(orbit) * len(stab) != len(cent):
            raise AssertionError(f"orbit and stabilizer of {r} miss C(s)")
        jobs.append((n, s, r, len(orbit), stab))
    return sorted(jobs, key=lambda job: job[2])


def _run(n: int, sigma: Optional[Perm], workers: int,
         absorb: Callable[[tuple, List[_Output], Sequence[Perm]], None],
         progress: Optional[Callable[[int, int], None]]) -> EnumerationResult:
    """The result, weighted count and all, of _search_chunk on every job
    of degree n with sigma, (1,2) if None; ValueError, before any job is
    built, unless n and workers are ints in range (a bool is not one) and
    sigma reads as a transposition.  The jobs run through pool.run_jobs,
    a1 = () first; each job's outputs go to absorb with C(s) as they come
    in, changing no count, class or solution (module docstring), and the
    k-th progress call reports k slices done."""
    if type(n) is not int or not 2 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be an int from 2 to {MAX_DEGREE}, "
                         f"got {n!r}")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be a positive int, got {workers!r}")
    s = perm.transposition(n, 1, 2) if sigma is None else perm.check(
        tuple(sigma) if isinstance(sigma, Iterable) else sigma, n, "sigma")
    if not perm.is_transposition(s):
        raise ValueError("sigma must be a transposition")
    cent = groups.centralizer_elements(s, n)
    jobs = _jobs(n, s, cent)
    count = slices = 0

    def done(i: int, out: List[_Output]) -> None:
        nonlocal count, slices
        count += jobs[i][3] * sum(w * (1 + len(images))
                                  for _, w, images in out)
        slices += 1
        absorb(jobs[i], out, cent)
        if progress is not None:
            progress(slices, len(jobs))

    pool.run_jobs(jobs, _search_chunk, workers, done,
                  f"out of memory in the degree-{n} search")
    t = n * (n - 1) // 2
    return EnumerationResult(n=n, sigma=s, fixed_count=count,
                             transpositions=t, total_count=count * t)


def enumerate_fixed_sigma(n: int, *, workers: int = 1,
                          sigma: Optional[Perm] = None,
                          sink: Optional[Callable[[Assignment, Assignment],
                                                  None]] = None,
                          progress: Optional[Callable[[int, int], None]] = None,
                          ) -> EnumerationResult:
    """Count all solutions with the given sigma image, default (1,2),
    handing each to sink if one is given.

    Every a1 representative is one slice, run by pool.run_jobs on up to
    workers processes.  The result, the solutions and the progress calls
    (slices done, slices in all) are the same for every worker count.
    Once every slice is in, sink gets each solution in the order `list`
    writes, with the leaf or image it comes from, a C(s)-conjugate.
    """
    blocks: Dict[Perm, List[tuple]] = {}
    sizes: Dict[Tuple[Perm, Perm], int] = {}  # |C2| by origin (a1, b1)

    def absorb(job: tuple, outputs: List[_Output], cent: Sequence[Perm]
               ) -> None:
        if sink is not None:
            _expand(job, outputs, cent, blocks)

    res = _run(n, sigma, workers, absorb, progress)
    kept = 0
    for a1 in sorted(blocks):
        for raw, origin in _block(n, res.sigma, a1, blocks.pop(a1), sizes):
            kept += 1
            sink(Assignment._unchecked(n, res.sigma, *raw), origin)
    if sink is not None and kept != res.fixed_count:
        raise AssertionError(
            f"kept {kept} solutions, expected {res.fixed_count}")
    return res


def classify(n: int, *, workers: int = 1,
             progress: Optional[Callable[[int, int], None]] = None,
             ) -> Tuple[EnumerationResult, List[Orbit]]:
    """The conjugacy classes of the solutions with sigma = (1,2), and
    the result with its orbit and image fields filled in by analyze,
    without keeping the solutions.

    The classes are those of orbit_decomposition, in its order and with
    the same representatives, read off the jobs a count runs (module
    docstring); workers and progress work as in enumerate_fixed_sigma.
    """
    orbits: List[Orbit] = []

    def absorb(job: tuple, outputs: List[_Output], cent: Sequence[Perm]
               ) -> None:
        _, s, _, r_size, stab = job
        for leaf, _, images in outputs:
            orbit = _h1_orbit(leaf, stab)
            size = r_size * len(orbit)
            for key in [min(orbit)] + [_least(i, cent) for i in images]:
                orbits.append(Orbit(Assignment._unchecked(n, s, *key), size))

    res = _run(n, None, workers, absorb, progress)
    orbits.sort(key=lambda o: o.representative.sort_key())
    return analyze(res, orbits), orbits


def brute_force_oracle(n: int) -> List[Assignment]:
    """The solutions with sigma = (1,2), from a scan of all (n!)^4 tuples
    against the relation tables; no pruning.

    Kept deliberately independent of the engine: solutions are recognised
    by evaluating every relator word from the defining presentation.
    Only sensible for n <= 4.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"the brute-force scan is restricted to 2 <= n <= 4, got {n}")
    s = perm.transposition(n, 1, 2)
    all_perms = list(itertools.permutations(range(n)))
    sols: List[Assignment] = []
    for a1 in all_perms:
        for a2 in all_perms:
            for b1 in all_perms:
                for b2 in all_perms:
                    asg = Assignment._unchecked(n, s, a1, a2, b1, b2)
                    if not words.satisfies_all_relations(asg):
                        continue
                    if not groups.is_transitive((s, a1, a2, b1, b2), n):
                        continue
                    sols.append(asg)
    return sols


def orbit_decomposition(solutions: Sequence[Assignment], n: int,
                        ) -> List[Orbit]:
    """Split a fixed-sigma solution set into orbits of the centralizer
    of sigma acting by coordinatewise conjugation.

    Conjugating by C(sigma) fixes the sigma coordinate and permutes the
    solution set, so these orbits are exactly the restrictions of the
    full simultaneous-conjugacy classes to the fixed-sigma slice.  The
    representative of each orbit is its lexicographically least member,
    and orbits come sorted by representative: the solutions are visited
    in sorted order, so the first of each orbit met is its least.
    Raises AssertionError when an orbit leaves the set.
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
    cent = groups.centralizer_elements(s, n)
    orbits: List[Orbit] = []
    visited: set = set()
    for key in sorted(key_set):
        if key in visited:
            continue
        orbit = set()
        for h in cent:
            moved = tuple(perm.conjugate(p, h) for p in key)
            if moved not in key_set:
                raise AssertionError(
                    "conjugation left the set; the input is not closed "
                    "under the acting group")
            orbit.add(moved)
        visited |= orbit
        orbits.append(Orbit(Assignment(n, s, *key), len(orbit)))
    return orbits


def analyze(result: EnumerationResult, orbits: Sequence[Orbit]
            ) -> EnumerationResult:
    """result with orbit_count, orbit_size_histogram (full class sizes)
    and image_fingerprint_histogram filled in from its fixed-sigma
    classes, as classify or orbit_decomposition gives them.  Image
    fingerprints are isomorphism invariants, so one representative per
    class is fingerprinted and counted once per solution of its class.
    AssertionError unless the class sizes sum to total_count."""
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
    return result._replace(
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
    image."""
    out: dict[str, int] = {}
    for sol, weight in weighted:
        name = groups._set_fingerprint(
            frozenset((sol.sigma, sol.a1, sol.a2, sol.b1, sol.b2)), n).name
        out[name] = out.get(name, 0) + weight
    return dict(sorted(out.items()))
