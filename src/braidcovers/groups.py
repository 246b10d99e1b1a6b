"""Explicit subgroups of S_n: closures, centralizers, and fingerprints.

Everything here works with literal element sets, which is the right
scale for this problem: the groups that occur are subgroups of S_n for
n at most 12, and the ones that get fingerprinted are small monodromy
images.  Closures are built coset by coset (Dimino's algorithm; G.
Butler, LNCS 559, 1991).  Centralizers are enumerated directly from the
cycle structure, not closed from generators or found by scanning S_n.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from . import perm
from .perm import Perm


def closure(generators: Sequence[Perm], n: int) -> FrozenSet[Perm]:
    """The subgroup generated inside S_n, as an explicit element set.

    Built by cosets, as in Dimino's algorithm (G. Butler, Fundamental
    Algorithms for Permutation Groups, LNCS 559, 1991): a generator not
    yet in the group H built so far extends it by right cosets H*y, each
    listed in one pass, and only the representatives y are multiplied by
    the generators.
    """
    ident = perm.identity(n)
    for g in generators:
        if len(g) != n:
            raise ValueError(f"generator of degree {len(g)}, expected {n}")
        if sorted(g) != list(ident):
            raise ValueError(f"generator is not a permutation: {g}")
    seen = {ident}
    used: List[Perm] = []
    for g in generators:
        if g in seen:
            continue
        used.append(g)
        group = list(seen)
        reps = [ident]
        for y in reps:
            for s in used:
                z = tuple(map(s.__getitem__, y))  # y*s
                if z not in seen:
                    seen.update([tuple(map(z.__getitem__, h)) for h in group])
                    reps.append(z)
    return frozenset(seen)


def is_transitive(generators: Sequence[Perm], n: int) -> bool:
    """True when the generated group has a single orbit on 1..n.

    The orbit of point 0 grows breadth first and the scan stops as soon
    as it holds every point, so a long generator list is read in full
    only when the answer is False.
    """
    for g in generators:
        if len(g) != n:
            raise ValueError(f"generator of degree {len(g)}, expected {n}")
    reached = 1 << 0
    frontier = [0]
    size = 1
    while frontier and size < n:
        nxt = []
        for x in frontier:
            for g in generators:
                y = g[x]
                if not reached >> y & 1:
                    reached |= 1 << y
                    size += 1
                    if size == n:
                        return True
                    nxt.append(y)
        frontier = nxt
    return size == n


def centralizer_order(g: Perm) -> int:
    """|C(g)| in S_n from the cycle type: prod over lengths L of L^k * k!,
    the k cycles of length L, which cycle_type lists side by side."""
    out, k, previous = 1, 0, 0
    for length in perm.cycle_type(g):
        k = k + 1 if length == previous else 1
        out *= length * k
        previous = length
    return out


def centralizer_elements(g: Perm, n: int) -> List[Perm]:
    """C(g) in S_n, every element once, in a deterministic order.

    A centralizing element permutes the cycles of g within each length
    class and rotates each cycle.  Each class lists its choices as image
    tuples of its points: every order of its cycles with every rotation
    of each.  An element is a product of those lists, the first class
    varying slowest, put in place by one itemgetter.
    """
    if len(g) != n:
        raise ValueError(f"degree mismatch: {len(g)} vs {n}")
    if g == tuple(range(n)):
        return list(itertools.permutations(range(n)))
    by_length: Dict[int, list] = {}
    for c in perm.disjoint_cycles(g):
        by_length.setdefault(len(c), []).append(c)
    sources: List[int] = []
    images: List[Perm] = [()]
    for length in sorted(by_length):
        cs = by_length[length]
        if length == 1:
            options = list(itertools.permutations([c[0] for c in cs]))
        else:
            turns = {c: [c[t:] + c[:t] for t in range(length)] for c in cs}
            options = [sum(choice, ()) for order in itertools.permutations(cs)
                       for choice in itertools.product(*map(turns.get, order))]
        sources += itertools.chain.from_iterable(cs)
        images = [im + option for im in images for option in options]
    place = operator.itemgetter(*sorted(range(n), key=sources.__getitem__))
    return list(map(place, images))


# Fixed label vocabulary for image groups.  Within it, (order, abelian?)
# plus the element-order histogram separates every isomorphism class;
# D8 vs Q8 at order 8 differ in involution count (5 vs 1).  Any group
# outside the vocabulary is reported as "other", never misnamed.
_NAME_TABLE: Dict[Tuple[int, bool, Tuple[Tuple[int, int], ...]], str] = {}


def _register(name: str, order: int, abelian: bool, hist: Dict[int, int]):
    key = (order, abelian, tuple(sorted(hist.items())))
    _NAME_TABLE[key] = name


_register("trivial", 1, True, {1: 1})
_register("C2", 2, True, {1: 1, 2: 1})
_register("C3", 3, True, {1: 1, 3: 2})
_register("C4", 4, True, {1: 1, 2: 1, 4: 2})
_register("C2 x C2", 4, True, {1: 1, 2: 3})
_register("C6", 6, True, {1: 1, 2: 1, 3: 2, 6: 2})
_register("S3", 6, False, {1: 1, 2: 3, 3: 2})
_register("C8", 8, True, {1: 1, 2: 1, 4: 2, 8: 4})
_register("C4 x C2", 8, True, {1: 1, 2: 3, 4: 4})
_register("C2 x C2 x C2", 8, True, {1: 1, 2: 7})
_register("D8", 8, False, {1: 1, 2: 5, 4: 2})
_register("Q8", 8, False, {1: 1, 2: 1, 4: 6})
_register("A4", 12, False, {1: 1, 2: 3, 3: 8})
_register("D12", 12, False, {1: 1, 2: 7, 3: 2, 6: 2})
_register("S4", 24, False, {1: 1, 2: 9, 3: 8, 4: 6})


def _group_name(order: int, abelian: bool, hist: Dict[int, int]) -> str:
    key = (order, abelian, tuple(sorted(hist.items())))
    return _NAME_TABLE.get(key, "other")


class GroupFingerprint(NamedTuple):
    """Isomorphism-sensitive summary of a permutation group."""

    order: int
    transitive: bool
    abelian: bool
    order_histogram: Tuple[Tuple[int, int], ...]
    name: str

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "order": self.order,
            "transitive": self.transitive,
            "abelian": self.abelian,
            "order_histogram": {str(k): v for k, v in self.order_histogram},
            "name": self.name,
        }


def fingerprint(generators: Sequence[Perm], n: int) -> GroupFingerprint:
    """Order, transitivity, abelianness, element-order histogram, and a
    name for the generated subgroup of S_n ("other" when not recognised)."""
    return _group_fingerprint(closure(generators, n), n)


@functools.lru_cache(maxsize=1024)
def set_fingerprint(generators: FrozenSet[Perm], n: int) -> GroupFingerprint:
    """fingerprint of a set of generators, memoized: classes are named
    twice, and every line `list` writes asks for the set of the leaf or
    image it is expanded from."""
    return fingerprint(tuple(generators), n)


@functools.lru_cache(maxsize=64)
def _group_fingerprint(elements: FrozenSet[Perm], n: int) -> GroupFingerprint:
    """The fingerprint of the group with these elements, computed once
    per distinct group: many generating sets give one group (the 94
    sets `orbits --n 8` fingerprints give 3).  Every property is read off the
    elements, so it cannot depend on which generating set came first."""
    hist = Counter(map(perm.order_of, elements))
    abelian = all(perm.commutes(g, h) for g in elements for h in elements)
    return GroupFingerprint(
        order=len(elements),
        transitive=is_transitive(tuple(elements), n),
        abelian=abelian,
        order_histogram=tuple(sorted(hist.items())),
        name=_group_name(len(elements), abelian, dict(hist)),
    )
