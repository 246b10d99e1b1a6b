"""Explicit subgroups of S_n: closures, centralizers, and fingerprints.

Everything here works with literal element sets, which is the right
scale for this problem: the groups that occur are subgroups of S_n for
n at most 12, and the ones that get fingerprinted are small monodromy
images.  Closures are built coset by coset (Dimino's algorithm; G.
Butler, LNCS 559, 1991).  Centralizers are enumerated directly from the
cycle structure, not closed from generators or found by scanning S_n.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import Counter
from typing import Dict, FrozenSet, List, Sequence, Tuple

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
    for g in generators:
        if len(g) != n:
            raise ValueError(f"generator of degree {len(g)}, expected {n}")
    ident = perm.identity(n)
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
    """|C(g)| in S_n from the cycle type: prod over lengths L of L^k * k!."""
    counts = Counter(perm.cycle_type(g))
    out = 1
    for length, k in counts.items():
        out *= length ** k * math.factorial(k)
    return out


def centralizer_elements(g: Perm, n: int) -> List[Perm]:
    """C(g) in S_n, every element once, in a deterministic order.

    A centralizing element permutes the cycles of g within each length
    class and rotates each cycle, so one element is enumerated per
    (cycle permutation, rotation offsets) choice per class, at O(n) cost
    per element.
    """
    if len(g) != n:
        raise ValueError(f"degree mismatch: {len(g)} vs {n}")
    if g == tuple(range(n)):
        return list(itertools.permutations(range(n)))
    by_length: Dict[int, list] = {}
    for c in perm.disjoint_cycles(g):
        by_length.setdefault(len(c), []).append(c)
    images: List[List[int]] = [[-1] * n]
    for length in sorted(by_length):
        cs = by_length[length]
        k = len(cs)
        options: List[List[Tuple[int, int]]] = []
        for pi in itertools.permutations(range(k)):
            for offsets in itertools.product(range(length), repeat=k):
                pairs = []
                for j in range(k):
                    src, dst, off = cs[j], cs[pi[j]], offsets[j]
                    for t in range(length):
                        pairs.append((src[t], dst[(t + off) % length]))
                options.append(pairs)
        extended = []
        for base in images:
            for pairs in options:
                im = base.copy()
                for src, dst in pairs:
                    im[src] = dst
                extended.append(im)
        images = extended
    return [tuple(im) for im in images]


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


@dataclasses.dataclass(frozen=True)
class GroupFingerprint:
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


@functools.lru_cache(maxsize=64)
def _group_fingerprint(elements: FrozenSet[Perm], n: int) -> GroupFingerprint:
    """The fingerprint of the group with these elements, computed once
    per distinct group: many generating sets give one group (12,840 sets
    give 15 groups in `list --n 8`).  Every property is read off the
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
