"""Permutations of {1, ..., n} as fixed-degree image tuples.

A permutation of degree n is stored as a tuple ``p`` of length n with
entries in ``0..n-1``, where ``p[i]`` is the image of the point ``i``.
All public input and output (cycle strings) is 1-indexed; the
0-indexed tuples are the working representation everywhere else.
``check`` is the one rule for what a permutation is: a tuple, of the
expected degree, whose points are the ints 0..n-1 in some order.

Products are taken left to right: ``compose(p, q)`` is "apply p, then
q", so ``compose(p, q)[x] == q[p[x]]``.  Every function in the package
assumes this one convention.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Tuple

Perm = Tuple[int, ...]


def check(p: Perm, n: int, name: str) -> Perm:
    """p itself when it is a permutation of degree n, or ValueError naming
    it: a list or a tuple of floats is refused, not taken as equal."""
    if not isinstance(p, tuple):
        raise ValueError(f"{name} is not a tuple: {p!r}")
    if len(p) != n:
        raise ValueError(f"{name} has degree {len(p)}, expected {n}")
    if not all(isinstance(x, int) for x in p) or sorted(p) != list(range(n)):
        raise ValueError(f"{name} is not a permutation: {p}")
    return p


def identity(n: int) -> Perm:
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right product: apply p first, then q."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(q[x] for x in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def conjugate(p: Perm, by: Perm) -> Perm:
    """by^-1 * p * by in the left-to-right convention.

    The result acts on relabelled points: it maps by(i) to by(p(i)), so
    conjugation by ``by`` renames every cycle of p through ``by``.
    """
    if len(p) != len(by):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(by)}")
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[by[i]] = by[x]
    return tuple(out)


def commutes(p: Perm, q: Perm) -> bool:
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    for i in range(len(p)):
        if q[p[i]] != p[q[i]]:
            return False
    return True


def disjoint_cycles(p: Perm) -> list[Tuple[int, ...]]:
    """Cycles of p on 0-indexed points, fixed points included.

    Each cycle starts at its smallest point and the list is ordered by
    that starting point, so the output is canonical for a given p.
    Raises ValueError when p is not a permutation.
    """
    n = len(p)
    seen = [False] * (2 * n)  # -k, read by p as n-k, marks its own slot 2n-k
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        x = start
        try:
            while not seen[x]:
                cyc.append(x)
                seen[x] = True
                x = p[x]
        except (IndexError, TypeError):  # a point beyond n, or not an int
            x = None
        if x != start:          # two points map to x, or x is no point
            raise ValueError(f"not a permutation: {p}")
        cycles.append(tuple(cyc))
    return cycles


def cycle_type(p: Perm) -> Tuple[int, ...]:
    """Cycle lengths including fixed points, sorted descending."""
    return tuple(sorted(map(len, disjoint_cycles(p)), reverse=True))


def order_of(p: Perm) -> int:
    return math.lcm(*map(len, disjoint_cycles(p)))


def is_transposition(p: Perm) -> bool:
    try:
        check(p, len(p), "p")
    except ValueError:
        return False
    return sum(1 for i, x in enumerate(p) if x != i) == 2


def transposition(n: int, i: int, j: int) -> Perm:
    """The transposition swapping the 1-indexed points i and j."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"need two distinct points in 1..{n}, got {i}, {j}")
    out = list(range(n))
    out[i - 1], out[j - 1] = j - 1, i - 1
    return tuple(out)


# a cycle body is empty or ASCII digits separated by commas, so int()
# never sees a sign, an underscore or another script's digits
_CYCLE_RE = re.compile(r"\(((?:[0-9]+(?:,[0-9]+)*)?)\)")


def parse_cycles(text: str, n: int) -> Perm:
    """Parse 1-indexed cycle notation such as "(1,2)(3,4,5)" at degree n.

    Whitespace is ignored, "()" is the identity, and points absent from
    the string are fixed.  Repeated points and points outside 1..n are
    rejected.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty permutation string")
    if _CYCLE_RE.sub("", compact):
        raise ValueError(f"malformed cycle string: {text!r}")
    out = list(range(n))
    used = set()
    for body in _CYCLE_RE.findall(compact):
        if not body:
            continue
        points = [int(tok) for tok in body.split(",")]
        if len(points) < 2:
            raise ValueError(f"cycle needs at least two points: ({body})")
        for x in points:
            if not 1 <= x <= n:
                raise ValueError(f"point {x} outside 1..{n} in {text!r}")
            if x in used:
                raise ValueError(f"point {x} repeated in {text!r}")
            used.add(x)
        for a, b in zip(points, points[1:] + points[:1]):
            out[a - 1] = b - 1
    return tuple(out)


def format_cycles(p: Perm) -> str:
    """1-indexed cycle notation; fixed points are dropped, identity is "()"."""
    return _cycle_text(*p)


@functools.lru_cache(maxsize=4096, typed=True)
def _cycle_text(*p: int) -> str:
    """format_cycles, memoized: a streamed solution set repeats a few
    hundred permutations hundreds of thousands of times.  Keyed by each
    point and its type, so (1, 0) in the memo does not answer (1.0, 0.0)."""
    parts = ["(" + ",".join(str(x + 1) for x in cyc) + ")"
             for cyc in disjoint_cycles(p) if len(cyc) > 1]
    return "".join(parts) if parts else "()"
