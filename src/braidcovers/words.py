"""Words over the five surface-braid generators, and the defining relators.

The group is generated by sigma, a1, a2, b1, b2 subject to eleven
relations in four families:

  R2, one per x in {a1, a2, b1, b2}:
      sigma^-1 x sigma^-1 x  =  x sigma^-1 x sigma^-1
  R3, for (x, y) in {(a1, a2), (b1, b2), (a1, b2), (b1, a2)}:
      sigma^-1 x sigma y     =  y sigma^-1 x sigma
  R4, for (x, y) in {(a1, b1), (a2, b2)}:
      sigma^-1 x sigma^-1 y  =  y sigma^-1 x sigma
  TR:
      [a1, b1^-1] [a2, b2^-1]  =  sigma^2        with [u, v] = u v u^-1 v^-1

Each relation X = Y is stored once, as the relator word X * Y^-1; a tuple
of permutations is a representation exactly when every relator evaluates
to the identity.  These word tables are the single source of truth: the
search engine's pruning is validated against them, never the other way
round.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

from . import perm
from .perm import Perm


class Gen(enum.Enum):
    SIGMA = "sigma"
    A1 = "a1"
    A2 = "a2"
    B1 = "b1"
    B2 = "b2"


Letter = Tuple[Gen, int]
Word = Tuple[Letter, ...]


def inverted(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


class Relator(NamedTuple):
    label: str
    word: Word


def _equation(label: str, lhs: Word, rhs: Word) -> Relator:
    return Relator(label, lhs + inverted(rhs))


def _build_relators() -> Tuple[Relator, ...]:
    S = Gen.SIGMA
    named = {"a1": Gen.A1, "a2": Gen.A2, "b1": Gen.B1, "b2": Gen.B2}
    rels = []
    for name in ("a1", "a2", "b1", "b2"):
        x = named[name]
        rels.append(_equation(
            f"R2_{name}",
            ((S, -1), (x, 1), (S, -1), (x, 1)),
            ((x, 1), (S, -1), (x, 1), (S, -1)),
        ))
    for xn, yn in (("a1", "a2"), ("b1", "b2"), ("a1", "b2"), ("b1", "a2")):
        x, y = named[xn], named[yn]
        rels.append(_equation(
            f"R3_{xn}_{yn}",
            ((S, -1), (x, 1), (S, 1), (y, 1)),
            ((y, 1), (S, -1), (x, 1), (S, 1)),
        ))
    for xn, yn in (("a1", "b1"), ("a2", "b2")):
        x, y = named[xn], named[yn]
        rels.append(_equation(
            f"R4_{xn}_{yn}",
            ((S, -1), (x, 1), (S, -1), (y, 1)),
            ((y, 1), (S, -1), (x, 1), (S, 1)),
        ))
    A1, A2, B1, B2 = Gen.A1, Gen.A2, Gen.B1, Gen.B2
    rels.append(_equation(
        "TR",
        ((A1, 1), (B1, -1), (A1, -1), (B1, 1),
         (A2, 1), (B2, -1), (A2, -1), (B2, 1)),
        ((S, 2),),
    ))
    return tuple(rels)


RELATORS: Tuple[Relator, ...] = _build_relators()


class _Images(NamedTuple):
    n: int
    sigma: Perm
    a1: Perm
    a2: Perm
    b1: Perm
    b2: Perm


class Assignment(_Images):
    """Images of the five generators in one symmetric group S_n: each
    passes perm.check, a tuple of the ints 0..n-1 in some order, or
    ValueError is raised."""

    __slots__ = ()

    def __new__(cls, n: int, sigma: Perm, a1: Perm, a2: Perm, b1: Perm,
                b2: Perm) -> "Assignment":
        self = tuple.__new__(cls, (n, sigma, a1, a2, b1, b2))
        for name, p in zip(self._fields[1:], self[1:]):
            perm.check(p, n, name)
        return self

    # for images the package built itself from permutations: no check
    _unchecked = classmethod(lambda cls, n, sigma, a1, a2, b1, b2:
                             tuple.__new__(cls, (n, sigma, a1, a2, b1, b2)))

    # _replace builds through _make, which would skip the check in __new__
    _make = classmethod(lambda cls, values: cls(*values))

    def image(self, gen: Gen) -> Perm:
        return getattr(self, gen.value)

    def sort_key(self) -> Tuple[int, ...]:
        return self.sigma + self.a1 + self.a2 + self.b1 + self.b2

    def conjugated(self, by: Perm) -> "Assignment":
        return Assignment(self.n, *(perm.conjugate(p, by) for p in self[1:]))

    def __str__(self) -> str:
        return " ".join(f"{name}={perm.format_cycles(p)}"
                        for name, p in zip(self._fields[1:], self[1:]))


def evaluate(word: Word, assignment: Assignment) -> Perm:
    """The permutation a word evaluates to, products taken left to right."""
    out = perm.identity(assignment.n)
    for g, e in word:
        p = assignment.image(g)
        if e < 0:
            p, e = perm.inverse(p), -e
        for _ in range(e):
            out = perm.compose(out, p)
    return out


def satisfies_all_relations(assignment: Assignment) -> bool:
    """True when every relator evaluates to the identity, so the
    assignment is a representation; stops at the first failure."""
    ident = perm.identity(assignment.n)
    return all(evaluate(r.word, assignment) == ident for r in RELATORS)
