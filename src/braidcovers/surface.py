"""Numerical invariants of the branched double-cover surfaces.

Each transitive degree-n representation with sigma a transposition is
the monodromy of a connected n-fold cover of a genus-2 fibration,
branched over a 2-section.  The invariants of the resulting surface
depend only on n:

    chi(O) = 1,   K^2 = 10 - n,   c_2 = n + 2        (so K^2 + c_2 = 12)

together with the intersection numbers of the branch data
(Gamma^2 = -4n, Z^2 = -n, Gamma.Z = 6n, R^2 = -2, R.Z = 6, R.R0 = 0)
and p_a(Z) = 4 - n.  The surface is minimal of general type for
2 <= n <= 9, and for n > 4 the curve Z cannot be reduced and
irreducible (p_a would be negative), so it is forced to break up.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional

if TYPE_CHECKING:
    from .search import EnumerationResult


class SurfaceInvariants(NamedTuple):
    n: int
    chi: int
    K2: int
    c2: int
    pa_Z: int
    Gamma2: int
    Z2: int
    GammaZ: int
    R2: int
    RZ: int
    RR0: int
    general_type: bool
    z_reducible_forced: bool

    def to_json_dict(self) -> Dict[str, object]:
        return self._asdict()


def invariants_for(n: int) -> SurfaceInvariants:
    if n < 2:
        raise ValueError(f"covering degree must be at least 2, got {n}")
    return SurfaceInvariants(
        n=n,
        chi=1,
        K2=10 - n,
        c2=n + 2,
        pa_Z=4 - n,
        Gamma2=-4 * n,
        Z2=-n,
        GammaZ=6 * n,
        R2=-2,
        RZ=6,
        RR0=0,
        general_type=2 <= n <= 9,
        z_reducible_forced=n > 4,
    )


class ExistenceReport(NamedTuple):
    """Whether degree-n monodromies exist, from an enumeration's counts."""

    n: int
    exists: bool
    total_representations: int
    isomorphism_classes: Optional[int] = None

    def __str__(self) -> str:
        if not self.exists:
            return (f"n={self.n}: no transitive representations; "
                    f"no degree-{self.n} cover of this kind exists")
        classes = ("" if self.isomorphism_classes is None
                   else f" in {self.isomorphism_classes} conjugacy classes")
        return (f"n={self.n}: {self.total_representations} "
                f"representations{classes}; covers exist")

    def to_json_dict(self) -> Dict[str, object]:
        return self._asdict()


def existence_verdict(n: int, result: "EnumerationResult") -> ExistenceReport:
    """Read an enumeration result as a statement about degree-n covers."""
    if result.n != n:
        raise ValueError(
            f"result is for degree {result.n}, verdict asked for {n}")
    return ExistenceReport(
        n=n,
        exists=result.total_count > 0,
        total_representations=result.total_count,
        isomorphism_classes=result.orbit_count,
    )
