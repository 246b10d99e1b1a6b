"""Monodromy representations of the genus-2 two-string surface braid group.

Enumerates the 5-tuples of degree-n permutations satisfying the defining
relations of the braid group of two points on a genus-2 surface, with
the spherical generator mapped to a transposition and transitive image;
decomposes them into conjugacy classes, fingerprints the image groups,
and reports the invariants of the associated branched double covers.
"""

from .groups import (GroupFingerprint, centralizer_elements,
                     centralizer_order, closure, fingerprint, is_transitive)
from .perm import (compose, conjugate, cycle_type, format_cycles, identity,
                   inverse, is_transposition, order_of, parse_cycles,
                   transposition)
from .search import (EnumerationResult, Orbit, analyze, brute_force_oracle,
                     classify, enumerate_fixed_sigma, orbit_decomposition)
from .surface import (ExistenceReport, SurfaceInvariants, existence_verdict,
                      invariants_for)
from .words import (RELATORS, Assignment, Gen, Relator, evaluate,
                    satisfies_all_relations)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "EnumerationResult", "ExistenceReport",
    "Gen", "GroupFingerprint", "Orbit", "RELATORS", "Relator",
    "SurfaceInvariants",
    "analyze", "brute_force_oracle", "centralizer_elements",
    "centralizer_order",
    "classify", "closure", "compose", "conjugate",
    "cycle_type",
    "enumerate_fixed_sigma", "evaluate",
    "existence_verdict", "fingerprint", "format_cycles", "identity",
    "invariants_for", "inverse",
    "is_transitive", "is_transposition", "orbit_decomposition", "order_of",
    "parse_cycles", "satisfies_all_relations",
    "transposition", "__version__",
]
