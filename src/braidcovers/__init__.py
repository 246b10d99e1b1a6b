"""Monodromy representations of the genus-2 two-string surface braid group.

Enumerates the 5-tuples of degree-n permutations satisfying the defining
relations of the braid group of two points on a genus-2 surface, with
the spherical generator mapped to a transposition and transitive image;
decomposes them into conjugacy classes, fingerprints the image groups,
and reports the invariants of the associated branched double covers.
"""

from .groups import (GroupFingerprint, centralizer_elements,
                     centralizer_order, closure, fingerprint, is_transitive)
from .perm import (all_permutations, compose, conjugate, cycle_type,
                   format_cycles, from_images, identity, inverse,
                   is_transposition, order_of, parse_cycles, to_images,
                   transposition)
from .search import (EnumerationResult, Orbit, analyze, brute_force_oracle,
                     classify, enumerate_fixed_sigma, full_conjugacy_classes,
                     full_orbit_check, image_name_histogram,
                     orbit_decomposition)
from .surface import (ExistenceReport, SurfaceInvariants, existence_verdict,
                      invariants_for)
from .words import (RELATOR_LABELS, RELATORS, Assignment, Gen,
                    RelationReport, Relator, check_relations, evaluate,
                    relator_table, satisfies_all_relations)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "EnumerationResult", "ExistenceReport",
    "Gen", "GroupFingerprint", "Orbit", "RELATORS", "RELATOR_LABELS",
    "RelationReport", "Relator", "SurfaceInvariants", "all_permutations",
    "analyze", "brute_force_oracle", "centralizer_elements",
    "centralizer_order",
    "check_relations", "classify", "closure", "compose", "conjugate",
    "cycle_type",
    "enumerate_fixed_sigma", "evaluate",
    "existence_verdict", "fingerprint", "format_cycles",
    "full_conjugacy_classes", "full_orbit_check", "from_images", "identity",
    "image_name_histogram", "invariants_for", "inverse",
    "is_transitive", "is_transposition", "orbit_decomposition", "order_of",
    "parse_cycles", "relator_table", "satisfies_all_relations", "to_images",
    "transposition", "__version__",
]
