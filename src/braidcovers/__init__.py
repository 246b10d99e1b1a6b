"""Monodromy representations of the genus-2 two-string surface braid group.

Enumerates the 5-tuples of degree-n permutations satisfying the defining
relations of the braid group of two points on a genus-2 surface, with
the spherical generator mapped to a transposition and transitive image;
decomposes them into conjugacy classes, fingerprints the image groups,
and reports the invariants of the associated branched double covers.
"""

# the submodule that defines each export, in the order of __all__;
# __getattr__ imports it on first use, so a command loads only what it runs
_SOURCE = {
    "Assignment": "words", "EnumerationResult": "search",
    "ExistenceReport": "surface", "Gen": "words", "GroupFingerprint": "groups",
    "Orbit": "search", "RELATORS": "words", "Relator": "words",
    "SurfaceInvariants": "surface", "analyze": "search",
    "brute_force_oracle": "search", "centralizer_elements": "groups",
    "centralizer_order": "groups", "classify": "search", "closure": "groups",
    "compose": "perm", "conjugate": "perm", "cycle_type": "perm",
    "enumerate_fixed_sigma": "search", "evaluate": "words",
    "existence_verdict": "surface", "fingerprint": "groups",
    "format_cycles": "perm", "identity": "perm", "invariants_for": "surface",
    "inverse": "perm", "is_transitive": "groups", "is_transposition": "perm",
    "orbit_decomposition": "search", "order_of": "perm",
    "parse_cycles": "perm", "satisfies_all_relations": "words",
    "transposition": "perm",
}


def __getattr__(name: str):
    """An export or a submodule, imported on first access (PEP 562)."""
    module = _SOURCE.get(name, name)
    if module not in _SOURCE.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    return value if module == name else getattr(value, name)


__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]
