"""Exact certification of perversity conditions via cohomology jump loci.

The package decides, for a bounded complex of free modules over a Laurent
polynomial ring attached to a semi-abelian group (torus rank m, abelian
rank g), whether its declared cohomology jump loci satisfy the
codimension characterization of perversity, and verifies every computable
consequence: propagation of the loci, radical equality of Fitting and
jumping ideals, depth/codimension lower bounds, survival intervals of
degree-zero components, and the signed Euler characteristic.

Everything is exact: rational coefficients, cyclotomic-rational point
evaluations, Groebner bases over the coordinate-saturated polynomial ring,
and Smith-normal-form lattice arithmetic.

The names in ``__all__`` are resolved lazily: importing the package loads
none of its modules, and each name is imported from its home module the
first time it is read.
"""

from importlib import import_module

# the public names, by the module they live in
_HOMES = {
    "complexes": ("FreeComplex", "Matrix", "generic_rank", "minor_generators"),
    "errors": ("InputError", "ResourceError"),
    "groebner": ("LaurentIdeal", "variety_containment"),
    "lattices": (
        "LinearComponent", "LinearUnion", "kernel_basis", "saturate_lattice", "smith_normal_form",
    ),
    "laurent": ("LaurentPoly", "RingContext", "format_poly", "parse_poly"),
    "loci": ("LociProfile", "TorsionPoint", "depth_bounds", "membership_at_point",
             "propagation_check", "radical_equality_pairs", "survival_interval"),
    "serialize": ("is_whole_space",),
    "verdict": ("check_lower", "check_upper", "perversity_verdict"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its home module on first read and kept
    (PEP 562), so a job compiles only the modules it uses."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
