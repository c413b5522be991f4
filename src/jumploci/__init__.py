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
first time it is read, by ``lazy_names``, which ``serialize`` and ``laurent`` use too.
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


def lazy_names(namespace: dict, homes: dict):
    """The PEP 562 ``__getattr__`` of the module whose globals are ``namespace``:
    a name in ``homes`` (name -> home module in this package) is imported on
    first read and kept, so a job compiles only the modules it uses."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f".{homes[name]}", __name__), name)
        return value

    return __getattr__


__getattr__ = lazy_names(globals(), _HOME)
