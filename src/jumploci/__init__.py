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
"""

from .complexes import FreeComplex, Matrix, generic_rank, minor_generators
from .errors import InputError, ResourceError
from .groebner import LaurentIdeal, variety_containment
from .lattices import (
    LinearComponent,
    LinearUnion,
    kernel_basis,
    saturate_lattice,
    smith_normal_form,
)
from .laurent import LaurentPoly, RingContext, TorsionPoint, format_poly, parse_poly
from .loci import (
    depth_bounds,
    is_whole_space,
    membership_at_point,
    propagation_check,
    radical_equality_pairs,
)
from .verdict import (
    LociProfile,
    PerversityReport,
    check_lower,
    check_upper,
    perversity_verdict,
    survival_interval,
)

__all__ = [
    "FreeComplex",
    "InputError",
    "LaurentIdeal",
    "LaurentPoly",
    "LinearComponent",
    "LinearUnion",
    "LociProfile",
    "Matrix",
    "PerversityReport",
    "ResourceError",
    "RingContext",
    "TorsionPoint",
    "check_lower",
    "check_upper",
    "depth_bounds",
    "format_poly",
    "generic_rank",
    "is_whole_space",
    "kernel_basis",
    "membership_at_point",
    "minor_generators",
    "parse_poly",
    "perversity_verdict",
    "propagation_check",
    "radical_equality_pairs",
    "saturate_lattice",
    "smith_normal_form",
    "survival_interval",
    "variety_containment",
]

__version__ = "0.1.0"
