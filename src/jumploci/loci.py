"""Cohomology jump loci of a free complex.

Two independent routes to the same locus are kept side by side:

  * ideal route: the coordinate-saturated jumping ideal of each degree, on
    which containment, codimension and emptiness are decided by Groebner
    computations;
  * pointwise route: specialize every differential at a torsion point and
    read off the cohomology rank by exact linear algebra over the
    cyclotomic-rational field,
        dim H^i = rank(i) - rank d^i(rho) - rank d^(i-1)(rho).

The membership test at a point is the definition of the locus, so the two
routes must agree everywhere; the test suite enforces the agreement on
random and torsion points, and nothing in this module collapses the
redundancy.

Propagation (nested loci in negative degrees, reverse-nested in nonnegative
ones, over [min(k_min, 0), max(k_max, 0)]) is checked ideal-theoretically
through radical membership, and only so: when minor enumeration hits the
size cap the check raises ResourceError instead of returning a verdict.
The links of the chain are listed once, by chain_links, for these computed
loci and for declared ones (verdict.profile_propagation).

The verdict engine, the declared-loci route (``profiles``) and library
callers import this module; no subcommand of the ideal route does.  At
import it loads only what the pointwise route needs (``cyclotomic``); the
two checks that decide containment import the Groebner engine when they
run.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import field_rank
from .errors import InputError


def _rank_at_point(complex_: FreeComplex, i: int, point: TorsionPoint) -> int:
    """rank d^i(rho), specialized and ranked once per (i, rho) in the
    complex's memo.  Exact: the specialization is a function of the matrix
    entries and the point alone, and TorsionPoint equality is equality of
    canonical coordinates."""
    return complex_.cached(
        ("point-rank", i, point), lambda: field_rank(complex_.differential(i).evaluate(point))
    )


def membership_at_point(
    complex_: FreeComplex, degree: int, point: TorsionPoint
) -> tuple[bool, int]:
    """(rho in V^degree, dim H^degree at rho), by exact specialization.
    Adjacent degrees share a differential, whose rank at rho is computed
    once."""
    complex_.ensure_valid()
    complex_.context.require(point)
    r = complex_.rank(degree)
    if r == 0:
        return False, 0
    dim = r - _rank_at_point(complex_, degree, point) - _rank_at_point(complex_, degree - 1, point)
    return dim > 0, dim


def chain_links(lo: int, hi: int) -> list[tuple[int, int, int]]:
    """The links of the propagation chain over [min(lo, 0), max(hi, 0)], in
    ascending order, as (i, inner, outer): V^inner must lie in V^outer.  The
    link (i, i+1) is V^i <= V^(i+1) below degree 0 and V^i >= V^(i+1) from
    degree 0 on."""
    return [(i, i, i + 1) if i < 0 else (i, i + 1, i) for i in range(min(lo, 0), max(hi, 0))]


class PropagationResult(NamedTuple):
    ok: bool
    provenance: str  # always "exact": a cap raises instead of degrading
    first_violation: tuple[int, int] | None
    checked_pairs: list[tuple[int, int, bool]]


def propagation_check(complex_: FreeComplex) -> PropagationResult:
    """Verify the nesting chain of jump loci link by link (chain_links);
    outside the degree range the jumping ideal is the unit ideal, so the
    locus there is empty.

    Requires the complex (and its dual) to have no negative-degree
    cohomology; that hypothesis is what makes the chain a theorem, so the
    check refuses to run when the hypothesis is decided false.  Containments
    are decided exactly via radical membership; a cap hit in the hypothesis
    gate or in an ideal raises ResourceError."""
    # imported here: the pointwise route never loads the Groebner engine
    from .groebner import variety_containment

    complex_.ensure_valid()
    if not complex_.check_assumption():
        raise InputError(
            "propagation requires vanishing negative-degree cohomology of "
            "the complex and its dual"
        )
    checked = []
    for i, inner, outer in chain_links(complex_.k_min, complex_.k_max):
        holds = variety_containment(complex_.jumping_ideal(inner), complex_.jumping_ideal(outer))
        checked.append((i, i + 1, holds))
    first = next(((i, j) for i, j, holds in checked if not holds), None)
    return PropagationResult(first is None, "exact", first, checked)


def radical_equality_pairs(complex_: FreeComplex) -> list[tuple[int, bool]]:
    """For every in-range degree i != 0, whether the Fitting and jumping
    ideals have equal radicals, that is, whether F_i lies in the radical of J_i."""
    # imported here: the pointwise route never loads the Groebner engine
    from .groebner import variety_containment

    complex_.ensure_valid()
    out = []
    for i in complex_.degrees():
        if i != 0:
            fit, jump = complex_.fitting_ideal(i), complex_.jumping_ideal(i)
            # J_i = F_(i-1)*F_i or (0) lies in F_i, so V(F_i) <= V(J_i) always holds
            out.append((i, variety_containment(jump, fit)))
    return out


def depth_bounds(complex_: FreeComplex) -> list[tuple[int, object, int, bool]]:
    """Per degree: (degree, codim of jumping ideal, required bound |degree|,
    bound holds).  In the ambient ring depth of an ideal equals its
    codimension, so this is the depth lower-bound check."""
    complex_.ensure_valid()
    rows = []
    for i in complex_.degrees():
        codim = complex_.jumping_ideal(i).codimension()
        rows.append((i, codim, abs(i), codim >= abs(i)))
    return rows
