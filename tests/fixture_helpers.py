"""Test-only fixture helpers: deliberate mutations of a fixture's complex
for negative tests, and a declared profile on an abelian ring.

A mutant that no longer squares to zero is flagged invalid and must be
rejected by validation gates.
"""

from fractions import Fraction
from typing import NamedTuple

from jumploci.complexes import FreeComplex, Matrix
from jumploci.fixtures import Fixture
from jumploci.lattices import LinearUnion
from jumploci.laurent import RingContext
from jumploci.loci import LociProfile


class Mutant(NamedTuple):
    name: str
    complex: FreeComplex
    valid: bool  # False: must be rejected by validation gates
    note: str


def _mutate_entry(base: Fixture, degree: int, row: int, col: int, edit, label: str, note: str) -> Mutant:
    """``base`` with entry (row, col) of d^degree replaced by edit(entry);
    flags the result invalid when the complex identity breaks."""
    cx = base.complex
    mat = cx.differential(degree)
    entries = [list(r) for r in mat.entries]
    entries[row][col] = edit(entries[row][col])
    diffs = dict(cx.diffs)
    diffs[degree] = Matrix(cx.context, mat.nrows, mat.ncols, entries)
    mutated = FreeComplex(cx.context, cx.k_min, cx.k_max, cx.ranks, diffs)
    ok = mutated.validate() is None
    return Mutant(f"{base.name}-{label}", mutated, ok, note + ("" if ok else "; breaks d.d = 0"))


def mutate_zero_entry(base: Fixture, degree: int, row: int, col: int) -> Mutant:
    """Zero out one differential entry."""
    label = f"zero@{degree}[{row},{col}]"
    return _mutate_entry(base, degree, row, col, lambda e: e.context.zero(), label, "entry zeroed")


def mutate_scale_entry(base: Fixture, degree: int, row: int, col: int, factor) -> Mutant:
    """Multiply one differential entry by a rational factor."""
    label = f"scale@{degree}[{row},{col}]x{factor}"
    return _mutate_entry(base, degree, row, col, lambda e: e * Fraction(factor), label, "entry scaled")


def abelian_point_profile(g: int, span: int) -> LociProfile:
    """Declared profile on an abelian context (m = 0): the identity point in
    degrees [-span, span].  Valid (perverse) iff span <= g; the point has
    abelian and semi-abelian codimension g."""
    ctx = RingContext.abelian(g)
    ident = LinearUnion.single_point(ctx.identity_point())
    return LociProfile(ctx, {i: ident for i in range(-span, span + 1)}, euler=0)
