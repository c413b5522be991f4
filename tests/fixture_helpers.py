"""Test-only fixture helpers: the stock of fixtures the suites iterate over,
deliberate mutations of a fixture's complex for negative tests, and a
declared profile on an abelian ring.

A mutant that no longer squares to zero is flagged invalid and must be
rejected by validation gates.
"""

from fractions import Fraction
from typing import NamedTuple

from jumploci import fixtures
from jumploci.complexes import FreeComplex, Matrix
from jumploci.fixtures import Fixture
from jumploci.lattices import LinearUnion
from jumploci.laurent import RingContext
from jumploci.loci import LociProfile


def standard_fixture_suite() -> list[Fixture]:
    """The stock of assumption-passing fixtures used across test suites:
    Koszul complexes for small m, twists, external tensors, inductions and
    direct sums.  All carry expected verdict 'perverse'.  The builders are
    read as attributes of ``jumploci.fixtures``, so a test that patches one
    there sees the stock go through it."""
    m1 = fixtures.mellin_constant_torus(1)
    m2 = fixtures.mellin_constant_torus(2)
    m3 = fixtures.mellin_constant_torus(3)
    second1 = fixtures.mellin_constant_torus(1, 1)
    second2 = fixtures.mellin_constant_torus(2, 1)
    stock = [m1, m2, m3]
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        stock.append(fixtures.twist_fixture(m1, [lam]))
        stock.append(fixtures.twist_fixture(m2, [lam, lam]))
    stock.append(fixtures.twist_fixture(m2, [Fraction(2), Fraction(1, 3)]))
    stock.append(fixtures.twist_fixture(m3, [Fraction(2), Fraction(-1), Fraction(1, 3)]))
    stock.append(fixtures.tensor_fixture(m1, second1))
    stock.append(fixtures.tensor_fixture(m1, second2))
    stock.append(fixtures.tensor_fixture(fixtures.twist_fixture(m1, [Fraction(2)]), second1))
    stock.append(fixtures.tensor_fixture(m1, fixtures.twist_fixture(second1, [Fraction(-1)])))
    stock.append(fixtures.induce_fixture(m1, [2]))
    stock.append(fixtures.induce_fixture(m1, [3]))
    stock.append(fixtures.induce_fixture(m2, [2, 1]))
    stock.append(fixtures.induce_fixture(fixtures.twist_fixture(m2, [Fraction(2), Fraction(1, 3)]), [2, 1]))
    stock.append(fixtures.induce_fixture(fixtures.twist_fixture(m1, [Fraction(2)]), [2]))
    stock.append(fixtures.sum_fixture(m1, fixtures.twist_fixture(m1, [Fraction(2)])))
    stock.append(fixtures.sum_fixture(m2, fixtures.twist_fixture(m2, [Fraction(-1), Fraction(2)])))
    stock.append(fixtures.sum_fixture(m1, fixtures.induce_fixture(m1, [2])))
    stock.append(fixtures.sum_fixture(m2, m2))
    stock.append(fixtures.sum_fixture(m1, fixtures.free_module_fixture(1)))
    stock.append(fixtures.free_module_fixture(1))
    stock.append(fixtures.free_module_fixture(2, rank=3))
    return stock


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
