"""Constructors for test objects with known loci and expected verdicts.

The base object is the Koszul complex on (t_1 - 1, ..., t_m - 1) placed in
degrees [-m, 0]: the module-side model of the constant rank-one object on
an m-torus, whose jump loci are the identity point in every degree of
[-m, 0] and empty elsewhere.  Derived fixtures transform both the complex
and its declared loci in lockstep:

  * twist by nonzero rationals    -> loci translate by the inverse point;
  * external tensor               -> loci combine by the Kunneth rule;
  * induction along a cover t^n   -> each point component fans out into its
                                     orbit under the n-torsion translates;
  * direct sum                    -> loci unions, Euler numbers add;
  * shift                         -> loci move degree-for-degree.

Fixtures are small by construction: a fixture ring has at least one and at
most MAX_FIXTURE_VARS variables, and an induced fixture at most as many
basis vectors as the Koszul complex on that many variables.  A ring without
variables raises InputError and a larger request ResourceError, before
anything is built.

Every fixture carries its expected verdict as metadata, so test suites can
iterate over a fixture list and compare outcomes without re-deriving them.
Deliberate mutations (degree shifts, entry edits that break the complex
identity) are provided for negative tests; mutants that no longer square to
zero are flagged invalid and must be rejected by validation gates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

from .complexes import FreeComplex, Matrix, cover_basis, cover_size, tensor_ring
from .errors import InputError, ResourceError
from .lattices import LinearComponent, LinearUnion
from .laurent import LaurentPoly, RingContext, TorsionPoint, embed_vector
from .verdict import LociProfile

# Largest fixture ring.  The Koszul complex on m variables has 2^m basis
# vectors, and a fixture costs two to three times as much per added variable:
# twist and sum fixtures took 0.7 s at m = 8 and 6-7 s at m = 10.
MAX_FIXTURE_VARS = 8


def _check_vars(num_vars: int) -> None:
    if num_vars < 1:
        raise InputError("torus rank must be at least 1")
    if num_vars > MAX_FIXTURE_VARS:
        raise ResourceError(
            f"a fixture ring of {num_vars} variables exceeds the cap of {MAX_FIXTURE_VARS}"
        )


class Fixture(NamedTuple):
    name: str
    complex: FreeComplex
    profile: LociProfile
    expected_verdict: str  # "perverse" | "upper-only" | "lower-only" | "neither"


def koszul(generators: Sequence[LaurentPoly]) -> FreeComplex:
    """Koszul complex on the given elements, in degrees [-len, 0].

    The degree -p module has the p-subsets of generators as basis;
    the differential sends a subset basis vector to the signed sum of its
    facets scaled by the removed generator."""
    gens = list(generators)
    if not gens:
        raise InputError("Koszul complex needs at least one generator")
    ctx = gens[0].context
    ctx.require(*gens)
    m = len(gens)
    zero = ctx.zero()
    bases = [list(combinations(range(m), p)) for p in range(m + 1)]
    diffs = {}
    for p in range(m, 0, -1):
        src = bases[p]
        dst = bases[p - 1]
        dst_index = {s: k for k, s in enumerate(dst)}
        entries = [[zero] * len(src) for _ in range(len(dst))]
        for col, subset in enumerate(src):
            for pos, j in enumerate(subset):
                facet = subset[:pos] + subset[pos + 1 :]
                row = dst_index[facet]
                term = gens[j] if pos % 2 == 0 else -gens[j]
                entries[row][col] = entries[row][col] + term
        diffs[-p] = Matrix(ctx, len(dst), len(src), entries)
    ranks = [len(bases[p]) for p in range(m, -1, -1)]
    return FreeComplex(ctx, -m, 0, ranks, diffs)


def mellin_constant_torus(m: int) -> Fixture:
    """The constant-object fixture on an m-torus: Koszul complex on the
    t_i - 1 with loci {identity} in degrees [-m, 0] and empty elsewhere."""
    return renamed_torus_fixture(m, 0)


def free_module_fixture(m: int, rank: int = 1) -> Fixture:
    """A free module concentrated in degree zero: jumps everywhere, positive
    Euler characteristic."""
    _check_vars(m)
    if rank < 1:
        raise InputError("free module rank must be at least 1")
    ctx = RingContext.torus(m)
    cx = FreeComplex(ctx, 0, 0, [rank], {})
    profile = LociProfile(
        ctx, {0: LinearUnion.whole_space(ctx)}, source=cx, euler=rank
    )
    return Fixture(f"free-module-m{m}-r{rank}", cx, profile, "perverse")


def twist_fixture(base: Fixture, scalars: Sequence) -> Fixture:
    """Twist the complex by t_i -> lam_i t_i; loci translate by the inverse
    rational point."""
    ctx = base.complex.context
    lams = [Fraction(v) for v in scalars]
    cx = base.complex.twist(lams)
    inv = ctx.rational_point([1 / v for v in lams])
    loci = {
        deg: LinearUnion(
            ctx,
            [
                LinearComponent(ctx, inv * c.translate, [list(r) for r in c.lattice])
                for c in union.components
            ],
        )
        for deg, union in base.profile.loci.items()
    }
    profile = LociProfile(ctx, loci, source=cx, euler=base.profile.euler)
    label = f"{base.name}-twist({','.join(str(v) for v in lams)})"
    return Fixture(label, cx, profile, base.expected_verdict)


def tensor_fixture(a: Fixture, b: Fixture) -> Fixture:
    """External tensor; loci combine degreewise by the Kunneth rule."""
    _check_vars(a.complex.context.num_vars + b.complex.context.num_vars)
    cx = a.complex.external_tensor(b.complex)
    ctx = cx.context
    _, map_a, map_b = tensor_ring(a.complex.context, b.complex.context)
    loci: dict[int, LinearUnion] = {}
    for da, ua in a.profile.loci.items():
        for db, ub in b.profile.loci.items():
            combos = []
            for comp_a in ua.components:
                for comp_b in ub.components:
                    translate = comp_a.translate.embed(ctx, map_a) * comp_b.translate.embed(ctx, map_b)
                    rows = [embed_vector(r, map_a, ctx.num_vars) for r in comp_a.lattice]
                    rows += [embed_vector(r, map_b, ctx.num_vars) for r in comp_b.lattice]
                    combos.append(LinearComponent(ctx, translate, rows))
            if combos:
                deg = da + db
                existing = loci.get(deg, LinearUnion.empty(ctx))
                loci[deg] = existing.union_with(LinearUnion(ctx, combos))
    euler = (
        a.profile.euler * b.profile.euler
        if a.profile.euler is not None and b.profile.euler is not None
        else None
    )
    profile = LociProfile(ctx, loci, source=cx, euler=euler)
    expected = "perverse" if (a.expected_verdict, b.expected_verdict) == ("perverse", "perverse") else "neither"
    return Fixture(f"({a.name})x({b.name})", cx, profile, expected)


def induce_fixture(base: Fixture, exponents: Sequence[int]) -> Fixture:
    """Induction along the cover raising coordinate i to the n_i-th power.
    Point components fan out into all n-torsion translates; supporting only
    point components keeps the translate arithmetic inside the torsion-point
    class."""
    ctx = base.complex.context
    n = [int(x) for x in exponents]
    size = cover_size(n, ctx.num_vars)
    basis = sum(base.complex.ranks) * size
    if basis > 2**MAX_FIXTURE_VARS:
        raise ResourceError(
            f"induction cover of size {size} gives a fixture of {basis} basis vectors, "
            f"above the cap of {2**MAX_FIXTURE_VARS}"
        )
    cx = base.complex.induce(n)
    loci = {}
    for deg, union in base.profile.loci.items():
        comps = []
        for comp in union.components:
            if comp.rank != ctx.num_vars:
                raise InputError(
                    "induced fixtures support point components only"
                )
            for shifts in cover_basis(n):
                zeta = TorsionPoint(
                    ctx,
                    [(Fraction(1), Fraction(k, x)) for k, x in zip(shifts, n)],
                )
                comps.append(
                    LinearComponent(ctx, comp.translate * zeta, [list(r) for r in comp.lattice])
                )
        loci[deg] = LinearUnion(ctx, comps)
    euler = base.profile.euler * size if base.profile.euler is not None else None
    profile = LociProfile(ctx, loci, source=cx, euler=euler)
    label = f"{base.name}-induce({','.join(map(str, n))})"
    return Fixture(label, cx, profile, base.expected_verdict)


def sum_fixture(a: Fixture, b: Fixture) -> Fixture:
    cx = a.complex.direct_sum(b.complex)
    profile = a.profile.union_with(b.profile).with_source(cx)
    expected = "perverse" if (a.expected_verdict, b.expected_verdict) == ("perverse", "perverse") else "neither"
    return Fixture(f"({a.name})+({b.name})", cx, profile, expected)


def shift_fixture(base: Fixture, s: int) -> Fixture:
    """Degree shift; for a perverse base with point loci through degree zero
    the expected verdict flips to one-sided."""
    cx = base.complex.shift(s)
    profile = base.profile.shift(s).with_source(cx)
    if s == 0:
        expected = base.expected_verdict
    elif s > 0:
        expected = "lower-only"
    else:
        expected = "upper-only"
    return Fixture(f"{base.name}-shift({s})", cx, profile, expected)


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


def renamed_torus_fixture(m: int, offset: int) -> Fixture:
    """The constant-object fixture on an m-torus with variables named
    t{offset+1}, ..., so it can appear as the second factor of an external
    tensor; offset 0 gives mellin_constant_torus(m)."""
    _check_vars(m)
    ctx = RingContext([f"t{offset + i + 1}" for i in range(m)], m, 0)
    cx = koszul([ctx.variable(i) - 1 for i in range(m)])
    ident = LinearUnion.single_point(ctx.identity_point())
    profile = LociProfile(ctx, {i: ident for i in range(-m, 1)}, source=cx, euler=0)
    name = f"mellin-torus-m{m}" + (f"@{offset}" if offset else "")
    return Fixture(name, cx, profile, "perverse")


def abelian_point_profile(g: int, span: int) -> LociProfile:
    """Declared profile on an abelian context (m = 0): the identity point in
    degrees [-span, span].  Valid (perverse) iff span <= g; the point has
    abelian and semi-abelian codimension g."""
    ctx = RingContext.abelian(g)
    ident = LinearUnion.single_point(ctx.identity_point())
    return LociProfile(ctx, {i: ident for i in range(-span, span + 1)}, euler=0)


def standard_fixture_suite() -> list[Fixture]:
    """The stock of assumption-passing fixtures used across test suites:
    Koszul complexes for small m, twists, external tensors, inductions and
    direct sums.  All carry expected verdict 'perverse'."""
    m1 = mellin_constant_torus(1)
    m2 = mellin_constant_torus(2)
    m3 = mellin_constant_torus(3)
    second1 = renamed_torus_fixture(1, 1)
    second2 = renamed_torus_fixture(2, 1)
    fixtures = [m1, m2, m3]
    for lam in (Fraction(2), Fraction(-1), Fraction(1, 3)):
        fixtures.append(twist_fixture(m1, [lam]))
        fixtures.append(twist_fixture(m2, [lam, lam]))
    fixtures.append(twist_fixture(m2, [Fraction(2), Fraction(1, 3)]))
    fixtures.append(twist_fixture(m3, [Fraction(2), Fraction(-1), Fraction(1, 3)]))
    fixtures.append(tensor_fixture(m1, second1))
    fixtures.append(tensor_fixture(m1, second2))
    fixtures.append(tensor_fixture(twist_fixture(m1, [Fraction(2)]), second1))
    fixtures.append(tensor_fixture(m1, twist_fixture(second1, [Fraction(-1)])))
    fixtures.append(induce_fixture(m1, [2]))
    fixtures.append(induce_fixture(m1, [3]))
    fixtures.append(induce_fixture(m2, [2, 1]))
    fixtures.append(induce_fixture(twist_fixture(m2, [Fraction(2), Fraction(1, 3)]), [2, 1]))
    fixtures.append(induce_fixture(twist_fixture(m1, [Fraction(2)]), [2]))
    fixtures.append(sum_fixture(m1, twist_fixture(m1, [Fraction(2)])))
    fixtures.append(sum_fixture(m2, twist_fixture(m2, [Fraction(-1), Fraction(2)])))
    fixtures.append(sum_fixture(m1, induce_fixture(m1, [2])))
    fixtures.append(sum_fixture(m2, m2))
    fixtures.append(sum_fixture(m1, free_module_fixture(1)))
    fixtures.append(free_module_fixture(1))
    fixtures.append(free_module_fixture(2, rank=3))
    return fixtures
