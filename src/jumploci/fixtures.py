"""Constructors for test objects with known loci and expected verdicts.

The base object is the Koszul complex on (t_1 - 1, ..., t_m - 1) placed in
degrees [-m, 0]: the module-side model of the constant rank-one object on
an m-torus, whose jump loci are the identity point in every degree of
[-m, 0] and empty elsewhere.  Derived fixtures transform both the complex
and its declared loci in lockstep:

  * twist by nonzero rationals    -> loci translate by the inverse point;
  * external tensor               -> loci combine by the Kunneth rule;
  * induction along a cover t^n   -> each component fans out into its
                                     n-torsion translates;
  * direct sum                    -> loci unions;
  * shift                         -> loci move degree-for-degree.

The complex constructors behind them (``shift_complex``, ``direct_sum``,
``twist_complex``, ``external_tensor`` with the Koszul sign rule and
``induce_complex``) live here too, with the ring maps they apply:
``substitute`` (t_i -> lam_i * t_i^(n_i)) and ``embed_vector``,
``embed_poly`` and ``embed_point`` into a larger ring.  ``tensor_ring``
alone orders the variables of an external tensor, and ``cover_basis`` the
basis of a cover.  The dual complex, which only tests build, is the oracle
``dual_complex`` in ``tests/oracles.py``.

Fixtures are small by construction: a fixture ring has at least one and at
most MAX_FIXTURE_VARS variables, an induction cover at most MAX_COVER_SIZE
basis monomials, and an induced fixture at most as many basis vectors as
the Koszul complex on MAX_FIXTURE_VARS variables.  A ring without
variables raises InputError and a larger request ResourceError, before
anything is built.

Every fixture carries its expected verdict as metadata, so test suites can
iterate over a fixture list, such as the stock ``standard_fixture_suite`` in
``tests/fixture_helpers.py``, and compare outcomes without re-deriving them.
Its profile reads the Euler characteristic off its complex, so no builder
restates the product, sum, sign or cover rule.  ``renamed_torus_fixture`` is
``mellin_constant_torus`` under the name its one reader,
``perfbench/workloads.py``, imports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import NamedTuple, Sequence

from .complexes import FreeComplex, Matrix
from .errors import InputError, ResourceError, check_cap
from .lattices import LinearComponent, LinearUnion
from .laurent import LaurentPoly, RingContext, format_rational
from .loci import LociProfile, TorsionPoint

# Largest fixture ring.  The Koszul complex on m variables has 2^m basis
# vectors, and a fixture costs two to three times as much per added variable:
# twist and sum fixtures took 0.7 s at m = 8 and 6-7 s at m = 10.
MAX_FIXTURE_VARS = 8
# Largest induction cover, as the number n_1*...*n_N of basis monomials: the
# induced differentials have that many times the rows and columns.
MAX_COVER_SIZE = 64


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


# -- ring maps --------------------------------------------------------------------


def substitute(p: LaurentPoly, mapping: Sequence[tuple]) -> LaurentPoly:
    """Apply the ring homomorphism t_i -> lam_i * t_i^(n_i).

    ``mapping`` holds one (lam_i, n_i) pair per variable; every lam_i must
    be a nonzero rational and every n_i a nonzero integer, so units map to
    units.  InputError otherwise."""
    if len(mapping) != p.context.num_vars:
        raise InputError("substitution must cover every variable")
    pairs = [(Fraction(lam), int(n)) for lam, n in mapping]
    if any(lam == 0 or n == 0 for lam, n in pairs):
        raise InputError("substitution scalars and exponents must be nonzero")
    out: dict[tuple[int, ...], Fraction] = {}
    for exp, c in p.terms.items():
        key = tuple(e * n for e, (_, n) in zip(exp, pairs))
        out[key] = out.get(key, 0) + c * math.prod(lam**e for e, (lam, _) in zip(exp, pairs))
    return LaurentPoly(p.context, out)


def embed_vector(values: Sequence, var_map: Sequence[int], width: int, fill=0) -> list:
    """A list of ``width`` copies of ``fill`` with values[i] at var_map[i]:
    exponents, lattice rows and point coordinates moved into a larger ring."""
    out = [fill] * width
    for i, v in enumerate(values):
        out[var_map[i]] = v
    return out


def embed_poly(p: LaurentPoly, target: RingContext, var_map: Sequence[int]) -> LaurentPoly:
    """``p`` in ``target``, sending variable i to target variable var_map[i]."""
    terms = {tuple(embed_vector(exp, var_map, target.num_vars)): c for exp, c in p.terms.items()}
    return LaurentPoly(target, terms)


def embed_point(point: TorsionPoint, target: RingContext, var_map: Sequence[int]) -> TorsionPoint:
    """``point`` in ``target``, coordinate i at var_map[i] and 1 elsewhere."""
    identity = (Fraction(1), Fraction(0))
    return TorsionPoint(target, embed_vector(point.coords, var_map, target.num_vars, identity))


# -- complex constructors -------------------------------------------------------
#
# Only fixtures build complexes from complexes, so these live here and no
# analysis job compiles them.


def _map_entries(mat: Matrix, fn) -> Matrix:
    return Matrix(mat.context, mat.nrows, mat.ncols, [[fn(e) for e in row] for row in mat.entries])


def shift_complex(cx: FreeComplex, s: int) -> FreeComplex:
    """Move the complex s steps to the right: the new degree i module is
    the old degree i - s one, so loci in degree i come from degree i - s.
    Differentials carry the customary (-1)^s sign."""
    sign = -1 if s % 2 else 1
    diffs = {}
    for i in range(cx.k_min, cx.k_max):
        mat = cx.diffs[i]
        diffs[i + s] = mat if sign == 1 else _map_entries(mat, lambda e: -e)
    return FreeComplex(cx.context, cx.k_min + s, cx.k_max + s, cx.ranks, diffs)


def direct_sum(a: FreeComplex, b: FreeComplex) -> FreeComplex:
    a.context.require(b)
    k_min = min(a.k_min, b.k_min)
    k_max = max(a.k_max, b.k_max)
    ranks = [a.rank(i) + b.rank(i) for i in range(k_min, k_max + 1)]
    diffs = {}
    for i in range(k_min, k_max):
        da, db = a.differential(i), b.differential(i)
        blocks = {(0, 0): da.entries, (1, 1): db.entries}
        diffs[i] = _block_matrix(a.context, [da.nrows, db.nrows], [da.ncols, db.ncols], blocks)
    return FreeComplex(a.context, k_min, k_max, ranks, diffs)


def twist_complex(cx: FreeComplex, scalars: Sequence) -> FreeComplex:
    """Substitute t_i -> lam_i * t_i in every differential; lam_i are
    nonzero rationals (a rational point of the character torus), so the
    loci translate by the inverse point."""
    mapping = [(lam, 1) for lam in scalars]
    substitute(cx.context.one(), mapping)  # refuses a bad mapping even where no entry is mapped
    diffs = {
        i: _map_entries(m, lambda e: substitute(e, mapping) if e.terms else e)
        for i, m in cx.diffs.items()
    }
    return FreeComplex(cx.context, cx.k_min, cx.k_max, cx.ranks, diffs)


def external_tensor(a: FreeComplex, b: FreeComplex) -> FreeComplex:
    """Total complex of the double complex, with the sign rule
    d(x (x) y) = dx (x) y + (-1)^deg(x) x (x) dy, over the combined ring
    tensor_ring(a.context, b.context)."""
    ctx, map_a, map_b = tensor_ring(a.context, b.context)

    def embedded(mat: Matrix, var_map) -> list[list[LaurentPoly]]:
        return [[embed_poly(e, ctx, var_map) for e in row] for row in mat.entries]

    k_min = a.k_min + b.k_min
    k_max = a.k_max + b.k_max
    pieces = {
        n: [(i, n - i) for i in range(a.k_min, a.k_max + 1) if b.k_min <= n - i <= b.k_max]
        for n in range(k_min, k_max + 1)
    }
    sizes = {n: [a.rank(i) * b.rank(j) for i, j in pieces[n]] for n in range(k_min, k_max + 1)}
    diffs = {}
    for n in range(k_min, k_max):
        dst = {piece: k for k, piece in enumerate(pieces[n + 1])}
        blocks = {}
        for col, (i, j) in enumerate(pieces[n]):
            # d_F (x) id : (i, j) -> (i+1, j)
            if (i + 1, j) in dst:
                blocks[dst[i + 1, j], col] = _kron(
                    ctx, embedded(a.differential(i), map_a), _identity(ctx, b.rank(j))
                )
            # (-1)^i id (x) d_G : (i, j) -> (i, j+1)
            if (i, j + 1) in dst:
                blocks[dst[i, j + 1], col] = _kron(
                    ctx,
                    _identity(ctx, a.rank(i), -1 if i % 2 else 1),
                    embedded(b.differential(j), map_b),
                )
        diffs[n] = _block_matrix(ctx, sizes[n + 1], sizes[n], blocks)
    ranks = [sum(sizes[n]) for n in range(k_min, k_max + 1)]
    return FreeComplex(ctx, k_min, k_max, ranks, diffs)


def induce_complex(cx: FreeComplex, exponents: Sequence[int]) -> FreeComplex:
    """Induction along the finite cover that raises coordinate i to the
    power n_i: every entry p becomes the multiplication-by-p matrix on
    the monomial basis t^e, 0 <= e_i < n_i, over the subring generated by
    the t_i^(n_i) (entries land in that subring, written in the same
    variables).  Pointwise, the induced complex at a point rho splits as
    the direct sum of the original complex at all mu with mu^n = rho^n,
    so loci become unions of torsion translates."""
    n = [int(x) for x in exponents]
    size = cover_size(n, cx.context.num_vars)
    basis = cover_basis(n)
    index = {e: k for k, e in enumerate(basis)}
    zero = cx.context.zero()

    def blow_up(p: LaurentPoly) -> list[list[LaurentPoly]]:
        block = [[zero] * size for _ in range(size)]
        for col, e in enumerate(basis):
            for f, c in p.terms.items():
                total = tuple(a + b for a, b in zip(f, e))
                q = tuple(t // ni for t, ni in zip(total, n))
                rem = tuple(t - qi * ni for t, qi, ni in zip(total, q, n))
                row = index[rem]
                mono = cx.context.monomial(tuple(qi * ni for qi, ni in zip(q, n)), c)
                block[row][col] = block[row][col] + mono
        return block

    diffs = {}
    for i in range(cx.k_min, cx.k_max):
        mat = cx.diffs[i]
        blocks = {
            (r, c): blow_up(e)
            for r, row in enumerate(mat.entries)
            for c, e in enumerate(row)
            if not e.is_zero()
        }
        diffs[i] = _block_matrix(cx.context, [size] * mat.nrows, [size] * mat.ncols, blocks)
    ranks = [r * size for r in cx.ranks]
    return FreeComplex(cx.context, cx.k_min, cx.k_max, ranks, diffs)


def tensor_ring(ctx_a: RingContext, ctx_b: RingContext) -> tuple[RingContext, list[int], list[int]]:
    """(ring, map_a, map_b): the ring of an external tensor and, for each
    factor, the index in it of each of the factor's variables.  Torus
    variables of both factors come first, then abelian variables of both;
    factors sharing a variable name are refused."""
    if set(ctx_a.var_names) & set(ctx_b.var_names):
        raise InputError("external tensor factors must use disjoint variable names")
    ma, mb = ctx_a.torus_rank, ctx_b.torus_rank
    names = ctx_a.var_names[:ma] + ctx_b.var_names[:mb] + ctx_a.var_names[ma:] + ctx_b.var_names[mb:]
    ring = RingContext(names, ma + mb, ctx_a.abelian_rank + ctx_b.abelian_rank)
    index = {name: k for k, name in enumerate(names)}
    return ring, [index[v] for v in ctx_a.var_names], [index[v] for v in ctx_b.var_names]


def cover_size(exponents: Sequence[int], num_vars: int) -> int:
    """n_1*...*n_N, the number of basis monomials of the induction cover
    with these exponents; refuses a malformed cover or one above
    MAX_COVER_SIZE."""
    if len(exponents) != num_vars:
        raise InputError("induction needs one exponent per variable")
    if any(x < 1 for x in exponents):
        raise InputError("induction exponents must be positive")
    size = math.prod(exponents)
    check_cap(size, MAX_COVER_SIZE, "induction cover of size")
    return size


def _block_matrix(ctx: RingContext, row_sizes, col_sizes, blocks: dict) -> Matrix:
    """The matrix with the given block row and block column sizes; ``blocks``
    maps (block row, block column) to an entry grid of that block's shape,
    and absent blocks are zero."""
    row_at = [0, *accumulate(row_sizes)]
    col_at = [0, *accumulate(col_sizes)]
    zero = ctx.zero()
    entries = [[zero] * col_at[-1] for _ in range(row_at[-1])]
    for (br, bc), grid in blocks.items():
        for r, row in enumerate(grid):
            entries[row_at[br] + r][col_at[bc] : col_at[bc + 1]] = row
    return Matrix(ctx, row_at[-1], col_at[-1], entries)


def _kron(ctx: RingContext, a, b) -> list[list[LaurentPoly]]:
    """Kronecker product of two entry grids: block (r, c) is a[r][c] * b."""
    zero = ctx.zero()
    return [
        [zero if x.is_zero() or y.is_zero() else x * y for x in row_a for y in row_b]
        for row_a in a
        for row_b in b
    ]


def _identity(ctx: RingContext, n: int, scale: int = 1) -> list[list[LaurentPoly]]:
    diagonal, zero = ctx.const(scale), ctx.zero()
    return [[diagonal if r == c else zero for c in range(n)] for r in range(n)]


def cover_basis(exponents: Sequence[int]) -> list[tuple[int, ...]]:
    """The exponents e with 0 <= e_i < n_i, in lex order: the monomial basis
    of an induction cover, and the n-torsion translates of its loci."""
    return list(product(*(range(n) for n in exponents)))


def mellin_constant_torus(m: int, offset: int = 0) -> Fixture:
    """The constant-object fixture on an m-torus: Koszul complex on the
    t_i - 1 with loci {identity} in degrees [-m, 0] and empty elsewhere; its
    variables are t{offset+1}, ..., so an external tensor can take it second."""
    _check_vars(m)
    ctx = RingContext([f"t{offset + i + 1}" for i in range(m)], m, 0)
    cx = koszul([ctx.variable(i) - 1 for i in range(m)])
    ident = LinearUnion.single_point(ctx.identity_point())
    profile = LociProfile(ctx, {i: ident for i in range(-m, 1)}, source=cx)
    name = f"mellin-torus-m{m}" + (f"@{offset}" if offset else "")
    return Fixture(name, cx, profile, "perverse")


renamed_torus_fixture = mellin_constant_torus


def free_module_fixture(m: int, rank: int = 1) -> Fixture:
    """A free module concentrated in degree zero: jumps everywhere, positive
    Euler characteristic."""
    _check_vars(m)
    if rank < 1:
        raise InputError("free module rank must be at least 1")
    ctx = RingContext.torus(m)
    cx = FreeComplex(ctx, 0, 0, [rank], {})
    profile = LociProfile(ctx, {0: LinearUnion.whole_space(ctx)}, source=cx)
    return Fixture(f"free-module-m{m}-r{rank}", cx, profile, "perverse")


def _translated(profile: LociProfile, points: Sequence[TorsionPoint]) -> dict[int, LinearUnion]:
    """Each degree's locus with every component moved by each of ``points``."""
    ctx = profile.context
    return {
        deg: LinearUnion(
            ctx,
            [LinearComponent(ctx, c.translate * p, c.lattice) for c in union.components for p in points],
        )
        for deg, union in profile.loci.items()
    }


def twist_fixture(base: Fixture, scalars: Sequence) -> Fixture:
    """Twist the complex by t_i -> lam_i t_i; loci translate by the inverse
    rational point."""
    ctx = base.complex.context
    lams = [Fraction(v) for v in scalars]
    cx = twist_complex(base.complex, lams)
    loci = _translated(base.profile, [ctx.rational_point([1 / v for v in lams])])
    profile = LociProfile(ctx, loci, source=cx)
    label = f"{base.name}-twist({','.join(map(format_rational, lams))})"
    return Fixture(label, cx, profile, base.expected_verdict)


def tensor_fixture(a: Fixture, b: Fixture) -> Fixture:
    """External tensor; loci combine degreewise by the Kunneth rule."""
    _check_vars(a.complex.context.num_vars + b.complex.context.num_vars)
    cx = external_tensor(a.complex, b.complex)
    ctx, map_a, map_b = tensor_ring(a.complex.context, b.complex.context)
    comps: dict[int, list[LinearComponent]] = {}
    for da, ua in a.profile.loci.items():
        for db, ub in b.profile.loci.items():
            for comp_a in ua.components:
                for comp_b in ub.components:
                    translate = embed_point(comp_a.translate, ctx, map_a)
                    translate *= embed_point(comp_b.translate, ctx, map_b)
                    rows = [embed_vector(r, map_a, ctx.num_vars) for r in comp_a.lattice]
                    rows += [embed_vector(r, map_b, ctx.num_vars) for r in comp_b.lattice]
                    comps.setdefault(da + db, []).append(LinearComponent(ctx, translate, rows))
    profile = LociProfile(ctx, {deg: LinearUnion(ctx, cs) for deg, cs in comps.items()}, source=cx)
    expected = "perverse" if (a.expected_verdict, b.expected_verdict) == ("perverse", "perverse") else "neither"
    return Fixture(f"({a.name})x({b.name})", cx, profile, expected)


def induce_fixture(base: Fixture, exponents: Sequence[int]) -> Fixture:
    """Induction along the cover raising coordinate i to the n_i-th power.
    The induced complex at rho is the sum of the base complex at rho*zeta
    over the n-torsion points zeta, so each declared component fans out into
    its n-torsion translates, whatever its dimension."""
    ctx = base.complex.context
    n = [int(x) for x in exponents]
    size = cover_size(n, ctx.num_vars)
    basis = sum(base.complex.ranks) * size
    if basis > 2**MAX_FIXTURE_VARS:
        raise ResourceError(
            f"induction cover of size {size} gives a fixture of {basis} basis vectors, "
            f"above the cap of {2**MAX_FIXTURE_VARS}"
        )
    cx = induce_complex(base.complex, n)
    zetas = [TorsionPoint(ctx, [(1, Fraction(k, x)) for k, x in zip(e, n)]) for e in cover_basis(n)]
    profile = LociProfile(ctx, _translated(base.profile, zetas), source=cx)
    label = f"{base.name}-induce({','.join(map(str, n))})"
    return Fixture(label, cx, profile, base.expected_verdict)


def sum_fixture(a: Fixture, b: Fixture) -> Fixture:
    cx = direct_sum(a.complex, b.complex)
    degs = set(a.profile.loci) | set(b.profile.loci)
    loci = {
        d: LinearUnion(cx.context, a.profile.locus(d).components + b.profile.locus(d).components) for d in degs
    }
    profile = LociProfile(cx.context, loci, source=cx)
    expected = "perverse" if (a.expected_verdict, b.expected_verdict) == ("perverse", "perverse") else "neither"
    return Fixture(f"({a.name})+({b.name})", cx, profile, expected)


def shift_fixture(base: Fixture, s: int) -> Fixture:
    """Degree shift; for a perverse base with point loci through degree zero
    the expected verdict flips to one-sided."""
    cx = shift_complex(base.complex, s)
    loci = {deg + s: union for deg, union in base.profile.loci.items()}
    profile = LociProfile(cx.context, loci, source=cx)
    if s == 0:
        expected = base.expected_verdict
    elif s > 0:
        expected = "lower-only"
    else:
        expected = "upper-only"
    return Fixture(f"{base.name}-shift({s})", cx, profile, expected)


# fixture name -> the options besides m that it reads; named_fixture refuses the others
_FIXTURE_OPTIONS = {"mellin": (), "twist": ("lam",), "tensor": ("m2",), "induce": ("n",),
                    "sum": ("lam",), "shift": ("s",), "free": ("rank",)}


def named_fixture(name: str, m: int, lam=None, n=None, m2=None, s=None, rank=None) -> Fixture:
    """The fixture ``jumploci fixtures <name> --m <m>`` writes; ``lam`` is a
    list of rationals and ``n`` of integers.  An option left None takes its
    default; one the fixture does not read, and twist without ``lam``, are
    refused before anything is built."""
    if name not in _FIXTURE_OPTIONS:
        raise InputError(f"unknown fixture {name!r}")
    for option, value in {"lam": lam, "n": n, "m2": m2, "s": s, "rank": rank}.items():
        if value is not None and option not in _FIXTURE_OPTIONS[name]:
            raise InputError(f"the {name} fixture takes no --{option}")
    if name == "twist" and lam is None:
        raise InputError("the twist fixture needs --lam")
    if name == "free":
        return free_module_fixture(m, 1 if rank is None else rank)
    base = mellin_constant_torus(m)
    if name == "twist":
        return twist_fixture(base, lam)
    if name == "induce":
        return induce_fixture(base, [2] * m if n is None else n)
    if name == "tensor":
        return tensor_fixture(base, mellin_constant_torus(1 if m2 is None else m2, m))
    if name == "sum":
        return sum_fixture(base, twist_fixture(base, [Fraction(2)] * m if lam is None else lam))
    if name == "shift":
        return shift_fixture(base, 1 if s is None else s)
    return base
