"""Integer lattice calculus for translated subtori of the character torus.

A linear subvariety is stored as a LinearComponent: a torsion-point
translate together with the annihilator lattice K of the subtorus (the
characters of the ambient group that are trivial on it), kept as a
saturated integer row basis in Hermite normal form.  The component is

    translate * { rho : rho^k = 1 for every k in K }.

Storing the annihilator rather than the subtorus's own lattice makes the
codimension bookkeeping immediate: with d = rank K and the coordinate split
(first m torus coordinates, last 2g abelian coordinates),

    g'' = rank(abelian projection of K) / 2        (abelian codimension)
    m'' = d - 2*g''                                (torus part of the kernel)
    semi-abelian codimension = m'' + g'' = d - g''.

A component is valid only when the abelian projection has even rank;
odd-rank inputs are rejected rather than rounded, since they cannot arise
from a quotient by a semi-abelian subvariety.

Saturation and kernels are computed through an exact Smith normal form over
Python integers; lattice membership is decided on the stored Hermite basis,
and a point lies on a component when the lattice's characters take the same
values there as at the translate.  A LinearUnion is a normalized finite list
of components (no component contained in another) and carries min/max codimension and
dimension statistics with the usual empty-union conventions
(codimensions +infinity, dimensions -infinity).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .laurent import RingContext, TorsionPoint

IntMatrix = list[list[int]]


# -- exact integer linear algebra --------------------------------------------


def _xgcd(a: int, b: int):
    """g, p, q with p*a + q*b = g = gcd(a, b) and g >= 0.

    When a divides b the coefficients are (sign(a), 0), so gcd-based row and
    column combines leave the pivot row/column fixed in the common case;
    this is what makes the Smith reduction loops terminate.
    """
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Exact Smith normal form: (U, D, V) with U*A*V = D, U and V unimodular,
    D diagonal with nonnegative invariant factors in a divisibility chain."""
    A = [[int(x) for x in row] for row in matrix]
    rows = len(A)
    cols = len(A[0]) if A else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_combine(i, j, a, b, c, d):
        """(row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j)."""
        for M in (A, U):
            ri, rj = M[i], M[j]
            M[i] = [a * x + b * y for x, y in zip(ri, rj)]
            M[j] = [c * x + d * y for x, y in zip(ri, rj)]

    def col_combine(i, j, a, b, c, d):
        for M in (A, V):
            for row in M:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def clear_position(t):
        """Repeat row/col gcd steps until column t and row t are clear below
        and right of the pivot."""
        while True:
            for i in range(t + 1, rows):
                if A[i][t]:
                    g, p, q = _xgcd(A[t][t], A[i][t])
                    row_combine(t, i, p, q, -(A[i][t] // g), A[t][t] // g)
            if not any(A[t][j] for j in range(t + 1, cols)):
                return
            for j in range(t + 1, cols):
                if A[t][j]:
                    g, p, q = _xgcd(A[t][t], A[t][j])
                    col_combine(t, j, p, q, -(A[t][j] // g), A[t][t] // g)
            if not any(A[i][t] for i in range(t + 1, rows)):
                return

    t = 0
    while t < min(rows, cols):
        pivot = next(
            (
                (i, j)
                for i in range(t, rows)
                for j in range(t, cols)
                if A[i][j]
            ),
            None,
        )
        if pivot is None:
            break
        if pivot[0] != t:
            row_combine(t, pivot[0], 0, 1, -1, 0)
        if pivot[1] != t:
            col_combine(t, pivot[1], 0, 1, -1, 0)
        clear_position(t)
        if A[t][t] < 0:
            row_combine(t, t, -1, 0, 0, -1)
        t += 1

    # Enforce the divisibility chain d1 | d2 | ... .
    done = False
    while not done:
        done = True
        for i in range(t - 1):
            a, b = A[i][i], A[i + 1][i + 1]
            if a and b % a:
                # col_i += col_{i+1} puts b below the pivot, so the next
                # clearing pass replaces the block diag(a, b) by
                # diag(gcd, lcm) up to sign.
                col_combine(i, i + 1, 1, 1, 0, 1)
                clear_position(i)
                if A[i][i] < 0:
                    row_combine(i, i, -1, 0, 0, -1)
                if A[i + 1][i + 1] < 0:
                    row_combine(i + 1, i + 1, -1, 0, 0, -1)
                done = False
    return U, A, V


def rational_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over Q via fraction-based Gaussian elimination: no lattice code
    calls it, it is the independent oracle the tests check them against."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        for r in range(row + 1, nrows):
            if m[r][col]:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def hermite_normal_form(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``:
    canonical basis with positive pivots and reduced entries above them.
    Zero rows are dropped, so equal lattices produce identical bases."""
    work = [list(map(int, r)) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(width):
        carrier = None
        for r in work:
            if r[col]:
                carrier = r
                break
        if carrier is None:
            continue
        work.remove(carrier)
        rest = []
        for r in work:
            while r[col]:
                if abs(r[col]) < abs(carrier[col]):
                    carrier, r = r, carrier
                q = r[col] // carrier[col]
                r = [a - q * b for a, b in zip(r, carrier)]
            rest.append(r)
        work = [r for r in rest if any(r)]
        if carrier[col] < 0:
            carrier = [-x for x in carrier]
        basis.append(carrier)
    # Reduce entries above each pivot, visiting pivots left to right so a
    # subtraction never re-pollutes an already-reduced column (row i only
    # has support from its pivot column onward).
    for j in range(len(basis)):
        for i in range(j + 1, len(basis)):
            pivot_col = next(c for c, x in enumerate(basis[i]) if x)
            q = basis[j][pivot_col] // basis[i][pivot_col]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def saturate_lattice(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis (HNF) of the saturation (span_Q(rows) intersect Z^width): the
    annihilator of the kernel."""
    rows = [list(map(int, r)) for r in rows if any(r)]
    return kernel_basis(kernel_basis(rows, width), width)


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Saturated basis of { v in Z^width : M v = 0 } for the row matrix M.

    From U*M*V = D: M*(V e_j) = U^-1 D e_j = 0 whenever the j-th diagonal
    entry vanishes, so the columns of V beyond the rank span the kernel and
    are saturated because V is unimodular.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        return [[int(i == j) for j in range(width)] for i in range(width)]
    _, D, V = smith_normal_form(rows)
    r = sum(1 for i in range(min(len(D), width)) if D[i][i])
    cols = []
    for j in range(r, width):
        cols.append([V[i][j] for i in range(width)])
    return hermite_normal_form(cols, width) if cols else []


def lattice_contains(hermite_rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Membership in the lattice with the Hermite basis ``hermite_rows``:
    each row vanishes left of its pivot, so clearing the pivots in order
    leaves a remainder at a pivot, or an entry left over, exactly when the
    vector is no integral combination of the rows.  For a saturated lattice
    that is also the Q-span test, as every integral vector in the span is
    such a combination."""
    v = [int(x) for x in vector]
    for row in hermite_rows:
        col = next(c for c, x in enumerate(row) if x)
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


# -- linear components and unions ---------------------------------------------


class CodimStats(NamedTuple):
    codim_a: object  # int or math.inf
    codim_sa: object
    dim_a: object  # int or -math.inf
    dim_sa: object


class LinearComponent:
    """One translated subtorus: torsion translate plus saturated annihilator
    lattice in Hermite normal form.  Rejects lattices whose abelian
    projection has odd rank."""

    __slots__ = ("context", "translate", "lattice", "rank", "abelian_rank2")

    def __init__(
        self,
        context: RingContext,
        translate: TorsionPoint,
        lattice_rows: Sequence[Sequence[int]],
    ):
        if translate.context != context:
            raise InputError("ring context mismatch")
        n = context.num_vars
        rows = [list(map(int, r)) for r in lattice_rows]
        for r in rows:
            if len(r) != n:
                raise InputError("lattice row length does not match variable count")
        basis = saturate_lattice(rows, n)
        m = context.torus_rank
        ab_rank = len(hermite_normal_form([row[m:] for row in basis], n - m))
        if ab_rank % 2:
            raise InputError(
                f"abelian projection of the annihilator lattice has odd rank "
                f"{ab_rank}; the component cannot come from a semi-abelian quotient"
            )
        self.context = context
        self.translate = translate
        self.lattice = tuple(tuple(r) for r in basis)
        self.rank = len(basis)
        self.abelian_rank2 = ab_rank

    # -- dimensions -----------------------------------------------------------

    def codims(self) -> tuple[int, int, int]:
        """(codim, abelian codim g'', semi-abelian codim m'' + g'')."""
        d = self.rank
        g2 = self.abelian_rank2 // 2
        return d, g2, d - g2

    def kernel_torus_rank(self) -> int:
        d, g2, _ = self.codims()
        return d - 2 * g2

    def is_whole_space(self) -> bool:
        return self.rank == 0

    def contains_point(self, point: TorsionPoint) -> bool:
        """Whether every character of the lattice takes the same value at
        the point as at the translate."""
        if point.context != self.context:
            raise InputError("ring context mismatch")
        return all(point.character(k) == self.translate.character(k) for k in self.lattice)

    def contains(self, other: "LinearComponent") -> bool:
        """other <= self: the annihilator of self must sit inside that of
        other, and other's translate must lie on self."""
        if self.context != other.context:
            raise InputError("ring context mismatch")
        inside = all(lattice_contains(other.lattice, k) for k in self.lattice)
        return inside and self.contains_point(other.translate)

    def same_component(self, other: "LinearComponent") -> bool:
        return self.contains(other) and other.contains(self)

    def sort_key(self):
        return (
            self.rank,
            self.lattice,
            tuple((q.numerator, q.denominator, th.numerator, th.denominator)
                  for q, th in self.translate.coords),
        )

    def __repr__(self) -> str:
        return f"LinearComponent(translate={self.translate!r}, lattice={self.lattice})"


class LinearUnion:
    """Finite union of linear components, normalized so that no component is
    contained in another.  The empty union is the empty locus."""

    __slots__ = ("context", "components")

    def __init__(self, context: RingContext, components: Iterable[LinearComponent]):
        comps = list(components)
        for c in comps:
            if c.context != context:
                raise InputError("ring context mismatch")
        kept: list[LinearComponent] = []
        for c in sorted(comps, key=LinearComponent.sort_key):
            if any(other.contains(c) for other in kept):
                continue
            kept = [k for k in kept if not c.contains(k)]
            kept.append(c)
        kept.sort(key=LinearComponent.sort_key)
        self.context = context
        self.components = tuple(kept)

    @classmethod
    def empty(cls, context: RingContext) -> "LinearUnion":
        return cls(context, [])

    @classmethod
    def whole_space(cls, context: RingContext) -> "LinearUnion":
        return cls(context, [LinearComponent(context, context.identity_point(), [])])

    @classmethod
    def single_point(cls, point: TorsionPoint) -> "LinearUnion":
        n = point.context.num_vars
        full = [[int(i == j) for j in range(n)] for i in range(n)]
        return cls(point.context, [LinearComponent(point.context, point, full)])

    def is_empty(self) -> bool:
        return not self.components

    def is_whole_space(self) -> bool:
        return any(c.is_whole_space() for c in self.components)

    def contains_point(self, point: TorsionPoint) -> bool:
        return any(c.contains_point(point) for c in self.components)

    def contains(self, other: "LinearUnion") -> bool:
        """Union containment: every component of ``other`` must lie inside
        some component of ``self`` (components are irreducible)."""
        return all(
            any(mine.contains(theirs) for mine in self.components)
            for theirs in other.components
        )

    def has_component(self, component: LinearComponent) -> bool:
        return any(c.same_component(component) for c in self.components)

    def codim_stats(self) -> CodimStats:
        if not self.components:
            return CodimStats(math.inf, math.inf, -math.inf, -math.inf)
        m, g = self.context.torus_rank, self.context.abelian_rank
        codim_a = min(c.codims()[1] for c in self.components)
        codim_sa = min(c.codims()[2] for c in self.components)
        dim_a = max(g - c.codims()[1] for c in self.components)
        dim_sa = max((m + g) - c.codims()[2] for c in self.components)
        return CodimStats(codim_a, codim_sa, dim_a, dim_sa)

    def union_with(self, other: "LinearUnion") -> "LinearUnion":
        if self.context != other.context:
            raise InputError("ring context mismatch")
        return LinearUnion(self.context, list(self.components) + list(other.components))

    def __repr__(self) -> str:
        return f"LinearUnion({len(self.components)} components)"


def subtorus_point(
    component: LinearComponent, weights: Sequence[Fraction]
) -> TorsionPoint:
    """A rational point of the component: translate times the subtorus point
    with coordinates prod_j w_j^(v_j) along a kernel basis {v} of the
    annihilator.  Used to sample points that genuinely lie on the locus."""
    ctx = component.context
    n = ctx.num_vars
    ker = kernel_basis([list(r) for r in component.lattice], n)
    coords = [Fraction(1)] * n
    for w, vec in zip(weights, ker):
        w = Fraction(w)
        if w == 0:
            raise InputError("subtorus weights must be nonzero")
        for i, v in enumerate(vec):
            coords[i] *= w**v
    return component.translate * ctx.rational_point(coords)
