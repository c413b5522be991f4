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

One Euclidean echelon step over Python integers serves the Hermite and the
Smith normal form and kernels: a kernel is read off one tracked echelon of
the transpose, and saturation is the kernel of the kernel.  Lattice
membership is decided on the stored Hermite basis, and a point lies
on a component when the lattice's characters take the same values there as
at the translate.  A LinearUnion is a normalized finite list of components
(no component contained in another) and carries min/max codimension and
dimension statistics with the usual empty-union conventions (codimensions
+infinity, dimensions -infinity).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError

IntMatrix = list[list[int]]


# -- exact integer linear algebra --------------------------------------------


def _echelon(A: IntMatrix, width: int, track: IntMatrix | None = None) -> int:
    """Bring the rows of A to echelon form in place by unimodular row
    operations, apply each of them to ``track`` too, and return the rank.

    In each column Euclid runs between the pivot row and each row below it:
    the row below loses a multiple of the pivot row, and the two swap while
    a remainder is left.  A pivot that divides every entry below it is
    therefore never changed.  Pivots end positive and zero rows last.
    """
    mats = [A] if track is None else [A, track]
    rank = 0
    for col in range(width):
        for i in range(rank + 1, len(A)):
            while A[i][col]:
                q = A[i][col] // A[rank][col] if A[rank][col] else 0
                for M in mats:
                    M[i] = [a - q * b for a, b in zip(M[i], M[rank])]
                if A[i][col]:
                    for M in mats:
                        M[rank], M[i] = M[i], M[rank]
        if rank < len(A) and A[rank][col]:
            if A[rank][col] < 0:
                for M in mats:
                    M[rank] = [-x for x in M[rank]]
            rank += 1
    return rank


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _transpose(M: IntMatrix, width: int) -> IntMatrix:
    return [[row[j] for row in M] for j in range(width)]


def smith_normal_form(matrix: Sequence[Sequence[int]]):
    """Exact Smith normal form: (U, D, V) with U*A*V = D, U and V unimodular,
    D diagonal with nonnegative invariant factors in a divisibility chain.

    Each round runs ``_echelon`` on A (tracking U), then on its transpose
    (tracking V^T), until A is diagonal; where d_i does not divide d_(i+1),
    column i+1 is added to column i and the rounds go on.  Termination: the
    rows and columns before the first position t whose row or column holds
    another nonzero entry are never touched again.  If A[t][t] divides the
    rest of its column, the row step keeps row t and t advances; otherwise
    the round leaves a proper divisor of A[t][t] there.  The column add
    strictly lowers d_i to gcd(d_i, d_(i+1)) and keeps d_0 .. d_(i-1).
    """
    A = [[int(x) for x in row] for row in matrix]
    rows = len(A)
    cols = len(A[0]) if A else 0
    U, Vt = _identity(rows), _identity(cols)
    while True:
        _echelon(A, cols, U)
        A = _transpose(A, cols)
        _echelon(A, rows, Vt)
        A = _transpose(A, rows)
        if any(A[i][j] for i in range(rows) for j in range(cols) if i != j):
            continue
        for i in range(min(rows, cols) - 1):
            if A[i][i] and A[i + 1][i + 1] % A[i][i]:
                for row in A:
                    row[i] += row[i + 1]
                Vt[i] = [a + b for a, b in zip(Vt[i], Vt[i + 1])]
                break
        else:
            return U, A, _transpose(Vt, cols)


def hermite_normal_form(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``:
    canonical basis with positive pivots and reduced entries above them.
    Zero rows are dropped, so equal lattices produce identical bases."""
    basis = [list(map(int, r)) for r in rows]
    del basis[_echelon(basis, width):]
    # Reduce entries above each pivot, visiting pivots left to right so a
    # subtraction never re-pollutes an already-reduced column (row i only
    # has support from its pivot column onward).
    for i, row in enumerate(basis):
        col = next(c for c, x in enumerate(row) if x)
        for j in range(i):
            q = basis[j][col] // row[col]
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], row)]
    return basis


def saturate_lattice(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Basis (HNF) of the saturation (span_Q(rows) intersect Z^width): the
    annihilator of the kernel."""
    return kernel_basis(kernel_basis(rows, width), width)


def kernel_basis(rows: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """Saturated basis, in Hermite normal form, of { v in Z^width : M v = 0 }
    for the row matrix M.  ``_echelon`` on A = M^T, tracking T, gives
    T*A = E with T unimodular and E zero past its rank r, so the rows of T
    past r lie in the kernel.  They span it: for v in the kernel,
    w = v*T^-1 has w*E = v*A = 0, so w vanishes on the r independent rows
    of E, and v = w*T is an integral combination of the rows past r."""
    T = _identity(width)
    r = _echelon(_transpose(rows, width), len(rows), T)
    return hermite_normal_form(T[r:], width)


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
    lattice and its kernel, both in Hermite normal form.  Rejects lattices
    whose abelian projection has odd rank."""

    __slots__ = ("context", "translate", "lattice", "kernel", "rank", "abelian_rank2", "_values")

    def __init__(
        self,
        context: RingContext,
        translate: TorsionPoint,
        lattice_rows: Sequence[Sequence[int]],
    ):
        context.require(translate)
        n = context.num_vars
        rows = [list(map(int, r)) for r in lattice_rows]
        for r in rows:
            if len(r) != n:
                raise InputError("lattice row length does not match variable count")
        kernel = kernel_basis(rows, n)
        basis = kernel_basis(kernel, n)  # saturate_lattice(rows, n), keeping the kernel
        m = context.torus_rank
        ab_rank = _echelon([row[m:] for row in basis], n - m)
        if ab_rank % 2:
            raise InputError(
                f"abelian projection of the annihilator lattice has odd rank "
                f"{ab_rank}; the component cannot come from a semi-abelian quotient"
            )
        self.context = context
        self.translate = translate
        self.lattice = tuple(tuple(r) for r in basis)
        self.kernel = tuple(tuple(r) for r in kernel)
        self.rank = len(basis)
        self.abelian_rank2 = ab_rank
        self._values = None

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
        the point as at the translate.  The translate's values are computed
        on the first call and kept."""
        self.context.require(point)
        if self._values is None:
            self._values = tuple(self.translate.character(k) for k in self.lattice)
        return all(point.character(k) == v for k, v in zip(self.lattice, self._values))

    def contains(self, other: "LinearComponent") -> bool:
        """other <= self: the annihilator of self must sit inside that of
        other, and other's translate must lie on self."""
        self.context.require(other)
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
        context.require(*comps)
        # One pass in rank order: a later c containing a kept k has a saturated
        # lattice inside k's of no smaller rank, so equal to it, and was skipped.
        kept: list[LinearComponent] = []
        for c in sorted(comps, key=LinearComponent.sort_key):
            if not any(other.contains(c) for other in kept):
                kept.append(c)
        self.context = context
        self.components = tuple(kept)

    @classmethod
    def whole_space(cls, context: RingContext) -> "LinearUnion":
        return cls(context, [LinearComponent(context, context.identity_point(), [])])

    @classmethod
    def single_point(cls, point: TorsionPoint) -> "LinearUnion":
        n = point.context.num_vars
        return cls(point.context, [LinearComponent(point.context, point, _identity(n))])

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
        m, g = self.context.torus_rank, self.context.abelian_rank
        codim_a = min((c.codims()[1] for c in self.components), default=math.inf)
        codim_sa = min((c.codims()[2] for c in self.components), default=math.inf)
        return CodimStats(codim_a, codim_sa, g - codim_a, m + g - codim_sa)

    def __repr__(self) -> str:
        return f"LinearUnion({len(self.components)} components)"


def subtorus_point(
    component: LinearComponent, weights: Sequence[Fraction]
) -> TorsionPoint:
    """A rational point of the component: translate times the subtorus point
    with coordinates prod_j w_j^(v_j) along the kernel basis {v} of the
    annihilator.  Used to sample points that genuinely lie on the locus."""
    ctx = component.context
    coords = [Fraction(1)] * ctx.num_vars
    for w, vec in zip(weights, component.kernel):
        w = Fraction(w)
        if w == 0:
            raise InputError("subtorus weights must be nonzero")
        for i, v in enumerate(vec):
            coords[i] *= w**v
    return component.translate * ctx.rational_point(coords)
