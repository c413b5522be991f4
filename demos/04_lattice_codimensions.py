"""Integer-lattice calculus behind the codimension bookkeeping.

A translated subtorus is stored by the annihilator lattice K of its
subtorus: the characters trivial on it.  With the coordinate split (m torus
coordinates first, then 2g abelian ones), the three codimensions of a
component read off K:

    codim    = rank K
    codim_a  = rank(abelian projection of K) / 2
    codim_sa = codim - codim_a

The abelian projection must have even rank; odd ranks are rejected because
no semi-abelian quotient produces them.
"""

from jumploci import (
    InputError,
    LinearComponent,
    LinearUnion,
    RingContext,
    saturate_lattice,
    smith_normal_form,
)

# Saturation is the kernel of the kernel, both read off one echelon: the
# index-2 sublattice spanned by (1, 1) and (1, -1) saturates to all of Z^2.
# Its Smith normal form shows the index in the invariant factors 1, 2.
print("saturation of [(2,0)]:        ", saturate_lattice([[2, 0]], 2))
print("saturation of [(1,1),(1,-1)]: ", saturate_lattice([[1, 1], [1, -1]], 2))
U, D, V = smith_normal_form([[1, 1], [1, -1]])
print("invariant factors:            ", [D[i][i] for i in range(2)])

# Codimensions across the three basic shapes of ambient group.
torus = RingContext.torus(1)
print("point in a 1-torus:", LinearComponent(torus, torus.identity_point(), [[1]]).codims())

abelian = RingContext.abelian(1)
print("point on an abelian surface:",
      LinearComponent(abelian, abelian.identity_point(), [[1, 0], [0, 1]]).codims())

mixed = RingContext.mixed(1, 1)
print("torus-direction curve in a mixed group:",
      LinearComponent(mixed, mixed.identity_point(), [[1, 0, 0]]).codims())

# Odd abelian projections are invalid and rejected, not rounded.
try:
    LinearComponent(abelian, abelian.identity_point(), [[1, 0]])
except InputError as exc:
    print("odd projection rejected:", exc)

# Unions normalize away swallowed components and take min-codimension.
ctx = RingContext.torus(2)
point = LinearComponent(ctx, ctx.identity_point(), [[1, 0], [0, 1]])
curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
union = LinearUnion(ctx, [point, curve])
print("components after normalization:", len(union.components))
print("union statistics:", union.codim_stats())
