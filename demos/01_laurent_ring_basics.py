"""Exact Laurent polynomial arithmetic and torsion-point evaluation.

The coordinate ring of the character torus attached to a group with torus
rank m and abelian rank g is the Laurent polynomial ring in m + 2g
variables over the rationals.  Everything below is exact: coefficients are
fractions, points are (positive rational) x (root of unity) pairs, and
values land in cyclotomic-rational fields.
"""

from fractions import Fraction

from jumploci import RingContext, TorsionPoint
from jumploci.fixtures import substitute

# A rank-2 torus: two variables, no abelian part.
ctx = RingContext.torus(2)
t1, t2 = ctx.variable(0), ctx.variable(1)

p = (t1 - 1) * (t2 - 1)
print("expanded product:       ", p)

# Negative exponents are first-class; monomials are units.
q = (t1 - 1) * t1**-1
print("times t1^-1:            ", q)

# Canonical forms make equality exact: a - b == 0 iff same term dict.
print("cancellation to zero:   ", (t1 - 1) + (1 - t1))

# The text grammar round-trips canonical forms.
print("parsed back:            ", ctx.parse(str(p)) == p)

# Evaluation at a rational point gives back a rational number.
rho = ctx.rational_point([2, 3])
print("p(2, 3) =               ", p.evaluate(rho).as_fraction())

# Torsion points mix a radial rational with a rational angle; the value of
# a polynomial there is an exact element of a cyclotomic field.  Here
# t1 = e^(pi i / 2) = i, so t1^2 evaluates to -1.
quarter_turn = TorsionPoint(ctx, [(Fraction(1), Fraction(1, 4)), (Fraction(1), 0)])
print("t1^2 at a quarter turn: ", (t1**2).evaluate(quarter_turn).as_fraction())

# Monomial substitutions t_i -> lam_i t_i^(n_i) are ring homomorphisms;
# they model twisting by a character and pushing forward along a cover.
# Only fixtures apply them, so they live in jumploci.fixtures.
print("t1 - 1 twisted by 2:    ", substitute(t1 - 1, [(Fraction(2), 1), (Fraction(1), 1)]))
print("t1 - 1 along the square:", substitute(t1 - 1, [(Fraction(1), 2), (Fraction(1), 1)]))
