"""Jump loci of a free complex, two ways, plus exactness certificates.

The model object is the Koszul complex on (t1 - 1, t2 - 1): the module-side
shadow of the constant rank-one object on a 2-torus.  Its cohomology jumps
exactly at the identity character, in degrees -2, -1, 0.

Two independent computations of the same locus:

  * the jumping ideal of each degree (minors of the neighboring
    differentials), saturated by the coordinates and analyzed by Groebner
    bases;
  * direct specialization: evaluate the differentials at a point and count
    cohomology ranks by exact linear algebra.
"""

from jumploci import (
    RingContext,
    membership_at_point,
    propagation_check,
    variety_containment,
)
from jumploci.fixtures import koszul, shift_complex

ctx = RingContext.torus(2)
x, y = ctx.variable(0) - 1, ctx.variable(1) - 1
K = koszul([x, y])
print("complex:", K)
print("valid:  ", K.validate() is None)

# Jumping ideals degree by degree; outside [-2, 0] they are the unit ideal.
for degree in range(-3, 2):
    J = K.jumping_ideal(degree)
    basis = J.groebner_basis()
    print(f"  degree {degree:+d}: generators {[str(g) for g in J.generators]}"
          f" -> saturated basis {[str(g) for g in basis]}"
          f" (codim {J.codimension()})")

# The same answer pointwise: the identity jumps, nearby points do not.
ident = ctx.identity_point()
off = ctx.rational_point([2, 1])
for degree in (-2, -1, 0, 1):
    print(f"  H^{degree} at identity: {membership_at_point(K, degree, ident)}"
          f"   at (2,1): {membership_at_point(K, degree, off)}")

# Propagation: loci nest upward to degree 0 and downward after it.
result = propagation_check(K)
print("propagation:", result.ok, f"({result.provenance})")

# Buchsbaum-Eisenbud certificate: negative degrees of the complex and of
# its dual are exact, i.e. the complex could be the transform of a single
# honest object in degree 0.
report = K.exactness()  # the document `jumploci exactness --json` prints
print("negative degrees exact:", report["negative_degrees_exact"])
for row in report["certificate"]:
    print("   ", row)
print("assumption (complex and dual):", report["assumption_holds"])

# Shifting left drags cohomology into degree -1 and the certificate fails.
shifted = shift_complex(K, -1)
print("left shift passes assumption:", shifted.check_assumption())
