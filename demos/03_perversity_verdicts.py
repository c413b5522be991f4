"""The perversity verdict engine on declared linear loci.

A profile assigns to each degree a finite union of translated subtori.
The verdict checks the two half conditions

    degree i >= 0:  abelian codimension of V^i      >= i
    degree i <= 0:  semi-abelian codimension of V^i >= -i

and reports the auxiliary package: propagation of the loci, the support
interval, survival intervals of degree-zero components, and the signed
Euler characteristic clause.  When the profile carries its source complex,
declared and computed memberships are spot-checked on a seeded sample.
The verdict is the plain report document that `jumploci perversity` prints.
"""

from fractions import Fraction

from jumploci import perversity_verdict, survival_interval
from jumploci.fixtures import (
    induce_fixture,
    mellin_constant_torus,
    shift_fixture,
    twist_fixture,
)

base = mellin_constant_torus(2)
report = perversity_verdict(base.profile, samples=30, seed=0)
print("constant object on the 2-torus:", report["verdict"])
print("  propagation:", report["propagation"]["ok"],
      " support:", report["support_interval"]["ok"],
      " euler:", report["euler"]["status"])

# Shifting the complex one step breaks exactly one side of the t-structure.
for s in (1, -1):
    fx = shift_fixture(base, s)
    rep = perversity_verdict(fx.profile, samples=20, seed=0)
    offenders = [(r["degree"], r["condition"]) for r in rep["violations"]]
    print(f"shift by {s:+d}: {rep['verdict']}, violations at {offenders}")

# Twists translate the loci; inductions fan them out over torsion orbits.
tw = twist_fixture(base, [Fraction(2), Fraction(1, 3)])
print("twist by (2, 1/3):", perversity_verdict(tw.profile, samples=20, seed=0)["verdict"])
ind = induce_fixture(mellin_constant_torus(1), [2])
print("degree-2 induction:", perversity_verdict(ind.profile, samples=20, seed=0)["verdict"])
v0 = ind.profile.locus(0)
print("  its degree-0 locus has", len(v0.components), "point components")

# Survival interval of a degree-zero component: a point on an m-torus
# persists through degrees [-m, 0], and the profile agrees.
comp = base.profile.locus(0).components[0]
res = survival_interval(base.profile, comp)
print("survival interval:", res.predicted, "observed:", res.observed, "match:", res.matches)
