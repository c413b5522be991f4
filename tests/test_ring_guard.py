"""Every entry point that combines values refuses values of another ring.

Each case builds its values in the ring A = Q[t1^+-1, t2^+-1] and passes
one value of the ring B = Q[t1^+-1] where an A value belongs.
"""

import pytest

from jumploci.complexes import FreeComplex, Matrix
from jumploci.errors import InputError
from jumploci.fixtures import direct_sum, koszul
from jumploci.groebner import LaurentIdeal, variety_containment
from jumploci.lattices import LinearComponent, LinearUnion
from jumploci.laurent import RingContext
from jumploci.loci import LociProfile, membership_at_point

A, B = RingContext.torus(2), RingContext.torus(1)


def _whole(ctx):
    return LinearComponent(ctx, ctx.identity_point(), [])


def _complex(ctx):
    return koszul([ctx.variable(0) - 1])


ENTRY_POINTS = {
    "poly-add": lambda: A.variable(0) + B.variable(0),
    "poly-evaluate": lambda: A.variable(0).evaluate(B.identity_point()),
    "point-product": lambda: A.identity_point() * B.identity_point(),
    "matrix": lambda: Matrix(A, 1, 1, [[B.one()]]),
    "matrix-compose": lambda: Matrix.zero(A, 1, 1).compose(Matrix.zero(B, 1, 1)),
    "matrix-evaluate": lambda: Matrix.zero(A, 0, 2).evaluate(B.identity_point()),
    "free-complex": lambda: FreeComplex(A, -1, 0, [1, 1], {-1: Matrix(B, 1, 1, [[B.one()]])}),
    "direct-sum": lambda: direct_sum(_complex(A), _complex(B)),
    "koszul": lambda: koszul([A.variable(0), B.variable(0)]),
    "ideal": lambda: LaurentIdeal(A, [A.one(), B.one()]),
    "radical-contains": lambda: LaurentIdeal(A, []).radical_contains(B.one()),
    "variety-containment": lambda: variety_containment(LaurentIdeal(A, []), LaurentIdeal(B, [])),
    "linear-component": lambda: LinearComponent(A, B.identity_point(), []),
    "contains-point": lambda: _whole(A).contains_point(B.identity_point()),
    "contains": lambda: _whole(A).contains(_whole(B)),
    "linear-union": lambda: LinearUnion(A, [_whole(A), _whole(B)]),
    "membership-at-point": lambda: membership_at_point(_complex(A), 0, B.identity_point()),
    "profile-loci": lambda: LociProfile(A, {0: LinearUnion(B, [])}),
    "profile-source": lambda: LociProfile(A, {}, source=_complex(B)),
}


@pytest.mark.parametrize("build", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_mixing_rings_raises_input_error(build):
    with pytest.raises(InputError, match="^ring context mismatch$"):
        build()
