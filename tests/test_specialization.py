"""The integer specialization kernel against the Fraction path it replaced.

A Laurent polynomial is specialized at a torsion point from the point's
character table (angle order L, integer angle steps, radial parts), and only
the zeta_L powers that occur are accumulated before the reduction mod Phi_L.
The Fraction path computed the radial product and the angle sum of every
monomial as Fractions and reduced a dense vector of L Fraction slots.  A copy
of that path is kept here as the reference: values must agree coefficient
for coefficient, and so must the characters in polar form.  The
pointwise membership test caches the rank of each differential at each point
on the complex; cached answers must equal those of a freshly loaded complex.
"""

import math
import random
from fractions import Fraction

import pytest

from jumploci import loci, serialize
from jumploci.cyclotomic import MAX_CYCLOTOMIC_ORDER, cyclotomic_polynomial
from jumploci.laurent import RingContext, TorsionPoint
from jumploci.loci import membership_at_point
from jumploci.sampling import sample_points

from fixture_helpers import standard_fixture_suite


# -- the Fraction path, as it was --------------------------------------------------


def _old_character(point, exponent):
    radial = Fraction(1)
    angle = Fraction(0)
    for (q, theta), k in zip(point.coords, exponent):
        radial *= q**k
        angle += k * theta
    return radial, angle


def _old_reduced(order, dense):
    """Dense Fraction vector reduced mod Phi_L and padded to phi(L)."""
    phi = cyclotomic_polynomial(order)
    n = len(phi) - 1
    vec = [Fraction(c) for c in dense]
    for k in range(len(vec) - 1, n - 1, -1):
        c = vec[k]
        if c:
            for j in range(n):
                if phi[j]:
                    vec[k - n + j] -= c * phi[j]
    del vec[n:]
    vec += [Fraction(0)] * (n - len(vec))
    return tuple(vec)


def _old_evaluate(poly, point):
    L = point.angle_order()
    coeffs = [Fraction(0)] * L
    for exp, c in poly.terms.items():
        radial, angle = _old_character(point, exp)
        k = angle * L
        assert k.denominator == 1
        coeffs[int(k) % L] += c * radial
    return L, _old_reduced(L, coeffs)


# -- random inputs -------------------------------------------------------------------

# unit and nonunit radial parts; the negative ones fold 1/2 into the angle
_RADIALS = [Fraction(v) for v in ("1", "1", "1", "2", "1/3", "-1", "-1", "-5/2", "7/4")]


def _random_point(ctx, rng, max_den=97):
    """Angle denominators drawn from 1..max_den independently per
    coordinate, redrawn until the angle order is within the cap on file
    input."""
    while True:
        dens = [rng.randint(1, max_den) for _ in range(ctx.num_vars)]
        if math.lcm(2, *dens) <= MAX_CYCLOTOMIC_ORDER:
            break
    coords = [(rng.choice(_RADIALS), Fraction(rng.randrange(-d, 2 * d), d)) for d in dens]
    return TorsionPoint(ctx, coords)


def _random_poly(ctx, rng):
    p = ctx.zero()
    for _ in range(rng.randint(0, 6)):
        exp = [rng.randint(-4, 4) for _ in range(ctx.num_vars)]
        p = p + ctx.monomial(exp, Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
    return p


CONTEXTS = [RingContext.torus(1), RingContext.torus(3), RingContext.mixed(1, 1)]


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_evaluate_matches_the_fraction_path(ctx):
    rng = random.Random(f"evaluate:{ctx!r}")
    orders = set()
    for _ in range(60):
        point = _random_point(ctx, rng)
        polys = [_random_poly(ctx, rng), _random_poly(ctx, rng), ctx.zero()]
        # one polynomial at a time and all of them at once
        for values in ([poly.evaluate(point) for poly in polys], point.values(polys)):
            for poly, value in zip(polys, values, strict=True):
                assert (value.order, value.coeffs) == _old_evaluate(poly, point), (poly, point)
                assert all(type(c) is Fraction for c in value.coeffs)
        orders.add(point.angle_order())
    # the draws spread over many angle orders, beyond 97 with mixed ones
    assert len(orders) > 20
    assert max(orders) > 97 or ctx.num_vars == 1


@pytest.mark.parametrize("ctx", CONTEXTS, ids=repr)
def test_character_is_trivial_matches_the_fraction_path(ctx):
    rng = random.Random(f"trivial:{ctx!r}")
    trivial = 0
    for _ in range(400):
        # small angle orders, so that some characters are trivial
        point = _random_point(ctx, rng, max_den=rng.choice([3, 97]))
        k = [rng.randint(-4, 4) for _ in range(ctx.num_vars)]
        radial, angle = _old_character(point, k)
        expected = radial == 1 and angle.denominator == 1
        assert point.character(k) == (angle - math.floor(angle), radial), (point, k)
        assert (point.character(k) == (0, 1)) == expected, (point, k)
        assert ctx.monomial(k).evaluate(point).is_one() == expected, (point, k)
        trivial += expected
    assert 0 < trivial < 400


# -- the rank cache ------------------------------------------------------------------


def _points(fx, rng):
    """Seeded sample points, which include points on the declared loci,
    plus every declared component's translate, where ranks drop."""
    pts = sample_points(fx.complex.context, rng, 6, loci=list(fx.profile.loci.values()))
    for union in fx.profile.loci.values():
        for comp in union.components:
            pts.append(comp.translate)
    return pts


@pytest.fixture(scope="module")
def stock():
    return standard_fixture_suite()


@pytest.mark.parametrize("index", range(27))
def test_cached_membership_equals_fresh_complex(stock, index, monkeypatch):
    fx = stock[index]
    cx = fx.complex
    text = serialize.dump_complex(cx)
    rng = random.Random(f"cache:{index}")
    calls = []
    real_field_rank = loci.field_rank

    def counting_field_rank(rows):
        calls.append(1)
        return real_field_rank(rows)

    lo, hi = cx.k_min - 1, cx.k_max + 1
    dropped = 0
    for p in _points(fx, rng):
        monkeypatch.setattr(loci, "field_rank", counting_field_rank)
        del calls[:]
        cached = [membership_at_point(cx, d, p) for d in range(lo, hi + 1)]
        again = [membership_at_point(cx, d, p) for d in range(hi, lo - 1, -1)]
        # every differential touched is specialized and ranked once
        touched = {i for d in range(lo, hi + 1) if cx.rank(d) for i in (d - 1, d)}
        assert len(calls) <= len(touched)
        monkeypatch.setattr(loci, "field_rank", real_field_rank)
        fresh = [membership_at_point(serialize.load_complex(text), d, p) for d in range(lo, hi + 1)]
        assert cached == fresh == again[::-1], (fx.name, p)
        declared = [fx.profile.locus(d).contains_point(p) for d in range(lo, hi + 1)]
        assert [m for m, _ in cached] == declared, (fx.name, p)
        dropped += any(declared)
    assert dropped, fx.name
