import random
from fractions import Fraction

import pytest

from jumploci.complexes import FreeComplex, Matrix
from jumploci.errors import InputError
from jumploci.fixtures import (
    direct_sum,
    induce_complex,
    koszul,
    mellin_constant_torus,
    shift_complex,
    twist_complex,
)
from jumploci.groebner import LaurentIdeal, variety_containment
from jumploci.laurent import RingContext, TorsionPoint
from jumploci.loci import (
    depth_bounds,
    membership_at_point,
    propagation_check,
    radical_equality_pairs,
)
from jumploci.sampling import sample_points
from jumploci.serialize import is_whole_space

from fixture_helpers import standard_fixture_suite


def _koszul(m):
    ctx = RingContext.torus(m)
    return koszul([ctx.variable(i) - 1 for i in range(m)])


def test_jump_locus_ideal_koszul_m2():
    K = _koszul(2)
    ctx = K.context
    point = LaurentIdeal(ctx, [ctx.variable(0) - 1, ctx.variable(1) - 1])
    J0 = K.jumping_ideal(0)
    assert variety_containment(J0, point) and variety_containment(point, J0)
    assert K.jumping_ideal(1).is_unit_ideal()  # top degree has no jumps
    assert K.jumping_ideal(-3).is_unit_ideal()  # out of range


def test_membership_examples_m1():
    K = _koszul(1)
    ctx = K.context
    assert membership_at_point(K, 0, ctx.identity_point()) == (True, 1)
    assert membership_at_point(K, -1, ctx.identity_point()) == (True, 1)
    assert membership_at_point(K, 0, ctx.rational_point([2])) == (False, 0)
    assert membership_at_point(K, 5, ctx.identity_point()) == (False, 0)


def test_membership_induced_cover():
    K = _koszul(1)
    ctx = K.context
    ind = induce_complex(K, [2])
    minus_one = TorsionPoint(ctx, [(Fraction(1), Fraction(1, 2))])
    assert membership_at_point(ind, 0, minus_one) == (True, 1)
    assert membership_at_point(ind, 0, ctx.rational_point([2]))[0] is False


def test_membership_context_guard():
    K = _koszul(2)
    with pytest.raises(InputError):
        membership_at_point(K, 0, RingContext.torus(1).identity_point())


def test_euler_examples():
    assert _koszul(1).euler_characteristic() == 0
    assert _koszul(2).euler_characteristic() == 0
    K = _koszul(1)
    single = FreeComplex(K.context, 0, 0, [1], {})
    assert direct_sum(K, single).euler_characteristic() == 1


def test_euler_equals_pointwise_alternating_sum():
    rng = random.Random(31)
    K = _koszul(2)
    pts = sample_points(K.context, rng, 25)
    for p in pts:
        alt = sum(
            (-1 if d % 2 else 1) * membership_at_point(K, d, p)[1]
            for d in range(K.k_min, K.k_max + 1)
        )
        assert alt == K.euler_characteristic()


def test_whole_space_detection():
    ctx = RingContext.torus(2)
    assert is_whole_space(LaurentIdeal(ctx, []))
    assert is_whole_space(LaurentIdeal(ctx, [ctx.zero()]))
    assert not is_whole_space(LaurentIdeal(ctx, [ctx.variable(0) - 1]))
    # degree-0 rank-1 free module: whole-space jump locus
    single = FreeComplex(ctx, 0, 0, [1], {})
    assert is_whole_space(single.jumping_ideal(0))


def test_propagation_koszul_pass():
    result = propagation_check(_koszul(2))
    assert result.ok and result.provenance == "exact"
    assert result.first_violation is None
    assert all(holds for _, _, holds in result.checked_pairs)


@pytest.mark.parametrize(
    "lo, expected",
    [
        pytest.param(-2, [(-2, -1, True), (-1, 0, True)], id="degrees-below-zero"),
        pytest.param(1, [(0, 1, True), (1, 2, True)], id="degrees-above-zero"),
    ],
)
def test_propagation_on_complexes_missing_degree_zero(lo, expected):
    # an exact complex k[lo] -> k[lo + 1] with identity differential: the
    # chain still runs through degree 0, where the locus is empty
    ctx = RingContext.torus(1)
    cx = FreeComplex(ctx, lo, lo + 1, [1, 1], {lo: Matrix.from_rows(ctx, [[ctx.one()]])})
    result = propagation_check(cx)
    assert result.ok and result.first_violation is None
    assert result.checked_pairs == expected


def test_propagation_requires_assumption():
    K = _koszul(2)
    with pytest.raises(InputError):
        propagation_check(shift_complex(K, -1))


def test_propagation_gate_rejects_invalid():
    ctx = RingContext.torus(1)
    t = ctx.variable(0)
    bad = FreeComplex(
        ctx,
        -1,
        1,
        [1, 1, 1],
        {-1: Matrix.from_rows(ctx, [[t]]), 0: Matrix.from_rows(ctx, [[t]])},
    )
    with pytest.raises(InputError):
        propagation_check(bad)


def test_radical_equality_on_fixture():
    K = _koszul(2)
    pairs = radical_equality_pairs(K)
    assert pairs and all(eq for _, eq in pairs)


def test_fitting_variety_lies_in_the_jumping_variety_on_the_stock():
    # the containment radical_equality_pairs leaves out, as J_i lies in F_i
    # by construction: here it cross-checks the Groebner engine
    for fx in standard_fixture_suite():
        cx = fx.complex
        for i in cx.degrees():
            assert variety_containment(cx.fitting_ideal(i), cx.jumping_ideal(i)), (fx.name, i)


def test_depth_bounds_on_fixture():
    for m in (1, 2):
        rows = depth_bounds(_koszul(m))
        assert all(ok for *_, ok in rows)
        by_degree = {r[0]: r[1] for r in rows}
        assert by_degree[-m] == m  # the point locus has full codimension


def test_shift_covariance_pointwise():
    rng = random.Random(32)
    K = _koszul(2)
    S = shift_complex(K, 2)
    pts = sample_points(K.context, rng, 15)
    for p in pts:
        for d in range(K.k_min - 1, K.k_max + 2):
            assert membership_at_point(K, d, p) == membership_at_point(S, d + 2, p)


def test_twist_equivariance_pointwise():
    rng = random.Random(33)
    K = _koszul(2)
    lams = [Fraction(2), Fraction(1, 3)]
    T = twist_complex(K, lams)
    scale = K.context.rational_point(lams)
    pts = sample_points(K.context, rng, 15)
    for p in pts:
        moved = p * scale
        for d in range(K.k_min, K.k_max + 1):
            assert membership_at_point(T, d, p) == membership_at_point(K, d, moved)


def test_cover_image_pointwise():
    # membership in the induced complex at rho holds iff some point with the
    # same n-th power lies in the original locus
    K = _koszul(1)
    ctx = K.context
    n = 3
    ind = induce_complex(K, [n])
    for k in range(12):
        theta = Fraction(k, 12)
        rho = TorsionPoint(ctx, [(Fraction(1), theta)])
        member, _ = membership_at_point(ind, 0, rho)
        orbit = [
            TorsionPoint(ctx, [(Fraction(1), theta + Fraction(j, n))]) for j in range(n)
        ]
        original = any(membership_at_point(K, 0, mu)[0] for mu in orbit)
        assert member == original


def test_direct_sum_union_pointwise():
    rng = random.Random(34)
    K = _koszul(2)
    T = twist_complex(K, [Fraction(2), Fraction(-1)])
    S = direct_sum(K, T)
    pts = sample_points(K.context, rng, 20)
    for p in pts:
        for d in range(S.k_min, S.k_max + 1):
            lhs = membership_at_point(S, d, p)[0]
            rhs = membership_at_point(K, d, p)[0] or membership_at_point(T, d, p)[0]
            assert lhs == rhs


def test_pointwise_matches_ideal_vanishing():
    rng = random.Random(35)
    for m in (1, 2):
        K = _koszul(m)
        pts = sample_points(K.context, rng, 40)
        for d in range(K.k_min - 1, K.k_max + 2):
            gens = K.jumping_ideal(d).generators
            for p in pts:
                vanishes = all(g.evaluate(p).is_zero() for g in gens)
                assert membership_at_point(K, d, p)[0] == vanishes
