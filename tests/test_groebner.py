import math
import random
from fractions import Fraction

import pytest

from jumploci.errors import ResourceError
from jumploci.groebner import (
    GREVLEX,
    LaurentIdeal,
    MonomialOrder,
    reduce_against_saturation,
    variety_containment,
)
from jumploci.laurent import RingContext


@pytest.fixture
def ctx2():
    return RingContext.torus(2)


def gens2(ctx2):
    return ctx2.variable(0) - 1, ctx2.variable(1) - 1


def test_basis_single_generator():
    ctx = RingContext.torus(1)
    ideal = LaurentIdeal(ctx, [ctx.variable(0) - 1])
    assert [str(g) for g in ideal.groebner_basis()] == ["t1 - 1"]


def test_basis_unit_ideal(ctx2):
    t1 = ctx2.variable(0)
    ideal = LaurentIdeal(ctx2, [t1, 1 - t1])
    basis = ideal.groebner_basis()
    assert len(basis) == 1 and basis[0].is_one()
    assert ideal.is_unit_ideal()


def test_basis_s_polynomial_reduction(ctx2):
    t1, t2 = ctx2.variable(0), ctx2.variable(1)
    ideal = LaurentIdeal(ctx2, [t1 - 1, t1 * t2 - 1])
    assert sorted(str(g) for g in ideal.groebner_basis("grevlex")) == ["t1 - 1", "t2 - 1"]


def test_saturation_correctness(ctx2):
    # every generator times any power of the coordinate product reduces to 0
    x, y = gens2(ctx2)
    u = ctx2.variable(0) * ctx2.variable(1)
    ideal = LaurentIdeal(ctx2, [x * y, x**2 - x])
    for g in ideal.generators:
        for k in range(0, 3):
            nf = reduce_against_saturation(ideal, g * u**k)
            assert nf.is_zero()


def test_saturation_strips_monomial_factors(ctx2):
    x, _ = gens2(ctx2)
    t1 = ctx2.variable(0)
    plain = LaurentIdeal(ctx2, [x])
    scaled = LaurentIdeal(ctx2, [t1**3 * x])
    assert [str(g) for g in plain.groebner_basis()] == [
        str(g) for g in scaled.groebner_basis()
    ]


def test_radical_membership_examples(ctx2):
    x, y = gens2(ctx2)
    assert LaurentIdeal(ctx2, [x]).radical_contains((x) ** 2)
    assert not LaurentIdeal(ctx2, [x]).radical_contains(y)
    sq = LaurentIdeal(ctx2, [x**2, y**2])
    assert sq.radical_contains(x * y)  # (xy)^2 in the ideal
    t1, t2 = ctx2.variable(0), ctx2.variable(1)
    assert sq.radical_contains(t1 * t2 - t1 - t2 + 1)


def test_radical_membership_edge_ideals(ctx2):
    x, _ = gens2(ctx2)
    zero = LaurentIdeal(ctx2, [])
    assert zero.radical_contains(ctx2.zero())
    assert not zero.radical_contains(x)
    unit = LaurentIdeal(ctx2, [ctx2.one()])
    assert unit.radical_contains(x)


def test_codimension_examples(ctx2):
    x, y = gens2(ctx2)
    assert LaurentIdeal(ctx2, [x, y]).codimension() == 2
    assert LaurentIdeal(RingContext.torus(3), []).codimension() == 0
    # a coordinate is a unit in the Laurent ring
    ctx1 = RingContext.torus(1)
    assert LaurentIdeal(ctx1, [ctx1.variable(0)]).codimension() == math.inf
    assert LaurentIdeal(ctx2, [x]).codimension() == 1
    assert LaurentIdeal(ctx2, [x * y]).codimension() == 1


def test_codimension_monotone(ctx2):
    rng = random.Random(5)
    x, y = gens2(ctx2)
    pool = [x, y, x * y, x + y - 2, x**2, y**3, x * y - x]
    for _ in range(25):
        k = rng.randint(1, 3)
        gens = [rng.choice(pool) for _ in range(k)]
        small = LaurentIdeal(ctx2, gens)
        large = LaurentIdeal(ctx2, gens + [rng.choice(pool)])
        assert small.codimension() <= large.codimension()


def test_variety_containment_examples(ctx2):
    x, y = gens2(ctx2)
    point = LaurentIdeal(ctx2, [x, y])
    line = LaurentIdeal(ctx2, [x])
    assert variety_containment(point, line)
    assert not variety_containment(line, LaurentIdeal(ctx2, [y]))
    a = LaurentIdeal(ctx2, [x * y])
    b = LaurentIdeal(ctx2, [x * y**3])
    assert variety_containment(a, b) and variety_containment(b, a)


def test_radical_membership_pointwise_oracle(ctx2):
    # members of the radical must vanish on sampled common zeros
    rng = random.Random(7)
    x, y = gens2(ctx2)
    t1, t2 = ctx2.variable(0), ctx2.variable(1)
    cases = [
        (LaurentIdeal(ctx2, [x, y]), lambda r: ctx2.identity_point()),
        (
            LaurentIdeal(ctx2, [x]),
            lambda r: ctx2.rational_point([1, Fraction(r.randint(1, 9), r.randint(1, 5))]),
        ),
        (
            LaurentIdeal(ctx2, [x * y]),
            lambda r: ctx2.rational_point(
                [1, Fraction(r.randint(1, 9))]
                if r.random() < 0.5
                else [Fraction(r.randint(1, 9)), 1]
            ),
        ),
    ]
    probes = [x, y, x * y, x + y - 2, (x - y) ** 2, t1 * t2 - 1]
    for ideal, sampler in cases:
        for f in probes:
            if ideal.radical_contains(f):
                for _ in range(100):
                    zero_pt = sampler(rng)
                    assert f.evaluate(zero_pt).is_zero()


def test_determinism_repeated_runs(ctx2):
    x, y = gens2(ctx2)
    gens = [x * y - x, y**2 - 1, x**2 * y - y]
    runs = []
    for _ in range(3):
        ideal = LaurentIdeal(ctx2, gens)
        runs.append(tuple(str(g) for g in ideal.groebner_basis("grevlex")))
    assert runs[0] == runs[1] == runs[2]
    lex_runs = [
        tuple(str(g) for g in LaurentIdeal(ctx2, gens).groebner_basis("lex"))
        for _ in range(2)
    ]
    assert lex_runs[0] == lex_runs[1]


def test_spair_budget_enforced(ctx2):
    x, y = gens2(ctx2)
    gens = [x**3 * y - x, y**3 - x * y + 1, x**2 * y**2 - 3]
    with pytest.raises(ResourceError):
        LaurentIdeal(ctx2, gens).groebner_basis("grevlex", budget=1)


def test_order_tags():
    assert GREVLEX.tag == "grevlex"
    elim = MonomialOrder("elim", (2,))
    key_inside = elim.key((0, 0, 1))
    key_outside = elim.key((5, 5, 0))
    assert key_inside > key_outside  # block variable dominates
