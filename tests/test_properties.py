"""Cross-cutting correctness certificates and independence checks.

These tests certify the engines against their own defining properties
(Buchberger's criterion, Hermite canonicity, Kunneth) rather than against
worked examples, and exercise the degradation paths.
"""

import random
from fractions import Fraction

import pytest

from jumploci.complexes import Matrix, generic_rank, minor_generators, primitive_part
from jumploci.cyclotomic import Cyclotomic, field_rank
from jumploci.errors import ResourceError
from jumploci.fixtures import (
    external_tensor,
    induce_complex,
    koszul,
    mellin_constant_torus,
    tensor_fixture,
)
from jumploci.groebner import (
    GREVLEX,
    LaurentIdeal,
    MonomialOrder,
    _lead,
    _reduce,
    _saturate,
    _spoly,
    buchberger,
    elimination_order,
    laurent_to_poly,
    laurent_to_polys,
)
from jumploci.lattices import hermite_normal_form, LinearComponent
from jumploci.laurent import LaurentPoly, RingContext, TorsionPoint
from jumploci.loci import membership_at_point, propagation_check
from jumploci.sampling import sample_points

from fixture_helpers import standard_fixture_suite

LEX = MonomialOrder("lex", tuple)  # exponent tuples compared lexicographically


def _random_laurent(ctx, rng, terms=3, span=2):
    p = ctx.zero()
    for _ in range(terms):
        exp = [rng.randint(-span, span) for _ in range(ctx.num_vars)]
        p = p + ctx.monomial(exp, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def test_buchberger_criterion_certificate():
    # every S-polynomial of the returned basis must reduce to zero against
    # it: that is the definition of a Groebner basis
    rng = random.Random(51)
    ctx = RingContext.torus(2)
    for order in (GREVLEX, LEX):
        for _ in range(15):
            gens = [_random_laurent(ctx, rng) for _ in range(rng.randint(1, 3))]
            polys = [laurent_to_poly(g) for g in gens if not g.is_zero()]
            basis = buchberger(_saturate(polys, 2), order)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = _spoly(
                        basis[i], basis[j], _lead(basis[i], order), _lead(basis[j], order)
                    )
                    assert not _reduce(s, basis, order, [_lead(g, order) for g in basis]), (gens, order.name)


def test_groebner_basis_is_reduced():
    # no lead divides another lead, and no tail term of any element is
    # divisible by any lead
    rng = random.Random(52)
    ctx = RingContext.torus(2)
    for _ in range(15):
        gens = [_random_laurent(ctx, rng) for _ in range(rng.randint(1, 3))]
        basis = [laurent_to_poly(g) for g in LaurentIdeal(ctx, gens).groebner_basis()]
        basis = [g for g in basis if g]
        leads = [_lead(g, GREVLEX)[0] for g in basis]
        for a in range(len(basis)):
            for b in range(len(basis)):
                if a == b:
                    continue
                assert not all(x >= y for x, y in zip(leads[a], leads[b])), "lead divisible"
            for term in basis[a]:
                if term == leads[a]:
                    continue
                for b in range(len(basis)):
                    if b != a:
                        assert not all(x >= y for x, y in zip(term, leads[b]))


def test_membership_soundness_random_combinations():
    # random ring combinations of the generators reduce to zero against the
    # saturated basis
    rng = random.Random(53)
    ctx = RingContext.torus(2)
    for _ in range(10):
        gens = [_random_laurent(ctx, rng) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        ideal = LaurentIdeal(ctx, gens)
        combo = ctx.zero()
        for g in gens:
            combo = combo + _random_laurent(ctx, rng, terms=2) * g
        basis = [laurent_to_poly(g) for g in ideal.groebner_basis()]
        assert not _reduce(laurent_to_poly(combo), basis, GREVLEX, [_lead(g, GREVLEX) for g in basis])


def test_public_elimination_order():
    # eliminating the first variable from (t1 - t2^2, t1 - 1) leaves t2^2 - 1
    ctx = RingContext.torus(2)
    t1, t2 = ctx.variable(0), ctx.variable(1)
    polys = [laurent_to_poly(g) for g in (t1 - t2**2, t1 - 1)]
    elim = elimination_order((0,))
    basis = [LaurentPoly(ctx, g) for g in buchberger(_saturate(polys, 2), elim)]
    only_t2 = [g for g in basis if all(e[0] == 0 for e in g.terms)]
    assert any(g == t2**2 - 1 or g == 1 - t2**2 for g in only_t2)


def test_hermite_canonical_under_unimodular_change():
    rng = random.Random(54)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        h1 = hermite_normal_form(rows, n)
        # apply random elementary row operations: same lattice, new basis
        other = [list(r) for r in rows]
        for _ in range(6):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = rng.choice([-2, -1, 1, 2])
                other[i] = [a + c * b for a, b in zip(other[i], other[j])]
            elif rng.random() < 0.3:
                other[i] = [-a for a in other[i]]
        assert hermite_normal_form(other, n) == h1


def test_mixed_lattice_codims():
    # a genuinely mixed annihilator (one vector spanning torus and abelian
    # directions, one abelian) on a (m, g) = (1, 1) group
    ctx = RingContext.mixed(1, 1)
    comp = LinearComponent(ctx, ctx.identity_point(), [[1, 1, 0], [0, 0, 1]])
    d, g2, sa = comp.codims()
    assert (d, g2, sa) == (2, 1, 1)
    assert comp.kernel_torus_rank() == 0


def test_minor_value_functoriality():
    # symbolic k x k minors evaluated at a point equal the numeric
    # determinants of the evaluated matrix, as multisets of values
    from itertools import combinations

    rng = random.Random(55)
    ctx = RingContext.torus(2)
    entries = [[_random_laurent(ctx, rng, terms=2, span=1) for _ in range(3)] for _ in range(3)]
    # the integer rows the kernel runs on: each row of the matrix times a unit
    scaled = [laurent_to_polys(row) for row in entries]
    mat = Matrix.from_rows(ctx, [[LaurentPoly(ctx, p) for p in row] for row in scaled])
    point = TorsionPoint(ctx, [(Fraction(2), Fraction(1, 3)), (Fraction(1, 2), Fraction(0))])
    evaluated = mat.evaluate(point)

    def numeric_det(rows_idx, cols_idx):
        n = len(rows_idx)
        if n == 1:
            return evaluated[rows_idx[0]][cols_idx[0]]
        total = None
        for pos in range(n):
            sub = numeric_det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1 :])
            term = evaluated[rows_idx[0]][cols_idx[pos]] * sub
            if pos % 2:
                term = -term
            total = term if total is None else total + term
        return total

    from jumploci.complexes import _det

    for k in (1, 2, 3):
        memo = {}
        for rows in combinations(range(3), k):
            for cols in combinations(range(3), k):
                symbolic = LaurentPoly(ctx, _det(scaled, rows, cols, memo))
                assert symbolic.evaluate(point) == numeric_det(list(rows), list(cols))


def test_products_of_canonical_generators_are_canonical():
    # jumping_ideal keeps f*g as it is: the product of two polynomials in
    # canonical form (primitive_part) is in canonical form again
    rng = random.Random(57)
    ctx = RingContext.torus(3)
    for _ in range(40):
        f, g = (_random_laurent(ctx, rng, terms=rng.randint(1, 4)) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        f, g = (LaurentPoly(ctx, primitive_part(laurent_to_poly(p))) for p in (f, g))
        h = f * g
        assert LaurentPoly(ctx, primitive_part(laurent_to_poly(h))) == h
    # and so is every generator jumping_ideal forms from canonical minors
    tensor22 = tensor_fixture(mellin_constant_torus(2), mellin_constant_torus(2, 2))
    cases = [(fx.complex, fx.complex.degrees()) for fx in standard_fixture_suite() + [tensor22]]
    for cx, degrees in cases + [(mellin_constant_torus(5).complex, [-4])]:
        for i in degrees:
            for h in cx.jumping_ideal(i).generators:
                assert LaurentPoly(cx.context, primitive_part(laurent_to_poly(h))) == h


def test_bareiss_with_negative_exponents():
    rng = random.Random(56)
    ctx = RingContext.torus(2)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        mat = Matrix.from_rows(
            ctx,
            [
                [_random_laurent(ctx, rng, terms=rng.randint(0, 2)) for _ in range(ncols)]
                for _ in range(nrows)
            ],
        )
        grank = generic_rank(mat)
        best = 0
        for _ in range(6):
            pt = ctx.rational_point(
                [Fraction(rng.randint(1, 40), rng.randint(1, 11)) for _ in range(2)]
            )
            srank = field_rank(mat.evaluate(pt))
            assert srank <= grank
            best = max(best, srank)
        assert best == grank  # some sampled point attains the generic rank


def test_tensor_with_abelian_factor():
    # tensor a torus fixture with a complex over an abelian context; the
    # combined context interleaves torus-first, and pointwise memberships
    # multiply by the Kunneth rule
    torus_fx = mellin_constant_torus(1)
    ab_ctx = RingContext(["u1", "u2"], 0, 1)
    ab_cx = koszul([ab_ctx.variable(0) - 1, ab_ctx.variable(1) - 1])
    combined = external_tensor(torus_fx.complex, ab_cx)
    assert combined.validate() is None
    ctx = combined.context
    assert ctx.torus_rank == 1 and ctx.abelian_rank == 1
    assert ctx.var_names == ("t1", "u1", "u2")
    assert combined.ranks == (1, 3, 3, 1)
    rng = random.Random(57)
    pts = sample_points(ctx, rng, 15)
    for p in pts:
        left = TorsionPoint(torus_fx.complex.context, [p.coords[0]])
        right = TorsionPoint(ab_ctx, list(p.coords[1:]))
        for degree in range(combined.k_min, combined.k_max + 1):
            expect = any(
                membership_at_point(torus_fx.complex, i, left)[0]
                and membership_at_point(ab_cx, degree - i, right)[0]
                for i in range(-1, 1)
            )
            assert membership_at_point(combined, degree, p)[0] == expect


def test_propagation_past_the_minor_cap_raises():
    # ranks of 6 blow the minor-size cap; propagation is decided exactly or
    # not at all
    big = induce_complex(mellin_constant_torus(1).complex, [6])
    with pytest.raises(ResourceError):
        propagation_check(big)


def test_cyclotomic_orders_do_not_mix():
    # a rational point reached as a torsion point with angle 0 evaluates to
    # the same order-1 value; elements of different orders are never
    # promoted to a common field, so comparing or combining them raises
    rng = random.Random(59)
    ctx = RingContext.torus(1)
    t = ctx.variable(0)
    p = t**2 + 1 - t
    rational = ctx.rational_point([Fraction(3, 2)])
    as_l1 = p.evaluate(rational)
    as_l6 = p.evaluate(TorsionPoint(ctx, [(Fraction(3, 2), Fraction(0))]))
    assert as_l1 == as_l6
    a = Cyclotomic.root_of_unity(3, 1)
    b = Cyclotomic.root_of_unity(6, 2)
    with pytest.raises(ValueError):
        a == b  # noqa: B015
    with pytest.raises(ValueError):
        a + Cyclotomic.rational(2, 1)
