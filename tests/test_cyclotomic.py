import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from jumploci.cyclotomic import Cyclotomic, cyclotomic_polynomial, field_rank

from oracles import rational_rank


def test_cyclotomic_polynomials_small_orders():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert len(cyclotomic_polynomial(12)) - 1 == 4  # phi(12) = 4


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a):
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_factor_x_to_the_L_minus_one():
    # x^L - 1 is the product of Phi_d over the divisors d of L, and
    # deg Phi_L is Euler's phi(L), counted here with gcd
    for L in range(1, 301):
        prod = [1]
        for d in range(1, L + 1):
            if L % d == 0:
                phi = cyclotomic_polynomial(d)
                assert all(c.denominator == 1 for c in phi), d
                prod = _poly_product(prod, [int(c) for c in phi])
        assert prod == [-1] + [0] * (L - 1) + [1], L
        totient = sum(1 for k in range(1, L + 1) if gcd(k, L) == 1)
        assert len(cyclotomic_polynomial(L)) - 1 == totient, L


def test_roots_of_unity_relations():
    z = Cyclotomic.root_of_unity(6, 1)
    prod = Cyclotomic.rational(6, 1)
    for _ in range(6):
        prod = prod * z
    assert prod.is_one()
    # zeta_6^3 = -1
    assert Cyclotomic.root_of_unity(6, 3) == Cyclotomic.rational(6, -1)
    # zeta_4^2 = -1
    assert Cyclotomic.root_of_unity(4, 2).as_fraction() == -1


def test_primitive_root_sums():
    # 1 + zeta_3 + zeta_3^2 = 0
    total = (
        Cyclotomic.rational(3, 1)
        + Cyclotomic.root_of_unity(3, 1)
        + Cyclotomic.root_of_unity(3, 2)
    )
    assert total.is_zero()


def test_as_fraction_guard():
    z = Cyclotomic.root_of_unity(4, 1)
    with pytest.raises(ValueError):
        z.as_fraction()
    assert Cyclotomic.rational(1, Fraction(7, 3)).as_fraction() == Fraction(7, 3)


def test_field_rank_rational_case():
    def q(x):
        return Cyclotomic.rational(1, x)

    rows = [[q(1), q(2)], [q(2), q(4)], [q(0), q(1)]]
    assert field_rank(rows) == 2
    assert field_rank([[q(0), q(0)]]) == 0
    assert field_rank([]) == 0


def test_field_rank_with_torsion_entries():
    z = Cyclotomic.root_of_unity(4, 1)  # i
    one = Cyclotomic.rational(4, 1)
    # [[1, i], [i, -1]] has rank 1: second row = i * first row
    rows = [[one, z], [z, z * z]]
    assert field_rank(rows) == 1
    rows = [[one, z], [z, one]]
    assert field_rank(rows) == 2


def test_mixed_orders_raise():
    # no promotion to a common field: elements must share their order
    a = Cyclotomic.root_of_unity(3, 1)
    b = Cyclotomic.root_of_unity(6, 2)  # the same complex number as a
    for op in (operator.add, operator.sub, operator.mul, operator.eq):
        with pytest.raises(ValueError):
            op(a, b)


# -- field_rank against an independent rational-rank oracle ------------------


def _times_zeta(vec, L):
    """zeta_L * vec for a reduced coefficient vector: shift up one degree,
    then cancel the x^phi(L) term with the monic Phi_L."""
    top = vec[-1]
    shifted = [Fraction(0), *vec[:-1]]
    return [s - top * c for s, c in zip(shifted, cyclotomic_polynomial(L))]


def _realify(rows, L):
    """The rational matrix whose rows are the coefficients of zeta^j * row
    for every row and j < phi(L).  These span the row space over
    Q(zeta_L) as a Q-vector space, so its rank is phi(L) * field_rank."""
    out = []
    for row in rows:
        vecs = [list(x.coeffs) for x in row]
        for _ in range(len(cyclotomic_polynomial(L)) - 1):
            out.append([c for v in vecs for c in v])
            vecs = [_times_zeta(v, L) for v in vecs]
    return out


def _random_entry(rng, L):
    z = Cyclotomic.rational(L, 0)
    for _ in range(rng.randint(0, 3)):
        radial = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        z = z + Cyclotomic.root_of_unity(L, rng.randrange(L)).scale(radial)
    return z


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 12, 30])
def test_field_rank_matches_realified_rational_rank(L):
    # (n x k)(k x m) products plant rank drops whenever k < min(n, m)
    rng = random.Random(700 + L)
    phi = len(cyclotomic_polynomial(L)) - 1
    full = dropped = 0
    for _ in range(12):
        n, m, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        a = [[_random_entry(rng, L) for _ in range(k)] for _ in range(n)]
        b = [[_random_entry(rng, L) for _ in range(m)] for _ in range(k)]
        zero = Cyclotomic.rational(L, 0)
        rows = [
            [sum((a[i][t] * b[t][j] for t in range(k)), zero) for j in range(m)]
            for i in range(n)
        ]
        rank = field_rank(rows)
        assert rank <= min(n, m, k)
        assert rational_rank(_realify(rows, L)) == phi * rank, rows
        if rank < min(n, m):
            dropped += 1
        else:
            full += 1
    assert full and dropped


def test_field_rank_divides_out_row_content():
    # with the first row as pivot, the second row becomes
    # 2*[5, 7] - 3*[4, 6] = [-2, -4] (order 1) and 2*[i, 3] - 1*[2i, 4] =
    # [0, 2] (order 4): integer content 2 after the step
    def q(x):
        return Cyclotomic.rational(1, x)

    i = Cyclotomic.root_of_unity(4, 1)
    two, one, three, four = (Cyclotomic.rational(4, x) for x in (2, 1, 3, 4))
    for L, rows in (
        (1, [[q(2), q(4), q(6)], [q(3), q(5), q(7)]]),
        (4, [[two, two * i, four], [one, i, three]]),
    ):
        assert field_rank(rows) == 2
        assert rational_rank(_realify(rows, L)) == 2 * (len(cyclotomic_polynomial(L)) - 1)


def test_order_cap_applies_to_parsed_points_only():
    from jumploci.cyclotomic import MAX_CYCLOTOMIC_ORDER
    from jumploci.errors import ResourceError
    from jumploci.laurent import RingContext, TorsionPoint
    from jumploci.serialize import parse_points_file

    ctx = RingContext.torus(2)
    assert MAX_CYCLOTOMIC_ORDER >= 97  # the benchmark samples order-97 points
    (at_cap,) = parse_points_file(f'[[["1", "1/{MAX_CYCLOTOMIC_ORDER}"], ["1", "0"]]]', ctx)
    assert at_cap.angle_order() == MAX_CYCLOTOMIC_ORDER
    with pytest.raises(ResourceError):
        parse_points_file(f'[[["1", "0"], ["1", "1/{MAX_CYCLOTOMIC_ORDER + 1}"]]]', ctx)
    # a point derived from accepted ones may exceed the cap and is kept
    p97 = TorsionPoint(ctx, [(1, Fraction(1, 97)), (1, 0)])
    p12 = TorsionPoint(ctx, [(1, Fraction(1, 12)), (1, 0)])
    p97_inverse = TorsionPoint(ctx, [(1, Fraction(-1, 97)), (1, 0)])
    assert p97 * p97_inverse == ctx.identity_point()
    assert (p12 * p97_inverse).angle_order() == 12 * 97 > MAX_CYCLOTOMIC_ORDER
