import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from jumploci import complexes
from jumploci.complexes import (
    FreeComplex,
    Matrix,
    exact_divide,
    generic_rank,
    minor_generators,
)
from jumploci.cyclotomic import field_rank
from jumploci.errors import InputError, ResourceError
from jumploci.fixtures import (
    direct_sum,
    external_tensor,
    induce_complex,
    induce_fixture,
    koszul,
    mellin_constant_torus,
    shift_complex,
    shift_fixture,
    substitute,
    sum_fixture,
    tensor_fixture,
    twist_complex,
    twist_fixture,
)
from jumploci.groebner import LaurentIdeal, variety_containment
from jumploci.laurent import LaurentPoly, RingContext, TorsionPoint
from jumploci.loci import radical_equality_pairs
from jumploci.serialize import jump_ideal_report

from fixture_helpers import standard_fixture_suite
from oracles import dual_complex


@pytest.fixture
def ctx2():
    return RingContext.torus(2)


def _minors(matrix, k):
    """minor_generators(matrix, k) as Laurent polynomials."""
    return [LaurentPoly(matrix.context, p) for p in minor_generators(matrix, k)]


def _koszul2(ctx2):
    x, y = ctx2.variable(0) - 1, ctx2.variable(1) - 1
    return koszul([x, y])


def _two_term(ctx, entry):
    return FreeComplex(ctx, -1, 0, [1, 1], {-1: Matrix.from_rows(ctx, [[entry]])})


def test_validate_koszul_ok(ctx2):
    assert _koszul2(ctx2).validate() is None


def test_validate_reports_nonzero_composite():
    ctx = RingContext.torus(1)
    t = ctx.variable(0)
    bad = FreeComplex(
        ctx,
        -1,
        1,
        [1, 1, 1],
        {-1: Matrix.from_rows(ctx, [[t]]), 0: Matrix.from_rows(ctx, [[t]])},
    )
    assert bad.validate() == "composite differential d^0 . d^-1 is nonzero at entry (0,0): t1^2"
    with pytest.raises(InputError):
        bad.jumping_ideal(0)


def test_validate_empty_complex():
    ctx = RingContext.torus(1)
    empty = FreeComplex(ctx, 0, 0, [0], {})
    assert empty.validate() is None


def test_shape_mismatch_rejected(ctx2):
    with pytest.raises(InputError):
        FreeComplex(ctx2, -1, 0, [2, 1], {-1: Matrix.zero(ctx2, 1, 1)})


def test_generic_rank_examples(ctx2):
    x, y = ctx2.variable(0) - 1, ctx2.variable(1) - 1
    assert generic_rank(Matrix.zero(ctx2, 3, 2)) == 0
    assert generic_rank(Matrix.from_rows(ctx2, [[x, y]])) == 1
    assert generic_rank(Matrix.from_rows(ctx2, [[-y], [x]])) == 1
    K = _koszul2(ctx2)
    assert K.rank_of_differential(-2) == 1
    assert K.rank_of_differential(-1) == 1


def test_generic_rank_vs_sampled_rank(ctx2):
    # sampled rank at a point never exceeds the generic rank, and agrees
    # generically
    rng = random.Random(21)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        entries = []
        for _ in range(nrows):
            row = []
            for _ in range(ncols):
                p = ctx2.zero()
                for _ in range(rng.randint(0, 2)):
                    exp = [rng.randint(-2, 2) for _ in range(2)]
                    row_coeff = Fraction(rng.randint(-3, 3))
                    p = p + ctx2.monomial(exp, row_coeff)
                row.append(p)
            entries.append(row)
        mat = Matrix.from_rows(ctx2, entries)
        grank = generic_rank(mat)
        hits = 0
        for _ in range(5):
            pt = ctx2.rational_point(
                [Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(2)]
            )
            srank = field_rank(mat.evaluate(pt))
            assert srank <= grank
            if srank == grank:
                hits += 1
        assert hits > 0  # random rational points are generic in practice


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_exact_divide_round_trip():
    # exact division of integer polynomials undoes multiplication
    rng = random.Random(22)
    for _ in range(60):
        def rand_poly():
            p = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                p[e] = p.get(e, 0) + rng.randint(-4, 4)
            return {e: c for e, c in p.items() if c}

        a, b = rand_poly(), rand_poly()
        if not b:
            continue
        assert exact_divide(_poly_mul(a, b), b) == a


@pytest.mark.parametrize(
    "p, d",
    [
        ({(1, 0): 1, (0, 0): 1}, {(1, 0): 2}),  # 2 does not divide the lead coefficient
        ({(0, 1): 1}, {(1, 0): 1}),  # t1 does not divide t2
        ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): -1}),  # t1^2 + 1 = (t1 + 1)(t1 - 1) + 2
    ],
)
def test_exact_divide_refuses_an_inexact_quotient(p, d):
    with pytest.raises(ArithmeticError):
        exact_divide(p, d)


def test_determinantal_ideal_conventions(ctx2):
    x, y = ctx2.variable(0) - 1, ctx2.variable(1) - 1
    M = Matrix.from_rows(ctx2, [[x, y]])
    assert _minors(M, 0) == [ctx2.one()]  # the empty minor: unit ideal
    assert _minors(M, 2) == []  # no 2x2 minors of a 1x2 matrix
    assert sorted(str(g) for g in _minors(M, 1)) == ["t1 - 1", "t2 - 1"]


def test_minor_size_cap(ctx2):
    big = Matrix.zero(ctx2, 6, 6)
    with pytest.raises(ResourceError):
        minor_generators(big, 6)


def test_minor_evaluate_functoriality(ctx2):
    # evaluating entries then taking minors equals taking minors then
    # evaluating, at torsion points
    rng = random.Random(23)
    x, y = ctx2.variable(0) - 1, ctx2.variable(1) - 1
    M = Matrix.from_rows(
        ctx2,
        [[x * y, y + 2, x - y], [ctx2.one(), x, y**2], [y, ctx2.const(3), x * x]],
    )
    for _ in range(10):
        pt = TorsionPoint(
            ctx2,
            [
                (Fraction(rng.randint(1, 5)), Fraction(rng.choice([0, 1, 1, 2]), rng.choice([1, 2, 3, 4])))
                for _ in range(2)
            ],
        )
        for k in (1, 2, 3):
            symbolic = _minors(M, k)
            evaluated_rows = M.evaluate(pt)
            # brute-force: all k x k minors of the evaluated cyclotomic matrix
            from itertools import combinations

            def cyc_det(rows_idx, cols_idx):
                import jumploci.cyclotomic as cy

                sub = [[evaluated_rows[r][c] for c in cols_idx] for r in rows_idx]
                n = len(sub)
                if n == 1:
                    return sub[0][0]
                total = None
                for pos in range(n):
                    minor = cyc_det(
                        rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1 :]
                    )
                    term = sub[0][pos] * minor
                    if pos % 2:
                        term = -term
                    total = term if total is None else total + term
                return total

            symbolic_values = {
                True: set(),
            }
            sym_vanish_all = all(g.evaluate(pt).is_zero() for g in symbolic)
            num_vanish_all = all(
                cyc_det(list(rows), list(cols)).is_zero()
                for rows in combinations(range(3), k)
                for cols in combinations(range(3), k)
            )
            assert sym_vanish_all == num_vanish_all


def test_fitting_and_jumping_two_term():
    ctx = RingContext.torus(1)
    x = ctx.variable(0) - 1
    C = _two_term(ctx, x)
    I0, J0 = C.fitting_ideal(0), C.jumping_ideal(0)
    Im1, Jm1 = C.fitting_ideal(-1), C.jumping_ideal(-1)
    assert [str(g) for g in J0.generators] == ["t1 - 1"]
    assert [str(g) for g in Jm1.generators] == ["t1 - 1"]
    assert [str(g) for g in Im1.generators] == ["t1 - 1"]
    out_i, out_j = C.fitting_ideal(7), C.jumping_ideal(7)
    assert out_i.is_unit_ideal() and out_j.is_unit_ideal()


def _sentinel_jumping_generators(cx, i):
    """The jumping-ideal expansion written with None for the unit ideal:
    the generator tuple, or None for the unit ideal."""

    def minors(matrix, k):
        return None if k == 0 else _minors(matrix, k)

    def product(a, b):
        if a == [] or b == []:
            return []
        if a is None or b is None:
            return None if a is None and b is None else list(b if a is None else a)
        out = []
        for f in a:
            for g in b:
                h = _oracle_unit_normalize(f * g)
                if h not in out:
                    out.append(h)
        return out

    total = []
    r = cx.rank(i)
    for j in range(r + 1):
        prod = product(minors(cx.differential(i - 1), j), minors(cx.differential(i), r - j))
        if prod is None:
            return None
        total += [g for g in prod if g not in total]
    return tuple(total)


def _random_entry(ctx, rng):
    # rational coefficients, negative exponents, zero entries
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = (rng.randint(-2, 2), rng.randint(-2, 2))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(ctx, terms)


def _random_three_term_complexes():
    """F^-2 -> F^-1 -> F^0 with d^-1 = [X 0] G and d^-2 = G^-1 [0; Y] for
    random X, Y and an elementary G = 1 + p*E mixing the two blocks, so that
    d^-1 d^-2 = X*0 + 0*Y = 0 and the jumping ideals multiply minors of both."""
    rng = random.Random(62)
    ctx = RingContext.torus(2)
    for case in range(12):
        m, n1, n2, k = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 3)
        n = n1 + n2
        x = [[_random_entry(ctx, rng) for _ in range(n1)] + [ctx.zero()] * n2 for _ in range(m)]
        y = [[ctx.zero()] * k for _ in range(n1)] + [[_random_entry(ctx, rng) for _ in range(k)] for _ in range(n2)]
        p, a, b = _random_entry(ctx, rng), rng.randrange(n1), n1 + rng.randrange(n2)

        def elementary(scale):
            return Matrix.from_rows(ctx, [
                [ctx.one() if r == c else scale * p if (r, c) == (b, a) else ctx.zero() for c in range(n)]
                for r in range(n)
            ])

        d1 = Matrix(ctx, m, n, x).compose(elementary(1))
        d2 = elementary(-1).compose(Matrix(ctx, n, k, y))
        yield f"random{case}-{k}-{n}-{m}", FreeComplex(ctx, -2, 0, [k, n, m], {-2: d2, -1: d1}), None


def _jumping_cases():
    """(name, complex, degrees or None for all): the stock, random complexes
    with rational entries and negative exponents, m5 at degree -4 and the
    2x2 tensor."""
    for fx in standard_fixture_suite() + [mellin_constant_torus(4)]:
        yield fx.name, fx.complex, None
    yield from _random_three_term_complexes()
    yield "mellin-torus-m5", mellin_constant_torus(5).complex, [-4]
    tensor22 = tensor_fixture(mellin_constant_torus(2), mellin_constant_torus(2, 2))
    yield tensor22.name, tensor22.complex, None


JUMPING_CASES = list(_jumping_cases())


@pytest.mark.parametrize("name, cx, degrees", JUMPING_CASES, ids=[name for name, _, _ in JUMPING_CASES])
def test_jumping_generators_match_the_sentinel_expansion(name, cx, degrees):
    # [1] for the empty minor must give the generators, in order, that the
    # unit-ideal sentinel gave; the sentinel multiplies the minors as
    # LaurentPoly and brings each product to canonical form itself
    for i in degrees or cx.degrees():
        expected = _sentinel_jumping_generators(cx, i)
        if expected is None:
            expected = (cx.context.one(),)
        assert cx.jumping_ideal(i).generators == expected, (name, i)


def _fitting_product_or_zero(cx, i):
    """J_i as F_(i-1)*F_i, or (0) where rank additivity fails: the distinct
    products f*g of the generic-rank minors f of d^(i-1) and g of d^i, in
    LaurentPoly arithmetic, as strings in order of first occurrence."""
    lo, hi = cx.rank_of_differential(i - 1), cx.rank_of_differential(i)
    if lo + hi != cx.rank(i):
        return []
    left, right = _minors(cx.differential(i - 1), lo), _minors(cx.differential(i), hi)
    return list(dict.fromkeys(str(f * g) for f in left for g in right))


def _random_complexes_with_a_free_summand():
    """A Koszul complex on random Laurent polynomials plus a free module
    with zero differentials in one of its degrees, where ranks then fail to
    add up."""
    rng = random.Random(72)
    ctx = RingContext.torus(2)
    for case in range(12):
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = ctx.zero()
            while g.is_zero():
                g = _random_entry(ctx, rng)
            gens.append(g)
        degree, rank = rng.randint(-len(gens), 0), rng.randint(1, 2)
        cx = direct_sum(koszul(gens), FreeComplex(ctx, degree, degree, [rank], {}))
        yield f"random{case}-free{rank}@{degree}", cx, None


def _fitting_product_cases():
    """(name, complex, degrees or None for k_min - 1 .. k_max + 1)."""
    m2, m3 = mellin_constant_torus(2), mellin_constant_torus(3)
    tensor22 = tensor_fixture(m2, mellin_constant_torus(2, 2))
    for fx in standard_fixture_suite() + [mellin_constant_torus(4), tensor22]:
        yield fx.name, fx.complex, None
    for s in (1, -1):
        yield f"mellin-torus-m2-shift({s})", shift_fixture(m2, s).complex, None
    yield "mellin-torus-m5", mellin_constant_torus(5).complex, [-4]
    yield from _random_complexes_with_a_free_summand()
    yield "m3-sum-twist", sum_fixture(m3, twist_fixture(m3, [Fraction(2)] * 3)).complex, None
    yield "m2-cover-32", induce_fixture(m2, [3, 2]).complex, None


FITTING_PRODUCT_CASES = list(_fitting_product_cases())
# degrees where the expansion over every j asks for minors beyond the cap,
# though each of them is zero
CAPPED_DEGREES = {"m3-sum-twist": {-2, -1}, "m2-cover-32": {-2, -1, 0}}


@pytest.mark.parametrize(
    "name, cx, degrees", FITTING_PRODUCT_CASES, ids=[name for name, _, _ in FITTING_PRODUCT_CASES]
)
def test_jumping_ideal_is_the_fitting_product_or_zero(name, cx, degrees):
    # only j = rho_(i-1) of the expansion can contribute (see jumping_ideal),
    # so J_i = F_(i-1)*F_i where ranks add up and (0) where they do not
    additivity_fails = False
    for i in degrees or range(cx.k_min - 1, cx.k_max + 2):
        if i in CAPPED_DEGREES.get(name, ()):
            with pytest.raises(ResourceError):
                cx.jumping_ideal(i)
            continue
        expected = _fitting_product_or_zero(cx, i)
        additivity_fails |= not expected
        assert [str(g) for g in cx.jumping_ideal(i).generators] == expected, (name, i)
    assert additivity_fails or not name.startswith("random"), name


def _every_j_generators(cx, i):
    """The expansion jumping_ideal once ran, as the oracle for its guard and
    its generators: the distinct products of the j-minors of d^(i-1) and the
    (rank(i)-j)-minors of d^i, over every j = 0..rank(i), in the order j, f,
    g.  minor_generators refuses each size beyond MAX_MINOR_SIZE as it goes."""
    r, incoming, outgoing = cx.rank(i), cx.differential(i - 1), cx.differential(i)
    out = []
    for j in range(r + 1):
        left, right = _minors(incoming, j), _minors(outgoing, r - j)
        out += [h for h in (f * g for f in left for g in right) if h not in out]
    return tuple(out)


def _block(ctx, nrows, ncols, offset, size):
    """nrows x ncols matrix with a one at (k, offset + k) for k < size."""
    one, zero = ctx.one(), ctx.zero()
    return Matrix(ctx, nrows, ncols, [
        [one if r < size and c == offset + r else zero for c in range(ncols)] for r in range(nrows)
    ])


def _block_complexes():
    """F^-1 -> F^0 -> F^1 of ranks a, b, c in 0..8, where d^-1 is zero or the
    identity block on the first p basis vectors of F^0, and d^0 is zero or
    maps the next q of them to the first q of F^1, so that d^0 d^-1 = 0."""
    ctx = RingContext.torus(1)
    for a, b, c in product(range(9), repeat=3):
        for p in {0, min(a, b)}:
            for q in {0, min(b - p, c)}:
                diffs = {-1: _block(ctx, b, a, 0, p), 0: _block(ctx, c, b, p, q)}
                yield FreeComplex(ctx, -1, 1, [a, b, c], diffs)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_jumping_guard_refuses_what_the_every_j_expansion_refused(monkeypatch, cap):
    # the guard must raise wherever the oracle raised, with its message, and
    # the generators must be the oracle's everywhere else
    monkeypatch.setattr(complexes, "MAX_MINOR_SIZE", cap)
    refused = 0
    for cx in _block_complexes():
        try:
            expected = _every_j_generators(cx, 0)
        except ResourceError as exc:
            refused += 1
            with pytest.raises(ResourceError) as raised:
                cx.jumping_ideal(0)
            assert str(raised.value) == str(exc), cx
            continue
        assert cx.jumping_ideal(0).generators == expected, cx
    assert refused, cap


def test_jumping_guard_runs_before_any_rank(monkeypatch):
    def no_rank(matrix):
        raise AssertionError("generic_rank reached")

    m3 = mellin_constant_torus(3)
    cx = sum_fixture(m3, twist_fixture(m3, [Fraction(2)] * 3)).complex
    monkeypatch.setattr(complexes, "generic_rank", no_rank)
    with pytest.raises(ResourceError, match="^minor size 6 exceeds the cap of 5$"):
        cx.jumping_ideal(-2)


def test_each_differential_is_enumerated_once(monkeypatch):
    # exactness, every jumping ideal and the radical comparison share the
    # generic-rank minors of each degree of m4; the jumping ideals of degrees
    # -4..0 touch d^-5..d^0, and the dual of m4 has no negative degree
    calls = []

    def counting(matrix, k):
        calls.append(matrix)
        return minor_generators(matrix, k)

    monkeypatch.setattr(complexes, "minor_generators", counting)
    cx = mellin_constant_torus(4).complex
    cx.exactness()
    jump_ideal_report(cx, cx.degrees())
    radical_equality_pairs(cx)
    assert len({id(m) for m in calls}) == len(calls) == 6


def test_jumping_ideal_zero_rank_degree(ctx2):
    # a zero module never jumps: the jumping ideal is the unit ideal
    cx = FreeComplex(ctx2, -1, 1, [1, 0, 1], {})
    assert cx.jumping_ideal(0).is_unit_ideal()


def test_degree_zero_free_module_whole_space(ctx2):
    cx = FreeComplex(ctx2, 0, 0, [1], {})
    J0 = cx.jumping_ideal(0)
    assert all(g.is_zero() for g in J0.generators) or not J0.generators


def test_dual_examples(ctx2):
    ctx = RingContext.torus(1)
    x = ctx.variable(0) - 1
    C = _two_term(ctx, x)
    D = dual_complex(C)
    assert (D.k_min, D.k_max) == (0, 1)
    assert D.differential(0).entries[0][0] == x
    K = _koszul2(ctx2)
    KD = dual_complex(K)
    assert (KD.k_min, KD.k_max) == (0, 2)
    assert KD.ranks == (1, 2, 1)
    assert KD.differential(0) == K.differential(-1).transpose()


def test_dual_involution_random(ctx2):
    rng = random.Random(24)
    K = _koszul2(ctx2)
    fixtures = [K, shift_complex(K, 1), shift_complex(K, -2), direct_sum(K, K), dual_complex(_koszul2(ctx2))]
    for _ in range(15):
        cx = rng.choice(fixtures)
        dd = dual_complex(dual_complex(cx))
        assert dd.k_min == cx.k_min and dd.ranks == cx.ranks
        for i in range(cx.k_min, cx.k_max):
            assert dd.differential(i) == cx.differential(i)


def test_dual_swaps_jumping_radicals(ctx2):
    K = _koszul2(ctx2)
    D = dual_complex(K)
    for i in K.degrees():
        J = K.jumping_ideal(i)
        JD = D.jumping_ideal(-i)
        assert variety_containment(J, JD) and variety_containment(JD, J)


def test_shift_relabels_degrees(ctx2):
    K = _koszul2(ctx2)
    S = shift_complex(K, 1)
    assert (S.k_min, S.k_max) == (-1, 1)
    assert S.ranks == K.ranks
    # ideals move degree-for-degree
    a = K.jumping_ideal(0).groebner_basis()
    b = S.jumping_ideal(1).groebner_basis()
    assert [str(g) for g in a] == [str(g) for g in b]


def test_twist_examples():
    ctx = RingContext.torus(1)
    t = ctx.variable(0)
    C = _two_term(ctx, t - 1)
    T = twist_complex(C, [Fraction(2)])
    assert T.differential(-1).entries[0][0] == 2 * t - 1
    half = ctx.rational_point([Fraction(1, 2)])
    assert T.differential(-1).entries[0][0].evaluate(half).is_zero()
    with pytest.raises(InputError):
        twist_complex(C, [Fraction(0)])


def test_external_tensor_is_koszul():
    a_ctx = RingContext(["t1"], 1, 0)
    b_ctx = RingContext(["t2"], 1, 0)
    A = _two_term(a_ctx, a_ctx.variable(0) - 1)
    B = _two_term(b_ctx, b_ctx.variable(0) - 1)
    T = external_tensor(A, B)
    assert T.validate() is None
    assert T.ranks == (1, 2, 1)
    ctx = T.context
    K = koszul([ctx.variable(0) - 1, ctx.variable(1) - 1])
    for i in T.degrees():
        JT = T.jumping_ideal(i)
        JK = K.jumping_ideal(i)
        assert variety_containment(JT, JK) and variety_containment(JK, JT)


def test_external_tensor_rejects_name_collision():
    ctx = RingContext.torus(1)
    C = _two_term(ctx, ctx.variable(0) - 1)
    with pytest.raises(InputError):
        external_tensor(C, C)


def test_induce_multiplication_matrix():
    ctx = RingContext.torus(1)
    t = ctx.variable(0)
    C = _two_term(ctx, t - 1)
    I2 = induce_complex(C, [2])
    mat = I2.differential(-1)
    assert mat.nrows == 2 and mat.ncols == 2
    assert mat.entries[0][0] == -ctx.one()
    assert mat.entries[0][1] == t**2
    assert mat.entries[1][0] == ctx.one()
    assert mat.entries[1][1] == -ctx.one()
    assert I2.validate() is None
    # loci live at the square roots of the original locus's squares
    J0 = I2.jumping_ideal(0)
    minus = ctx.rational_point([-1])
    plus = ctx.identity_point()
    for g in J0.generators:
        assert g.evaluate(minus).is_zero() and g.evaluate(plus).is_zero()
    two = ctx.rational_point([2])
    assert not all(g.evaluate(two).is_zero() for g in J0.generators)


def test_induce_identity_cover():
    ctx = RingContext.torus(1)
    C = _two_term(ctx, ctx.variable(0) - 1)
    same = induce_complex(C, [1])
    assert same.ranks == C.ranks
    assert same.differential(-1) == C.differential(-1)


def test_induce_cover_size_cap():
    # the cap counts basis monomials n_1*...*n_N, checked before any is built
    ctx = RingContext.torus(2)
    C = _two_term(ctx, ctx.variable(0) - ctx.variable(1))
    assert induce_complex(C, [8, 8]).ranks == tuple(r * 64 for r in C.ranks)
    for exponents in ([9, 8], [65, 1], [10**6, 10**6]):
        with pytest.raises(ResourceError, match="induction cover"):
            induce_complex(C, exponents)


def test_exactness_examples(ctx2):
    K = _koszul2(ctx2)
    doc = K.exactness()
    assert doc["negative_degrees_exact"] and doc["assumption_holds"]
    cert = doc["certificate"]
    assert [row["degree"] for row in cert] == [-2, -1]
    assert cert[0]["fitting_codim"] == "2" and cert[1]["rank_additivity"]
    assert doc["dual_certificate"] == []  # the dual lives in degrees 0..2
    ctx = RingContext.torus(1)
    Z = FreeComplex(ctx, -1, 0, [1, 1], {})  # zero differential
    doc = Z.exactness()
    assert not doc["negative_degrees_exact"] and not doc["certificate"][0]["rank_additivity"]
    assert doc["certificate"][0]["fitting_codim"] == "inf" and doc["certificate"][0]["codim_ok"]
    C = _two_term(ctx, ctx.variable(0) - 1)
    assert C.exactness()["negative_degrees_exact"]  # injective in a domain


def test_check_assumption_fixtures(ctx2):
    K = _koszul2(ctx2)
    assert K.check_assumption()
    assert shift_complex(K, 1).check_assumption()  # no negative cohomology appears
    assert not shift_complex(K, -1).check_assumption()  # top cohomology moves to -1
    assert direct_sum(K, K).check_assumption()
    fix = mellin_constant_torus(2)
    assert fix.complex.check_assumption()


def test_check_assumption_repeated_generator(ctx2):
    # Koszul on (x, x) has cohomology in degree -1
    x = ctx2.variable(0) - 1
    KK = koszul([x, x])
    assert KK.validate() is None
    assert not KK.check_assumption()


def _two_complex_exactness(cx: FreeComplex) -> dict:
    """The exactness document built from two complexes: the rows of each
    negative degree of ``cx`` and of ``dual_complex(cx)``, each read on its
    own complex."""
    doc = {"report": "exactness"}
    for side, c in (("", cx), ("dual_", dual_complex(cx))):
        rows = doc[side + "certificate"] = []
        for i in range(c.k_min, min(c.k_max + 1, 0)):
            r, r_out, r_in = c.rank(i), c.rank_of_differential(i), c.rank_of_differential(i - 1)
            codim = c.fitting_ideal(i).codimension()
            rows.append({"degree": i, "rank": r, "rank_out": r_out, "rank_in": r_in,
                         "rank_additivity": r == r_out + r_in, "fitting_codim": str(codim),
                         "codim_bound": -i, "codim_ok": codim >= -i})
        doc[side + "negative_degrees_exact"] = all(c["rank_additivity"] and c["codim_ok"] for c in rows)
    doc["assumption_holds"] = doc["negative_degrees_exact"] and doc["dual_negative_degrees_exact"]
    return doc


def test_exactness_reads_the_dual_certificate_off_the_complex():
    # the dual's rows come from this complex's ranks and Fitting ideals; they
    # equal the rows of the transposed complex, key order included
    stock = [fx.complex for fx in standard_fixture_suite()]
    complexes_ = stock + [mellin_constant_torus(4).complex]
    complexes_ += [shift_complex(cx, s) for cx in stock[:12] for s in (1, 2, 3, -1, -2)]
    assert len(complexes_) == 88
    with_dual_rows = 0
    for cx in complexes_:
        doc = cx.exactness()
        expected = _two_complex_exactness(FreeComplex(cx.context, cx.k_min, cx.k_max, cx.ranks, cx.diffs))
        assert json.dumps(doc) == json.dumps(expected), cx
        with_dual_rows += bool(doc["dual_certificate"])
    assert with_dual_rows == 36


def test_exactness_refuses_an_invalid_complex():
    ctx = RingContext.torus(1)
    x = ctx.variable(0) - 1
    cx = FreeComplex(ctx, -2, 0, [1, 1, 1], {-2: Matrix.from_rows(ctx, [[x]]), -1: Matrix.from_rows(ctx, [[x]])})
    with pytest.raises(InputError, match="^invalid complex: composite differential"):
        cx.exactness()


def test_exactness_builds_no_second_complex(monkeypatch):
    built = []
    init = FreeComplex.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    cx = shift_complex(mellin_constant_torus(2).complex, 2)
    monkeypatch.setattr(FreeComplex, "__init__", counting)
    doc = cx.exactness()
    assert doc["dual_certificate"] and built == []
    assert not hasattr(FreeComplex, "dual")


def test_euler_characteristic(ctx2):
    K = _koszul2(ctx2)
    assert K.euler_characteristic() == 0
    single = FreeComplex(ctx2, 0, 0, [3], {})
    assert single.euler_characteristic() == 3
    assert direct_sum(K, single).euler_characteristic() == 3
    assert shift_complex(K, 1).euler_characteristic() == 0
    assert koszul([ctx2.variable(0) - 1]).euler_characteristic() == 0


def test_twist_equals_substitute_per_entry():
    # the twist validates its scalars once and skips zero entries; the
    # matrices must be those of substitute applied to every entry
    rng = random.Random(31)
    pool = [Fraction(v) for v in ("2", "-1", "1/3", "-5/2", "7")]
    for fx in standard_fixture_suite():
        cx = fx.complex
        lams = [rng.choice(pool) for _ in range(cx.context.num_vars)]
        mapping = [(lam, 1) for lam in lams]
        expected = {
            i: Matrix(m.context, m.nrows, m.ncols, [[substitute(e, mapping) for e in row] for row in m.entries])
            for i, m in cx.diffs.items()
        }
        assert twist_complex(cx, lams).diffs == expected, fx.name
    with pytest.raises(InputError):
        twist_complex(cx, lams[:-1])
    with pytest.raises(InputError):
        twist_complex(cx, [Fraction(0)] * len(lams))


# -- oracles: the kernel in LaurentPoly arithmetic -----------------------------
#
# Minors, Bareiss ranks and exact division written on LaurentPoly with
# Fraction coefficients, as the determinantal code computed them before it
# moved to integer polynomials; the integer kernel must agree with them.


def _oracle_unit_normalize(p):
    """p up to units: each variable's minimum exponent 0, coprime integer
    coefficients, positive lex-leading coefficient."""
    mins = [min(col) for col in zip(*p.terms)]
    values = p.terms.values()
    content = Fraction(
        math.gcd(*(c.numerator for c in values)), math.lcm(*(c.denominator for c in values))
    )
    if p.terms[max(p.terms)] < 0:
        content = -content
    return LaurentPoly(
        p.context, {tuple(a - b for a, b in zip(e, mins)): c / content for e, c in p.terms.items()}
    )


def _oracle_exact_divide(p, d):
    if p.is_zero():
        return p
    n = p.context.num_vars
    p_min = [min(e[i] for e in p.terms) for i in range(n)]
    d_min = [min(e[i] for e in d.terms) for i in range(n)]

    def shifted(q, mins):
        return {tuple(a - b for a, b in zip(e, mins)): c for e, c in q.terms.items()}

    num, den = shifted(p, p_min), shifted(d, d_min)
    den_lead = max(den)
    quot = {}
    while num:
        lead = max(num)
        assert all(a >= b for a, b in zip(lead, den_lead)), "inexact"
        shift = tuple(a - b for a, b in zip(lead, den_lead))
        coeff = num[lead] / den[den_lead]
        quot[shift] = coeff
        for exp, c in den.items():
            key = tuple(a + b for a, b in zip(exp, shift))
            num[key] = num.get(key, 0) - coeff * c
            if not num[key]:
                del num[key]
    unit = tuple(a - b for a, b in zip(p_min, d_min))
    return LaurentPoly(p.context, {tuple(a + b for a, b in zip(e, unit)): c for e, c in quot.items()})


def _oracle_generic_rank(matrix):
    m = [list(row) for row in matrix.entries]
    nrows, ncols = matrix.nrows, matrix.ncols
    prev, rank = matrix.context.one(), 0
    for k in range(min(nrows, ncols)):
        pivot = None
        for r in range(k, nrows):
            for c in range(k, ncols):
                if not m[r][c].is_zero():
                    if pivot is None or len(m[r][c].terms) < len(m[pivot[0]][pivot[1]].terms):
                        pivot = (r, c)
        if pivot is None:
            break
        pr, pc = pivot
        m[k], m[pr] = m[pr], m[k]
        for row in m:
            row[k], row[pc] = row[pc], row[k]
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                m[i][j] = _oracle_exact_divide(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
        rank += 1
    return rank


def _oracle_det(entries, rows, cols, memo):
    key = (rows, cols)
    if key not in memo:
        if len(rows) == 1:
            memo[key] = entries[rows[0]][cols[0]]
        else:
            acc = entries[rows[0]][cols[0]].context.zero()
            for pos, c in enumerate(cols):
                e = entries[rows[0]][c]
                if not e.is_zero():
                    term = e * _oracle_det(entries, rows[1:], cols[:pos] + cols[pos + 1 :], memo)
                    acc = acc - term if pos % 2 else acc + term
            memo[key] = acc
    return memo[key]


def _oracle_minor_generators(matrix, k):
    if k == 0:
        return [matrix.context.one()]
    memo, gens = {}, []
    for rows in combinations(range(matrix.nrows), k):
        for cols in combinations(range(matrix.ncols), k):
            d = _oracle_det(matrix.entries, rows, cols, memo)
            if not d.is_zero() and _oracle_unit_normalize(d) not in gens:
                gens.append(_oracle_unit_normalize(d))
    return gens


def _random_matrices():
    rng = random.Random(61)
    ctx = RingContext.torus(2)
    for case in range(25):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[_random_entry(ctx, rng) for _ in range(ncols)] for _ in range(nrows)]
        yield f"random{case}-{nrows}x{ncols}", Matrix.from_rows(ctx, rows)


def _stock_differentials():
    tensor22 = tensor_fixture(mellin_constant_torus(2), mellin_constant_torus(2, 2))
    for fx in standard_fixture_suite() + [mellin_constant_torus(4), tensor22]:
        for i, mat in sorted(fx.complex.diffs.items()):
            yield f"{fx.name}-d{i}", mat


KERNEL_INPUTS = list(_random_matrices()) + list(_stock_differentials())


@pytest.mark.parametrize("name, matrix", KERNEL_INPUTS, ids=[name for name, _ in KERNEL_INPUTS])
def test_integer_kernel_matches_the_laurent_oracle(name, matrix):
    assert generic_rank(matrix) == _oracle_generic_rank(matrix)
    for k in range(min(3, matrix.nrows, matrix.ncols) + 1):
        assert _minors(matrix, k) == _oracle_minor_generators(matrix, k), k
