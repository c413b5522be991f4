"""The matrix loops that skip zero entries, against the dense loops.

``Matrix.compose``, ``Matrix.evaluate`` and ``cyclotomic.field_rank`` skip
zero entries, which make up most of an induced cover's differentials.  Each
is compared here with a test-local copy of the dense loop it replaced, on
seeded random matrices with at least 70 % zero entries, on shapes with no
rows, no columns or no inner dimension, and on the differentials of the
m = 3 cover n = (4, 2, 2) at sampled points.
"""

import math
import random
from fractions import Fraction

import pytest

from jumploci.complexes import Matrix
from jumploci.cyclotomic import Cyclotomic, _mul, field_rank
from jumploci.fixtures import induce_fixture, mellin_constant_torus
from jumploci.laurent import LaurentPoly, RingContext, TorsionPoint
from jumploci.sampling import random_torsion_point

CTX = RingContext.torus(2)
SHAPES = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (2, 3, 0), (3, 2, 0), (1, 1, 1), (4, 5, 3), (6, 4, 7)]


def _dense_compose(x, y):
    """The dense triple loop: one product per inner index, zeros included."""
    zero = x.context.zero()
    out = []
    for r in range(x.nrows):
        row = []
        for c in range(y.ncols):
            acc = zero
            for k in range(x.ncols):
                acc = acc + x.entries[r][k] * y.entries[k][c]
            row.append(acc)
        out.append(row)
    return out


def _primitive(row):
    content = math.gcd(*(c for v in row for c in v))
    if content > 1:
        return [[c // content for c in v] for v in row]
    return row


def _dropping_field_rank(rows):
    """Elimination on the leading column, which is then dropped from every
    row (``row[1:]``)."""
    if not rows or not rows[0]:
        return 0
    order = rows[0][0].order
    m = []
    for row in rows:
        den = math.lcm(*(c.denominator for x in row for c in x.coeffs))
        m.append([[c.numerator * (den // c.denominator) for c in x.coeffs] for x in row])
    rank = 0
    while m and m[0]:
        pivot = next((k for k, row in enumerate(m) if any(row[0])), None)
        if pivot is None:
            m = [row[1:] for row in m]
            continue
        prow = m.pop(pivot)
        p = prow[0]
        rank += 1
        for k, row in enumerate(m):
            a = row[0]
            if any(a):
                m[k] = _primitive([
                    [s - t for s, t in zip(_mul(p, x, order), _mul(a, y, order))]
                    for x, y in zip(row[1:], prow[1:])
                ])
            else:
                m[k] = row[1:]
    return rank


def _sparse_poly(rng):
    """Zero with probability 3/4, else one to three terms."""
    if rng.random() < 0.75:
        return CTX.zero()
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    return LaurentPoly(CTX, terms)


def _sparse_matrix(rng, nrows, ncols):
    return Matrix(CTX, nrows, ncols, [[_sparse_poly(rng) for _ in range(ncols)] for _ in range(nrows)])


def _zero_share(matrices):
    entries = [e for m in matrices for row in m.entries for e in row]
    return sum(e.is_zero() for e in entries) / len(entries)


def test_compose_matches_the_dense_loop():
    rng = random.Random(19)
    seen = []
    for n, k, m in SHAPES * 4:
        x, y = _sparse_matrix(rng, n, k), _sparse_matrix(rng, k, m)
        seen += [x, y]
        product = x.compose(y)
        assert (product.nrows, product.ncols) == (n, m)
        assert [list(row) for row in product.entries] == _dense_compose(x, y)
    assert _zero_share(seen) >= 0.7


def test_compose_forms_no_product_with_a_zero_factor(monkeypatch):
    rng = random.Random(20)
    factors = []
    mul = LaurentPoly.__mul__

    def recording_mul(a, b):
        factors.append((a, b))
        return mul(a, b)

    x, y = _sparse_matrix(rng, 8, 7), _sparse_matrix(rng, 7, 6)
    monkeypatch.setattr(LaurentPoly, "__mul__", recording_mul)
    x.compose(y)
    assert factors
    assert not any(a.is_zero() or b.is_zero() for a, b in factors)


def _points(rng):
    yield CTX.identity_point()
    yield TorsionPoint(CTX, [(Fraction(2, 3), Fraction(1, 4)), (Fraction(-5), Fraction(1, 6))])
    for _ in range(4):
        yield random_torsion_point(CTX, rng)


def test_evaluate_matches_entrywise_evaluation(monkeypatch):
    rng = random.Random(21)
    matrices = [_sparse_matrix(rng, n, k) for n, k, _ in SHAPES]
    assert _zero_share(matrices) >= 0.7
    calls = []
    evaluate = LaurentPoly.evaluate

    def counting_evaluate(poly, point):
        calls.append(poly)
        return evaluate(poly, point)

    for point in _points(rng):
        for x in matrices:
            expected = [[e.evaluate(point) for e in row] for row in x.entries]
            monkeypatch.setattr(LaurentPoly, "evaluate", counting_evaluate)
            values = x.evaluate(point)
            monkeypatch.setattr(LaurentPoly, "evaluate", evaluate)
            assert values == expected
            # one evaluation per nonzero entry, plus one of the zero polynomial
            nonzero = sum(not e.is_zero() for row in x.entries for e in row)
            assert len(calls) == nonzero + 1 and calls[0].is_zero()
            calls.clear()


def _sparse_entry(rng, L):
    """Zero with probability 3/4, else a sum of roots of unity with unit
    and non-unit rational factors."""
    z = Cyclotomic.rational(L, 0)
    if rng.random() < 0.75:
        return z
    for _ in range(rng.randint(1, 3)):
        factor = rng.choice([Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-7, 2), Fraction(5)])
        z = z + Cyclotomic.root_of_unity(L, rng.randrange(L)).scale(factor)
    return z


def _cyclotomic_cases(rng, L, count, size):
    zero = Cyclotomic.rational(L, 0)
    for case in range(count):
        n, m = rng.randint(1, size), rng.randint(1, size)
        rows = [[_sparse_entry(rng, L) for _ in range(m)] for _ in range(n)]
        if case % 3 == 1:  # an all-zero column and a zero row
            j = rng.randrange(m)
            rows = [[zero if c == j else x for c, x in enumerate(row)] for row in rows]
            rows.insert(rng.randrange(n + 1), [zero] * m)
        if case % 3 == 2:  # a dense row made from others, so the rank drops
            a, b = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
            rows.append([x + y.scale(3) for x, y in zip(rows[a], rows[b])])
        yield rows


@pytest.mark.parametrize("L, count, size", [(1, 40, 8), (4, 30, 7), (12, 20, 6), (97, 4, 4)])
def test_field_rank_matches_the_dropping_elimination(L, count, size):
    rng = random.Random(1900 + L)
    cases = list(_cyclotomic_cases(rng, L, count, size))
    entries = [x for rows in cases for row in rows for x in row]
    assert sum(x.is_zero() for x in entries) >= 0.7 * len(entries)
    ranks = [field_rank(rows) for rows in cases]
    assert ranks == [_dropping_field_rank(rows) for rows in cases]
    assert any(r < min(len(rows), len(rows[0])) for r, rows in zip(ranks, cases))


@pytest.mark.parametrize("rows", [[], [[]], [[], [], []]])
def test_field_rank_of_shapes_without_entries(rows):
    assert field_rank(rows) == _dropping_field_rank(rows) == 0


def test_field_rank_on_the_4_2_2_cover_at_sampled_points():
    cover = induce_fixture(mellin_constant_torus(3), [4, 2, 2])
    cx = cover.complex
    rng = random.Random(422)
    translates = [c.translate for i in cx.degrees() for c in cover.profile.locus(i).components]
    points = [p for p in translates if p.angle_order() > 1][:2]
    points += [random_torsion_point(cx.context, rng) for _ in range(2)]
    checked = 0
    for point in points:
        for i in range(cx.k_min, cx.k_max):
            values = cx.differential(i).evaluate(point)
            rank = field_rank(values)
            assert rank == _dropping_field_rank(values), (point, i)
            checked += rank < min(cx.rank(i + 1), cx.rank(i))
    assert checked  # some points lie on the jump loci
