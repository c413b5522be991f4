import math
import random
from fractions import Fraction
from itertools import product

import pytest

from jumploci.errors import InputError
from jumploci.lattices import (
    LinearComponent,
    LinearUnion,
    hermite_normal_form,
    kernel_basis,
    lattice_contains,
    rational_rank,
    saturate_lattice,
    smith_normal_form,
    subtorus_point,
)
from jumploci.laurent import RingContext, TorsionPoint


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _det(M):
    M = [[Fraction(x) for x in row] for row in M]
    n = len(M)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return d


def test_smith_form_random_matrices():
    rng = random.Random(2024)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        U, D, V = smith_normal_form(A)
        assert _matmul(_matmul(U, A), V) == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D[i][i] for i in range(min(rows, cols))]
        assert all(
            D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j
        )
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_saturation_examples():
    assert saturate_lattice([[2, 0]], 2) == [[1, 0]]
    # index-2 sublattice saturates to the full lattice
    assert saturate_lattice([[1, 1], [1, -1]], 2) == [[1, 0], [0, 1]]
    assert saturate_lattice([], 2) == []


def test_saturation_idempotent_and_contains_input():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, n + 1))]
        sat = saturate_lattice(rows, n)
        assert sat == saturate_lattice(sat, n)
        assert len(sat) == rational_rank(rows)
        for r in rows:
            assert not any(r) or lattice_contains(sat, r)


def test_kernel_basis_orthogonality():
    rng = random.Random(4)
    for _ in range(120):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        ker = kernel_basis(rows, n)
        assert len(ker) == n - rational_rank(rows)
        for v in ker:
            assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def test_hermite_form_is_canonical():
    # different bases of the same lattice produce identical normal forms
    base = [[1, 2, 0], [0, 0, 3]]
    other = [[1, 2, 3], [0, 0, 3], [1, 2, -3]]
    assert hermite_normal_form(base, 3) == hermite_normal_form(other, 3)


def test_hermite_form_conventions():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 6)
        bound = rng.choice([1, 5, 1000])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rng.randint(0, n + 3))]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        H = hermite_normal_form(rows, n)
        pivots = [next(c for c, x in enumerate(row) if x) for row in H]  # no zero rows
        assert pivots == sorted(set(pivots)), (rows, H)
        for i, (row, col) in enumerate(zip(H, pivots)):
            assert row[col] > 0
            assert all(0 <= H[j][col] < row[col] for j in range(i)), (rows, H)
        assert hermite_normal_form(H, n) == H
        assert len(H) == rational_rank(rows)
        assert all(lattice_contains(H, row) for row in rows), (rows, H)


def _assert_smith_form(A):
    rows, cols = len(A), len(A[0])
    U, D, V = smith_normal_form(A)
    assert _matmul(_matmul(U, A), V) == D
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    assert all(D[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    diag = [D[i][i] for i in range(min(rows, cols))]
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    return tuple(diag)


_LARGE = random.Random(15)


@pytest.mark.parametrize(
    "A, diag",
    [
        ([[-3]], (3,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[4, 0], [0, 6]], (2, 12)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[6, 10, 15, 0]], (1,)),
        ([[0, 0, 0], [0, 0, 0]], (0, 0)),
        ([[4], [-6], [10], [0]], (2,)),
        ([[_LARGE.randint(-1000, 1000) for _ in range(6)] for _ in range(6)], None),
    ],
    ids=["negative-1x1", "diag-2-3", "diag-4-6", "full-2x2", "row-1x4", "zero-2x3", "column-4x1", "dense-6x6"],
)
def test_smith_form_shapes(A, diag):
    found = _assert_smith_form(A)
    if diag is None:  # the invariant factors of a square matrix multiply to |det|
        assert math.prod(found) == abs(_det(A))
    else:
        assert found == diag


def test_component_codims_examples():
    ab = RingContext.abelian(1)
    point = LinearComponent(ab, ab.identity_point(), [[1, 0], [0, 1]])
    assert point.codims() == (2, 1, 1)  # abelian point: d even, g'' = d/2
    torus = RingContext.torus(1)
    assert LinearComponent(torus, torus.identity_point(), [[1]]).codims() == (1, 0, 1)
    mixed = RingContext.mixed(1, 1)
    assert LinearComponent(mixed, mixed.identity_point(), [[1, 0, 0]]).codims() == (1, 0, 1)


def test_component_rejects_odd_abelian_projection():
    ab = RingContext.abelian(1)
    with pytest.raises(InputError):
        LinearComponent(ab, ab.identity_point(), [[1, 0]])
    mixed = RingContext.mixed(1, 1)
    with pytest.raises(InputError):
        LinearComponent(mixed, mixed.identity_point(), [[0, 1, 0]])


def test_codims_decomposition_random():
    # d = m'' + 2 g'' with both parts nonnegative, on random valid lattices
    rng = random.Random(9)
    cases = [(1, 0), (0, 1), (1, 1), (2, 1)]
    built = 0
    for m, g in cases:
        ctx = RingContext.mixed(m, g)
        n = ctx.num_vars
        while built % 60 or built // 60 <= cases.index((m, g)):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
            try:
                comp = LinearComponent(ctx, ctx.identity_point(), rows)
            except InputError:
                built += 1
                continue
            d, g2, sa = comp.codims()
            m2 = comp.kernel_torus_rank()
            assert d == m2 + 2 * g2 and m2 >= 0 and g2 >= 0
            assert sa == m2 + g2
            assert g2 <= g and sa <= m + g
            built += 1


def test_abelian_specialization():
    # m = 0: every valid component has codim_a = codim_sa = d / 2
    rng = random.Random(10)
    ctx = RingContext.abelian(2)
    produced = 0
    while produced < 50:
        rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(0, 4))]
        try:
            comp = LinearComponent(ctx, ctx.identity_point(), rows)
        except InputError:
            continue
        d, g2, sa = comp.codims()
        assert d % 2 == 0 and g2 == d // 2 and sa == d // 2
        produced += 1


def test_torus_specialization():
    rng = random.Random(11)
    ctx = RingContext.torus(3)
    for _ in range(50):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(rng.randint(0, 3))]
        comp = LinearComponent(ctx, ctx.identity_point(), rows)
        d, g2, sa = comp.codims()
        assert g2 == 0 and sa == d


def test_containment_examples():
    ctx = RingContext.torus(2)
    point = LinearComponent(ctx, ctx.identity_point(), [[1, 0], [0, 1]])
    curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
    assert curve.contains(point)
    assert not point.contains(curve)
    off_point = LinearComponent(ctx, ctx.rational_point([2, 1]), [[1, 0], [0, 1]])
    assert not curve.contains(off_point)
    assert point.contains(point)


def test_containment_translate_mod_subtorus():
    ctx = RingContext.torus(2)
    a = LinearComponent(ctx, ctx.rational_point([1, 3]), [[1, 0]])
    b = LinearComponent(ctx, ctx.rational_point([1, 7]), [[1, 0]])
    assert a.same_component(b)  # translates differ by a subtorus point


def test_containment_partial_order_random():
    rng = random.Random(12)
    ctx = RingContext.torus(3)
    lattices = [
        [[1, 0, 0]],
        [[0, 1, 0]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 0]],
        [],
    ]
    translates = [
        ctx.identity_point(),
        ctx.rational_point([2, 1, 1]),
        ctx.rational_point([1, 1, 3]),
    ]
    comps = [
        LinearComponent(ctx, t, rows)
        for t in translates
        for rows in lattices
    ]
    for _ in range(200):
        a, b, c = (rng.choice(comps) for _ in range(3))
        assert a.contains(a)
        if a.contains(b) and b.contains(a):
            assert a.same_component(b)
        if a.contains(b) and b.contains(c):
            assert a.contains(c)


def test_union_normalization_and_stats():
    ctx = RingContext.torus(2)
    point = LinearComponent(ctx, ctx.identity_point(), [[1, 0], [0, 1]])
    curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
    union = LinearUnion(ctx, [point, curve])
    assert len(union.components) == 1  # the point is swallowed
    stats = union.codim_stats()
    assert stats.codim_sa == 1 and stats.codim_a == 0 and stats.dim_sa == 1
    far = LinearComponent(ctx, ctx.rational_point([5, 5]), [[1, 0], [0, 1]])
    union2 = LinearUnion(ctx, [point, curve, far])
    assert len(union2.components) == 2
    assert union2.codim_stats().codim_sa == 1


def test_union_min_rule():
    ctx = RingContext.torus(2)
    point = LinearComponent(ctx, ctx.rational_point([2, 2]), [[1, 0], [0, 1]])
    curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
    union = LinearUnion(ctx, [point, curve])
    assert union.codim_stats().codim_sa == min(2, 1)


def test_empty_and_whole_conventions():
    ctx = RingContext.torus(2)
    empty = LinearUnion(ctx, [])
    stats = empty.codim_stats()
    assert stats.codim_a == math.inf and stats.codim_sa == math.inf
    assert stats.dim_a == -math.inf and stats.dim_sa == -math.inf
    whole = LinearUnion.whole_space(ctx)
    assert whole.is_whole_space()
    assert whole.codim_stats().codim_sa == 0
    assert whole.contains(empty)
    assert whole.contains(LinearUnion.single_point(ctx.rational_point([7, 9])))


def test_subtorus_points_lie_on_component():
    rng = random.Random(13)
    ctx = RingContext.torus(3)
    comp = LinearComponent(ctx, ctx.rational_point([2, 1, 1]), [[1, 1, 0]])
    for _ in range(30):
        weights = [Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(2)]
        p = subtorus_point(comp, weights)
        assert comp.contains_point(p)


def test_point_membership():
    ctx = RingContext.torus(2)
    curve = LinearComponent(ctx, ctx.rational_point([2, 1]), [[1, 0]])
    assert curve.contains_point(ctx.rational_point([2, 9]))
    assert not curve.contains_point(ctx.rational_point([3, 9]))
    torsion = TorsionPoint(ctx, [(Fraction(2), Fraction(0)), (Fraction(1), Fraction(1, 3))])
    assert curve.contains_point(torsion)


# -- the rank and shifted-point rules, as reference ----------------------------------
#
# Containment was once decided by two Fraction ranks per membership, and a point
# was tested by building the shifted point point / translate and checking that
# every character of the lattice is trivial there.  Copies of those rules are
# kept here, computed from coordinates with Fractions, as the reference for the
# Hermite reduction and the character comparison that replaced them.


def _ref_lattice_contains(saturated_rows, vector):
    """Membership in a saturated lattice as the Q-span test by two ranks."""
    if not any(vector):
        return True
    if not saturated_rows:
        return False
    base = [list(r) for r in saturated_rows]
    return rational_rank(base + [list(vector)]) == rational_rank(base)


def _ref_abelian_rank(component):
    m = component.context.torus_rank
    rows = [list(r[m:]) for r in component.lattice]
    return rational_rank(rows) if rows else 0


def _ref_trivial(coords, k):
    """Whether t^k is 1 at the point with (radial, angle) pairs ``coords``."""
    radial, angle = Fraction(1), Fraction(0)
    for (q, theta), e in zip(coords, k):
        radial *= q**e
        angle += e * theta
    return radial == 1 and angle.denominator == 1


def _ref_contains_point(component, point):
    shifted = [
        (q / tq, theta - ttheta)
        for (q, theta), (tq, ttheta) in zip(point.coords, component.translate.coords)
    ]
    return all(_ref_trivial(shifted, row) for row in component.lattice)


def _ref_contains(outer, inner):
    """inner <= outer: outer's lattice inside inner's, by ranks, and the
    shifted translate of inner on outer."""
    return all(_ref_lattice_contains(inner.lattice, row) for row in outer.lattice) and _ref_contains_point(
        outer, inner.translate
    )


def _pairwise_normalized(components):
    """LinearUnion's normalization as a plain pairwise loop over the
    reference containment."""
    kept = []
    for c in sorted(components, key=LinearComponent.sort_key):
        if any(_ref_contains(other, c) for other in kept):
            continue
        kept = [k for k in kept if not _ref_contains(c, k)]
        kept.append(c)
    kept.sort(key=LinearComponent.sort_key)
    return kept


# mixed rings only (m, g > 0); unit, non-unit and negative radial parts;
# translate angles of every order from 1 to 97
MIXED = [RingContext.mixed(1, 1), RingContext.mixed(2, 1), RingContext.mixed(1, 2)]
_RADIALS = [Fraction(v) for v in ("1", "1", "1", "2", "1/3", "-1", "-5/2", "7/4")]


def _random_saturated(rng, n):
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
    return saturate_lattice(rows, n)


def _random_translate(ctx, rng):
    order = rng.randint(1, 97)
    return TorsionPoint(
        ctx,
        [(rng.choice(_RADIALS), Fraction(rng.randrange(order), order)) for _ in range(ctx.num_vars)],
    )


def _random_component(ctx, rng):
    while True:
        try:
            return LinearComponent(ctx, _random_translate(ctx, rng), _random_saturated(rng, ctx.num_vars))
        except InputError:  # odd abelian projection
            continue


def _on_component(component, rng):
    """translate * (a torsion point of the subtorus): along each kernel vector
    v a weight w, possibly negative, and an angle phi contribute (w^v_i,
    v_i * phi) to coordinate i, so every character of the lattice is 1 there."""
    ctx = component.context
    n = ctx.num_vars
    coords = [(Fraction(1), Fraction(0))] * n
    for vec in kernel_basis([list(r) for r in component.lattice], n):
        w = rng.choice(_RADIALS)
        phi = Fraction(rng.randrange(12), 12)
        coords = [(q * w**v, th + v * phi) for (q, th), v in zip(coords, vec)]
    return component.translate * TorsionPoint(ctx, coords)


def _near(point, rng):
    """``point`` moved in one coordinate by a sign, a factor 2 or a small
    root of unity: often off a component through ``point``, sometimes on it."""
    i = rng.randrange(point.context.num_vars)
    step = rng.choice([(Fraction(-1), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(1), Fraction(1, 3))])
    coords = [step if j == i else (Fraction(1), Fraction(0)) for j in range(point.context.num_vars)]
    return point * TorsionPoint(point.context, coords)


def test_lattice_contains_matches_the_rank_test():
    rng = random.Random(31)
    counts = [0, 0]
    for _ in range(400):
        ctx = rng.choice(MIXED)
        n = ctx.num_vars
        sat = _random_saturated(rng, n)
        if rng.random() < 0.5 and sat:
            # an integral combination of the basis, plus a unit vector at times
            v = [sum(rng.randint(-3, 3) * r[j] for r in sat) for j in range(n)]
            if rng.random() < 0.3:
                v[rng.randrange(n)] += 1
        else:
            v = [rng.randint(-5, 5) for _ in range(n)]
        expected = _ref_lattice_contains(sat, v)
        assert lattice_contains(sat, v) == expected, (sat, v)
        counts[expected] += 1
    assert min(counts) > 50


def test_abelian_rank_matches_the_rational_rank():
    rng = random.Random(32)
    ranks = set()
    for _ in range(300):
        ctx = rng.choice(MIXED)
        n = ctx.num_vars
        # random rows, and rows whose abelian projections repeat, so that
        # the projection's rank falls below the number of rows
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        if rows and rng.random() < 0.5:
            rows.append([rng.randint(-3, 3)] * ctx.torus_rank + rows[0][ctx.torus_rank:])
        try:
            comp = LinearComponent(ctx, ctx.identity_point(), rows)
        except InputError:
            sat = saturate_lattice(rows, n)
            assert rational_rank([r[ctx.torus_rank:] for r in sat]) % 2 == 1, rows
            continue
        assert comp.abelian_rank2 == _ref_abelian_rank(comp), rows
        ranks.add((comp.rank, comp.abelian_rank2))
    assert any(d > ab > 0 for d, ab in ranks)


def test_contains_point_matches_the_shifted_point():
    rng = random.Random(33)
    counts = [0, 0]
    orders = set()
    for _ in range(300):
        ctx = rng.choice(MIXED)
        comp = _random_component(ctx, rng)
        orders.add(comp.translate.angle_order())
        on = _on_component(comp, rng)
        for point in (on, _near(on, rng), _random_translate(ctx, rng)):
            expected = _ref_contains_point(comp, point)
            assert comp.contains_point(point) == expected, (comp, point)
            counts[expected] += 1
    assert min(counts) > 200
    assert max(orders) > 60


def test_contains_matches_the_shifted_point_rule():
    rng = random.Random(34)
    counts = [0, 0]
    for _ in range(300):
        ctx = rng.choice(MIXED)
        n = ctx.num_vars
        outer = _random_component(ctx, rng)
        # a subvariety of outer (larger lattice, translate on outer), the
        # same moved a little, and an unrelated component
        extra = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        try:
            inner = LinearComponent(ctx, _on_component(outer, rng), [list(r) for r in outer.lattice] + extra)
        except InputError:
            inner = LinearComponent(ctx, _on_component(outer, rng), outer.lattice)
        moved = LinearComponent(ctx, _near(inner.translate, rng), inner.lattice)
        for a, b in [(outer, inner), (outer, moved), (inner, outer), (outer, _random_component(ctx, rng))]:
            expected = _ref_contains(a, b)
            assert a.contains(b) == expected, (a, b)
            counts[expected] += 1
    assert min(counts) > 200


def test_union_normalization_matches_the_pairwise_loop():
    rng = random.Random(21)
    ctx = RingContext.mixed(1, 1)
    # few lattices and few translates, so that containments and duplicates occur
    lattices = [[], [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]], [[2, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    angles = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    radials = [Fraction(1), Fraction(1), Fraction(2), Fraction(-1)]
    merged = 0
    for _ in range(150):
        comps = [
            LinearComponent(
                ctx,
                TorsionPoint(ctx, [(rng.choice(radials), rng.choice(angles)) for _ in range(3)]),
                rng.choice(lattices),
            )
            for _ in range(rng.randint(0, 8))
        ]
        kept = LinearUnion(ctx, comps).components
        assert list(kept) == _pairwise_normalized(comps)
        merged += len(kept) < len(comps)
    assert merged > 50


def test_union_normalization_matches_the_pairwise_loop_on_covers():
    from jumploci.fixtures import induce_fixture, mellin_constant_torus

    rng = random.Random(22)
    for base, exponents in [(1, [4]), (2, [3, 2]), (2, [2, 2])]:
        profile = induce_fixture(mellin_constant_torus(base), exponents).profile
        every = [c for union in profile.loci.values() for c in union.components]
        ctx = profile.context
        for union in profile.loci.values():
            comps = list(union.components)
            assert list(LinearUnion(ctx, comps).components) == _pairwise_normalized(comps)
        for _ in range(5):
            comps = rng.sample(every, rng.randint(1, len(every)))
            assert list(LinearUnion(ctx, comps).components) == _pairwise_normalized(comps)
        # the cover translates of each base component before any union
        # normalized them, each twice
        for union in mellin_constant_torus(base).profile.loci.values():
            shifts = [
                TorsionPoint(ctx, [(1, Fraction(k, x)) for k, x in zip(ks, exponents)])
                for ks in product(*(range(x) for x in exponents))
            ]
            comps = [LinearComponent(ctx, c.translate * z, c.lattice) for c in union.components for z in shifts]
            kept = LinearUnion(ctx, comps + comps).components
            assert list(kept) == _pairwise_normalized(comps + comps)
            assert len(kept) == len(comps)


def test_union_normalization_one_pass_matches_the_two_pass_loop():
    # LinearUnion keeps one pass in sort order; the reference loop still drops
    # kept components that a later one contains and sorts again at the end
    rng = random.Random(23)
    dropped = {"duplicate": 0, "nested": 0}
    ranks = set()
    for _ in range(120):
        ctx = rng.choice(MIXED + [RingContext.torus(2)])
        n = ctx.num_vars
        comps = [_random_component(ctx, rng) for _ in range(rng.randint(1, 4))]
        for c in list(comps):
            # the same coset through another translate
            if rng.random() < 0.5:
                comps.append(LinearComponent(ctx, _on_component(c, rng), c.lattice))
            # a component nested in c, of larger lattice when it is not odd
            if rng.random() < 0.5:
                extra = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 2))]
                try:
                    comps.append(LinearComponent(ctx, _on_component(c, rng), [*c.lattice, *extra]))
                except InputError:
                    pass
        rng.shuffle(comps)
        kept = LinearUnion(ctx, comps).components
        assert kept == tuple(_pairwise_normalized(comps))
        ranks.update(c.rank for c in kept)
        for c in comps:
            if c not in kept:
                twin = any(k.same_component(c) for k in kept)
                dropped["duplicate" if twin else "nested"] += 1
    assert min(dropped.values()) > 100
    assert ranks == set(range(6))  # mixed(1, 2) has five variables
