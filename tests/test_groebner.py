import heapq
import math
import random
from fractions import Fraction
from itertools import combinations
from operator import add, ge, sub

import pytest

from jumploci import groebner
from jumploci.errors import ResourceError
from jumploci.groebner import (
    GREVLEX,
    LaurentIdeal,
    MonomialOrder,
    _is_constant,
    _is_unit_basis,
    _lead,
    _least_hitting_set,
    _misses_coordinate_hyperplanes,
    _normalize,
    _reduce,
    _saturate,
    _saturate_by_elimination,
    buchberger,
    elimination_order,
    laurent_to_poly,
    variety_containment,
)
from jumploci.laurent import LaurentPoly, RingContext

from fixture_helpers import standard_fixture_suite

# a second term order for the order-generic tests: exponent tuples compared
# lexicographically (the program itself uses grevlex and elimination orders)
LEX = MonomialOrder("lex", tuple)


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
    assert sorted(str(g) for g in ideal.groebner_basis()) == ["t1 - 1", "t2 - 1"]


def test_saturation_correctness(ctx2):
    # every generator times any power of the coordinate product reduces to 0
    x, y = gens2(ctx2)
    u = ctx2.variable(0) * ctx2.variable(1)
    ideal = LaurentIdeal(ctx2, [x * y, x**2 - x])
    basis = [laurent_to_poly(g) for g in ideal.groebner_basis()]
    leads = [_lead(g, GREVLEX) for g in basis]
    for g in ideal.generators:
        for k in range(0, 3):
            assert not _reduce(laurent_to_poly(g * u**k), basis, GREVLEX, leads)


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


def _subset_search_codimension(leads, n):
    """Reference rule: N minus the size of the largest set of variables
    that holds the support of no lead monomial, over all subsets."""
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if not any(all(e == 0 or i in subset for i, e in enumerate(lead)) for lead in leads):
                return n - size


def test_least_hitting_set_matches_subset_search():
    rng = random.Random(17)
    for _ in range(3000):
        n = rng.randint(1, 8)
        leads = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(rng.randint(0, 7))]
        leads = [lead for lead in leads if any(lead)]  # a constant lead is the unit ideal
        supports = [frozenset(i for i, e in enumerate(lead) if e) for lead in leads]
        assert _least_hitting_set(supports) == _subset_search_codimension(leads, n)


def test_least_hitting_set_on_long_and_wide_inputs():
    # 2000 forced indices in a row, and 2^40 branch choices that lead to
    # one set of missed supports per level
    assert _least_hitting_set([frozenset([i]) for i in range(2000)]) == 2000
    assert _least_hitting_set([frozenset([2 * i, 2 * i + 1]) for i in range(40)]) == 40


def test_codimension_of_many_independent_coordinates():
    ctx = RingContext.torus(40)
    ideal = LaurentIdeal(ctx, [ctx.variable(i) - 1 for i in range(40)])
    assert ideal.codimension() == 40
    assert LaurentIdeal(ctx, [ctx.variable(i) - 1 for i in range(0, 40, 2)]).codimension() == 20


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
        runs.append(tuple(str(g) for g in ideal.groebner_basis()))
    assert runs[0] == runs[1] == runs[2]
    polys = [laurent_to_poly(g) for g in gens]
    lex_runs = [tuple(map(str, buchberger(_saturate(polys, 2), LEX))) for _ in range(2)]
    assert lex_runs[0] == lex_runs[1]


def test_spair_budget_enforced(ctx2, monkeypatch):
    x, y = gens2(ctx2)
    gens = [x**3 * y - x, y**3 - x * y + 1, x**2 * y**2 - 3]
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    with pytest.raises(ResourceError):
        LaurentIdeal(ctx2, gens).groebner_basis()


def test_spair_budget_reaches_every_entry_point(ctx2, monkeypatch):
    # the budget is read inside buchberger, so each entry point that used to
    # take a per-call budget raises on a fresh ideal once the constant is set
    x, y = gens2(ctx2)
    gens = [x**3 * y - x, y**3 - x * y + 1, x**2 * y**2 - 3]
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    probes = {
        "groebner_basis": lambda: LaurentIdeal(ctx2, gens).groebner_basis(),
        "radical_contains": lambda: LaurentIdeal(ctx2, gens).radical_contains(x + y),
        "codimension": lambda: LaurentIdeal(ctx2, gens).codimension(),
        "variety_containment": lambda: variety_containment(
            LaurentIdeal(ctx2, gens), LaurentIdeal(ctx2, [x])
        ),
        "_saturate": lambda: _saturate(_restriction_heavy_polys(), 3),
    }
    for name, probe in probes.items():
        with pytest.raises(ResourceError):
            probe()
            pytest.fail(name)


def test_order_tags():
    elim = elimination_order((2,))
    key_inside = elim.key((0, 0, 1))
    key_outside = elim.key((5, 5, 0))
    assert key_inside > key_outside  # block variable dominates


def _recorded_order_names(monkeypatch, run) -> list[str]:
    """The names of the orders run() passes to ``buchberger``."""
    names, real = [], groebner.buchberger

    def recording(generators, order, start=()):
        names.append(order.name)
        return real(generators, order, start=start)

    monkeypatch.setattr(groebner, "buchberger", recording)
    run()
    return names


def test_order_names_seen_by_buchberger(monkeypatch):
    # the traced run names a buchberger span from order.name: "elim" is the
    # saturation, "grevlex" a restriction or basis run
    n, t1, t2, one = 2, (1, 0), (0, 1), (0, 0)
    through_origin = [{t1: 1, t2: -1}]  # t1 - t2 meets every coordinate hyperplane
    off_axes = [{t1: 1, one: -1}, {t2: 1, one: -1}]
    assert _recorded_order_names(monkeypatch, lambda: _saturate_by_elimination(through_origin, n)) == ["elim"]
    assert _recorded_order_names(monkeypatch, lambda: _saturate(through_origin, n)) == ["grevlex", "elim"]
    assert _recorded_order_names(monkeypatch, lambda: _saturate(off_axes, n)) == ["grevlex"] * (n + 1)


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_order((0,))], ids=lambda o: o.name)
def test_memoized_order_sorts_as_the_order(order, monkeypatch):
    # buchberger swaps in a memo of order.key; it must rank exponents alike
    seen, real = [], groebner._normalize

    def recording(p, memo):
        seen.append(memo)
        return real(p, memo)

    monkeypatch.setattr(groebner, "_normalize", recording)
    n = 3
    buchberger([{_var(n, 0): 1, _var(n, 1): -1}, {_var(n, 2): 2, (0,) * n: -1}], order)
    memo = seen[0]
    assert memo.name == order.name and memo.key is not order.key
    rng = random.Random(61)
    for _ in range(20):
        exps = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(8)]
        assert sorted(exps, key=memo.key) == sorted(exps, key=order.key)
        assert [memo.key(e) for e in exps] == [order.key(e) for e in exps]


# -- saturation fast path against the elimination it skips -------------------


def _random_poly(rng, n, terms=3, degree=2):
    return {
        tuple(rng.randint(0, degree) for _ in range(n)): rng.choice([-3, -2, -1, 1, 2, 3])
        for _ in range(terms)
    }


def _var(n, i):
    return tuple(int(k == i) for k in range(n))


def _structured_ideals(n):
    """Raw generator lists for each branch of the fast-path decision."""
    one = (0,) * n
    t1, t2 = _var(n, 0), _var(n, 1)
    t1t2 = tuple(a + b for a, b in zip(t1, t2))
    return {
        # V = {(1, ..., 1)}: every restriction is the unit ideal
        "point": [{_var(n, i): 1, one: -1} for i in range(n)],
        # unit ideal: empty variety, fast path taken
        "unit": [{t1: 1, one: -1}, {t1: 1, one: -2}],
        # t1 + t2 vanishes on the hyperplane intersections: elimination decides
        "meets-hyperplane": [{t1: 1, t2: 1}],
        # t1*(t2 - 1) restricts to the zero ideal at t1 = 0
        "zero-restriction": [{t1t2: 1, t1: -1}],
        # a monomial generator: saturates to the unit ideal
        "monomial": [{t1t2: 1}, {t1: 1, t2: 1, one: 1}],
    }


def _assert_fast_matches_elimination(polys, n):
    # both paths return the reduced grevlex basis itself, the y-free part of
    # the elimination basis included: one more grevlex run changes nothing
    fast = _saturate(polys, n)
    slow = _saturate_by_elimination(polys, n)
    assert fast == slow == buchberger(slow, GREVLEX), polys
    return _misses_coordinate_hyperplanes(polys, n)


@pytest.mark.parametrize("n", [2, 3])
def test_saturation_fast_path_matches_elimination(n):
    rng = random.Random(60 + n)
    structured = _structured_ideals(n)
    taken = {name: _assert_fast_matches_elimination(polys, n) for name, polys in structured.items()}
    assert taken == {
        "point": True, "unit": True, "meets-hyperplane": False,
        "zero-restriction": False, "monomial": False,
    }
    assert _is_unit_basis(_saturate(structured["unit"], n))
    assert _is_unit_basis(_saturate(structured["monomial"], n))
    branches = set()
    for _ in range(30):
        polys = [_random_poly(rng, n, terms=rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        branches.add(_assert_fast_matches_elimination(polys, n))
    assert branches == {True, False}


def test_saturation_fast_path_matches_elimination_on_fixture_stock():
    # every Fitting and jumping ideal of the standard stock; their varieties
    # lie in the torus, so the fast path decides all of them
    for fixture in standard_fixture_suite():
        cx = fixture.complex
        n = cx.context.num_vars
        for degree in cx.degrees():
            for ideal in (cx.fitting_ideal(degree), cx.jumping_ideal(degree)):
                polys = [laurent_to_poly(g) for g in ideal.generators if not g.is_zero()]
                if polys:
                    _assert_fast_matches_elimination(polys, n)


def _restriction_heavy_polys():
    # the restriction t1 = 0 is (t2^3 - t3, t2*t3 - 1, t3^2 - t2), whose
    # basis needs more than a handful of S-pairs
    one = 1
    return [
        {(0, 3, 0): one, (0, 0, 1): -one, (1, 0, 0): one},
        {(0, 1, 1): one, (0, 0, 0): -one},
        {(0, 0, 2): one, (0, 1, 0): -one, (1, 0, 0): one},
    ]


def test_saturation_restrictions_respect_budget(monkeypatch):
    polys = _restriction_heavy_polys()
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 3)
    with pytest.raises(ResourceError):
        _misses_coordinate_hyperplanes(polys, 3)
    with pytest.raises(ResourceError):
        _saturate(polys, 3)


def test_unit_ideal_radical_membership_without_elimination(ctx2, monkeypatch):
    # neither the saturation nor the radical test adjoins a variable: the
    # unit ideal takes the fast path and answers before Rabinowitsch
    from jumploci import groebner

    ring_sizes = []
    real = groebner.buchberger

    def recording(generators, order):
        ring_sizes.append({len(e) for g in generators for e in g})
        return real(generators, order)

    monkeypatch.setattr(groebner, "buchberger", recording)
    t1, t2 = ctx2.variable(0), ctx2.variable(1)
    unit = LaurentIdeal(ctx2, [t1 - 1, t1 - 2])
    assert unit.radical_contains(t2 + 5)
    assert unit.groebner_basis() == (ctx2.one(),)
    assert ring_sizes and all(sizes == {2} for sizes in ring_sizes)


# -- independent oracle: sympy's Groebner bases ------------------------------


def _sympy_basis(polys, n, order):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"x1:{n + 1}")
    exprs = [
        sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(v**e for v, e in zip(gens, exp))
            for exp, c in p.items())
        for p in polys
    ]
    basis = sympy.groebner(exprs, *gens, order=order)
    out = []
    for expr in basis.exprs:
        terms = sympy.Poly(expr, *gens).terms()
        out.append({exp: Fraction(int(c.p), int(c.q)) for exp, c in terms})
    return out


def _monic(p, order):
    lead = p[max(p, key=order.key)]
    return {e: Fraction(c, lead) for e, c in p.items()}


@pytest.mark.parametrize("n", [2, 3])
def test_buchberger_matches_sympy_oracle(n):
    pytest.importorskip("sympy")
    rng = random.Random(70 + n)
    units = set()
    for _ in range(25):
        polys = [_random_poly(rng, n, terms=rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        for order, name in ((GREVLEX, "grevlex"), (LEX, "lex")):
            ours = buchberger(polys, order)
            theirs = _sympy_basis(polys, n, name)
            key = lambda p: sorted(p.items())  # noqa: E731
            assert sorted((_monic(g, order) for g in ours), key=key) == sorted(
                (_monic(g, order) for g in theirs), key=key), (polys, name)
            units.add(_is_unit_basis(ours))
            assert _is_unit_basis(ours) == (theirs == [{(0,) * n: Fraction(1)}])
    assert units == {True, False}


def _sympy_codimension(gens, n):
    """N minus the largest number of variables S with
    (I + (1 - y*t1*...*tN)) & Q[S] = 0, math.inf if no S qualifies (the
    unit ideal).  Each intersection is read off a lex basis with y and the
    variables outside S eliminated first (the elimination theorem); each
    Laurent generator is moved into Q[t] by a monomial, a unit."""
    sympy = pytest.importorskip("sympy")
    ts, y = sympy.symbols(f"t1:{n + 1}"), sympy.Symbol("y")
    exprs = [1 - y * sympy.prod(ts)]
    for g in gens:
        if g.terms:
            mins = [min(col) for col in zip(*g.terms)]
            exprs.append(sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.prod(t ** (e - m) for t, e, m in zip(ts, exp, mins))
                for exp, c in g.terms.items()
            ))
    for size in range(n, -1, -1):
        for kept in combinations(ts, size):
            eliminated = [t for t in ts if t not in kept]
            basis = sympy.groebner(exprs, y, *eliminated, *kept, order="lex")
            if not any(expr.free_symbols <= set(kept) for expr in basis.exprs):
                return n - size
    return math.inf


@pytest.mark.parametrize("n", [1, 2, 3])
def test_codimension_matches_sympy_elimination(n):
    pytest.importorskip("sympy")
    rng = random.Random(130 + n)
    ctx = RingContext.torus(n)
    t = [ctx.variable(i) for i in range(n)]
    # the zero ideal two ways, the unit ideal three ways, the identity point
    ideals = [[], [ctx.zero()], [ctx.one()], [t[0] - 1, t[0] - 2], [t[0]], [ti - 1 for ti in t]]

    def random_binomial():
        # two distinct exponents (their first coordinates differ)
        a, b = ((e,) + tuple(rng.randint(-1, 1) for _ in range(n - 1)) for e in rng.sample(range(-1, 3), 2))
        c = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        return ctx.monomial(a, rng.choice([1, 2])) - ctx.monomial(b, c)

    for _ in range(12):
        # up to n binomial generators, or one product of two, so that every
        # codimension from 1 to n and the empty locus all occur
        size = rng.randint(1, n)
        gens = [random_binomial() for _ in range(size)]
        ideals.append(gens if size > 1 else [gens[0] * random_binomial()])
    seen = set()
    for gens in ideals:
        codim = LaurentIdeal(ctx, gens).codimension()
        assert codim == _sympy_codimension(gens, n), gens
        seen.add(codim)
    assert seen == {0, math.inf, *range(1, n + 1)}, seen


# -- fraction-free engine against the rational reduction it replaced ----------


def _fraction_reduce(p, basis, order):
    """Reference: full reduction over Q, dividing by lead coefficients, as
    the engine did with Fraction coefficients."""
    basis = [g for g in basis if g]
    divisors = list(zip(basis, [_lead(g, order) for g in basis]))
    remainder = {}
    work = dict(p)
    while work:
        exp = max(work, key=order.key)
        coeff = work[exp]
        for g, (gexp, gcoeff) in divisors:
            if all(map(ge, exp, gexp)):
                shift = tuple(map(sub, exp, gexp))
                scale = coeff / gcoeff
                for gterm, c in g.items():
                    term = tuple(map(add, gterm, shift))
                    s = work.get(term, 0) - scale * c
                    if s:
                        work[term] = s
                    else:
                        del work[term]
                break
        else:
            remainder[exp] = coeff
            del work[exp]
    return remainder


def _rational_poly(rng, n, terms, degree):
    p = {}
    for _ in range(terms):
        c = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        p[tuple(rng.randint(0, degree) for _ in range(n))] = c
    return p


def _poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _as_fractions(p):
    return {e: Fraction(c) for e, c in p.items()}


def _integral(p):
    """p times the lcm of its denominators, a positive integer: the same
    ideal, and the same normal form up to a positive factor."""
    den = math.lcm(*(Fraction(c).denominator for c in p.values()))
    return {e: int(c * den) for e, c in p.items()}


@pytest.mark.parametrize("n", [2, 3])
def test_integer_reduce_is_positive_multiple_of_rational_normal_form(n):
    rng = random.Random(90 + n)
    zero_seen = nonzero_seen = 0
    for trial in range(60):
        order = (GREVLEX, LEX)[trial % 2]
        gens = [_integral(_rational_poly(rng, n, rng.randint(1, 3), 2)) for _ in range(rng.randint(1, 3))]
        # half the bases are Groebner bases from the engine, half raw lists
        basis = buchberger(gens, order) if trial % 4 < 2 else [_normalize(g, order) for g in gens]
        if trial % 3 == 0:  # an element of the ideal
            p = {}
            for g in basis:
                for e, c in _poly_mul(g, _rational_poly(rng, n, 2, 1)).items():
                    p[e] = p.get(e, 0) + c
            p = {e: Fraction(c) for e, c in p.items() if c}
        else:
            p = _rational_poly(rng, n, rng.randint(1, 6), 4)
        # integer multiples make the content removal after a scaled step fire
        p = _integral({e: c * rng.choice([1, 6, 30]) for e, c in p.items()})
        ours = _reduce(p, basis, order, [_lead(g, order) for g in basis])
        ref = _fraction_reduce(p, [_as_fractions(g) for g in basis], order)
        assert all(type(c) is int for c in ours.values())
        assert ours.keys() == ref.keys(), (p, basis, order.name)
        if not ref:
            zero_seen += 1
            continue
        nonzero_seen += 1
        exp = next(iter(ref))
        m = Fraction(ours[exp]) / ref[exp]
        assert m > 0
        assert all(Fraction(c) == m * ref[e] for e, c in ours.items()), (p, basis, order.name)
    assert zero_seen and nonzero_seen
    # 3*t1 + 3 against 2*t1 + 1: scaled by 2, then the content 3 is removed,
    # leaving 1 = (2/3) * (3/2)
    t1, one = (1,) + (0,) * (n - 1), (0,) * n
    assert _reduce({t1: 3, one: 3}, [{t1: 2, one: 1}], GREVLEX, [(t1, 2)]) == {one: 1}


@pytest.mark.parametrize("n", [2, 3])
def test_buchberger_returns_primitive_integer_polynomials(n):
    rng = random.Random(99 + n)
    orders = (GREVLEX, LEX, elimination_order((n - 1,)))
    for trial in range(30):
        gens = [_integral(_rational_poly(rng, n, rng.randint(1, 3), 2)) for _ in range(rng.randint(1, 3))]
        for order in orders:
            basis = buchberger(gens, order)
            assert basis
            for g in basis:
                assert all(type(c) is int for c in g.values()), (gens, order.name)
                assert math.gcd(*g.values()) == 1
                assert _lead(g, order)[1] > 0


# -- pair criteria against the pair loop they prune ---------------------------


def _reference_buchberger(generators, order):
    """Reduced Groebner basis with the coprime-lead test as the only pair
    filter: every other pair is reduced.  A copy of the engine's loop before
    the Gebauer-Moeller criteria, without the S-pair budget."""
    key = order.key
    gens = [_normalize(g, order) for g in generators if g]
    gens.sort(key=lambda g: (key(_lead(g, order)[0]), sorted(g.items())))
    basis, leads, sugars, pairs = [], [], [], []

    def add_poly(p, sugar):
        k = len(basis)
        p = _normalize(p, order)
        pexp = max(p, key=key)
        basis.append(p)
        leads.append((pexp, p[pexp]))
        sugars.append(sugar)
        pdeg = sum(pexp)
        for i in range(k):
            iexp = leads[i][0]
            if all(a == 0 or b == 0 for a, b in zip(iexp, pexp)):
                continue
            lcm_deg = sum(map(max, iexp, pexp))
            s = max(sugars[i] + lcm_deg - sum(iexp), sugar + lcm_deg - pdeg)
            heapq.heappush(pairs, (s, i, k))

    for g in gens:
        g = _reduce(g, basis, order, leads)
        if _is_constant(g):
            return [_normalize(g, order)]
        if g:
            add_poly(g, sum(max(g, key=key)))
    while pairs:
        sugar, i, j = heapq.heappop(pairs)
        s = groebner._spoly(basis[i], basis[j], leads[i], leads[j])
        s = _reduce(s, basis, order, leads)
        if _is_constant(s):
            return [_normalize(s, order)]
        if s:
            add_poly(s, sugar)
    minimal, kept_leads = [], []
    for k in sorted(range(len(basis)), key=lambda k: key(leads[k][0])):
        if any(all(map(ge, leads[k][0], lead[0])) for lead in kept_leads):
            continue
        minimal.append(basis[k])
        kept_leads.append(leads[k])
    reduced = []
    for idx, g in enumerate(minimal):
        r = _reduce(g, minimal[:idx] + minimal[idx + 1 :], order,
                    kept_leads[:idx] + kept_leads[idx + 1 :])
        reduced.append(_normalize(r, order))
    reduced.sort(key=lambda g: key(max(g, key=key)), reverse=True)
    return reduced


@pytest.fixture
def spoly_calls(monkeypatch):
    """A one-element list counting ``_spoly`` calls, the S-pairs reduced."""
    calls = [0]
    real = groebner._spoly

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(groebner, "_spoly", counting)
    return calls


def _pruned_count(gens, order, calls):
    """(engine basis, reference basis, pairs the engine reduced, pairs the
    reference reduced)."""
    calls[0] = 0
    ours = buchberger(gens, order)
    pruned = calls[0]
    calls[0] = 0
    ref = _reference_buchberger(gens, order)
    return ours, ref, pruned, calls[0]


def _binomial_ideal(rng, n, size, degree):
    """Monomials and binomials with small exponents, so that many pair lcms
    coincide and every criterion has something to delete."""
    gens = []
    for _ in range(size):
        exps = {tuple(rng.randint(0, degree) for _ in range(n))}
        exps.add(rng.choice([(0,) * n, tuple(rng.randint(0, degree) for _ in range(n))]))
        gens.append({e: rng.choice([-2, -1, 1, 2]) for e in exps})
    return gens


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_criteria_match_the_unpruned_loop(n, spoly_calls):
    rng = random.Random(110 + n)
    orders = (GREVLEX, LEX, elimination_order((n - 1,)))
    units, ours_total, ref_total = set(), 0, 0
    for trial in range(24):
        if trial % 3 == 2:
            gens = [_integral(_rational_poly(rng, n, rng.randint(1, 3), 2)) for _ in range(rng.randint(1, 3))]
        else:
            gens = _binomial_ideal(rng, n, rng.randint(2, n + 3), 3 if n < 4 else 2)
        for order in orders:
            ours, ref, pruned, full = _pruned_count(gens, order, spoly_calls)
            assert ours == ref, (gens, order.name)
            assert _is_unit_basis(ours) == _is_unit_basis(ref)
            units.add(_is_unit_basis(ours))
            ours_total += pruned
            ref_total += full
    assert units == {True, False}
    assert ours_total < ref_total


def _monomials(*exps):
    return [{e: 1} for e in exps]


def test_criterion_f_keeps_one_pair_per_lcm(spoly_calls):
    # grevlex adds y*z, x*z, x*y in this order; x*y meets both earlier
    # elements at lcm x*y*z, and only one of those two pairs is reduced
    # (the queued pair (y*z, x*z) stays: T(y*z, x*y) equals its lcm)
    gens = _monomials((0, 1, 1), (1, 0, 1), (1, 1, 0))
    ours, ref, pruned, full = _pruned_count(gens, GREVLEX, spoly_calls)
    assert ours == ref and (pruned, full) == (2, 3)


def test_criterion_b_deletes_a_queued_pair(spoly_calls):
    # lex adds y^2*z, x*z^2, x*y*z in this order; x*y*z divides the queued
    # lcm x*y^2*z^2 and meets each element at a proper divisor of it
    gens = _monomials((0, 2, 1), (1, 0, 2), (1, 1, 1))
    ours, ref, pruned, full = _pruned_count(gens, LEX, spoly_calls)
    assert ours == ref and (pruned, full) == (2, 3)


def test_criterion_m_drops_a_new_pair_with_a_divisible_lcm(spoly_calls):
    # lex adds y*z, x*z^2, x*y in this order; x*y meets y*z at x*y*z, which
    # strictly divides its lcm x*y*z^2 with x*z^2, so that pair is dropped
    gens = _monomials((0, 1, 1), (1, 0, 2), (1, 1, 0))
    ours, ref, pruned, full = _pruned_count(gens, LEX, spoly_calls)
    assert ours == ref and (pruned, full) == (2, 3)


def test_element_with_a_divisible_lead_gets_no_new_pairs(spoly_calls):
    # (x^2*y - 1, x*y^2 - y) is (x - 1, y - 1); on the way the basis gains
    # leads that divide earlier ones, and those earlier elements pair with
    # nothing added later: 5 pairs are reduced, 6 without this rule and 13
    # with the coprime-lead test alone
    gens = [{(0, 1): 1, (1, 2): -1}, {(2, 1): 1, (0, 0): -1}]
    ours, ref, pruned, full = _pruned_count(gens, GREVLEX, spoly_calls)
    assert ours == ref == [{(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1}]
    assert (pruned, full) == (5, 13)


def test_a_constant_generator_returns_the_unit_basis_at_once(monkeypatch, spoly_calls):
    # the hyperplane test restricts each t_i - 1 to a constant: the unit
    # basis comes back before any generator is normalized or sorted, and
    # without an S-pair
    calls = [0]
    real = groebner._normalize

    def counting(p, order):
        calls[0] += 1
        return real(p, order)

    monkeypatch.setattr(groebner, "_normalize", counting)
    n = 6
    gens = [{tuple(int(k == i) for k in range(n)): 1, (0,) * n: -1} for i in range(1, n)]
    gens.insert(2, {(0,) * n: Fraction(-3, 2)})
    for order in (GREVLEX, LEX, elimination_order((0,))):
        assert buchberger(gens, order) == [{(0,) * n: 1}]
    assert calls[0] == 0
    assert spoly_calls[0] == 0


# -- a start basis: extending a reduced basis without recomputing it ----------


def _random_gens(rng, n):
    if rng.random() < 0.5:
        return _binomial_ideal(rng, n, rng.randint(1, n + 1), 2)
    return [_integral(_rational_poly(rng, n, rng.randint(1, 3), 2)) for _ in range(rng.randint(1, 3))]


@pytest.mark.parametrize("n", [2, 3])
def test_start_basis_equals_prepending_it_to_the_generators(n, spoly_calls):
    rng = random.Random(130 + n)
    units = set()
    for trial in range(40):
        order = (GREVLEX, LEX)[trial % 2]
        start = buchberger(_random_gens(rng, n), order)
        gens = _random_gens(rng, n)
        ours = buchberger(gens, order, start=start)
        assert ours == buchberger(start + gens, order), (start, gens, order.name)
        units.add(_is_unit_basis(ours))
        # with nothing to add, the start basis comes back without an S-pair
        spoly_calls[0] = 0
        assert buchberger([], order, start=start) == start
        assert spoly_calls[0] == 0
    assert units == {True, False}


def _padded(basis):
    return [{e + (0,): c for e, c in p.items()} for p in basis]


def _rebuilt_radical_contains(ideal, f):
    """Radical membership with the cached basis handed to ``buchberger`` as
    generators next to 1 - z*f, as it was decided before the start basis."""
    if f.is_zero() or ideal.is_unit_ideal():
        return True
    if not ideal._basis:
        return False  # radical of (0) in a domain is (0)
    rel = {exp + (1,): -c for exp, c in laurent_to_poly(f).items()}
    rel[(0,) * (ideal.context.num_vars + 1)] = 1
    return _is_unit_basis(buchberger(_padded(ideal._basis) + [rel], GREVLEX))


def _random_laurent(rng, ctx, terms):
    n = ctx.num_vars
    return LaurentPoly(ctx, {tuple(rng.randint(-1, 2) for _ in range(n)): rng.choice([-2, -1, 1, 2])
                             for _ in range(terms)})


@pytest.mark.parametrize("n", [2, 3])
def test_radical_membership_matches_rebuilding_from_generators(n):
    rng = random.Random(140 + n)
    ctx = RingContext.torus(n)
    cases = [(LaurentIdeal(ctx, []), []), (LaurentIdeal(ctx, [ctx.one()]), [])]
    for _ in range(10):
        # g lies in the radical of an ideal holding g^2 times a unit or not
        g = _random_laurent(rng, ctx, 2)
        extra = [_random_laurent(rng, ctx, rng.randint(1, 3)) for _ in range(rng.randint(0, n - 1))]
        gens = [g * g * _random_laurent(rng, ctx, 1)] + extra
        cases.append((LaurentIdeal(ctx, gens), [g, gens[-1] * _random_laurent(rng, ctx, 2)]))
    decisions = set()
    for ideal, members in cases:
        for f in members + [ctx.zero(), _random_laurent(rng, ctx, 2), _random_laurent(rng, ctx, 3)]:
            decision = ideal.radical_contains(f)
            assert decision == _rebuilt_radical_contains(ideal, f), (ideal, f)
            assert decision or f not in members
            decisions.add(decision)
    assert decisions == {True, False}


def test_radical_membership_hands_buchberger_one_generator(ctx2, monkeypatch):
    x, y = gens2(ctx2)
    ideal = LaurentIdeal(ctx2, [x * y, x**2 + y])
    ideal.groebner_basis()
    calls = []
    real = groebner.buchberger

    def recording(generators, order, start=()):
        calls.append((len(generators), order.name, list(start)))
        return real(generators, order, start=start)

    monkeypatch.setattr(groebner, "buchberger", recording)
    for f in (x, y, x + y, ctx2.zero()):
        calls.clear()
        ideal.radical_contains(f)
        assert calls == [(1, "grevlex", _padded(ideal._basis))]


def test_spair_budget_reaches_the_extended_run(ctx2, monkeypatch, spoly_calls):
    x, y = gens2(ctx2)
    gens, f = [x**2, y**2], ctx2.variable(0) + ctx2.variable(1)
    probe = LaurentIdeal(ctx2, gens)
    probe.groebner_basis()
    spoly_calls[0] = 0
    assert not probe.radical_contains(f)
    assert spoly_calls[0] >= 2
    # the basis is computed under the default budget, the extension is not
    ideal = LaurentIdeal(ctx2, gens)
    ideal.groebner_basis()
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    with pytest.raises(ResourceError):
        ideal.radical_contains(f)


# -- the first-divisor memo against a full scan per term ----------------------


def _scanning_reduce(p, basis, order, leads, memo=None, remainder=None):
    """``_reduce`` as it was before the memo: every term scans the whole
    basis for its first divisor.  ``memo`` is ignored."""
    work, remainder = dict(p), dict(remainder or {})
    while work:
        exp = max(work, key=order.key)
        coeff = work[exp]
        for g, (gexp, gcoeff) in zip(basis, leads):
            if all(map(ge, exp, gexp)):
                d = math.gcd(coeff, gcoeff)
                scale = gcoeff // d
                for part in (work, remainder):
                    for term in part:
                        part[term] *= scale
                groebner.add_multiple(work, -(coeff // d), tuple(map(sub, exp, gexp)), g)
                content = math.gcd(*work.values(), *remainder.values())
                if scale != 1 and content > 1:
                    for part in (work, remainder):
                        for term in part:
                            part[term] //= content
                break
        else:
            remainder[exp] = coeff
            del work[exp]
    return remainder


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoized_reduction_matches_a_full_scan_per_term(n, monkeypatch, spoly_calls):
    rng = random.Random(150 + n)
    orders = (GREVLEX, LEX, elimination_order((n - 1,)))
    memoized, budget, pairs_seen = groebner._reduce, groebner.SPAIR_BUDGET, 0
    for trial in range(18):
        gens = _random_gens(rng, n) if trial % 2 else _binomial_ideal(rng, n, rng.randint(2, n + 3), 2)
        start = buchberger(_random_gens(rng, n), GREVLEX) if trial % 3 == 0 else []
        for order in orders if not start else (GREVLEX,):
            spoly_calls[0] = 0
            ours = buchberger(gens, order, start=start)
            pairs = spoly_calls[0]
            monkeypatch.setattr(groebner, "_reduce", _scanning_reduce)
            spoly_calls[0] = 0
            scanned = buchberger(gens, order, start=start)
            monkeypatch.setattr(groebner, "_reduce", memoized)
            assert (ours, pairs) == (scanned, spoly_calls[0]), (gens, start, order.name)
            if not start:
                assert ours == _reference_buchberger(gens, order)
            pairs_seen += pairs
            # the budget trips where it tripped: one pair short of the count
            if pairs:
                monkeypatch.setattr(groebner, "SPAIR_BUDGET", pairs - 1)
                with pytest.raises(ResourceError):
                    buchberger(gens, order, start=start)
                monkeypatch.setattr(groebner, "SPAIR_BUDGET", pairs)
                assert buchberger(gens, order, start=start) == ours
                monkeypatch.setattr(groebner, "SPAIR_BUDGET", budget)
    assert pairs_seen


def test_reduce_with_a_memo_shared_across_a_growing_basis(monkeypatch):
    rng = random.Random(160)
    for n, order in ((2, GREVLEX), (3, LEX), (3, elimination_order((2,))), (4, GREVLEX)):
        basis, leads, memo = [], [], {}
        for step in range(12):
            g = _normalize(_integral(_rational_poly(rng, n, rng.randint(1, 3), 2)), order)
            basis.append(g)
            leads.append(_lead(g, order))
            for _ in range(4):
                p = _integral(_rational_poly(rng, n, rng.randint(1, 6), 4))
                shared = _reduce(p, basis, order, leads, memo)
                assert shared == _reduce(p, basis, order, leads) == _scanning_reduce(p, basis, order, leads)
        assert any(k >= 0 for k, _ in memo.values()) and any(k < 0 for k, _ in memo.values())
    # a remainder passed in is kept and scaled with the result
    t1, one = (1, 0), (0, 0)
    assert _reduce({t1: 1}, [{t1: 2, one: 1}], GREVLEX, [(t1, 2)], None, {(2, 0): 1}) == {(2, 0): 2, one: -1}
