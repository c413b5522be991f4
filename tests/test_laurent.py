import math
import random
from fractions import Fraction

import pytest

from jumploci.complexes import Matrix
from jumploci.cyclotomic import Cyclotomic
from jumploci.errors import InputError, ResourceError
from jumploci.fixtures import substitute
from jumploci.laurent import (
    LaurentPoly, RingContext, TorsionPoint, format_rational, parse_int, parse_poly, parse_rational,
)
from jumploci.loci import MAX_RADIAL_POWER_BITS


@pytest.fixture
def ctx2():
    return RingContext.torus(2)


def test_context_invariants():
    ctx = RingContext(["a", "b", "c"], 1, 1)
    assert ctx.num_vars == 3
    with pytest.raises(InputError):
        RingContext(["a", "b"], 1, 1)  # 1 + 2*1 != 2
    with pytest.raises(InputError):
        RingContext(["a", "a"], 2, 0)  # duplicate names
    with pytest.raises(InputError):
        RingContext(["a", "2b"], 2, 0)  # bad identifier


def test_additive_inverse_is_zero(ctx2):
    t1 = ctx2.variable(0)
    assert ((t1 - 1) + (1 - t1)).is_zero()


def test_laurent_monomial_product(ctx2):
    t1 = ctx2.variable(0)
    assert (t1 - 1) * t1**-1 == 1 - t1**-1


def test_hand_expansion(ctx2):
    t1, t2 = ctx2.variable(0), ctx2.variable(1)
    assert (t1 - 1) * (t2 - 1) == t1 * t2 - t1 - t2 + 1


def test_context_mismatch_rejected(ctx2):
    other = RingContext.torus(1)
    with pytest.raises(InputError):
        ctx2.variable(0) + other.variable(0)


def test_canonical_form_no_zero_terms(ctx2):
    t1 = ctx2.variable(0)
    p = t1 * t1 - t1**2
    assert p.terms == {}
    # a - b == 0 iff identical term maps
    a = 2 * t1 + ctx2.const(Fraction(1, 3))
    b = ctx2.const(Fraction(1, 3)) + t1 + t1
    assert (a - b).is_zero() and a.terms == b.terms


def test_pow_negative_only_for_monomials(ctx2):
    t1 = ctx2.variable(0)
    assert (2 * t1) ** -2 == ctx2.monomial([-2, 0], Fraction(1, 4))
    with pytest.raises(InputError):
        (t1 + 1) ** -1


def test_evaluate_examples():
    ctx = RingContext.torus(1)
    t1 = ctx.variable(0)
    assert (t1 - 1).evaluate(ctx.identity_point()).is_zero()
    assert (t1 - 1).evaluate(ctx.rational_point([2])).as_fraction() == 1
    quarter = TorsionPoint(ctx, [(Fraction(1), Fraction(1, 4))])
    assert (t1**2).evaluate(quarter).as_fraction() == -1


def test_substitute_examples():
    ctx = RingContext.torus(2)
    t1, t2 = ctx.variable(0), ctx.variable(1)
    assert substitute(t1 - 1, [(Fraction(2), 1), (Fraction(1), 1)]) == 2 * t1 - 1
    assert substitute(t1 - 1, [(Fraction(1), 2), (Fraction(1), 1)]) == t1**2 - 1
    assert substitute(t1 * t2, [(Fraction(1), -1), (Fraction(3), 1)]) == 3 * t1**-1 * t2


def test_substitute_rejects_degenerate(ctx2):
    t1 = ctx2.variable(0)
    with pytest.raises(InputError):
        substitute(t1, [(Fraction(0), 1), (Fraction(1), 1)])
    with pytest.raises(InputError):
        substitute(t1, [(Fraction(1), 0), (Fraction(1), 1)])


def _random_poly(ctx, rng, terms=4):
    p = ctx.zero()
    for _ in range(terms):
        exp = [rng.randint(-3, 3) for _ in range(ctx.num_vars)]
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = p + ctx.monomial(exp, coeff)
    return p


def _random_point(ctx, rng):
    coords = [
        (Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3])),
         Fraction(rng.choice([0, 0, 1, 1, 2, 3]), rng.choice([1, 2, 3, 4, 6])))
        for _ in range(ctx.num_vars)
    ]
    return TorsionPoint(ctx, coords)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    ctx = RingContext.torus(2)
    for _ in range(60):
        a, b = _random_poly(ctx, rng), _random_poly(ctx, rng)
        rho = _random_point(ctx, rng)
        assert (a * b).evaluate(rho) == a.evaluate(rho) * b.evaluate(rho)
        assert (a + b).evaluate(rho) == a.evaluate(rho) + b.evaluate(rho)


def _embed(z, order):
    """z in Q(zeta_L) as an element of Q(zeta_M), M a multiple of L, by
    zeta_L -> zeta_M^(M/L): Cyclotomic compares only equal orders."""
    step = order // z.order
    out = Cyclotomic.rational(order, 0)
    for k, c in enumerate(z.coeffs):
        out = out + Cyclotomic.root_of_unity(order, k * step).scale(c)
    return out


def test_substitute_evaluate_naturality():
    # substitute then evaluate at rho == evaluate at the transformed point
    # (whose angle order may be a proper divisor of rho's)
    rng = random.Random(12)
    ctx = RingContext.torus(2)
    for _ in range(100):
        p = _random_poly(ctx, rng)
        rho = _random_point(ctx, rng)
        lams = [Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2])) for _ in range(2)]
        ns = [rng.choice([1, 2, -1, 3]) for _ in range(2)]
        power = TorsionPoint(ctx, [(q**n, n * th) for (q, th), n in zip(rho.coords, ns)])
        image = power * ctx.rational_point(lams)
        lhs = substitute(p, list(zip(lams, ns))).evaluate(rho)
        rhs = p.evaluate(image)
        order = math.lcm(lhs.order, rhs.order)
        assert _embed(lhs, order) == _embed(rhs, order)


def test_torsion_point_canonicalization():
    ctx = RingContext.torus(1)
    a = TorsionPoint(ctx, [(Fraction(-1), Fraction(0))])
    b = TorsionPoint(ctx, [(Fraction(1), Fraction(1, 2))])
    assert a == b
    # the kept hash is the hash of the canonical coordinates, on every call
    assert hash(a) == hash(b) == hash(a) == hash((ctx, b.coords))
    assert len({a, b, ctx.identity_point()}) == 2
    assert a.angle_order() == 2
    with pytest.raises(InputError):
        TorsionPoint(ctx, [(Fraction(0), Fraction(0))])


def test_torsion_point_group_ops():
    ctx = RingContext.torus(2)
    p = TorsionPoint(ctx, [(Fraction(2), Fraction(1, 3)), (Fraction(1, 2), Fraction(0))])
    inverse = TorsionPoint(ctx, [(1 / q, -th) for q, th in p.coords])
    assert p * inverse == ctx.identity_point()
    # the componentwise power (q_i^e_i, e_i * theta_i) for e = (3, -1)
    q = TorsionPoint(ctx, [(Fraction(2) ** 3, 3 * Fraction(1, 3)), (Fraction(1, 2) ** -1, Fraction(0))])
    assert q.coords[0] == (Fraction(8), Fraction(0))
    assert q.coords[1] == (Fraction(2), Fraction(0))


def test_character_values():
    ctx = RingContext.torus(2)
    p = ctx.rational_point([2, 3])
    assert ctx.monomial([1, 1]).evaluate(p).as_fraction() == 6
    assert p.character([1, 1]) == (0, 6)
    assert p.character([0, 0]) == (0, 1)
    assert p.character([1, 0]) != (0, 1)
    # -2 = 2 * e^(2*pi*i/2), and t1^-3 * t2^2 at (-2, e^(2*pi*i/3)) is -1/8 * e^(4*pi*i/3)
    z = TorsionPoint(ctx, [(Fraction(-2), Fraction(0)), (Fraction(1), Fraction(1, 3))])
    assert z.character([1, 0]) == (Fraction(1, 2), 2)
    assert z.character([-3, 2]) == (Fraction(1, 6), Fraction(1, 8))


def test_character_is_trivial_matches_field_value():
    # the character is read off radial parts and angles alone; it must
    # agree with the value computed in Q(zeta_L), and be (0, 1) exactly when
    # that value is 1
    rng = random.Random(14)
    ctx = RingContext.torus(2)
    radials = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(-3, 2)]
    trivial = 0
    for _ in range(300):
        p = TorsionPoint(
            ctx,
            [(rng.choice(radials), Fraction(rng.randint(0, 11), 12)) for _ in range(2)],
        )
        k = [rng.randint(-4, 4) for _ in range(2)]
        value = ctx.monomial(k).evaluate(p)
        expected = value.is_one()
        angle, radial = p.character(k)
        assert 0 <= angle < 1 and radial > 0, (p, k)
        steps = angle * value.order
        assert steps.denominator == 1, (p, k)
        assert Cyclotomic.root_of_unity(value.order, int(steps)).scale(radial) == value, (p, k)
        assert (p.character(k) == (0, 1)) == expected, (p, k)
        trivial += expected
    assert 0 < trivial < 300


def test_evaluate_matches_per_term_sum():
    # one Cyclotomic built from accumulated coefficients equals the sum of
    # one scaled root of unity per term
    rng = random.Random(15)
    ctx = RingContext.torus(2)
    radials = [Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(-4)]
    for _ in range(200):
        L = rng.randint(1, 60)
        point = TorsionPoint(
            ctx, [(rng.choice(radials), Fraction(rng.randrange(L), L)) for _ in range(2)]
        )
        p = ctx.zero()
        for _ in range(rng.randint(0, 5)):
            exp = [rng.randint(-3, 3) for _ in range(2)]
            p = p + ctx.monomial(exp, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        order = point.angle_order()
        expected = Cyclotomic.rational(order, 0)
        for exp, c in p.terms.items():
            radial = Fraction(1)
            angle = Fraction(0)
            for e, (q, theta) in zip(exp, point.coords):
                radial *= q**e
                angle += e * theta
            expected = expected + Cyclotomic.root_of_unity(order, int(angle * order)).scale(
                c * radial
            )
        value = p.evaluate(point)
        assert value.order == order and value.coeffs == expected.coeffs, (p, point)


def test_parse_print_round_trip():
    rng = random.Random(13)
    ctx = RingContext.torus(3)
    for _ in range(100):
        p = _random_poly(ctx, rng, terms=5)
        assert parse_poly(ctx, str(p)) == p
    assert str(ctx.zero()) == "0"
    assert parse_poly(ctx, "0").is_zero()


def test_parse_cancelling_terms():
    ctx = RingContext.torus(2)
    assert ctx.parse("t1 - t1 + 2") == ctx.const(2)
    assert ctx.parse("t1*t2 - t2*t1").is_zero()


def test_parse_grammar_forms():
    ctx = RingContext.torus(2)
    t1, t2 = ctx.variable(0), ctx.variable(1)
    assert ctx.parse("3/2 * t1^2 * t2^-1") == ctx.monomial([2, -1], Fraction(3, 2))
    assert ctx.parse("-t1 + 1") == 1 - t1
    assert ctx.parse("t1*t2 - t1 - t2 + 1") == (t1 - 1) * (t2 - 1)
    assert ctx.parse("  2*t1  -  1 ") == 2 * t1 - 1
    with pytest.raises(InputError):
        ctx.parse("t3 + 1")
    with pytest.raises(InputError):
        ctx.parse("t1 @ 2")
    with pytest.raises(InputError):
        ctx.parse("")
    # factors are joined by '*': juxtaposition and a dangling '*' are errors
    for text in ("2t1", "t1 t2", "1/2 t1", "t1*", "2 * t1 t2 - 1", "t1^2 3", "t1 * * t2"):
        with pytest.raises(InputError):
            ctx.parse(text)


@pytest.mark.parametrize(
    "value, digits",
    [(Fraction(10**5000), 5001), (Fraction(10**5000 - 1), 5000), (Fraction(-(10**4400) - 3, 7), 4401),
     (Fraction(3, 10**4300), 4301)],
)
def test_format_rational_refuses_numbers_too_long_to_print_with_their_digit_count(value, digits):
    with pytest.raises(ResourceError, match=f"a computed number of {digits} digits is too long to print"):
        format_rational(value)
    assert format_rational(Fraction(-(10**4299), 7)) == str(Fraction(-(10**4299), 7))


@pytest.mark.parametrize("text", ["0.25", "1.00000000000000001", " 2", "-3/4", "+1/2", "7" * 4300, "0/3"])
def test_parse_rational_reads_what_fraction_reads(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["1e3", "1E3", "2.5e-1", "1e100000000", "1/0", "", "x", "inf", "1.5/2", "7" * 4301,
     "1_0", "\u0663", "1/\u0664", "1_0/3", "1_0.5", "\u0661.5", "\u00a01",
     "1" * 3000 + "." + "1" * 3000, "0." + "0" * 4299 + "1"],
)
def test_parse_rational_refuses_exponents_and_values_too_long_to_print(text):
    # Fraction reads the seven with an underscore (from 3.11 on) or a
    # character outside ASCII, and the last two, whose numerator or
    # denominator has more digits than str prints
    with pytest.raises(InputError, match="malformed rational") as info:
        parse_rational(text)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("text", [" 7 ", "+3", "-0", "007", "7" * 4300, "-12", "\t5\n"])
def test_parse_int_reads_what_int_reads(text):
    assert parse_int(text) == int(text)


@pytest.mark.parametrize(
    "text",
    ["1_0", "\u0663", "-\u0661", "\u00a07", "7\u2003", "\u00b2", "1.0", "1.", "1/1", "1e3", "", " ", "+", "--1",
     "+-1", "- 1", "1 0", "x", "0x10", "7" * 4301],
)
def test_parse_int_refuses_all_but_ascii_digits_after_an_optional_sign(text):
    # int reads the first five: an underscore, other scripts' digits and spaces
    with pytest.raises(InputError, match="malformed integer") as info:
        parse_int(text)
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("name", ["t\u0661", "\u00e9", "t 1", "1t", ""])
def test_variable_names_are_ascii_identifiers(name):
    with pytest.raises(InputError, match="invalid variable name"):
        RingContext([name], 1, 0)


def test_radial_powers_are_capped_by_bit_length():
    # |e| times the larger bit length of q's numerator and denominator
    ctx = RingContext.torus(1)
    at_cap = Fraction(1, 2 ** (MAX_RADIAL_POWER_BITS - 1))
    assert parse_poly(ctx, "t1").evaluate(ctx.rational_point([at_cap])).as_fraction() == at_cap
    with pytest.raises(ResourceError, match=f"radial power bit length {2 * MAX_RADIAL_POWER_BITS} exceeds the cap"):
        parse_poly(ctx, "t1^-2").evaluate(ctx.rational_point([at_cap]))


def test_radial_powers_of_one_evaluation_share_one_cap():
    # each power alone is at the cap: a polynomial, a list of polynomials or
    # a matrix holding two of them is refused before either is built
    ctx = RingContext.torus(1)
    at_cap = ctx.rational_point([Fraction(1, 2 ** (MAX_RADIAL_POWER_BITS - 1))])
    message = f"radial power bit length {2 * MAX_RADIAL_POWER_BITS} exceeds the cap"
    with pytest.raises(ResourceError, match=message):
        parse_poly(ctx, "t1 + t1^-1").evaluate(at_cap)
    with pytest.raises(ResourceError, match=message):
        at_cap.values([ctx.parse("t1"), ctx.zero(), ctx.parse("t1^-1")])
    with pytest.raises(ResourceError, match=message):
        Matrix(ctx, 2, 1, [[ctx.parse("t1")], [ctx.parse("t1^-1 + 2")]]).evaluate(at_cap)
