import math
import random
from fractions import Fraction
from itertools import product

import pytest

from jumploci import cli, fixtures
from jumploci.errors import InputError, ResourceError
from jumploci.fixtures import (
    MAX_FIXTURE_VARS,
    Fixture,
    free_module_fixture,
    induce_fixture,
    koszul,
    mellin_constant_torus,
    shift_complex,
    shift_fixture,
    sum_fixture,
    tensor_fixture,
    twist_fixture,
)
from jumploci.laurent import RingContext, TorsionPoint
from jumploci.loci import membership_at_point
from jumploci.sampling import random_rational_point, sample_points
from jumploci.verdict import perversity_verdict

from fixture_helpers import mutate_scale_entry, mutate_zero_entry, standard_fixture_suite


def test_koszul_shapes():
    ctx = RingContext.torus(2)
    x, y = ctx.variable(0) - 1, ctx.variable(1) - 1
    K1 = koszul([x])
    assert (K1.k_min, K1.k_max) == (-1, 0) and K1.ranks == (1, 1)
    K2 = koszul([x, y])
    assert K2.ranks == (1, 2, 1)
    K3 = koszul([x, y, x * y])
    assert K3.ranks == (1, 3, 3, 1)
    assert K3.validate() is None
    shifted = shift_complex(koszul([x, y]), 2)
    assert (shifted.k_min, shifted.k_max) == (0, 2)
    with pytest.raises(InputError):
        koszul([])


def test_koszul_repeated_generator():
    ctx = RingContext.torus(1)
    x = ctx.variable(0) - 1
    KK = koszul([x, x])
    assert KK.validate() is None
    # V^-1 = V^0 = {1} pointwise
    assert membership_at_point(KK, 0, ctx.identity_point())[0]
    assert membership_at_point(KK, -1, ctx.identity_point())[0]
    assert not membership_at_point(KK, -1, ctx.rational_point([2]))[0]


def test_mellin_profile_matches_paper_display():
    m1 = mellin_constant_torus(1)
    assert m1.profile.degrees() == [-1, 0]
    ident = m1.complex.context.identity_point()
    for d in (-1, 0):
        assert m1.profile.locus(d).contains_point(ident)
    m3 = mellin_constant_torus(3)
    assert m3.profile.degrees() == [-3, -2, -1, 0]
    assert m3.profile.euler == 0


def test_every_fixture_passes_validate_and_assumption():
    for fx in standard_fixture_suite():
        assert fx.complex.validate() is None, fx.name
        assert fx.complex.check_assumption(), fx.name


def test_fixture_profile_reads_its_own_complex():
    # a profile takes chi from its source, so what can break is the wiring;
    # the chi-rule test below checks the values
    for fx in standard_fixture_suite():
        assert fx.profile.source is fx.complex, fx.name


def test_declared_profiles_match_torsion_grid():
    # exhaustive grid of torsion points of order dividing 6 on the m = 1
    # fixtures, and a smaller grid for m = 2
    small = [
        mellin_constant_torus(1),
        twist_fixture(mellin_constant_torus(1), [Fraction(2)]),
        induce_fixture(mellin_constant_torus(1), [2]),
        induce_fixture(mellin_constant_torus(1), [3]),
    ]
    for fx in small:
        ctx = fx.complex.context
        for k in range(6):
            rho = TorsionPoint(ctx, [(Fraction(1), Fraction(k, 6))])
            for d in range(fx.complex.k_min - 1, fx.complex.k_max + 2):
                declared = fx.profile.locus(d).contains_point(rho)
                computed = membership_at_point(fx.complex, d, rho)[0]
                assert declared == computed, (fx.name, d, k)
    m2 = mellin_constant_torus(2)
    ctx = m2.complex.context
    for k1, k2 in product(range(3), repeat=2):
        rho = TorsionPoint(ctx, [(Fraction(1), Fraction(k1, 3)), (Fraction(1), Fraction(k2, 3))])
        for d in range(-3, 2):
            declared = m2.profile.locus(d).contains_point(rho)
            computed = membership_at_point(m2.complex, d, rho)[0]
            assert declared == computed


def test_declared_profiles_match_random_rational_points():
    rng = random.Random(77)
    for fx in standard_fixture_suite()[:8]:
        ctx = fx.complex.context
        for _ in range(100):
            rho = random_rational_point(ctx, rng)
            for d in fx.profile.degrees():
                declared = fx.profile.locus(d).contains_point(rho)
                computed = membership_at_point(fx.complex, d, rho)[0]
                assert declared == computed, (fx.name, d, rho)


def test_shift_fixture_expected_verdicts():
    m2 = mellin_constant_torus(2)
    for s, expected in [(1, "lower-only"), (-1, "upper-only"), (2, "lower-only")]:
        fx = shift_fixture(m2, s)
        report = perversity_verdict(fx.profile, samples=15, seed=2)
        assert report["verdict"] == expected == fx.expected_verdict, s


def test_mutation_gate():
    m2 = mellin_constant_torus(2)
    # zeroing one Koszul entry breaks d.d = 0
    mut = mutate_zero_entry(m2, -2, 0, 0)
    assert not mut.valid
    assert mut.complex.validate() is not None
    # scaling one entry of a rank-1 row complex keeps the identity
    m1 = mellin_constant_torus(1)
    mut1 = mutate_scale_entry(m1, -1, 0, 0, 7)
    assert mut1.valid and mut1.complex.validate() is None
    # scaling one entry of the m = 2 Koszul breaks it
    mut2 = mutate_scale_entry(m2, -2, 0, 0, 7)
    assert not mut2.valid
    # the first nonzero entry, in degree order and then row by row
    mut3 = mutate_zero_entry(mellin_constant_torus(3), -1, 0, 2)
    assert mut3.complex.validate() == (
        "composite differential d^-1 . d^-2 is nonzero at entry (0,1): -t1*t3 + t1 + t3 - 1"
    )


def test_tensor_fixture_kunneth_profile():
    left = mellin_constant_torus(1)
    right = mellin_constant_torus(2, 1)
    fx = tensor_fixture(left, right)
    assert fx.complex.ranks == (1, 3, 3, 1)
    assert fx.profile.degrees() == [-3, -2, -1, 0]
    ident = fx.complex.context.identity_point()
    for d in fx.profile.degrees():
        assert fx.profile.locus(d).contains_point(ident)


def test_induce_fixture_fans_out_components_of_any_dimension():
    # the induced complex at rho is the sum of the base at rho*zeta over the
    # n-torsion points zeta, so whole-space and line components translate
    # as points do
    m1, second = mellin_constant_torus(1), mellin_constant_torus(1, 1)
    free = free_module_fixture(1)
    covers = [
        (free, [2]),
        (free_module_fixture(2, rank=2), [2, 1]),
        (sum_fixture(m1, free), [3]),
        (shift_fixture(mellin_constant_torus(2), 1), [2, 1]),
        (shift_fixture(free, -1), [3]),
        (tensor_fixture(twist_fixture(m1, [Fraction(2)]), second), [2, 1]),
        (tensor_fixture(free, twist_fixture(second, [Fraction(-1)])), [1, 2]),
    ]
    rng = random.Random(33)
    for base, n in covers:
        fx = induce_fixture(base, n)
        cx, loci = fx.complex, list(fx.profile.loci.values())
        points = sample_points(cx.context, rng, 12, loci=loci)
        points += [c.translate for union in loci for c in union.components]
        for rho in points:
            for d in range(cx.k_min - 1, cx.k_max + 2):
                declared = fx.profile.locus(d).contains_point(rho)
                assert declared == membership_at_point(cx, d, rho)[0], (fx.name, d, rho)
        assert perversity_verdict(fx.profile, samples=15, seed=1)["verdict"] == fx.expected_verdict, fx.name


# The Euler characteristic each builder once restated by hand, from its factors'.
CHI_RULES = {
    "mellin_constant_torus": lambda chi, m, offset=0: 0,  # Koszul
    "free_module_fixture": lambda chi, m, rank=1: rank,
    "twist_fixture": lambda chi, base, scalars: chi[base.name],
    "tensor_fixture": lambda chi, a, b: chi[a.name] * chi[b.name],
    "induce_fixture": lambda chi, base, n: chi[base.name] * math.prod(n),
    "sum_fixture": lambda chi, a, b: chi[a.name] + chi[b.name],
    "shift_fixture": lambda chi, base, s: (-1) ** (s % 2) * chi[base.name],
}


def _record_chi_rules(monkeypatch) -> dict:
    """Wrap every fixture builder so that each fixture it returns records,
    under its name, the Euler characteristic its rule gives."""
    chi = {}

    def recording(build, rule):
        def run(*args, **kwargs):
            fx = build(*args, **kwargs)
            chi[fx.name] = rule(chi, *args, **kwargs)
            return fx

        return run

    for name, rule in CHI_RULES.items():
        monkeypatch.setattr(fixtures, name, recording(getattr(fixtures, name), rule))
    return chi


def test_fixture_euler_follows_the_rule_of_its_construction(monkeypatch):
    chi = _record_chi_rules(monkeypatch)
    m2, free = fixtures.mellin_constant_torus(2), fixtures.free_module_fixture(2, rank=3)
    mixed = fixtures.sum_fixture(fixtures.mellin_constant_torus(1), fixtures.free_module_fixture(1))
    built = [*standard_fixture_suite(), fixtures.mellin_constant_torus(4)]
    built += [fixtures.shift_fixture(base, s) for base in (m2, free, mixed) for s in (-2, -1, 1, 2)]
    built += [
        fixtures.twist_fixture(free, [Fraction(2), Fraction(1, 3)]),
        fixtures.sum_fixture(free, fixtures.free_module_fixture(2)),
        fixtures.sum_fixture(free, fixtures.shift_fixture(free, 1)),
        fixtures.sum_fixture(m2, fixtures.shift_fixture(m2, -1)),
        fixtures.sum_fixture(fixtures.shift_fixture(mixed, 1), fixtures.free_module_fixture(1, rank=4)),
    ]
    # the stock's covers are of Koszul complexes, with chi = 0: covers of a
    # free module show the cover rule on a nonzero chi
    built += [fixtures.induce_fixture(free, n) for n in ([2, 1], [3, 2], [2, 2])]
    assert {chi[fx.name] for fx in built} == {-3, -1, 0, 1, 3, 4, 6, 12, 18}
    for fx in built:
        assert fx.profile.euler == chi[fx.name], fx.name


def _never(*args):
    raise AssertionError("an over-cap fixture was built")


def test_fixture_caps_refuse_before_building(monkeypatch):
    over = MAX_FIXTURE_VARS + 1
    m3, left, right = mellin_constant_torus(3), mellin_constant_torus(4), mellin_constant_torus(over - 4, 4)
    monkeypatch.setattr(fixtures, "koszul", _never)
    monkeypatch.setattr(fixtures, "external_tensor", _never)
    monkeypatch.setattr(fixtures, "induce_complex", _never)
    for build in (
        lambda: mellin_constant_torus(over),
        lambda: mellin_constant_torus(over, 1),
        lambda: free_module_fixture(over),
        lambda: tensor_fixture(left, right),
        lambda: induce_fixture(m3, [4, 4, 4]),  # 8 * 64 basis vectors
    ):
        with pytest.raises(ResourceError):
            build()


def test_named_fixture_refuses_an_unknown_name():
    # the command line offers only the names it builds; a library caller may pass any
    with pytest.raises(InputError, match="unknown fixture 'nope'"):
        fixtures.named_fixture("nope", 1)


def test_named_fixture_refuses_unread_and_missing_options():
    # the first once dropped n, the second raised AttributeError
    with pytest.raises(InputError, match="^the mellin fixture takes no --n$"):
        fixtures.named_fixture("mellin", 1, n=[3])
    with pytest.raises(InputError, match="^the twist fixture needs --lam$"):
        fixtures.named_fixture("twist", 1)


def test_command_line_offers_the_names_named_fixture_builds():
    # cli must not import fixtures, so it keeps the names as its own choices
    assert cli.COMMANDS["fixtures"][2][2] == tuple(fixtures._FIXTURE_OPTIONS)


def test_sum_fixture_union_profile():
    m1 = mellin_constant_torus(1)
    tw = twist_fixture(m1, [Fraction(2)])
    fx = sum_fixture(m1, tw)
    ctx = fx.complex.context
    v0 = fx.profile.locus(0)
    assert v0.contains_point(ctx.identity_point())
    assert v0.contains_point(ctx.rational_point([Fraction(1, 2)]))
    assert len(v0.components) == 2
    assert fx.profile.euler == 0


def test_standard_suite_size_and_names():
    suite = standard_fixture_suite()
    assert [fx.name for fx in suite] == [
        "mellin-torus-m1",
        "mellin-torus-m2",
        "mellin-torus-m3",
        "mellin-torus-m1-twist(2)",
        "mellin-torus-m2-twist(2,2)",
        "mellin-torus-m1-twist(-1)",
        "mellin-torus-m2-twist(-1,-1)",
        "mellin-torus-m1-twist(1/3)",
        "mellin-torus-m2-twist(1/3,1/3)",
        "mellin-torus-m2-twist(2,1/3)",
        "mellin-torus-m3-twist(2,-1,1/3)",
        "(mellin-torus-m1)x(mellin-torus-m1@1)",
        "(mellin-torus-m1)x(mellin-torus-m2@1)",
        "(mellin-torus-m1-twist(2))x(mellin-torus-m1@1)",
        "(mellin-torus-m1)x(mellin-torus-m1@1-twist(-1))",
        "mellin-torus-m1-induce(2)",
        "mellin-torus-m1-induce(3)",
        "mellin-torus-m2-induce(2,1)",
        "mellin-torus-m2-twist(2,1/3)-induce(2,1)",
        "mellin-torus-m1-twist(2)-induce(2)",
        "(mellin-torus-m1)+(mellin-torus-m1-twist(2))",
        "(mellin-torus-m2)+(mellin-torus-m2-twist(-1,2))",
        "(mellin-torus-m1)+(mellin-torus-m1-induce(2))",
        "(mellin-torus-m2)+(mellin-torus-m2)",
        "(mellin-torus-m1)+(free-module-m1-r1)",
        "free-module-m1-r1",
        "free-module-m2-r3",
    ]
    assert all(isinstance(fx, Fixture) for fx in suite)
