import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jumploci.errors import InputError, ResourceError
from jumploci.fixtures import (
    free_module_fixture,
    induce_fixture,
    mellin_constant_torus,
    shift_fixture,
    sum_fixture,
    twist_fixture,
)
from jumploci.lattices import LinearComponent, LinearUnion
from jumploci.laurent import RingContext
from jumploci.profiles import (
    LociProfile,
    abelian_specialization_verdict,
    survival_interval,
    torus_specialization_verdict,
)
from jumploci.sampling import MAX_SAMPLES, sample_points
from jumploci.verdict import check_lower, check_upper, perversity_verdict, spot_check_profile

from fixture_helpers import abelian_point_profile


def _torus_point_profile(m, degrees):
    ctx = RingContext.torus(m)
    ident = LinearUnion.single_point(ctx.identity_point())
    return LociProfile(ctx, {d: ident for d in degrees})


def test_check_upper_examples():
    profile = _torus_point_profile(2, range(-2, 1))
    rows = check_upper(profile)
    assert all(r["ok"] for r in rows)
    shifted = _torus_point_profile(2, [d + 1 for d in range(-2, 1)])
    rows = check_upper(shifted)
    bad = [r for r in rows if not r["ok"]]
    assert bad and bad[0]["degree"] == 1 and bad[0]["actual"] == "0"


def test_check_upper_abelian_point():
    # an abelian point has abelian codimension g; passes degree 1 when g >= 1
    profile = abelian_point_profile(1, 1)
    rows = check_upper(profile)
    assert all(r["ok"] for r in rows)
    assert rows[-1]["degree"] == 1 and rows[-1]["actual"] == "1"


def test_check_lower_examples():
    profile = _torus_point_profile(2, range(-2, 1))
    assert all(r["ok"] for r in check_lower(profile))
    ctx = RingContext.torus(2)
    curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
    deep = LociProfile(ctx, {-2: LinearUnion(ctx, [curve])})
    rows = check_lower(deep)
    bad = [r for r in rows if not r["ok"]]
    assert bad and bad[0]["degree"] == -2 and bad[0]["actual"] == "1"
    empty_deep = LociProfile(ctx, {0: LinearUnion.single_point(ctx.identity_point())})
    assert all(r["ok"] for r in check_lower(empty_deep))  # absent degrees pass


def test_perversity_verdict_fixture_family():
    m2 = mellin_constant_torus(2)
    report = perversity_verdict(m2.profile, samples=20, seed=5)
    assert report["verdict"] == "perverse" and not report["violations"]
    assert report["propagation"]["ok"] and report["support_interval"]["ok"]
    assert report["euler"]["status"] == "pass"

    up = shift_fixture(m2, 1)
    rep_up = perversity_verdict(up.profile, samples=20, seed=5)
    assert rep_up["verdict"] == "lower-only"
    assert any(r["degree"] > 0 and r["condition"] == "abelian-codim" for r in rep_up["violations"])

    down = shift_fixture(m2, -1)
    rep_down = perversity_verdict(down.profile, samples=20, seed=5)
    assert rep_down["verdict"] == "upper-only"
    assert any(r["condition"] == "semiabelian-codim" for r in rep_down["violations"])


def test_perversity_verdict_neither():
    ctx = RingContext.torus(2)
    ident = LinearUnion.single_point(ctx.identity_point())
    curve = LinearUnion(ctx, [LinearComponent(ctx, ctx.identity_point(), [[1, 0]])])
    profile = LociProfile(ctx, {1: ident, -2: curve})
    report = perversity_verdict(profile)
    assert report["verdict"] == "neither"


def test_spot_check_rejects_wrong_declaration():
    m1 = mellin_constant_torus(1)
    ctx = m1.complex.context
    wrong = LociProfile(
        ctx,
        {0: LinearUnion.single_point(ctx.rational_point([2]))},  # wrong point
        source=m1.complex,
    )
    with pytest.raises(InputError) as err:
        spot_check_profile(wrong, samples=20, seed=0)
    assert "witness" in str(err.value)


def test_spot_check_visits_module_and_locus_degrees_only(monkeypatch):
    # elsewhere no module and no locus: both memberships are false at every
    # point, so a far locus costs one degree, not the whole range up to it
    from jumploci import verdict

    visited = []

    def membership(source, degree, point):
        visited.append(degree)
        return real(source, degree, point)

    real = verdict.membership_at_point
    monkeypatch.setattr(verdict, "membership_at_point", membership)
    m2 = mellin_constant_torus(2)
    spot_check_profile(m2.profile, samples=5, seed=0)
    assert sorted(set(visited)) == [-2, -1, 0]
    visited.clear()
    far = LociProfile(m2.complex.context, {**m2.profile.loci, 500: m2.profile.locus(0)}, source=m2.complex)
    with pytest.raises(InputError, match="at degree 500"):
        spot_check_profile(far, samples=5, seed=0)
    assert sorted(set(visited)) == [-2, -1, 0, 500]


def test_euler_clause():
    fm = free_module_fixture(1)
    report = perversity_verdict(fm.profile, samples=10, seed=0)
    assert report["euler"]["status"] == "pass"  # chi = 1 > 0 and whole space
    # break the equivalence: positive Euler number with a proper locus
    m1 = mellin_constant_torus(1)
    lying = LociProfile(m1.complex.context, m1.profile.loci, euler=5)
    report = perversity_verdict(lying)
    assert report["euler"]["status"] == "fail"
    unknown = LociProfile(m1.complex.context, m1.profile.loci)
    report = perversity_verdict(unknown)
    assert report["euler"]["status"].startswith("skipped")


def test_declared_euler_must_be_the_source_complexs():
    # a declared value once overrode the complex's: the Euler clause failed
    # on chi = 5 while the verdict stayed perverse
    m2 = mellin_constant_torus(2)
    with pytest.raises(InputError, match=r"^declared Euler characteristic 5 is not the complex's, 0$"):
        LociProfile(m2.profile.context, m2.profile.loci, source=m2.complex, euler=5)
    declared = LociProfile(m2.profile.context, m2.profile.loci, euler=5)
    with pytest.raises(InputError, match="5 is not the complex's, 0"):
        declared.with_source(m2.complex)
    assert declared.with_source(free_module_fixture(2, rank=5).complex).euler == 5  # chi = 5 there
    # without a source any declared value stands, and the Euler clause reads it
    for chi in (-3, 0, 5):
        assert LociProfile(m2.profile.context, m2.profile.loci, euler=chi).euler == chi
    assert LociProfile(m2.profile.context, m2.profile.loci, source=m2.complex).euler == 0


def test_support_interval_detection():
    ctx = RingContext.torus(1)
    ident = LinearUnion.single_point(ctx.identity_point())
    outside = LociProfile(ctx, {-2: ident, -1: ident, 0: ident})
    report = perversity_verdict(outside)
    assert report["support_interval"] == {"ok": False, "offenders": [-2]}


def test_propagation_on_profiles():
    ctx = RingContext.torus(2)
    ident = LinearUnion.single_point(ctx.identity_point())
    other = LinearUnion.single_point(ctx.rational_point([2, 2]))
    gap = LociProfile(ctx, {-1: other, 0: ident})
    report = perversity_verdict(gap)
    assert report["propagation"] == {"ok": False, "first_violation": [-1, 0]}


def test_survival_interval_examples():
    m2 = mellin_constant_torus(2)
    comp = m2.profile.locus(0).components[0]
    res = survival_interval(m2.profile, comp)
    assert res.predicted == (-2, 0)
    assert res.observed == [-2, -1, 0] and res.matches

    ab = abelian_point_profile(1, 1)
    comp = ab.locus(0).components[0]
    res = survival_interval(ab, comp)
    assert res.predicted == (-1, 1) and res.matches

    mixed = RingContext.mixed(1, 0)
    ident = LinearUnion.single_point(mixed.identity_point())
    prof = LociProfile(mixed, {-1: ident, 0: ident})
    res = survival_interval(prof, ident.components[0])
    assert res.predicted == (-1, 0) and res.matches


def test_survival_interval_requires_component_of_v0():
    m2 = mellin_constant_torus(2)
    ctx = m2.complex.context
    stranger = LinearComponent(ctx, ctx.rational_point([3, 3]), [[1, 0], [0, 1]])
    with pytest.raises(InputError):
        survival_interval(m2.profile, stranger)


def test_survival_mismatch_reported():
    ctx = RingContext.torus(2)
    ident = LinearUnion.single_point(ctx.identity_point())
    prof = LociProfile(ctx, {-1: ident, 0: ident})  # point missing at -2
    res = survival_interval(prof, ident.components[0])
    assert res.predicted == (-2, 0) and not res.matches


def test_extreme_degrees_exist_on_perverse_profiles():
    # some degree attains codim_a == i on the upper side and codim_sa == -i
    # on the lower side
    fixtures = [
        mellin_constant_torus(1),
        mellin_constant_torus(2),
        twist_fixture(mellin_constant_torus(2), [Fraction(2), Fraction(-1)]),
        induce_fixture(mellin_constant_torus(1), [2]),
    ]
    for fx in fixtures:
        profile = fx.profile
        degs = profile.degrees()
        uppers = [
            i for i in degs if i >= 0 and profile.locus(i).codim_stats().codim_a == i
        ]
        lowers = [
            i for i in degs if i <= 0 and profile.locus(i).codim_stats().codim_sa == -i
        ]
        assert uppers, fx.name
        assert lowers, fx.name


def test_verdict_monotone_under_added_components():
    rng = random.Random(41)
    ctx = RingContext.torus(2)
    ident = LinearUnion.single_point(ctx.identity_point())
    curve = LinearComponent(ctx, ctx.identity_point(), [[1, 0]])
    base_loci = {1: ident}  # fails the upper bound at degree 1
    base = LociProfile(ctx, base_loci)
    assert perversity_verdict(base)["verdict"] != "perverse"
    extras = [
        LinearUnion(ctx, [curve]),
        LinearUnion.single_point(ctx.rational_point([2, 3])),
        LinearUnion.whole_space(ctx),
    ]
    for _ in range(10):
        degree = rng.choice([-2, -1, 0, 1])
        extra = rng.choice(extras)
        loci = dict(base_loci)
        loci[degree] = LinearUnion(ctx, loci.get(degree, LinearUnion(ctx, [])).components + extra.components)
        bigger = LociProfile(ctx, loci)
        assert perversity_verdict(bigger)["verdict"] != "perverse"


def test_torus_specialization_agreement():
    fixtures = [
        mellin_constant_torus(1),
        mellin_constant_torus(2),
        shift_fixture(mellin_constant_torus(2), 1),
        shift_fixture(mellin_constant_torus(1), -1),
        twist_fixture(mellin_constant_torus(2), [Fraction(2), Fraction(1, 3)]),
        induce_fixture(mellin_constant_torus(1), [3]),
        sum_fixture(mellin_constant_torus(1), free_module_fixture(1)),
    ]
    for fx in fixtures:
        profile = LociProfile(fx.profile.context, fx.profile.loci, euler=fx.profile.euler)
        general = perversity_verdict(profile)["verdict"] == "perverse"
        special = torus_specialization_verdict(profile)
        assert general == special, fx.name


def test_abelian_specialization_agreement():
    for g, span in [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]:
        profile = abelian_point_profile(g, span)
        general = perversity_verdict(profile)["verdict"] == "perverse"
        schnell = abelian_specialization_verdict(profile)
        assert general == schnell, (g, span)
    # the identity point on an abelian surface survives degrees [-2, 2] but
    # not beyond; span g passes, span g + 1 fails
    assert perversity_verdict(abelian_point_profile(2, 2))["verdict"] == "perverse"
    assert perversity_verdict(abelian_point_profile(2, 3))["verdict"] != "perverse"


def test_specialization_guards():
    with pytest.raises(InputError):
        torus_specialization_verdict(abelian_point_profile(1, 1))
    m1 = mellin_constant_torus(1)
    with pytest.raises(InputError):
        abelian_specialization_verdict(m1.profile)


RING_WITHOUT_VARIABLES = """
import random
from jumploci.complexes import FreeComplex
from jumploci.lattices import LinearUnion
from jumploci.laurent import RingContext
from jumploci.profiles import LociProfile
from jumploci.sampling import sample_points
from jumploci.verdict import perversity_verdict
ctx = RingContext([], 0, 0)
print(sample_points(ctx, random.Random(0), 3))
cx = FreeComplex(ctx, 0, 0, [1], {})
profile = LociProfile(ctx, {0: LinearUnion.whole_space(ctx)}, source=cx, euler=1)
report = perversity_verdict(profile)
print(report["verdict"], report["provenance"]["spot_check"])
"""


def test_ring_without_variables_samples_its_one_point():
    # the identity is the only point of a ring without variables, so asking
    # for 3 (or the verdict's 40) distinct points must stop at one; run in
    # a subprocess, so that a sampler that never returns fails on the timeout
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", RING_WITHOUT_VARIABLES],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[TorsionPoint()]\nperverse sampled (seed=0, points=1)\n"


def test_sample_is_cut_at_the_count_when_declared_points_outnumber_it():
    # the (4, 4) cover of m = 2 declares 16 distinct translates; the sample
    # is one seeded stream, so a smaller count keeps a prefix of a larger one
    fx = induce_fixture(mellin_constant_torus(2), [4, 4])
    ctx, loci = fx.complex.context, list(fx.profile.loci.values())
    declared = {c.translate for union in loci for c in union.components}
    assert len(declared) == 16
    longest = sample_points(ctx, random.Random(3), 12, loci=loci)
    for k in (1, 5, 12):
        pts = sample_points(ctx, random.Random(3), k, loci=loci)
        assert len(pts) == len(set(pts)) == k
        assert pts == longest[:k] and set(pts) <= declared


@pytest.mark.parametrize("samples, error", [(-1, InputError), (MAX_SAMPLES + 1, ResourceError)])
def test_library_refuses_the_sample_counts_the_command_line_refuses(samples, error):
    # the library once reported "samples": -5 with a one-point spot check,
    # and ran counts above the cap
    profile = mellin_constant_torus(1).profile.with_source(mellin_constant_torus(1).complex)
    with pytest.raises(error, match="sample count"):
        perversity_verdict(profile, samples=samples)
