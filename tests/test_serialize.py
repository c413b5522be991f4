import json
from fractions import Fraction

import pytest

from jumploci import serialize
from jumploci.complexes import FreeComplex, Matrix
from jumploci.errors import InputError
from jumploci.fixtures import (
    induce_fixture,
    mellin_constant_torus,
    sum_fixture,
    twist_fixture,
)
from jumploci.laurent import RingContext
from jumploci.verdict import perversity_verdict


def test_complex_round_trip():
    for fx in [
        mellin_constant_torus(1),
        mellin_constant_torus(2),
        induce_fixture(mellin_constant_torus(1), [2]),
    ]:
        text = serialize.dump_complex(fx.complex)
        loaded = serialize.load_complex(text)
        assert loaded.ranks == fx.complex.ranks
        assert loaded.k_min == fx.complex.k_min
        for i in range(loaded.k_min, loaded.k_max):
            assert loaded.differential(i) == fx.complex.differential(i)
        assert serialize.dump_complex(loaded) == text


def test_complex_without_variables_round_trips():
    # dump_complex writes "vars=" for a ring without variables; it was once
    # read back as one empty variable name and refused
    ctx = RingContext([], 0, 0)
    cx = FreeComplex(ctx, -1, 0, [1, 1], {-1: Matrix(ctx, 1, 1, [[ctx.const(Fraction(3, 2))]])})
    text = serialize.dump_complex(cx)
    assert text.startswith("ring vars= torus=0 abelian=0\n")
    loaded = serialize.load_complex(text)
    assert loaded.context == ctx and loaded.ranks == cx.ranks
    assert loaded.differential(-1) == cx.differential(-1)
    assert serialize.dump_complex(loaded) == text


def test_complex_load_errors():
    with pytest.raises(InputError):
        serialize.load_complex("")
    with pytest.raises(InputError):
        serialize.load_complex("junk")
    good = serialize.dump_complex(mellin_constant_torus(1).complex)
    # truncating the matrix rows must fail loudly
    lines = good.strip().splitlines()
    with pytest.raises(InputError):
        serialize.load_complex("\n".join(lines[:-1]))
    # wrong rank count
    broken = good.replace("ranks 1,1", "ranks 1,1,1")
    with pytest.raises(InputError):
        serialize.load_complex(broken)
    # entry with unknown variable
    broken = good.replace("t1 - 1", "t9 - 1")
    with pytest.raises(InputError):
        serialize.load_complex(broken)


def test_complex_identity_checked_on_strict_load():
    text = (
        "ring vars=t1 torus=1 abelian=0\n"
        "degrees -1..1\n"
        "ranks 1,1,1\n"
        "differential -1\n"
        "t1 - 1\n"
        "differential 0\n"
        "t1 - 1\n"
    )
    with pytest.raises(InputError):
        serialize.load_complex(text)
    cx = serialize.load_complex_shapes(text)
    assert cx.validate() is not None


def test_comments_and_blank_lines_ignored():
    text = serialize.dump_complex(mellin_constant_torus(1).complex)
    noisy = "# header\n\n" + text.replace("ranks", "# note\nranks")
    loaded = serialize.load_complex(noisy)
    assert loaded.ranks == (1, 1)


def test_loci_round_trip():
    for fx in [
        mellin_constant_torus(2),
        twist_fixture(mellin_constant_torus(2), ["2", "1/3"]),
        sum_fixture(mellin_constant_torus(1), twist_fixture(mellin_constant_torus(1), ["-1"])),
    ]:
        text = serialize.dump_loci(fx.profile)
        profile, rejected = serialize.load_loci(text)
        assert not rejected
        assert profile.degrees() == fx.profile.degrees()
        for d in profile.degrees():
            assert profile.locus(d).contains(fx.profile.locus(d))
            assert fx.profile.locus(d).contains(profile.locus(d))
        assert profile.euler == fx.profile.euler
        assert serialize.dump_loci(profile) == text


def test_loci_loader_saturates():
    doc = {
        "format": "jumploci-loci",
        "ring": {"vars": ["t1", "t2"], "torus": 2, "abelian": 0},
        "loci": {"0": [{"translate": [["1", "0"], ["1", "0"]], "lattice": [[2, 0], [0, 3]]}]},
    }
    profile, rejected = serialize.load_loci(json.dumps(doc))
    assert not rejected
    comp = profile.locus(0).components[0]
    assert comp.lattice == ((1, 0), (0, 1))  # saturated to the full lattice


def test_loci_loader_rejects_odd_abelian_rank():
    doc = {
        "format": "jumploci-loci",
        "ring": {"vars": ["t1", "t2"], "torus": 0, "abelian": 1},
        "loci": {"0": [{"translate": [["1", "0"], ["1", "0"]], "lattice": [[1, 0]]}]},
    }
    with pytest.raises(InputError):
        serialize.load_loci(json.dumps(doc), strict=True)
    profile, rejected = serialize.load_loci(json.dumps(doc), strict=False)
    assert rejected and rejected[0]["degree"] == 0
    assert "odd rank" in rejected[0]["reason"]
    assert profile.locus(0).is_empty()


def test_loci_loader_malformed():
    with pytest.raises(InputError):
        serialize.load_loci("not json")
    with pytest.raises(InputError):
        serialize.load_loci("{}")
    with pytest.raises(InputError):
        serialize.load_loci(json.dumps({"ring": {"vars": ["t1"]}, "loci": {}}))


def test_report_renderers_deterministic():
    fx = mellin_constant_torus(2)
    doc = perversity_verdict(fx.profile, samples=10, seed=3)
    assert serialize.render_json(doc) == serialize.render_json(doc)
    text = serialize.render_text(doc)
    assert "verdict: perverse" in text
    assert "seed: 3" in text


def test_jump_ideal_report_fields():
    fx = mellin_constant_torus(1)
    doc = serialize.jump_ideal_report(fx.complex, [-2, -1, 0, 1])
    by_degree = {e["degree"]: e for e in doc["degrees"]}
    assert by_degree[-2]["empty"] and by_degree[1]["empty"]
    assert by_degree[0]["saturated_basis"] == ["t1 - 1"]
    assert by_degree[0]["codimension"] == "1"
    assert not by_degree[0]["whole_space"]


def test_points_file_parsing():
    ctx = mellin_constant_torus(2).complex.context
    text = json.dumps([[["1", "0"], ["1", "0"]], [["-2", "1/3"], ["1", "0"]]])
    pts = serialize.parse_points_file(text, ctx)
    assert len(pts) == 2 and pts[0] == ctx.identity_point()
    with pytest.raises(InputError):
        serialize.parse_points_file("{}", ctx)


@pytest.mark.parametrize("value", [1.0, 1.00000000000000001, 0e0, 1.5, True, None, [1]])
def test_rationals_must_be_strings_or_integers(value):
    ctx = mellin_constant_torus(2).complex.context
    with pytest.raises(InputError, match="write rationals as strings"):
        serialize.parse_points_file(json.dumps([[[value, "0"], ["1", "0"]]]), ctx)
    (point,) = serialize.parse_points_file(json.dumps([[[2, 0], ["1/2", "0.25"]]]), ctx)
    assert point.coords == ((2, 0), (Fraction(1, 2), Fraction(1, 4)))


@pytest.mark.parametrize("strict", [True, False])
def test_loci_loader_refuses_two_keys_for_one_degree(strict):
    doc = json.loads(serialize.dump_loci(mellin_constant_torus(2).profile))
    for loci in ({**doc["loci"], "-0": []}, {"00": [], **doc["loci"]}):
        with pytest.raises(InputError, match="two loci keys name degree 0"):
            serialize.load_loci(json.dumps(dict(doc, loci=loci)), strict=strict)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("key", ["0", "ring", "translate"])
def test_loci_loader_refuses_a_repeated_key(strict, key):
    # plain json.loads keeps the last of two equal keys, whatever object holds them
    text = serialize.dump_loci(mellin_constant_torus(2).profile)
    first = text.index(f'"{key}": ')
    repeated = text[:first] + f'"{key}": [], ' + text[first:]
    with pytest.raises(InputError, match=f"repeated key '{key}'"):
        serialize.load_loci(repeated, strict=strict)
