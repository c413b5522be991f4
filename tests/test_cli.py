import json
import random
import re
import subprocess
import sys

import pytest

from jumploci import serialize
from jumploci.complexes import MAX_RANK
from jumploci.cyclotomic import MAX_COEFFICIENT_GROWTH, MAX_CYCLOTOMIC_ORDER
from jumploci.fixtures import MAX_COVER_SIZE, MAX_FIXTURE_VARS, mellin_constant_torus, shift_fixture
from jumploci.laurent import MAX_EXPONENT
from jumploci.loci import MAX_LATTICE_ENTRY, MAX_LOCI_COMPONENTS, MAX_RADIAL_POWER_BITS
from jumploci.sampling import MAX_SAMPLES
from jumploci.serialize import MAX_DEGREE


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "jumploci", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def m2_files(tmp_path):
    fx = mellin_constant_torus(2)
    cx = tmp_path / "m2.complex"
    loci = tmp_path / "m2.loci"
    cx.write_text(serialize.dump_complex(fx.complex))
    loci.write_text(serialize.dump_loci(fx.profile))
    return cx, loci


def test_validate_pass(m2_files):
    cx, _ = m2_files
    result = run_cli("validate", str(cx))
    assert result.returncode == 0
    assert "ok: True" in result.stdout


def test_validate_checked_and_failed(tmp_path):
    bad = tmp_path / "bad.complex"
    bad.write_text(
        "ring vars=t1 torus=1 abelian=0\n"
        "degrees -1..1\n"
        "ranks 1,1,1\n"
        "differential -1\n"
        "t1 - 1\n"
        "differential 0\n"
        "t1 - 1\n"
    )
    failure = "composite differential d^0 . d^-1 is nonzero at entry (0,0): t1^2 - 2*t1 + 1"
    result = run_cli("validate", str(bad))
    assert result.returncode == 1
    assert "ok: False" in result.stdout
    assert f"detail: {failure}" in result.stdout.splitlines()
    result = run_cli("jump-ideals", str(bad))
    assert result.returncode == 2
    assert result.stderr == f"input error: invalid complex: {failure}\n"


def test_minor_cap_message(tmp_path):
    # the benchmark's jump-ideals:sum-3-tw job expects this exact text
    cx = tmp_path / "sum3.complex"
    assert run_cli("fixtures", "sum", "--m", "3", "--complex-out", str(cx)).returncode == 0
    result = run_cli("jump-ideals", str(cx), timeout=60)
    assert result.returncode == 3
    assert result.stderr == "resource cap: minor size 6 exceeds the cap of 5\n"


# (fixtures argv, the option it gives that the fixture does not read)
UNREAD_FIXTURE_OPTIONS = [
    (["tensor", "--lam", "2"], "lam"),
    (["mellin", "--m", "1", "--n", "3"], "n"),
    (["mellin", "--m", "1", "--m2", "4"], "m2"),
    (["twist", "--m", "1", "--lam", "2", "--s", "5"], "s"),
    (["induce", "--m", "1", "--rank", "2"], "rank"),
    (["free", "--m", "1", "--n", "2"], "n"),
    (["shift", "--m", "1", "--m2", "1"], "m2"),
    (["sum", "--m", "1", "--s", "0"], "s"),
    (["tensor", "--m", "1", "--rank", "1"], "rank"),
]


def test_unread_fixture_option_refusal_message():
    for argv, option in UNREAD_FIXTURE_OPTIONS:
        result = run_cli("fixtures", *argv)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == f"input error: the {argv[0]} fixture takes no --{option}\n"
    # an empty --lam is a malformed rational, not a missing list
    for name in ("sum", "twist"):
        result = run_cli("fixtures", name, "--m", "1", "--lam=")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("input error: option --lam: malformed rational '': ")


def test_validate_malformed_input(tmp_path):
    junk = tmp_path / "junk.complex"
    junk.write_text("word salad\n")
    result = run_cli("validate", str(junk))
    assert result.returncode == 2
    assert "input error" in result.stderr


M1_TEXT = "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 - 1\n"


# each was once read past: the last copy of a ring field won, an unknown one
# was kept, keywords matched by prefix and tokens after a range or index were
# dropped, so validate exited 0
@pytest.mark.parametrize(
    "old, new, message",
    [
        (" abelian=0", " abelian=0 bogus=7", "unknown ring field 'bogus'"),
        (" abelian=0", " abelian=0 torus=1", "repeated ring field 'torus'"),
        ("ring ", "ringo ", "line 1: expected 'ring', got 'ringo vars=t1 torus=1 abelian=0'"),
        ("degrees", "degreesX", "line 2: expected 'degrees', got 'degreesX -1..0'"),
        ("ranks", "ranksX", "line 3: expected 'ranks', got 'ranksX 1,1'"),
        ("differential", "differentialZ", "line 4: expected 'differential', got 'differentialZ -1'"),
        ("-1..0", "-1..0 trailing", "malformed degrees line: 'degrees -1..0 trailing'"),
        ("differential -1", "differential -1 junk", "line 4: malformed differential header 'differential -1 junk'"),
    ],
    ids=["unknown-ring-field", "repeated-ring-field", "ringo", "degreesX", "ranksX", "differentialZ",
         "degrees-trailing-token", "differential-trailing-token"],
)
def test_complex_loader_refuses_sloppy_lines(tmp_path, old, new, message):
    path = tmp_path / "m1.complex"
    path.write_text(M1_TEXT)
    assert run_cli("validate", str(path)).returncode == 0
    path.write_text(M1_TEXT.replace(old, new, 1))
    result = run_cli("validate", str(path))
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"input error: {message}\n")


def test_missing_file_is_input_error():
    result = run_cli("validate", "/nonexistent/path.complex")
    assert result.returncode == 2


def _m2_loci_edited(edit) -> str:
    doc = json.loads(serialize.dump_loci(mellin_constant_torus(2).profile))
    edit(doc)
    return json.dumps(doc)


def _m2_loci_repeating(key: str, edit) -> str:
    """The m2 loci document edited to hold the key "REPEATED", written last
    in an object that already holds ``key``, and then renamed to ``key``."""
    return _m2_loci_edited(edit).replace('"REPEATED"', json.dumps(key))


# json.loads keeps the last of two equal keys: before they were refused,
# codims with "0": [] after the degree-0 entry dropped degree 0 and exited 0,
# and perversity called the file perverse
REPEATED_DEGREE = _m2_loci_repeating("0", lambda d: d["loci"].update(REPEATED=[]))
REPEATED_RING = _m2_loci_repeating("ring", lambda d: d.update(REPEATED=d["ring"]))
REPEATED_TRANSLATE = _m2_loci_repeating(
    "translate", lambda d: d["loci"]["0"][0].update(REPEATED=[["1", "1/2"], ["1", "0"]])
)


# how stderr starts in the cases that refuse an empty or unwritable path:
# paths were once printed unquoted, so that an empty one read as none
REFUSAL_STDERR = {
    "unwritable-output": "input error: cannot write '/nonexistent/x': ",
    "empty-complex-out": "input error: cannot write '': ",
    "empty-loci-with-a-loci-input": "input error: --loci is only meaningful with a complex input\n",
    "empty-loci-with-a-complex-input": "input error: cannot read '': ",
}


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["sample", "{m2}", "--points", "{input}"], "[[1]]", id="points-entry-not-a-pair"),
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"]["0"][0].update(translate=5)),
                     id="translate-not-a-list"),
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"]["0"][0].update(lattice=[["x", 0]])),
                     id="lattice-entry-not-an-integer"),
        pytest.param(["perversity", "{input}"], _m2_loci_edited(lambda d: d.update(loci=[])),
                     id="loci-block-not-a-mapping"),
        pytest.param(["perversity", "{input}"], _m2_loci_edited(lambda d: d.update(euler="x")),
                     id="euler-not-an-integer"),
        pytest.param(["codims", "{input}"], _m2_loci_edited(lambda d: d["loci"].update(x=d["loci"].pop("0"))),
                     id="degree-key-not-an-integer"),
        pytest.param(["codims", "{input}"], _m2_loci_edited(lambda d: d["loci"].update({"0": 5})),
                     id="components-not-a-list"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\n1/0*t1 - 1\n",
                     id="zero-denominator-coefficient"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\n2t1 - 1\n",
                     id="juxtaposed-factors"),
        # an empty vars list is a ring without variables, which torus=1 contradicts
        pytest.param(["validate", "{input}"], "ring vars= torus=1 abelian=0\ndegrees 0..0\nranks 1\n",
                     id="empty-vars-with-a-torus-variable"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1,t2 torus=2 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 t2\n",
                     id="juxtaposed-variables"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1*\n",
                     id="dangling-product"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 - 1\nextra\n",
                     id="line-after-the-last-differential"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0 bogus\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 - 1\n",
                     id="ring-field-without-equals"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 - \n",
                     id="dangling-sign"),
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1^x - 1\n",
                     id="non-integer-exponent"),
        pytest.param(["fixtures", "mellin", "--complex-out", "/nonexistent/x"], None, id="unwritable-output"),
        pytest.param(["fixtures", "twist"], None, id="twist-without-scalars"),
        pytest.param(["fixtures", "induce", "--n", "x"], None, id="cover-exponent-not-an-integer"),
        pytest.param(["fixtures", "free", "--m", "0"], None, id="free-fixture-without-variables"),
        pytest.param(["fixtures", "induce", "--m", "2", "--n", "2"], None, id="cover-exponent-count"),
        pytest.param(["fixtures", "induce", "--m", "2", "--n", "0,2"], None, id="cover-exponent-zero"),
        # --lam was once ignored by every fixture but twist and sum
        *(pytest.param(["fixtures", name, "--lam", "2", "--complex-out", "{input}"], None,
                       id=f"{name}-fixture-with-lam") for name in ("mellin", "tensor", "induce", "shift", "free")),
        # --n, --m2, --s and --rank were once ignored by every fixture but the one reading each
        *(pytest.param(["fixtures", *argv, "--complex-out", "{input}"], None,
                       id=f"{argv[0]}-fixture-with-{option}") for argv, option in UNREAD_FIXTURE_OPTIONS[1:]),
        # an empty --lam was once read as none: sum wrote the default twist
        pytest.param(["fixtures", "sum", "--m", "1", "--lam=", "--complex-out", "{input}"], None,
                     id="sum-fixture-with-empty-lam"),
        pytest.param(["fixtures", "twist", "--m", "1", "--lam=", "--complex-out", "{input}"], None,
                     id="twist-fixture-with-empty-lam"),
        pytest.param(["fixtures", "free", "--m", "1", "--rank", "0", "--complex-out", "{input}"], None,
                     id="free-fixture-of-rank-zero"),
        # integers of more than 4300 digits exceed Python's int-string limit
        pytest.param(["validate", "{input}"],
                     "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\n"
                     + "7" * 5000 + "*t1 - 1\n",
                     id="coefficient-of-5000-digits"),
        pytest.param(["codims", "{input}"],
                     _m2_loci_edited(lambda d: d.update(euler=0)).replace('"euler": 0', '"euler": ' + "7" * 5000),
                     id="euler-of-5000-digits"),
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[[' + "7" * 5000 + ', "0"], ["1", "0"]]]',
                     id="radial-number-of-5000-digits"),
        # int() and Fraction() read other scripts' digits and underscores, and
        # Fraction reads 1_0/3 from 3.11 on only: each of these once exited 0
        *(pytest.param(["validate", "{input}"],
                       "ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1 - 1\n"
                       .replace(old, new), id=f"{field}-in-arabic-indic-digits")
          for field, old, new in [("torus", "torus=1", "torus=\u0661"), ("degrees", "-1..0", "-1..\u0660"),
                                  ("differential", "differential -1", "differential -\u0661"),
                                  ("entry", "t1 - 1", "\u0663*t1^\u0662 - \u0663")]),
        pytest.param(["codims", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"].update({"-\u0661": d["loci"].pop("-1")})),
                     id="degree-key-in-arabic-indic-digits"),
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"]["0"][0].update(lattice=[["1_0", 0]])),
                     id="lattice-entry-with-underscore"),
        pytest.param(["jump-ideals", "{m2}", "--degrees=-\u0661..0"], None,
                     id="degree-range-in-arabic-indic-digits"),
        pytest.param(["fixtures", "induce", "--m", "1", "--n", "\u0663"], None,
                     id="cover-exponent-in-arabic-indic-digits"),
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[["1_0/3", "0"], ["1", "0"]]]',
                     id="radial-with-underscore"),
        # Fraction builds 10^e for an exponent part: the first ran past 45 s,
        # the second printed 10^5000 in a traceback
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[["1e100000000", "0"], ["1", "0"]]]',
                     id="radial-with-exponent-part"),
        pytest.param(["fixtures", "twist", "--m", "1", "--lam", "1e5000", "--complex-out", "{input}"], None,
                     id="twist-scalar-with-exponent-part"),
        # keys dump_loci never writes were once read past
        pytest.param(["codims", "{input}"], _m2_loci_edited(lambda d: d.update(format="nope")),
                     id="unknown-loci-format"),
        pytest.param(["codims", "{input}"], _m2_loci_edited(lambda d: d.update(bogus=1)),
                     id="unknown-top-level-key"),
        pytest.param(["codims", "{input}"], _m2_loci_edited(lambda d: d["ring"].update(x=1)),
                     id="unknown-ring-key"),
        pytest.param(["perversity", "{input}"], _m2_loci_edited(lambda d: d["loci"]["0"][0].update(extra=1)),
                     id="unknown-component-key"),
        pytest.param(["codims", "{input}"], REPEATED_DEGREE, id="repeated-degree-codims"),
        pytest.param(["perversity", "{input}"], REPEATED_DEGREE, id="repeated-degree-perversity"),
        pytest.param(["codims", "{input}"], REPEATED_RING, id="repeated-ring-codims"),
        pytest.param(["perversity", "{input}"], REPEATED_RING, id="repeated-ring-perversity"),
        pytest.param(["codims", "{input}"], REPEATED_TRANSLATE, id="repeated-translate-codims"),
        pytest.param(["perversity", "{input}"], REPEATED_TRANSLATE, id="repeated-translate-perversity"),
        # a reversed range once exited 0 with no degrees and no memberships
        pytest.param(["jump-ideals", "{m2}", "--degrees=0..-3"], None, id="reversed-degree-range-jump-ideals"),
        pytest.param(["sample", "{m2}", "--points", "{input}", "--degrees=0..-3"], '[[["1", "1/3"], ["2", "1/4"]]]',
                     id="reversed-degree-range-sample"),
        # argparse reads --flag=-- as [] up to 3.12: these once exited 4, 4 and 0
        pytest.param(["sample", "{m2}", "--points=--"], None, id="points-dash-dash"),
        pytest.param(["fixtures", "induce", "--m", "2", "--n=--"], None, id="cover-exponents-dash-dash"),
        pytest.param(["jump-ideals", "{m2}", "--degrees=--"], None, id="degrees-dash-dash"),
        # argparse read the integer options with Python's int: each of these once exited 0
        *(pytest.param([*argv, "--complex-out", "{input}"], None, id=f"{argv[-2][2:]}-{label}")
          for label, value in [("in-arabic-indic-digits", "\u0662"), ("with-underscore", "1_0")]
          for argv in (["fixtures", "mellin", "--m", value], ["fixtures", "tensor", "--m2", value],
                       ["fixtures", "shift", "--s", value], ["fixtures", "free", "--rank", value])),
        *(pytest.param(["perversity", "{input}", option, value], _m2_loci_edited(dict), id=f"{option[2:]}-{label}")
          for label, value in [("in-arabic-indic-digits", "\u0662"), ("with-underscore", "1_0")]
          for option in ("--samples", "--seed")),
        # empty values were once read as absent ones: each of these exited 0
        pytest.param(["jump-ideals", "{m2}", "--degrees="], None, id="empty-degree-range"),
        pytest.param(["fixtures", "mellin", "--m", "1", "--loci-out=", "--complex-out={m2}.out"], None,
                     id="empty-loci-out"),
        pytest.param(["fixtures", "mellin", "--complex-out="], None, id="empty-complex-out"),
        pytest.param(["perversity", "{input}", "--loci="], _m2_loci_edited(dict), id="empty-loci-with-a-loci-input"),
        pytest.param(["perversity", "{m2}", "--loci="], None, id="empty-loci-with-a-complex-input"),
    ],
)
def test_malformed_input_exits_2_without_traceback(m2_files, tmp_path, request, argv, text):
    cx, _ = m2_files
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    result = run_cli(*(a.format(m2=cx, input=path) for a in argv), timeout=30)
    assert result.returncode == 2
    assert result.stderr.startswith(REFUSAL_STDERR.get(request.node.callspec.id, "input error:"))
    assert "Traceback" not in result.stderr
    assert path.exists() == (text is not None)  # a refused fixture writes nothing


def test_a_refused_output_path_leaves_the_other_as_it_was(tmp_path):
    # the complex document was once written before the loci path was refused
    complex_out = tmp_path / "c2.cx"
    result = run_cli("fixtures", "mellin", "--m", "1", f"--complex-out={complex_out}", "--loci-out=/nonexistent/x")
    assert result.returncode == 2 and result.stderr.startswith("input error: cannot write '/nonexistent/x'")
    assert not complex_out.exists()
    complex_out.write_text("kept\n")
    result = run_cli("fixtures", "mellin", f"--complex-out={complex_out}", f"--loci-out={tmp_path}")
    assert result.returncode == 2 and result.stderr.startswith(f"input error: cannot write {str(tmp_path)!r}")
    assert complex_out.read_text() == "kept\n"
    # a link to a missing file stays a link to a missing file
    link = tmp_path / "link.cx"
    link.symlink_to(tmp_path / "missing.cx")
    result = run_cli("fixtures", "mellin", f"--complex-out={link}", "--loci-out=/nonexistent/x")
    assert result.returncode == 2 and link.is_symlink() and not (tmp_path / "missing.cx").exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[["1", "1/100003"], ["1", "0"]]]',
                     id="point-angle-order"),
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"]["0"][0].update(translate=[["1", "1/100003"], ["1", "0"]])),
                     id="translate-angle-order"),
    ],
)
def test_cyclotomic_order_over_cap_exits_3(m2_files, tmp_path, argv, text):
    # an order-100003 point took over 20 s before the cap; now it is refused
    # before Phi_L is built
    cx, _ = m2_files
    path = tmp_path / "input"
    path.write_text(text)
    result = run_cli(*(a.format(m2=cx, input=path) for a in argv), timeout=60)
    assert result.returncode == 3
    assert result.stderr == f"resource cap: cyclotomic order 100003 exceeds the cap of {MAX_CYCLOTOMIC_ORDER}\n"
    assert "Traceback" not in result.stderr


def test_radial_power_over_cap_exits_3(tmp_path):
    # evaluating t1^10000 at a radial part of 10^4000 builds a power of
    # 1.3*10^8 bits: it ran past 60 s before the cap, and is now refused
    # before the power is built
    cx = tmp_path / "power.complex"
    cx.write_text("ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,1\ndifferential -1\nt1^10000 - 1\n")
    pts = tmp_path / "points.json"
    pts.write_text('[[["1' + "0" * 4000 + '", "0"]]]')
    result = run_cli("sample", str(cx), "--points", str(pts), timeout=30)
    assert (result.returncode, result.stdout) == (3, "")
    bits = 10**4 * (10**4000).bit_length()
    assert result.stderr == f"resource cap: radial power bit length {bits} exceeds the cap of {MAX_RADIAL_POWER_BITS}\n"


@pytest.mark.parametrize(
    "rows, code",
    [
        pytest.param(["t1^10000 - 1"], 0, id="one-power-under-the-cap"),
        pytest.param([" + ".join(f"t1^{10000 - k}" for k in range(10))], 3, id="ten-powers-in-one-entry"),
        pytest.param([f"t1^{10000 - k} - 1" for k in range(10)], 3, id="ten-powers-in-ten-entries"),
    ],
)
def test_radial_powers_of_one_matrix_share_one_cap(tmp_path, rows, code):
    # at a radial part of 10^100 each power t1^e has e * 333 bits, under the
    # cap, so ten of them once ran for about 3 s; now their sum is refused
    # before any power is built
    cx = tmp_path / "powers.complex"
    cx.write_text(f"ring vars=t1 torus=1 abelian=0\ndegrees -1..0\nranks 1,{len(rows)}\ndifferential -1\n"
                  + "".join(f"{row}\n" for row in rows))
    pts = tmp_path / "points.json"
    pts.write_text(f'[[["{10**100}", "0"]]]')
    result = run_cli("sample", str(cx), "--points", str(pts), timeout=30)
    assert result.returncode == code, result.stderr
    if code == 3:
        bits = sum(range(9991, 10001)) * (10**100).bit_length()
        assert result.stderr == f"resource cap: radial power bit length {bits} exceeds the cap of {MAX_RADIAL_POWER_BITS}\n"


def test_dense_rank_at_a_point_stops_at_the_coefficient_growth_cap(tmp_path):
    # division-free elimination doubles the coefficient size with every pivot
    # of a dense matrix: this 20x20 one over Q(zeta_12) took 26 s to rank
    # in-process before the cap, and now stops at a 108 kbit pivot
    rng = random.Random(20)

    def entry() -> str:
        exps = rng.sample([(a, b) for a in range(12) for b in range(12)], 3)
        return " + ".join(f"{rng.choice([-1, 1]) * rng.randint(1, 9)}*t1^{a}*t2^{b}" for a, b in exps)

    rows = "\n".join(", ".join(entry() for _ in range(20)) for _ in range(20))
    cx = tmp_path / "dense.complex"
    cx.write_text(f"ring vars=t1,t2 torus=2 abelian=0\ndegrees 0..1\nranks 20,20\ndifferential 0\n{rows}\n")
    pts = tmp_path / "points.json"
    pts.write_text('[[["1", "1/3"], ["1", "1/4"]]]')
    result = run_cli("sample", str(cx), "--points", str(pts), timeout=60)
    assert (result.returncode, result.stdout) == (3, "")
    cap = 64 << MAX_COEFFICIENT_GROWTH  # the inputs are far below the 64-bit floor
    assert re.fullmatch(f"resource cap: pivot coefficient bit length [0-9]+ exceeds the cap of {cap}\n", result.stderr)


# a JSON number with a fraction or exponent part arrives as a float, already
# rounded: before such numbers were refused, 1.00000000000000001 was read as 1
# and sample reported membership at the identity point
@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[[1.00000000000000001, "0"], ["1", "0"]]]',
                     id="point-radial-with-fraction-part"),
        pytest.param(["sample", "{m2}", "--points", "{input}"], '[[["1", 0e0], ["1", "0"]]]',
                     id="point-angle-with-exponent-part"),
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"]["0"][0].update(translate=[["1", "0"], [1.0, "0"]])),
                     id="translate-radial-with-fraction-part"),
    ],
)
def test_json_numbers_with_fraction_or_exponent_exit_2(m2_files, tmp_path, argv, text):
    cx, _ = m2_files
    path = tmp_path / "input"
    path.write_text(text)
    result = run_cli(*(a.format(m2=cx, input=path) for a in argv), timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("input error:") and "write rationals as strings" in result.stderr


def test_rationals_written_as_strings_or_integers_are_read_exactly(m2_files, tmp_path):
    cx, _ = m2_files
    pts = tmp_path / "points.json"
    pts.write_text('[[["1.00000000000000001", "0"], ["1", "0"]], [[1, 0], ["1", "0"]]]')
    result = run_cli("sample", str(cx), "--points", str(pts), "--degrees=0..0", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert [p["memberships"]["0"]["member"] for p in doc["points"]] == [False, True]


@pytest.mark.parametrize("key", ["-0", "+0", "00"])
@pytest.mark.parametrize("first", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("command", ["codims", "perversity"])
def test_two_loci_keys_for_one_degree_exit_2(m2_files, tmp_path, capsys, command, first, key):
    # codims loads the loci non-strictly and perversity strictly; before the
    # check, the later key replaced the earlier, and codims with "-0": [] after
    # "0" dropped degree 0 and exited 0
    from jumploci import cli

    cx, loci = m2_files
    doc = json.loads(loci.read_text())
    doc["loci"] = {key: [], **doc["loci"]} if first else {**doc["loci"], key: []}
    path = tmp_path / "twice.loci"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] if command == "codims" else [command, str(cx), "--loci", str(path)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error:") and "degree 0" in err


# a degree far beyond MAX_DEGREE: before the cap, perversity with a loci key
# this far and sample with --degrees this wide did not finish in 20 s, and
# jump-ideals with that range ran out of memory
FAR = 100000000


def _m2_at(top: int) -> tuple[str, str]:
    """The m2 complex and loci documents moved so that the top degree is ``top``."""
    fx = shift_fixture(mellin_constant_torus(2), top)
    return serialize.dump_complex(fx.complex), serialize.dump_loci(fx.profile)


AT_CAP_COMPLEX, AT_CAP_LOCI = _m2_at(MAX_DEGREE)


def _m2_powered(e) -> str:
    """The m2 complex document with every t_i raised to the power e."""
    text = serialize.dump_complex(mellin_constant_torus(2).complex)
    head, _, body = text.partition("differential")
    return head + "differential" + body.replace("t1", f"t1^{e}").replace("t2", f"t2^{e}")


ONE_DEGREE_RANK = "ring vars=t1,t2 torus=2 abelian=0\ndegrees 0..0\nranks {}\n"


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"].update({str(FAR): d["loci"]["0"]})),
                     3, None, id="far-loci-key"),
        pytest.param(["perversity", "{m2}", "--loci", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"].update({str(-FAR): d["loci"]["0"]})),
                     3, None, id="far-loci-key-with-complex"),
        pytest.param(["perversity", "{input}", "--loci", "{loci}"], _m2_at(FAR)[0], 3, None, id="far-complex-degrees"),
        pytest.param(["validate", "{input}"], _m2_at(-FAR)[0], 3, None, id="far-complex-degrees-validate"),
        pytest.param(["sample", "{m2}", "--points", "{input}", f"--degrees=-{FAR}..{FAR}"],
                     '[[["1", "1/3"], ["2", "1/4"]]]', 3, None, id="far-degree-range-sample"),
        pytest.param(["jump-ideals", "{m2}", f"--degrees=0..{FAR}"], None, 3, None, id="far-degree-range-jump-ideals"),
        pytest.param(["perversity", "{m2}", "--loci", "{loci}", "--samples=-1"], None, 2, None, id="negative-samples"),
        pytest.param(["perversity", "{input}", "--samples=-1"], _m2_loci_edited(lambda d: None), 2, None,
                     id="negative-samples-loci-only"),
        pytest.param(["perversity", "{m2}", "--loci", "{loci}", "--samples", "3000000"], None, 3,
                     f"sample count 3000000 exceeds the cap of {MAX_SAMPLES}",
                     id="over-cap-samples"),
        pytest.param(["perversity", "{m2}", "--loci", "{loci}", f"--samples={MAX_SAMPLES + 1}"], None, 3,
                     f"sample count {MAX_SAMPLES + 1} exceeds the cap of {MAX_SAMPLES}",
                     id="samples-above-cap"),
        # before the exponent cap, perversity on m2 with exponents 10^6 did not
        # finish in 30 s
        pytest.param(["perversity", "{input}", "--loci", "{loci}"], _m2_powered(MAX_EXPONENT + 1), 3, None,
                     id="exponent-above-cap"),
        pytest.param(["perversity", "{input}", "--loci", "{loci}"], _m2_powered("9" * 5000), 3, None,
                     id="exponent-of-5000-digits"),
        pytest.param(["validate", "{input}"], ONE_DEGREE_RANK.format(MAX_RANK + 1), 3,
                     f"module rank {MAX_RANK + 1} exceeds the cap of {MAX_RANK}", id="rank-above-cap"),
        # at the caps: accepted and short
        pytest.param(["perversity", "{input}"],
                     _m2_loci_edited(lambda d: d["loci"].update({str(MAX_DEGREE): d["loci"]["0"]})),
                     1, None, id="loci-key-at-cap"),
        pytest.param(["perversity", "{input}", "--loci", "{at_cap_loci}"], AT_CAP_COMPLEX, 1, None,
                     id="complex-degrees-at-cap"),
        pytest.param(["sample", "{m2}", "--points", "{input}", f"--degrees=-{MAX_DEGREE}..{MAX_DEGREE}"],
                     '[[["1", "1/3"], ["2", "1/4"]]]', 0, None, id="degree-range-at-cap"),
        pytest.param(["perversity", "{m2}", "--loci", "{loci}", f"--samples={MAX_SAMPLES}"], None, 0, None,
                     id="samples-at-cap"),
        pytest.param(["perversity", "{input}", "--loci", "{loci}"], _m2_powered(MAX_EXPONENT), 0, None,
                     id="exponent-at-cap"),
        pytest.param(["validate", "{input}"], ONE_DEGREE_RANK.format(MAX_RANK), 0, None, id="rank-at-cap"),
    ],
)
def test_far_degrees_and_sample_counts_end_promptly(m2_files, tmp_path, argv, text, code, message):
    cx, loci = m2_files
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    at_cap_loci = tmp_path / "at-cap.loci"
    at_cap_loci.write_text(AT_CAP_LOCI)
    result = run_cli(*(a.format(m2=cx, loci=loci, input=path, at_cap_loci=at_cap_loci) for a in argv), timeout=60)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if message:
        assert result.stderr == f"resource cap: {message}\n"
    elif code == 3:
        assert result.stderr.startswith("resource cap:") and "cap of" in result.stderr
    if code == 2:
        assert result.stderr.startswith("input error:") and "sample count" in result.stderr


def _point_components(k: int) -> str:
    """A one-variable loci file with k point components in degree 0, the
    radial translates 1..k."""
    comps = [{"translate": [[str(q), "0"]], "lattice": [[1]]} for q in range(1, k + 1)]
    return json.dumps({"ring": {"vars": ["t1"], "torus": 1, "abelian": 0}, "loci": {"0": comps}})


def _lattice_row(entry: int) -> str:
    """Two components of a two-variable loci file on the lattice row
    [entry, 1], with radial translates 3 and 5."""
    comps = [{"translate": [[str(q), "0"], ["1", "0"]], "lattice": [[entry, 1]]} for q in (3, 5)]
    return json.dumps({"ring": {"vars": ["t1", "t2"], "torus": 2, "abelian": 0}, "loci": {"0": comps}})


def _kernel_row(k: int) -> str:
    """The m3 loci file plus a degree-0 component on the lattice rows
    [k, 1, 0] and [0, k, 1], whose kernel row is (1, -k, k^2)."""
    doc = json.loads(serialize.dump_loci(mellin_constant_torus(3).profile))
    doc["loci"]["0"].append({"translate": [["1", "0"]] * 3, "lattice": [[k, 1, 0], [0, k, 1]]})
    return json.dumps(doc)


M3_COMPLEX = serialize.dump_complex(mellin_constant_torus(3).complex)
KERNEL_AT_CAP = int(MAX_LATTICE_ENTRY**0.5)


@pytest.mark.parametrize(
    "argv, text, code, message",
    [
        # before the caps, codims on 4000 point components took 425 s, on the
        # row [10^8, 1] it ran past 60 s, and perversity with k = 100 exited
        # 4 on a witness point of more than 4300 digits
        pytest.param(["codims", "{input}"], _point_components(MAX_LOCI_COMPONENTS + 1), 3, None,
                     id="components-above-cap"),
        pytest.param(["codims", "{input}"], _point_components(4000), 3, None, id="components-4000"),
        pytest.param(["codims", "{input}"], _lattice_row(MAX_LATTICE_ENTRY + 1), 3,
                     f"lattice entry {MAX_LATTICE_ENTRY + 1} exceeds the cap of {MAX_LATTICE_ENTRY}",
                     id="lattice-entry-above-cap"),
        pytest.param(["codims", "{input}"], _lattice_row(10**8), 3,
                     f"lattice entry {10**8} exceeds the cap of {MAX_LATTICE_ENTRY}", id="lattice-entry-10^8"),
        pytest.param(["perversity", "{m3}", "--loci", "{input}"], _kernel_row(KERNEL_AT_CAP + 1), 3,
                     f"lattice entry {(KERNEL_AT_CAP + 1)**2} exceeds the cap of {MAX_LATTICE_ENTRY}",
                     id="kernel-entry-above-cap"),
        pytest.param(["perversity", "{m3}", "--loci", "{input}"], _kernel_row(100), 3,
                     f"lattice entry {100**2} exceeds the cap of {MAX_LATTICE_ENTRY}", id="kernel-entry-10^4"),
        # at the caps: accepted and short
        pytest.param(["codims", "{input}"], _point_components(MAX_LOCI_COMPONENTS), 0, None, id="components-at-cap"),
        pytest.param(["codims", "{input}"], _lattice_row(MAX_LATTICE_ENTRY), 0, None, id="lattice-entry-at-cap"),
        # the component is not in the computed locus: a witness, exit 2
        pytest.param(["perversity", "{m3}", "--loci", "{input}"], _kernel_row(KERNEL_AT_CAP), 2, None,
                     id="kernel-entry-at-cap"),
    ],
)
def test_large_loci_files_end_promptly(tmp_path, argv, text, code, message):
    path, m3 = tmp_path / "input.loci", tmp_path / "m3.complex"
    path.write_text(text)
    m3.write_text(M3_COMPLEX)
    result = run_cli(*(a.format(input=path, m3=m3) for a in argv), timeout=60)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if message:
        assert result.stderr == f"resource cap: {message}\n"
    elif code == 3:
        assert result.stderr.startswith("resource cap:") and "cap of" in result.stderr
    if code == 2:
        assert "witness point" in result.stderr


def test_fixture_loci_files_fit_the_component_cap(tmp_path):
    loci = tmp_path / "c.loci"
    made = run_cli("fixtures", "induce", "--m", "2", "--n", "8,8", "--loci-out", str(loci), timeout=60)
    assert made.returncode == 0, made.stderr
    assert sum(len(c) for c in json.loads(loci.read_text())["loci"].values()) == 192
    assert run_cli("codims", str(loci), timeout=60).returncode == 0


def test_perversity_samples_bound_the_points_on_an_induced_cover(tmp_path):
    # the (8, 8) cover of m = 2 declares 64 distinct translates, more than
    # either count
    cx, loci = tmp_path / "c.complex", tmp_path / "c.loci"
    made = run_cli("fixtures", "induce", "--m", "2", "--n", "8,8", "--complex-out", str(cx), "--loci-out", str(loci),
                   timeout=60)
    assert made.returncode == 0, made.stderr
    for samples in (5, 40):
        result = run_cli("perversity", str(cx), "--loci", str(loci), "--samples", str(samples), timeout=60)
        assert result.returncode == 0, result.stderr
        assert f"provenance.spot_check: sampled (seed=0, points={samples})" in result.stdout.splitlines()
        assert "verdict: perverse" in result.stdout.splitlines()


def test_induce_fixture_defaults_to_two_in_every_variable():
    default = run_cli("fixtures", "induce", "--m", "2", timeout=60)
    assert default.returncode == 0 and default.stderr == ""
    assert default.stdout == run_cli("fixtures", "induce", "--m", "2", "--n", "2,2", timeout=60).stdout


def test_codimension_of_forty_coordinates_ends_promptly(tmp_path):
    # the one-map complex with d^-1 the column (t_i - 1): a search over
    # variable subsets visits 2^40 of them, and took 22 s at 22 variables
    n = 40
    path = tmp_path / "col.complex"
    path.write_text(
        f"ring vars={','.join(f't{i}' for i in range(1, n + 1))} torus={n} abelian=0\n"
        f"degrees -1..0\nranks 1,{n}\ndifferential -1\n"
        + "".join(f"t{i} - 1\n" for i in range(1, n + 1))
    )
    result = run_cli("jump-ideals", str(path), "--degrees=-1..-1", "--json", timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["degrees"][0]["codimension"] == str(n)


def _two_translates(d):
    # one order-97 and one order-12 point in degree -1: propagation compares
    # their characters, which differ by a point of order 1164 no file names
    d["loci"]["-1"][0].update(translate=[["1", "1/97"], ["1", "0"]])
    d["loci"]["-1"].append({"lattice": [[1, 0], [0, 1]], "translate": [["1", "1/12"], ["1", "0"]]})


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda d: d["loci"]["0"][0].update(translate=[["1", "1/97"], ["1", "0"]]),
                     id="order-97-translate"),
        pytest.param(_two_translates, id="order-97-and-12-translates"),
    ],
)
def test_derived_points_above_cap_are_not_refused(tmp_path, edit):
    # every file order is under the cap, so the verdict is reached as
    # before the cap existed, although derived points have order 12 * 97
    path = tmp_path / "input.loci"
    path.write_text(_m2_loci_edited(edit))
    result = run_cli("perversity", str(path), "--json", timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["propagation"]["ok"] is False


def test_jump_ideals_report(m2_files):
    cx, _ = m2_files
    result = run_cli("jump-ideals", str(cx), "--degrees=-1..0", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    degrees = {e["degree"]: e for e in doc["degrees"]}
    assert set(degrees) == {-1, 0}
    assert degrees[0]["saturated_basis"] == ["t1 - 1", "t2 - 1"]


def test_exactness_pass_and_fail(m2_files, tmp_path):
    cx, _ = m2_files
    assert run_cli("exactness", str(cx)).returncode == 0
    shifted = shift_fixture(mellin_constant_torus(2), -1)
    f = tmp_path / "shifted.complex"
    f.write_text(serialize.dump_complex(shifted.complex))
    result = run_cli("exactness", str(f))
    assert result.returncode == 1
    assert "assumption_holds: False" in result.stdout


def test_perversity_complex_with_loci(m2_files):
    cx, loci = m2_files
    result = run_cli("perversity", str(cx), "--loci", str(loci), "--samples", "15", "--seed", "4")
    assert result.returncode == 0
    assert "verdict: perverse" in result.stdout


def test_perversity_loci_only(m2_files):
    _, loci = m2_files
    result = run_cli("perversity", str(loci), "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "perverse"
    assert doc["provenance"]["conditions"] == "exact"


def test_perversity_failing_fixture(tmp_path):
    fx = shift_fixture(mellin_constant_torus(2), 1)
    cxf = tmp_path / "s.complex"
    locif = tmp_path / "s.loci"
    cxf.write_text(serialize.dump_complex(fx.complex))
    locif.write_text(serialize.dump_loci(fx.profile))
    result = run_cli("perversity", str(cxf), "--loci", str(locif), "--json")
    assert result.returncode == 1
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "lower-only"
    assert any(v["degree"] == 1 for v in doc["violations"])


@pytest.mark.parametrize(
    "args, message",
    [
        pytest.param(["{m2}"], "a complex input needs --loci with its declared linear loci", id="complex-without-loci"),
        pytest.param(["{m2_loci}", "--loci", "{m2_loci}"], "--loci is only meaningful with a complex input",
                     id="loci-with-loci"),
        pytest.param(["{m2}", "--loci", "{m1_loci}"], "loci and complex use different rings", id="different-rings"),
    ],
)
def test_perversity_refuses_inputs_it_cannot_check(m2_files, tmp_path, args, message):
    cx, loci = m2_files
    m1_loci = tmp_path / "m1.loci"
    m1_loci.write_text(serialize.dump_loci(mellin_constant_torus(1).profile))
    paths = {"m2": cx, "m2_loci": loci, "m1_loci": m1_loci}
    result = run_cli("perversity", *(a.format(**paths) for a in args))
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"input error: {message}\n")


def test_perversity_rejects_mismatched_declaration(m2_files, tmp_path):
    cx, _ = m2_files
    wrong = mellin_constant_torus(2)
    doc = json.loads(serialize.dump_loci(wrong.profile))
    doc["loci"]["0"][0]["translate"] = [["2", "0"], ["1", "0"]]
    bad = tmp_path / "wrong.loci"
    bad.write_text(json.dumps(doc))
    result = run_cli("perversity", str(cx), "--loci", str(bad))
    assert result.returncode == 2
    assert "witness" in result.stderr


def test_perversity_refuses_a_declared_euler_the_complex_does_not_have(m2_files, tmp_path):
    # the declared chi = 5 once overrode the complex's chi = 0: euler failed,
    # the verdict stayed perverse and the run exited 0
    cx, _ = m2_files
    lying = tmp_path / "lying.loci"
    lying.write_text(_m2_loci_edited(lambda d: d.update(euler=5)))
    result = run_cli("perversity", str(cx), "--loci", str(lying))
    assert result.returncode == 2 and result.stdout == ""
    assert "declared Euler characteristic 5 is not the complex's, 0" in result.stderr
    assert "Traceback" not in result.stderr
    # a loci-only input has no complex to compare with: its chi stands
    result = run_cli("perversity", str(lying), "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["verdict"] == "perverse" and doc["euler"]["status"] == "fail"


def test_codims_report(m2_files):
    _, loci = m2_files
    result = run_cli("codims", str(loci), "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    entry = {e["degree"]: e for e in doc["degrees"]}[0]
    assert entry["codim_sa"] == "2" and entry["codim_a"] == "0"


def test_codims_reports_rejections(tmp_path):
    doc = {
        "format": "jumploci-loci",
        "ring": {"vars": ["t1", "t2"], "torus": 0, "abelian": 1},
        "loci": {"0": [{"translate": [["1", "0"], ["1", "0"]], "lattice": [[1, 0]]}]},
    }
    f = tmp_path / "odd.loci"
    f.write_text(json.dumps(doc))
    result = run_cli("codims", str(f), "--json")
    assert result.returncode == 2
    out = json.loads(result.stdout)
    assert out["rejected_components"]


def test_codims_collects_an_unknown_component_key(tmp_path):
    path = tmp_path / "extra.loci"
    path.write_text(_m2_loci_edited(lambda d: d["loci"]["0"][0].update(extra=1)))
    result = run_cli("codims", str(path), "--json")
    assert (result.returncode, result.stderr) == (2, "")
    rejected = json.loads(result.stdout)["rejected_components"]
    assert rejected == [{"degree": 0, "component": 0, "reason": "unknown key 'extra' in a component"}]


def test_fixtures_round_trip(tmp_path):
    cxf = tmp_path / "fx.complex"
    locif = tmp_path / "fx.loci"
    result = run_cli(
        "fixtures", "induce", "--m", "1", "--n", "2",
        "--complex-out", str(cxf), "--loci-out", str(locif),
    )
    assert result.returncode == 0
    assert run_cli("validate", str(cxf)).returncode == 0
    assert run_cli("perversity", str(cxf), "--loci", str(locif)).returncode == 0


def test_fixtures_stdout_document():
    result = run_cli("fixtures", "mellin", "--m", "1")
    assert result.returncode == 0
    assert result.stdout.startswith("ring vars=t1")
    assert "jumploci-loci" in result.stdout


def test_sample_command(m2_files, tmp_path):
    cx, _ = m2_files
    pts = tmp_path / "points.json"
    pts.write_text(json.dumps([[["1", "0"], ["1", "0"]], [["2", "0"], ["1", "0"]]]))
    result = run_cli("sample", str(cx), "--points", str(pts), "--degrees=0..0", "--json")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["points"][0]["memberships"]["0"]["member"] is True
    assert doc["points"][1]["memberships"]["0"]["member"] is False


def test_reports_byte_identical_across_runs(m2_files):
    cx, loci = m2_files
    args = ("perversity", str(cx), "--loci", str(loci), "--samples", "20", "--seed", "9", "--json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# a ring without variables, as dump_complex and dump_loci write it
NO_VARIABLES_COMPLEX = "ring vars= torus=0 abelian=0\ndegrees -1..0\nranks 1,2\ndifferential -1\n1\n0\n"
NO_VARIABLES_LOCI = (
    '{"euler": 1, "loci": {"0": [{"lattice": [], "translate": []}]}, "ring": {"abelian": 0, "torus": 0, "vars": []}}'
)


def test_every_subcommand_reads_a_ring_without_variables(tmp_path, monkeypatch, capsys):
    # the complex reader once took "vars=" for one empty variable name and
    # exited 2 on the files the writers produce for such a ring
    from jumploci import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.complex").write_text(NO_VARIABLES_COMPLEX)
    (tmp_path / "z.loci").write_text(NO_VARIABLES_LOCI)
    (tmp_path / "points.json").write_text("[[]]")
    for argv in (
        ["validate", "z.complex"],
        ["jump-ideals", "z.complex"],
        ["exactness", "z.complex"],
        ["sample", "z.complex", "--points", "points.json"],
        ["perversity", "z.complex", "--loci", "z.loci"],
        ["codims", "z.loci"],
    ):
        code = cli.main(argv)
        assert (code, capsys.readouterr().err) == (0, ""), argv


def test_library_verdict_is_the_document_perversity_prints(tmp_path, capsys):
    # perversity_verdict returns the report document itself: on the same
    # files the CLI prints exactly it, and exits on its verdict
    from jumploci import cli
    from jumploci.verdict import perversity_verdict

    from fixture_helpers import standard_fixture_suite

    for seed, fx in enumerate(standard_fixture_suite()):
        assert fx.profile.source is not None, fx.name  # so both sides run the spot check
        cx, loci = tmp_path / f"{seed}.complex", tmp_path / f"{seed}.loci"
        cx.write_text(serialize.dump_complex(fx.complex))
        loci.write_text(serialize.dump_loci(fx.profile))
        argv = ["perversity", str(cx), "--loci", str(loci), "--samples", "20", "--seed", str(seed), "--json"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        doc = perversity_verdict(fx.profile, samples=20, seed=seed)
        assert json.loads(out) == doc, fx.name
        assert (code, err) == (0 if doc["verdict"] == "perverse" else 1, ""), fx.name


def test_spair_budget_constant_triggers_resource_exit(m2_files, monkeypatch, capsys):
    # buchberger reads the module constant at call time, so patching it
    # reaches the basis every jump-ideals run computes
    from jumploci import cli, groebner

    cx, _ = m2_files
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 1)
    assert cli.main(["jump-ideals", str(cx)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "resource cap: S-pair budget of 1 exceeded during Groebner basis computation\n"


def test_free_rank_over_cap_writes_no_file(tmp_path):
    out = tmp_path / "r.complex"
    result = run_cli("fixtures", "free", "--rank", str(MAX_RANK + 1), "--complex-out", str(out), timeout=60)
    assert result.returncode == 3
    assert result.stderr == f"resource cap: module rank {MAX_RANK + 1} exceeds the cap of {MAX_RANK}\n"
    assert "Traceback" not in result.stderr and not out.exists()


def test_module_entry_point(m2_files):
    cx, _ = m2_files
    result = subprocess.run(
        [sys.executable, "-m", "jumploci", "validate", str(cx)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0


@pytest.mark.parametrize("flag", ["--points", "--n", "--degrees"])
def test_dash_dash_option_value_names_the_option(m2_files, flag):
    argv = {"--points": ["sample", str(m2_files[0])], "--n": ["fixtures", "induce"],
            "--degrees": ["jump-ideals", str(m2_files[0])]}[flag]
    result = run_cli(*argv, f"{flag}=--", timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"input error: option {flag} needs a value other than '--'\n"


# -- where the heap is frozen --------------------------------------------------


def test_main_leaves_the_heap_collectable(m2_files, capsys):
    import gc

    from jumploci import cli

    before = gc.get_freeze_count()
    assert cli.main(["validate", str(m2_files[0])]) == 0
    assert cli.main(["codims", str(m2_files[1])]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


# runs cli.run in a fresh interpreter and prints, on a last stderr line, the
# freeze count before the import, after it, the exit code (SystemExit's too)
# and the count after the run; an interpreter may start with objects frozen
RUN_PROBE = """
import gc, sys
start = gc.get_freeze_count()
from jumploci import cli
before = gc.get_freeze_count()
try:
    code = cli.run(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(start, before, code, gc.get_freeze_count(), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, code",
    [pytest.param(["validate", "{m2}"], 0, id="validate"),
     pytest.param(["perversity", "--help"], 0, id="help-raises-system-exit"),
     pytest.param(["perversity"], 2, id="usage-error-raises-system-exit")],
)
def test_run_returns_mains_exit_code_and_freezes_the_heap(m2_files, argv, code):
    argv = [a.format(m2=m2_files[0]) for a in argv]
    result = subprocess.run([sys.executable, "-c", RUN_PROBE, *argv], capture_output=True, text=True,
                            timeout=60)
    *_, last = result.stderr.splitlines()
    start, before, ran, after = map(int, last.split())
    # the import freezes nothing; run freezes the heap
    assert (before, ran, result.returncode) == (start, code, 0)
    assert after > before
    # python -m jumploci prints what run prints and exits with its status
    entry = subprocess.run([sys.executable, "-m", "jumploci", *argv], capture_output=True, text=True,
                           timeout=60)
    assert entry.returncode == code
    assert entry.stdout == result.stdout
    assert entry.stderr + last + "\n" == result.stderr


def test_module_entry_and_script_name_run():
    import ast
    import importlib.util
    from pathlib import Path

    main_py = Path(importlib.util.find_spec("jumploci.__main__").origin)
    calls = {ast.unparse(node) for node in ast.walk(ast.parse(main_py.read_text()))
             if isinstance(node, ast.Call)}
    assert calls == {"sys.exit(run())", "run()"}
    assert "from .cli import run" in main_py.read_text()
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"jumploci": "jumploci.cli:run"}


@pytest.mark.parametrize("exponents, size", [pytest.param("9,9", 81, id="9,9"),
                                             pytest.param("1000,1000", 10**6, id="1000,1000")])
def test_induction_cover_over_cap_exits_3(exponents, size):
    # 12 x 12 took 14 s before the cap and 20 x 20 did not finish in 30 s;
    # a cover above MAX_COVER_SIZE is refused before its basis is built
    result = run_cli("fixtures", "induce", "--m", "2", "--n", exponents, timeout=60)
    assert result.returncode == 3
    assert result.stderr == f"resource cap: induction cover of size {size} exceeds the cap of {MAX_COVER_SIZE}\n"
    assert "Traceback" not in result.stderr


# a fixture ring may have MAX_FIXTURE_VARS variables, an induced fixture as
# many basis vectors as the Koszul complex on that many (2^m * cover size)
OVER = str(MAX_FIXTURE_VARS + 1)


@pytest.mark.parametrize(
    "argv, code",
    [
        pytest.param(["mellin", "--m", OVER], 3, id="mellin-over-cap"),
        pytest.param(["free", "--m", OVER], 3, id="free-over-cap"),
        pytest.param(["twist", "--m", OVER, "--lam", ",".join(["2"] * int(OVER))], 3, id="twist-over-cap"),
        pytest.param(["tensor", "--m", "4", "--m2", str(MAX_FIXTURE_VARS - 3)], 3, id="tensor-over-cap"),
        pytest.param(["induce", "--m", "3", "--n", "4,4,4"], 3, id="induce-over-cap"),
        pytest.param(["induce", "--m", "5"], 3, id="induce-default-over-cap"),  # 32 * 32 basis vectors
        pytest.param(["shift", "--m", "2", "--s", "5000"], 3, id="shift-past-degree-cap"),
        pytest.param(["shift", "--m", "2", "--s=-5000"], 3, id="shift-past-negative-degree-cap"),
        pytest.param(["mellin", "--m", str(MAX_FIXTURE_VARS)], 0, id="mellin-at-cap"),
        pytest.param(["tensor", "--m", "4", "--m2", str(MAX_FIXTURE_VARS - 4)], 0, id="tensor-at-cap"),
        pytest.param(["shift", "--m", "2", "--s", str(MAX_DEGREE)], 0, id="shift-at-degree-cap"),
        pytest.param(["induce", "--m", str(MAX_FIXTURE_VARS), "--n", ",".join(["1"] * MAX_FIXTURE_VARS)],
                     0, id="induce-at-cap"),
        pytest.param(["free", "--m", "1", "--rank", str(MAX_RANK + 1)], 3, id="free-rank-over-cap"),
        pytest.param(["free", "--m", "1", "--rank", str(MAX_RANK)], 0, id="free-rank-at-cap"),
    ],
)
def test_fixture_size_cap(capsys, argv, code):
    # before the cap, twist and sum fixtures at --m 10 took 6-7 s, and the work
    # grows with every added variable
    from jumploci import cli

    assert cli.main(["fixtures", *argv]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and err.startswith("resource cap:") and "cap of" in err
    else:
        assert out.startswith("ring vars=") and err == ""


def test_internal_error_exits_4_with_traceback(monkeypatch, capsys):
    from jumploci import cli
    from jumploci.errors import ResourceError

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    assert cli.main(["validate", "m2.complex"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: boom" in err

    # ResourceError is a RuntimeError too, and keeps its own exit status
    def capped(args):
        raise ResourceError("cap")

    monkeypatch.setattr(cli, "cmd_validate", capped)
    assert cli.main(["validate", "m2.complex"]) == 3
    assert capsys.readouterr().err == "resource cap: cap\n"


# Every parsed integer has at most 4300 digits, Python's limit on int-string
# conversion, but computed ones can pass it: L has 4290 digits, L^2 in the
# composite d.d and in the generator (t1 - L)^2 has 8579, and a sampled point
# on the lattice row [1, 100] through the translate (L, 1) multiplies L by a
# hundredth power.  Each exited 4 with a traceback.
BIG = 10**4289 + 7


def _big_inputs(tmp_path):
    (tmp_path / "noncx.complex").write_text(
        f"ring vars=t1 torus=1 abelian=0\ndegrees -2..0\nranks 1,1,1\n"
        f"differential -2\nt1 - {BIG}\ndifferential -1\nt1 - {BIG}\n"
    )
    (tmp_path / "kos.complex").write_text(
        f"ring vars=t1,t2 torus=2 abelian=0\ndegrees -2..0\nranks 1,2,1\n"
        f"differential -2\n-t2 + 1\nt1 - {BIG}\ndifferential -1\nt1 - {BIG}, t2 - 1\n"
    )
    comp = {"lattice": [[1, 100]], "translate": [[str(BIG), "0"], ["1", "0"]]}
    (tmp_path / "kos.loci").write_text(json.dumps({
        "euler": 0, "format": "jumploci-loci", "loci": {d: [comp] for d in ("-2", "-1", "0")},
        "ring": {"abelian": 0, "torus": 2, "vars": ["t1", "t2"]},
    }))


@pytest.mark.parametrize(
    "argv",
    [["validate", "noncx.complex"], ["exactness", "noncx.complex"], ["jump-ideals", "noncx.complex"],
     ["jump-ideals", "kos.complex"]]
    + [["perversity", "kos.complex", "--loci", "kos.loci", "--seed", str(seed)] for seed in range(1, 7)],
    ids=lambda argv: "-".join(argv).replace(".complex", "").replace("-kos.loci", ""),
)
def test_numbers_too_long_to_print_exit_without_traceback(tmp_path, monkeypatch, capsys, argv):
    from jumploci import cli

    _big_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (2, 3), err
    assert err.count("\n") == 1
    if code == 3:
        assert err.startswith("resource cap: a computed number of ") and "digits is too long to print" in err
