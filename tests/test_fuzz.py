"""Fuzz the input parsers and the ideal route through the command line.

Whatever the complex text, loci JSON, points JSON or fixture parameters, a
run of ``validate``, ``codims``, ``sample``, ``jump-ideals``, ``exactness``,
``perversity`` or ``fixtures`` must end in a documented exit code (0 pass,
1 checked and failed, 2 input error, 3 resource cap) and never in an
internal error (exit 4, which is a bug).  A fixture run that exits 0 must
write files that ``validate`` and ``codims`` accept and, for small
fixtures, on which ``perversity`` reaches the expected verdict.
Inputs mix well-formed documents, documents with one part replaced, and
arbitrary text, JSON and bytes.  The complexes fed to ``jump-ideals`` and
``exactness`` keep their polynomials small (at most three terms, exponents
in -2..2), so that each run reaches the Groebner engine and stays short.
``perversity`` is fuzzed on loci documents alone and on a complex with
``--loci``, at most one of the two edited from the m1 or m2 documents, so
that about half of the pairs reach the pointwise spot check.  Hypothesis
runs derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json
import math

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jumploci import cli, serialize
from jumploci.fixtures import MAX_FIXTURE_VARS, mellin_constant_torus
from jumploci.laurent import format_poly, parse_int
from jumploci.sampling import MAX_SAMPLES
from jumploci.serialize import MAX_DEGREE

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

M1 = mellin_constant_torus(1)
M1_COMPLEX = serialize.dump_complex(M1.complex)
M1_LOCI = json.loads(serialize.dump_loci(M1.profile))
M2 = mellin_constant_torus(2)
M2_COMPLEX = serialize.dump_complex(M2.complex)
M2_LOCI = json.loads(serialize.dump_loci(M2.profile))
M2_POINTS = [[["1", "1/3"], ["2", "1/4"]], [["1", "0"], ["1", "0"]]]


def _run(tmp_path, argv: list[str], files: dict) -> tuple[int, str]:
    """Write ``files`` (name -> text or bytes) into tmp_path and run the
    command line in-process, with those names in argv replaced by paths;
    returns the exit status and stderr."""
    code, _, err = _run_output(tmp_path, argv, files)
    return code, err


def _run_output(tmp_path, argv: list[str], files: dict) -> tuple[int, str, str]:
    """``_run`` that also returns stdout, as (exit status, stdout, stderr)."""
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        else:
            (tmp_path / name).write_text(content, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(tmp_path / a) if a in files else a for a in argv])
    return code, out.getvalue(), err.getvalue()


def _check(tmp_path, argv: list[str], files: dict) -> None:
    code, err = _run(tmp_path, argv, files)
    assert code in (0, 1, 2, 3), err
    assert "internal error:" not in err, err


# -- strategies -----------------------------------------------------------------

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)
_SMALL_INT = st.integers(-3, 4)
# degrees near the complexes' own, at the cap and far beyond it
_FAR_DEGREES = [MAX_DEGREE, -MAX_DEGREE, MAX_DEGREE + 1, -MAX_DEGREE - 1, 10**8, -(10**8)]
_DEGREE = st.one_of(_SMALL_INT, st.sampled_from(_FAR_DEGREES))
_RATIONAL = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "1/3", "-3/4", "5/7", "1/0", "0/3",
                     "1/97", "1/1000", "1/1001", "1e3", "1.5", "x", "", " 1", "inf"]),
    st.fractions(max_denominator=60).map(str),
    _TEXT,
)
# values at the edges of what JSON numbers can say (json writes Infinity, NaN)
_EDGE = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300, 1.5, -1, 0, 10**30, True])
_JSON = st.recursive(
    st.one_of(st.none(), _EDGE, st.integers(), st.floats(), _RATIONAL),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=12,
)

_POLY = st.lists(
    st.sampled_from(["t1", "t2", "t3", "x", "1", "0", "2", "1/2", "1/0", "^", "^-1", "^2",
                     "**", "*", "+", "-", "/", "(", ")", " ", ",", "3", "99999999999"]),
    max_size=8,
).map("".join)
_COMPLEX_LINE = st.one_of(
    st.sampled_from(M2_COMPLEX.splitlines()),
    st.sampled_from(["ring vars=t1 torus=1 abelian=0", "ring vars=a,b,c torus=1 abelian=1",
                     "ring vars=t1,t1 torus=2 abelian=0", "ring torus=2", "ring vars=t1 torus=x abelian=0",
                     "# comment", ""]),
    st.builds("degrees {}..{}".format, _DEGREE, _DEGREE),
    st.lists(_SMALL_INT, max_size=4).map(lambda rs: "ranks " + ",".join(map(str, rs))),
    _SMALL_INT.map("differential {}".format),
    st.lists(_POLY, min_size=1, max_size=3).map(", ".join),
    _TEXT,
)
_COMPLEX = st.one_of(
    st.lists(_COMPLEX_LINE, max_size=10).map("\n".join),
    # the m2 document with one line replaced
    st.builds(
        lambda k, line: "\n".join(M2_COMPLEX.splitlines()[:k] + [line] + M2_COMPLEX.splitlines()[k + 1 :]),
        st.integers(0, len(M2_COMPLEX.splitlines()) - 1),
        _COMPLEX_LINE,
    ),
    _TEXT,
    st.binary(max_size=30),
)

_PAIR = st.one_of(st.lists(_RATIONAL, min_size=2, max_size=2), _JSON)
_POINTS = st.one_of(
    st.lists(st.one_of(st.lists(_PAIR, max_size=3), _JSON), max_size=3).map(json.dumps),
    _JSON.map(json.dumps),
    _TEXT,
)


def _paths(node, path=()):
    """Every position in a JSON document, as a key path from the root."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _loci_edit(doc):
    """``doc`` with one subtree replaced by arbitrary JSON."""
    return st.builds(_replace, st.just(doc), st.sampled_from(list(_paths(doc))), st.one_of(_EDGE, _JSON))


_LOCI_EDIT = _loci_edit(M2_LOCI)


_LOCI = st.one_of(_LOCI_EDIT.map(json.dumps), _JSON.map(json.dumps), _TEXT)


def _small_poly(nvars: int):
    term = st.builds(
        lambda c, exps: "*".join([c] + [f"t{i + 1}^{e}" for i, e in enumerate(exps)]),
        st.sampled_from(["1", "-1", "2", "-1/2", "3"]),
        st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
    )
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def _one_map_complex(draw):
    """A complex with a single differential: every matrix is one, so each
    run gets past validation to the ideals."""
    n = draw(st.integers(1, 2))
    abelian = draw(st.integers(0, n // 2))
    k = draw(st.integers(-2, 1))
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entries = _small_poly(n)
    lines = [f"ring vars={','.join(f't{i + 1}' for i in range(n))} torus={n - 2 * abelian} abelian={abelian}",
             f"degrees {k}..{k + 1}", f"ranks {cols},{rows}", f"differential {k}"]
    lines += [", ".join(draw(entries) for _ in range(cols)) for _ in range(rows)]
    return "\n".join(lines) + "\n"


def _scaled_m2(f_text: str, g_text: str) -> str:
    """The m2 document with differential -2 multiplied by f and -1 by g,
    which is still a complex."""
    ctx = M2.complex.context
    scales = {-2: ctx.parse(f_text), -1: ctx.parse(g_text)}
    lines, scale = [], None
    for line in M2_COMPLEX.splitlines():
        if line.startswith("differential"):
            scale = scales[int(line.split()[1])]
        elif scale is not None:
            line = ", ".join(format_poly(ctx.parse(e) * scale) for e in line.split(","))
        lines.append(line)
    return "\n".join(lines) + "\n"


def _edited(document: str, line):
    """``document`` with one line replaced by a draw from ``line``."""
    lines = document.splitlines()
    return st.builds(
        lambda k, new: "\n".join(lines[:k] + [new] + lines[k + 1 :]),
        st.integers(0, len(lines) - 1),
        line,
    )


_HEADER = st.one_of(
    st.sampled_from(["ring vars=t1 torus=1 abelian=0", "ring vars=t1,t2 torus=0 abelian=1",
                     "ring vars=t1,t2 torus=2 abelian=0", "degrees -1..0", "degrees -2..0",
                     "ranks 1,1", "ranks 1,2,1", "ranks 2,2,1", "differential -1", ""]),
    st.builds("degrees {}..{}".format, _DEGREE, _DEGREE),
)
_SMALL_COMPLEX = st.one_of(
    _one_map_complex(),
    st.builds(_scaled_m2, _small_poly(2), _small_poly(2)),
    _edited(M1_COMPLEX, st.one_of(_small_poly(1), _HEADER, _TEXT)),
    _edited(M2_COMPLEX, st.one_of(st.lists(_small_poly(2), min_size=1, max_size=2).map(", ".join),
                                  _HEADER, _TEXT)),
)

# fixture parameters: a torus rank or shift around the size cap, at and past
# the degree cap, or anywhere, other integers, and --lam / --n lists with one entry per variable or anything;
# passed as --opt=value, so that a value starting with "-" is not an option
_FIXTURE_INT = st.one_of(
    st.integers(-1, MAX_FIXTURE_VARS + 1), st.sampled_from(_FAR_DEGREES), st.integers()
)
_FIXTURE_TEXT = st.one_of(
    st.lists(st.one_of(st.integers(-1, 9).map(str), _RATIONAL), min_size=1, max_size=4).map(",".join),
    _TEXT,
)


# fixture name -> the options besides --m that it reads
_FIXTURE_OPTIONS = {
    "mellin": (), "twist": ("--lam",), "tensor": ("--m2",), "induce": ("--n",), "sum": ("--lam",),
    "shift": ("--s",), "free": ("--rank",),
}


@st.composite
def _fixture_argv(draw, own_options=False):
    """A fixtures argv: any of the five options, or with ``own_options``
    only those the fixture reads."""
    name = draw(st.sampled_from(list(_FIXTURE_OPTIONS)))
    m = draw(_FIXTURE_INT)
    width = m if 1 <= m <= MAX_FIXTURE_VARS + 1 else 1
    lam = st.lists(st.sampled_from(["2", "-1", "1/3", "0", "1/0"]), min_size=width, max_size=width)
    exponents = st.lists(st.integers(-1, 4).map(str), min_size=width, max_size=width)
    values = {
        "--m2": _FIXTURE_INT, "--s": _FIXTURE_INT, "--rank": _FIXTURE_INT,
        "--lam": st.one_of(lam.map(",".join), _FIXTURE_TEXT),
        "--n": st.one_of(exponents.map(",".join), _FIXTURE_TEXT),
    }
    flags = _FIXTURE_OPTIONS[name] if own_options else list(values)
    options = draw(st.lists(
        st.sampled_from(flags).flatmap(lambda flag: st.tuples(st.just(flag), values[flag])), max_size=3
    )) if flags else []
    return ["fixtures", name, f"--m={m}", *(f"{opt}={value}" for opt, value in options)]


# -- the properties ----------------------------------------------------------------


@FUZZ
@given(text=_COMPLEX)
def test_validate_ends_in_a_documented_exit(tmp_path, text):
    _check(tmp_path, ["validate", "in.complex"], {"in.complex": text})


@FUZZ
@given(text=_LOCI)
def test_codims_ends_in_a_documented_exit(tmp_path, text):
    _check(tmp_path, ["codims", "in.loci"], {"in.loci": text})


@FUZZ
@given(points=_POINTS)
def test_sample_points_end_in_a_documented_exit(tmp_path, points):
    _check(tmp_path, ["sample", "m2.complex", "--points", "in.points"],
           {"m2.complex": M2_COMPLEX, "in.points": points})


@FUZZ
@given(text=_COMPLEX)
def test_sample_complex_ends_in_a_documented_exit(tmp_path, text):
    _check(tmp_path, ["sample", "in.complex", "--points", "m2.points"],
           {"in.complex": text, "m2.points": json.dumps(M2_POINTS)})


@FUZZ
@given(text=_SMALL_COMPLEX)
def test_jump_ideals_ends_in_a_documented_exit(tmp_path, text):
    _check(tmp_path, ["jump-ideals", "in.complex"], {"in.complex": text})


@FUZZ
@given(text=_SMALL_COMPLEX)
def test_exactness_ends_in_a_documented_exit(tmp_path, text):
    _check(tmp_path, ["exactness", "in.complex"], {"in.complex": text})


@FUZZ
@given(argv=_fixture_argv())
def test_fixture_parameters_end_in_a_documented_exit(tmp_path, argv):
    _check(tmp_path, argv, {})


@FUZZ
@given(argv=_fixture_argv(own_options=True), shift=_DEGREE)
@example(argv=["fixtures", "free", "--m=1", "--rank=0"], shift=0)
@example(argv=["fixtures", "free", "--m=2", "--rank=2"], shift=1)
@example(argv=["fixtures", "twist", "--m=2", "--lam=2,1/3"], shift=0)
@example(argv=["fixtures", "tensor", "--m=1", "--m2=2"], shift=0)
@example(argv=["fixtures", "sum", "--m=2", "--lam=-1,2"], shift=0)
@example(argv=["fixtures", "shift", "--m=2"], shift=-1)
@example(argv=["fixtures", "shift", "--m=1"], shift=2)
@example(argv=["fixtures", "induce", "--m=2", "--n=4,4"], shift=0)
def test_fixture_files_load_back(tmp_path, argv, shift):
    # a fixture either refuses its parameters or writes documents the
    # loaders accept; on at most two variables per factor and rank at most
    # two, perversity of the complex against its own loci then reaches the
    # verdict the fixture expects (on induced covers too: the spot check
    # samples the declared components first, and the largest cover drawn
    # here, n = (4, 4), takes about a third of a second); only shift reads
    # --s, and every other fixture refuses it
    complex_out, loci_out = tmp_path / "out.complex", tmp_path / "out.loci"
    shifts = [f"--s={shift}"] if argv[1] == "shift" else []
    argv = [*argv, *shifts, f"--complex-out={complex_out}", f"--loci-out={loci_out}", "--json"]
    code, out, _ = _run_output(tmp_path, argv, {})
    if code != 0:
        return
    for check in (["validate", str(complex_out)], ["codims", str(loci_out)]):
        assert _run(tmp_path, check, {}) == (0, ""), (argv, check)
    options = dict(a[2:].partition("=")[::2] for a in argv[2:])
    if all(int(options.get(key, "1")) <= 2 for key in ("m", "m2", "rank")):
        check = ["perversity", str(complex_out), "--loci", str(loci_out), "--samples", "5"]
        expected = 0 if json.loads(out)["expected_verdict"] == "perverse" else 1
        assert _run(tmp_path, check, {}) == (expected, ""), (argv, check)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _leaf_edit(doc):
    """``doc`` with one leaf replaced by a small integer or rational string,
    which mostly keeps the document well-formed but moves its loci."""
    leaves = [p for p in _paths(doc) if p and not isinstance(_at(doc, p), (dict, list))]
    value = st.one_of(st.integers(-2, 3), st.sampled_from(["0", "1", "-1", "2", "1/2", "1/3", "3/4", "1/97"]))
    return st.builds(_replace, st.just(doc), st.sampled_from(leaves), value)


def _move_degree(doc, key, degree):
    doc = json.loads(json.dumps(doc))
    doc["loci"][str(degree)] = doc["loci"].pop(key)
    return doc


def _key_edit(doc):
    """``doc`` with the components of one degree moved to another degree."""
    return st.builds(_move_degree, st.just(doc), st.sampled_from(sorted(doc["loci"])), _DEGREE)


def _some_loci(doc):
    """``doc`` intact, or with a leaf or a subtree replaced or a degree moved."""
    return st.one_of(st.just(doc), _leaf_edit(doc), _loci_edit(doc), _key_edit(doc)).map(json.dumps)


def _m1_at(top: int) -> str:
    """The m1 document moved so that its top degree is ``top``."""
    return M1_COMPLEX.replace("degrees -1..0", f"degrees {top - 1}..{top}").replace(
        "differential -1", f"differential {top - 1}"
    )


def _pair(complex_text: str, complexes, loci_doc):
    """A complex and its loci document from one base, at most one of them
    edited, so that most pairs share a ring and reach the spot check."""
    return st.one_of(
        st.tuples(complexes, st.just(json.dumps(loci_doc))),
        st.tuples(st.just(complex_text), _some_loci(loci_doc)),
    )


_PERVERSITY_LOCI = st.one_of(_some_loci(M1_LOCI), _some_loci(M2_LOCI))
_PERVERSITY_PAIR = st.one_of(
    # m1 has one differential, so any 1x1 entry keeps it a complex
    _pair(M1_COMPLEX, st.one_of(
        st.just(M1_COMPLEX),
        _DEGREE.map(_m1_at),
        _small_poly(1).map(lambda f: M1_COMPLEX.rsplit("\n", 2)[0] + f"\n{f}\n"),
        _edited(M1_COMPLEX, st.one_of(_HEADER, _TEXT)),
    ), M1_LOCI),
    _pair(M2_COMPLEX, st.one_of(
        st.builds(_scaled_m2, _small_poly(2), _small_poly(2)),
        _edited(M2_COMPLEX, st.one_of(_small_poly(2), _HEADER, _TEXT)),
    ), M2_LOCI),
)

# --samples and --seed, any integer the option parser accepts: few samples,
# so that each run stays short, or counts that must be refused
_SPOT_OPTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("--samples"), st.one_of(st.integers(-1, 6), st.sampled_from([-(10**6), MAX_SAMPLES + 1, 3 * 10**6]))),
        st.tuples(st.just("--seed"), st.integers(-5, 10**6)),
    ),
    max_size=2,
).map(lambda opts: [f"{opt}={value}" for opt, value in opts])


def _check_perversity(tmp_path, argv, files) -> None:
    code, err = _run(tmp_path, argv, files)
    assert code in (0, 1, 2, 3), err
    assert "internal error:" not in err and "Traceback" not in err, err
    # the last --samples option counts.  The inputs are read before the
    # count is checked: a refused count exits 2 below zero and 3 above the
    # cap, or ends as the same inputs with a count of 0 do where reading
    # them is refused
    samples = [int(a.split("=")[1]) for a in argv if a.startswith("--samples=")]
    if samples and not 0 <= samples[-1] <= MAX_SAMPLES:
        if "sample count" in err:
            assert code == (2 if samples[-1] < 0 else 3), err
        else:
            assert (code, err) == _run(tmp_path, [*argv, "--samples=0"], files) and code in (2, 3), err


@FUZZ
@given(loci=_PERVERSITY_LOCI, options=_SPOT_OPTIONS)
def test_perversity_loci_ends_in_a_documented_exit(tmp_path, loci, options):
    _check_perversity(tmp_path, ["perversity", "in.loci", *options], {"in.loci": loci})


@settings(FUZZ, max_examples=80)
@given(pair=_PERVERSITY_PAIR, options=_SPOT_OPTIONS)
def test_perversity_complex_ends_in_a_documented_exit(tmp_path, pair, options):
    complex_, loci = pair
    _check_perversity(tmp_path, ["perversity", "in.complex", "--loci", "in.loci", *options],
                      {"in.complex": complex_, "in.loci": loci})


_DEGREE_RANGE = st.one_of(st.builds("{}..{}".format, _DEGREE, _DEGREE), _TEXT)


@settings(FUZZ, max_examples=60)
@given(command=st.sampled_from(["jump-ideals", "sample"]), degrees=_DEGREE_RANGE)
def test_degree_ranges_end_in_a_documented_exit(tmp_path, command, degrees):
    argv = [command, "m2.complex", f"--degrees={degrees}"]
    if command == "sample":
        argv += ["--points", "m2.points"]
    code, err = _run(tmp_path, argv, {"m2.complex": M2_COMPLEX, "m2.points": json.dumps(M2_POINTS)})
    assert code in (0, 2, 3), err
    try:
        lo, hi = (parse_int(bound) for bound in degrees.split(".."))
    except ValueError:
        return
    assert (code == 3) == (max(abs(lo), abs(hi)) > MAX_DEGREE), err


def _m2_loci_with(path, value) -> str:
    return json.dumps(_replace(M2_LOCI, path, value))


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["validate", "in"], b"\x80", id="undecodable-bytes"),
        pytest.param(["perversity", "in"], _m2_loci_with(("euler",), math.inf), id="euler-infinity"),
        pytest.param(["perversity", "in"], _m2_loci_with(("ring", "torus"), math.inf), id="torus-infinity"),
        pytest.param(["perversity", "in"], _m2_loci_with(("loci", "0", 0, "lattice", 0, 0), -math.inf),
                     id="lattice-entry-infinity"),
        # integers once truncated or read from booleans, exiting 0
        pytest.param(["perversity", "in"], _m2_loci_with(("loci", "0", 0, "lattice", 0, 0), 1.5),
                     id="lattice-entry-fraction"),
        pytest.param(["perversity", "in"], _m2_loci_with(("loci", "0", 0, "lattice", 0, 0), True),
                     id="lattice-entry-true"),
        pytest.param(["perversity", "in"], _m2_loci_with(("loci", "0", 0, "lattice", 0), "10"),
                     id="lattice-row-string"),
        pytest.param(["perversity", "in"], _m2_loci_with(("euler",), 0.0), id="euler-float"),
        pytest.param(["perversity", "in"], _m2_loci_with(("euler",), False), id="euler-false"),
        pytest.param(["perversity", "in"], _m2_loci_with(("ring", "torus"), 2.0), id="torus-float"),
        pytest.param(["perversity", "in"], _m2_loci_with(("ring", "abelian"), False), id="abelian-false"),
        # rationals once read but not printable (exit 4 where a report printed them)
        pytest.param(["perversity", "in"], _m2_loci_with(("loci", "0", 0, "translate", 0, 0), "1e5000"),
                     id="translate-radial-with-exponent-part"),
        pytest.param(["perversity", "in"],
                     _m2_loci_with(("loci", "0", 0, "translate", 0, 0), "1" * 3000 + "." + "1" * 3000),
                     id="translate-radial-decimal-of-6001-characters"),
        # variables once read as the characters of a string or the keys of an object
        pytest.param(["perversity", "in"], _m2_loci_with(("ring", "vars"), "ab"), id="vars-string"),
        pytest.param(["perversity", "in"], _m2_loci_with(("ring", "vars"), {"t1": 1, "t2": 2}), id="vars-object"),
    ],
)
def test_found_inputs_are_input_errors(tmp_path, argv, text):
    # each of these once ended in an internal error (exit 4) or was read as
    # a different document
    code, err = _run(tmp_path, argv, {"in": text})
    assert code == 2 and err.startswith("input error:"), err
