"""The fast parse against argparse, its oracle.

``cli.parse_well_formed`` reads a well-formed argv without argparse and
declines (returns None) anything else, which ``cli.main`` then hands to
``cli.build_parser``.  For every argv it either declines, or it returns the
namespace argparse returns, ``command`` and ``fn`` included; and it declines
every argv on which argparse exits (help, usage errors).  Hypothesis draws
argv from subcommand names, exact and abbreviated flags, ``--flag=value``
forms, ``-h``, ``--``, negative numbers, empty strings and non-integers; the
argv of every seed-7 benchmark job and of every golden case but the two
with a negative value after a space (``--s -1``) must be accepted and give
argparse's namespace.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumploci import cli
from jumploci.laurent import parse_int

import test_golden

ROOT = Path(__file__).resolve().parent.parent
PARSER = cli.build_parser()


def _argparse(argv: list[str]):
    """vars() of argparse's namespace, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _check(argv: list[str]) -> bool:
    """Whether the fast parse accepted argv; fails where it disagrees with argparse."""
    fast = cli.parse_well_formed(argv)
    oracle = _argparse(argv)
    if fast is None:
        return False
    assert oracle is not None, argv
    assert vars(fast) == oracle, argv
    return True


NAMES = sorted(cli.COMMANDS)
VALUES = ["", " 7", "-5", "x", "1/2", "0..-3", "--", "-", "-h", "--json", "mellin", "perversity", "a=b", "9" * 5000]
FLAGS = sorted({option[0] for *_, options in cli.COMMANDS.values() for option in options})
NOISE = st.one_of(
    st.sampled_from(NAMES + ["perv", "val", "sampl", "nosuch", "--json", "--js"]),
    st.sampled_from(FLAGS).map(lambda flag: flag[:-1]),  # an abbreviation, or "-" for "--m"
    st.builds("{}={}".format, st.sampled_from(["--deg", "--samp", "--json"]), st.sampled_from(VALUES)),
    st.sampled_from(VALUES),
)


@st.composite
def _subcommand_argv(draw):
    """A subcommand name, its positional and a few pieces, most of them
    well formed: a flag of the subcommand with a value after a space or "=",
    half the time one its reader accepts and half the time from VALUES, or
    --json; now and then a second positional or another token."""
    name = draw(st.sampled_from(NAMES))
    _, _, (_, _, choices), options = cli.COMMANDS[name]
    positional = st.one_of(st.sampled_from(choices or ["m2.complex", ""]), st.just("nosuch"))  # not always a choice

    @st.composite
    def option(draw):
        flag, _, read, *_ = draw(st.sampled_from(options))
        good = st.integers(-3, 99).map(str) if read is parse_int else st.sampled_from(["m2.loci", "0..1", "2,1", ""])
        value = draw(good if draw(st.booleans()) else st.sampled_from(VALUES))
        return draw(st.sampled_from([(flag, value), (f"{flag}={value}",)]))

    well_formed = option() if options else st.just(("--json",))
    odd = st.one_of(st.just(("--json",)), st.one_of(positional, NOISE).map(lambda token: (token,)))
    rest = [draw(well_formed if draw(st.integers(0, 9)) < 8 else odd) for _ in range(draw(st.integers(0, 5)))]
    rest.insert(draw(st.integers(0, len(rest))), (draw(positional),))
    return [name, *(token for piece in rest for token in piece)]


ARGV = st.one_of(st.lists(st.one_of(NOISE, st.sampled_from(FLAGS)), max_size=5), _subcommand_argv())


@settings(derandomize=True, database=None, max_examples=800, deadline=None)
@given(argv=ARGV)
def test_fast_parse_agrees_with_argparse(argv):
    _check(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["perversity", "m2.complex", "--loci=--"],  # argparse strips "--" and stores []
        ["perversity", "m2.complex", "--samples", "-5"],
        ["perversity", "m2.complex", "--samp", "5"],
        ["perversity", "m2.complex", "--json=1"],
        ["perversity", "m2.complex", "--", "x"],
        ["perversity", "-h"],
        ["perversity", "a", "b"],
        ["perversity", "--loci"],
        ["sample", "m2.complex"],
        ["fixtures", "nosuch"],
        ["perv", "m2.loci"],
        [],
    ],
)
def test_fast_parse_declines(argv):
    assert cli.parse_well_formed(argv) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["perversity", "", "--loci="],  # empty strings are values and positionals to argparse too
        ["perversity", "m2.complex", "--samples="],  # main, not a parser, reads a value
        ["fixtures", "mellin", "--m", "x"],
        ["perversity", "x", "--samples= 5", "--seed", "3", "--seed", "4", "--json", "--json"],
        ["fixtures", "shift", "--m=2", "--m2=3", "--s=-5000", "--loci-out", "a=b"],
        ["jump-ideals", "--degrees", "0..-3", "m3.complex"],
        ["sample", "--points=p.json", "m2.complex", "--degrees=-2..0"],
    ],
)
def test_fast_parse_accepts(argv):
    assert _check(argv)


def _benchmark_argv(tmp_path) -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    jobs = [job for name in workloads.GENERATORS for job in workloads.build(name, 7, tmp_path / name)]
    return [job["argv"] for job in jobs if job["kind"] == "cli"]


def test_every_benchmark_argv_takes_the_fast_parse(tmp_path):
    argvs = _benchmark_argv(tmp_path)
    assert len(argvs) == 54 + 57 + 7  # pointwise-route, ideal-route (4 library jobs), frontier
    assert all(_check(argv) for argv in argvs)


def test_golden_argv_take_the_fast_parse_unless_a_value_is_negative():
    argvs = [argv for argv, _ in test_golden.CASES.values()]
    declined = [argv for argv in argvs if not _check(argv)]
    # "--s -1" is argparse's alone; "--degrees=-3..-3" is read by both
    assert declined == [argv for argv in argvs if "-1" in argv] and len(declined) == 2
