"""Golden reports: every CLI subcommand, run in-process through ``cli.main``,
must reproduce its frozen stdout byte for byte and its exit code.

The inputs are the m = 2 constant-object fixture, the (2,1) induced cover
of m = 2, m = 2 shifted one step right (the only
exactness report whose dual certificate has rows), two failing inputs: m = 2
shifted one step left (exactness and perversity exit 1) and m = 3 summed with
its twist (jump-ideals exits 3 on the minor-size cap), and the constant object on the
4-torus (m = 4), whose degree -3 and -2 jumping ideals and exactness
certificate need the Groebner engine at N = 4 (degree -2 prints the
largest saturated basis of the stock, 84 generators).  Two more freeze the
determinantal kernel at its largest sizes: the degree -4 jumping ideal of
the constant object on the 5-torus (m = 5; products of 4-minors and
1-minors) and every jumping ideal of the 2x2 external tensor.  Each input
is written by the ``fixtures`` subcommand, which is itself one of the
frozen cases.  The 1x1 external tensor is frozen only as the ``fixtures``
record that writes it: an external tensor of constant objects on the a-
and b-tori is the constant object on the (a+b)-torus, and for a <= 2
``fixtures tensor`` prints the bytes ``fixtures mellin`` prints for it.
From a = 3 on, its complex lists the same basis in another order, so only
its loci file and its reports are the constant object's.

The help and usage-error text is argparse's own: ``--help``, ``perversity
--help`` and ``perversity`` without an input (exit 2) are frozen with their
stdout, stderr and exit code, at 80 columns, as Python 3.11's argparse
prints them.

After a deliberate report change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and justify every changed file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from jumploci import cli, groebner

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> fixtures subcommand arguments that build it
INPUTS = {
    "m2": ["mellin", "--m", "2"],
    "tensor11": ["tensor", "--m", "1", "--m2", "1"],
    "induce2-21": ["induce", "--m", "2", "--n", "2,1"],
    "m2-shift": ["shift", "--m", "2", "--s", "-1"],
    "m2-shift-right": ["shift", "--m", "2", "--s", "1"],
    "m3-sum-twist": ["sum", "--m", "3"],
    "m4": ["mellin", "--m", "4"],
    "m5": ["mellin", "--m", "5"],
    "tensor22": ["tensor", "--m", "2", "--m2", "2"],
}

POINTS = [
    [["1", "0"], ["1", "0"]],
    [["1", "1/2"], ["1", "0"]],
    [["2", "0"], ["1", "1/3"]],
    [["1", "1/2"], ["1/3", "1/4"]],
]


def _fixture_argv(name: str) -> list[str]:
    return ["fixtures", *INPUTS[name], "--complex-out", f"{name}.complex", "--loci-out", f"{name}.loci"]


def _cases() -> dict[str, tuple[list[str], int]]:
    """case id -> (argv, expected exit status); each case in text and JSON."""
    base: dict[str, tuple[list[str], int]] = {}
    for name in ("m2", "induce2-21"):
        cx, loci = f"{name}.complex", f"{name}.loci"
        base[f"{name}-fixtures-stdout"] = (["fixtures", *INPUTS[name]], 0)
        base[f"{name}-fixtures-files"] = (_fixture_argv(name), 0)
        base[f"{name}-validate"] = (["validate", cx], 0)
        base[f"{name}-jump-ideals"] = (["jump-ideals", cx], 0)
        base[f"{name}-exactness"] = (["exactness", cx], 0)
        base[f"{name}-perversity-complex"] = (
            ["perversity", cx, "--loci", loci, "--samples", "8", "--seed", "5"], 0)
        base[f"{name}-perversity-loci"] = (["perversity", loci], 0)
        base[f"{name}-codims"] = (["codims", loci], 0)
        base[f"{name}-sample"] = (["sample", cx, "--points", "points.json"], 0)
    for name in ("tensor11", "m2-shift", "m3-sum-twist"):
        base[f"{name}-fixtures-files"] = (_fixture_argv(name), 0)
    base["m2-shift-exactness"] = (["exactness", "m2-shift.complex"], 1)
    base["m2-shift-right-exactness"] = (["exactness", "m2-shift-right.complex"], 0)
    base["m2-shift-perversity-complex"] = (
        ["perversity", "m2-shift.complex", "--loci", "m2-shift.loci", "--samples", "8", "--seed", "5"], 1)
    base["m3-sum-twist-jump-ideals"] = (["jump-ideals", "m3-sum-twist.complex"], 3)
    base["m4-jump-ideals-degree-3"] = (["jump-ideals", "m4.complex", "--degrees=-3..-3"], 0)
    base["m4-jump-ideals-degree-2"] = (["jump-ideals", "m4.complex", "--degrees=-2..-2"], 0)
    base["m4-exactness"] = (["exactness", "m4.complex"], 0)
    base["m5-jump-ideals-degree-4"] = (["jump-ideals", "m5.complex", "--degrees=-4..-4"], 0)
    base["tensor22-jump-ideals"] = (["jump-ideals", "tensor22.complex"], 0)
    cases = {}
    for case, (argv, code) in base.items():
        cases[f"{case}.txt"] = (argv, code)
        cases[f"{case}.json"] = (argv + ["--json"], code)
    return cases


CASES = _cases()

# case id -> (argv, expected exit status); argparse exits through SystemExit
ARGPARSE_CASES = {
    "argparse-help": (["--help"], 0),
    "argparse-perversity-help": (["perversity", "--help"], 0),
    "argparse-perversity-without-input": (["perversity"], 2),
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_argparse(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of a call that argparse ends itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} did not exit")


def prepare(workdir: Path) -> None:
    """Write the input files into ``workdir`` through the CLI itself."""
    (workdir / "points.json").write_text(json.dumps(POINTS))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name in INPUTS:
            code, _ = run(_fixture_argv(name))
            assert code == 0, name
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    prepare(path)
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, workdir, monkeypatch):
    argv, expected_code = CASES[case]
    monkeypatch.chdir(workdir)
    code, stdout = run(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / case).read_text()


@pytest.mark.parametrize("case", sorted(ARGPARSE_CASES))
def test_argparse_text_is_unchanged(case, monkeypatch):
    # help and usage wrap at the terminal width, which argparse reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    argv, expected_code = ARGPARSE_CASES[case]
    code, stdout, stderr = run_argparse(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{case}.stdout").read_text()
    assert stderr == (GOLDEN / f"{case}.stderr").read_text()


def test_fixture_stdout_matches_written_files(workdir):
    for name in ("m2", "induce2-21"):
        written = (workdir / f"{name}.complex").read_text() + (workdir / f"{name}.loci").read_text()
        assert (GOLDEN / f"{name}-fixtures-stdout.txt").read_text() == written


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 4), (2, 3), (1, 6)])
def test_tensor_of_constant_objects_prints_the_constant_object(a, b):
    tensor = run(["fixtures", "tensor", "--m", str(a), "--m2", str(b)])
    assert tensor == run(["fixtures", "mellin", "--m", str(a + b)]) and tensor[0] == 0


def test_tensor_3x1_orders_its_basis_apart_but_reports_the_constant_object(workdir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["fixtures", "tensor", "--m", "3", "--m2", "1", "--complex-out", "t.complex", "--loci-out", "t.loci"]
    assert run(argv)[0] == 0
    assert (tmp_path / "t.loci").read_bytes() == (workdir / "m4.loci").read_bytes()
    assert (tmp_path / "t.complex").read_bytes() != (workdir / "m4.complex").read_bytes()
    exactness = run(["exactness", "t.complex"])
    assert exactness == run(["exactness", str(workdir / "m4.complex")]) and exactness[0] == 0


def test_m4_degree_minus_2_reduces_exactly_216_pairs(workdir, monkeypatch, capsys):
    # the budget counts S-pairs reduced, not pairs deleted by a criterion:
    # this basis reduces 216 pairs, where the coprime-lead test alone left 3305
    monkeypatch.chdir(workdir)
    argv = ["jump-ideals", "m4.complex", "--degrees=-2..-2", "--json"]
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 216)
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "m4-jump-ideals-degree-2.json").read_text() and err == ""
    monkeypatch.setattr(groebner, "SPAIR_BUDGET", 215)
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "resource cap: S-pair budget of 215 exceeded during Groebner basis computation\n"


def _regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "80"
    for case, (argv, expected_code) in sorted(ARGPARSE_CASES.items()):
        code, stdout, stderr = run_argparse(argv)
        if code != expected_code:
            sys.exit(f"{case}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{case}.stdout").write_text(stdout)
        (GOLDEN / f"{case}.stderr").write_text(stderr)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        prepare(Path(tmp))
        os.chdir(tmp)
        try:
            for case, (argv, expected_code) in sorted(CASES.items()):
                code, stdout = run(argv)
                if code != expected_code:
                    sys.exit(f"{case}: exit {code}, expected {expected_code}")
                (GOLDEN / case).write_text(stdout)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    _regenerate()
