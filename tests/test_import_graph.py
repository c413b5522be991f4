"""A job loads only what it runs.

Start-up is most of a short job's time, and no analysis subcommand uses the
fixture constructors, ``dataclasses`` (which imports ``inspect``) or
``traceback``.  So neither importing the command line nor the imports a
library certification job makes (``perfbench/libjob.py``) may load them.
Each case starts a fresh interpreter, since the test process has long
loaded all of them.

Module ownership is pinned too: no module imports another module's private
name.  So is the input a run depends on: no module reads the environment,
and every cap in the README's cap table is the module constant it names,
with the value it lists.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNUSED = ["dataclasses", "inspect", "traceback", "jumploci.fixtures"]


@pytest.mark.parametrize(
    "modules",
    [["jumploci.cli"], ["jumploci.serialize", "jumploci.errors", "jumploci.loci"]],
    ids=["cli", "library-job"],
)
def test_job_imports_leave_out_unused_modules(modules):
    code = "".join(f"import {name}\n" for name in modules)
    code += f"import sys\nprint([name for name in {UNUSED!r} if name in sys.modules])\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_no_module_imports_a_private_name_of_another():
    # a private name belongs to its module: a rule another module needs is
    # made public where it lives, so each rule keeps one owner
    offenders = []
    for path in sorted((ROOT / "src" / "jumploci").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                private = [a.name for a in node.names if a.name.startswith("_")]
                offenders += [f"{path.stem} <- {node.module}.{name}" for name in private]
    assert offenders == []


@pytest.mark.parametrize("module", ["complexes", "groebner"])
def test_integer_kernel_modules_do_not_import_fractions(module):
    # minors, jumping-ideal products and Groebner bases run on integer
    # polynomials; a Fraction becomes an integer only in
    # groebner.laurent_to_polys, which reads numerators and denominators
    tree = ast.parse((ROOT / "src" / "jumploci" / f"{module}.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported


def test_no_module_reads_the_environment():
    # a verdict and its exit status depend only on the files and flags a
    # run is given; every limit is a module constant
    offenders = []
    for path in sorted((ROOT / "src" / "jumploci").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "os" for a in node.names):
                offenders.append(f"{path.stem}: import os")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                offenders.append(f"{path.stem}: from os import ...")
            elif isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                if isinstance(node.value, ast.Name) and node.value.id == "os":
                    offenders.append(f"{path.stem}: os.{node.attr}")
    assert offenders == []


def _cap_table() -> list[list[str]]:
    """The cells of each row of the README's cap table."""
    lines = [line.strip() for line in (ROOT / "README.md").read_text().splitlines()]
    start = lines.index("| cap | constant | value | what it bounds | measurement behind the value |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _listed_value(text: str) -> int:
    """A value cell as an integer: "10^4" is 10**4, "in absolute value" is dropped."""
    base, _, exponent = text.removesuffix(" in absolute value").partition("^")
    return int(base) ** int(exponent or 1)


def test_every_readme_cap_is_the_module_constant_it_names():
    rows = _cap_table()
    assert len(rows) >= 12
    for cap, constant, value, *_ in rows:
        factor, _, dotted = constant.strip("`").rpartition("**")
        module, _, name = dotted.rpartition(".")
        assert module.startswith("jumploci."), (cap, constant)
        actual = getattr(importlib.import_module(module), name)
        if factor:
            actual = int(factor) ** actual
        assert actual == _listed_value(value), (cap, constant, value)
