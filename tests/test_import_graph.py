"""A job loads only what it runs.

Start-up is most of a short job's time, and no analysis subcommand uses the
fixture constructors, ``dataclasses`` (which imports ``inspect``) or
``traceback``.  So neither importing the command line nor the imports a
library certification job makes (``perfbench/libjob.py``) may load them.
Each case starts a fresh interpreter, since the test process has long
loaded all of them.

Module ownership is pinned too: no module imports another module's private
name.
"""

import ast
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
