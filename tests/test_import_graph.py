"""A job loads only what it runs.

Start-up is most of a short job's time, and with bytecode writing off every
module a job imports is compiled from source.  No analysis subcommand uses
the fixture constructors, ``dataclasses`` (which imports ``inspect``) or
``traceback``; a well-formed call is parsed without ``argparse`` (with
``gettext`` and ``locale``), which only help and argument errors load; and
each subcommand loads only the layers its route runs:
importing the package loads none of its modules, and the command line, each
subcommand and the imports of a library certification job
(``perfbench/libjob.py``) load exactly the modules pinned here.  Each case
starts a fresh interpreter, since the test process has long loaded all of
them.

Module ownership is pinned too: no module imports another module's private
name or reads a private attribute of an object other than self or cls,
every name a module imports from a sibling is read there, and every
module-level function and class is reached by the program, the benchmark,
the tools or the demos, not by tests alone.  So is the input a run depends
on: no module reads the environment, and every cap in the README's cap
table is the module constant it names, with the value it lists, and every
cap constant has its row.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jumploci
from jumploci import serialize
from jumploci.fixtures import mellin_constant_torus

ROOT = Path(__file__).resolve().parent.parent
ARGPARSE = ["argparse", "gettext", "locale"]
UNUSED = ["dataclasses", "inspect", "traceback", "jumploci.fixtures", *ARGPARSE]

# what `import jumploci.cli` loads: cli binds perversity_verdict from
# serialize, which imports the verdict engine when the verdict runs.  The
# benchmark's tracer checks four import-time bindings (cli.perversity_verdict,
# verdict.membership_at_point, verdict.sample_points, loci.field_rank) after it
# has imported every module itself; verdict re-exports serialize's function,
# so cli and verdict still bind the same object
CLI = ["cli", "errors", "laurent", "serialize"]
COMPLEX = ["complexes"]  # the complex loader's layer, with the integer kernel
POINTWISE = ["cyclotomic", "lattices", "loci"]  # declared loci, points, memberships
VERDICT = [*POINTWISE, "sampling", "verdict"]  # what `perversity` adds
# the source lines `import jumploci.cli` may load: the declared-loci and point
# code lives in `loci`, which only loci, point and fixture jobs load, and
# the verdict engine, the pointwise layer and `cyclotomic` load only where a
# job enters them
CLI_LINE_BUDGET = 1158
RUN = "from jumploci import cli\nassert cli.main(sys.argv[1:]) == 0\n"
HELP = "from jumploci import cli\ntry:\n    cli.main(sys.argv[1:])\nexcept SystemExit as exc:\n    assert exc.code == 0\n"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _write_m2(directory: Path) -> None:
    """m2.complex, m2.loci and points.json (one point of order 12) in ``directory``."""
    m2 = mellin_constant_torus(2)
    (directory / "m2.complex").write_text(serialize.dump_complex(m2.complex))
    (directory / "m2.loci").write_text(serialize.dump_loci(m2.profile))
    (directory / "points.json").write_text('[[["1", "1/3"], ["1", "1/4"]]]')


@pytest.mark.parametrize(
    "code, argv, loaded",
    [
        ("import jumploci\n", [], []),
        ("import jumploci.cli\n", [], CLI),
        (
            "import jumploci.serialize, jumploci.errors, jumploci.loci\n",
            [],
            ["cyclotomic", "errors", "lattices", "laurent", "loci", "serialize"],
        ),
        # laurent loads in every CLI job and imports TorsionPoint where it builds
        # a point, which evaluates polynomials; sampling loads only in a
        # verdict job, which has loaded loci and lattices before it
        ("import jumploci.laurent\n", [], ["errors", "laurent"]),
        (
            "import jumploci.sampling\n",
            [],
            ["cyclotomic", "errors", "lattices", "laurent", "loci", "sampling", "serialize"],
        ),
        (RUN, ["validate", "m2.complex"], CLI + COMPLEX),
        (RUN, ["codims", "m2.loci"], CLI + POINTWISE),
        (RUN, ["perversity", "m2.loci"], CLI + VERDICT),
        (RUN, ["perversity", "m2.complex", "--loci", "m2.loci"], CLI + COMPLEX + VERDICT),
        (RUN, ["sample", "m2.complex", "--points", "points.json"], CLI + COMPLEX + POINTWISE),
        (RUN, ["jump-ideals", "m2.complex"], CLI + COMPLEX + ["groebner"]),
        (RUN, ["exactness", "m2.complex"], CLI + COMPLEX + ["groebner"]),
        (RUN, ["fixtures", "mellin", "--m", "2"], CLI + COMPLEX + ["fixtures", *POINTWISE]),
        (HELP, ["perversity", "--help"], CLI),
    ],
    ids=[
        "package", "cli", "library-job", "laurent", "sampling", "validate", "codims",
        "perversity-loci", "perversity-complex", "sample", "jump-ideals", "exactness", "fixtures",
        "help",
    ],
)
def test_job_imports_leave_out_unused_modules(tmp_path, code, argv, loaded):
    # the exact jumploci.* modules a job loads, so a layer it does not run
    # (the Groebner engine for the pointwise route, the lattices for a
    # complex-only job) is never compiled
    _write_m2(tmp_path)
    expected_unused = ARGPARSE if code == HELP else []  # only help builds the parser
    if "fixtures" in loaded:  # and only the fixtures subcommand builds fixtures
        expected_unused = ["jumploci.fixtures"]
    code += "print()\nprint(sorted(m for m in sys.modules if m.startswith('jumploci.')))\n"
    code += f"print([name for name in {UNUSED!r} if name in sys.modules])\n"
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code, *argv],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    *_, modules, unused = result.stdout.splitlines()
    assert modules == repr(sorted(f"jumploci.{name}" for name in loaded))
    assert unused == repr(expected_unused)


def _run_fresh(code: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_importing_the_command_line_stays_within_its_line_budget():
    # every CLI job compiles what `import jumploci.cli` loads, at about
    # 12 us per source line with bytecode writing off
    code = "import sys, jumploci.cli\n"
    code += "print(sum(len(open(m.__file__).readlines()) for n, m in sys.modules.items()"
    code += " if n.partition('.')[0] == 'jumploci'))\n"
    assert int(_run_fresh(code)) <= CLI_LINE_BUDGET


def test_moved_names_resolve_where_the_benchmark_reads_them():
    # perfbench/workloads.py imports TorsionPoint from laurent and calls
    # serialize.dump_loci; perfbench/tracer.py patches serialize.load_loci
    from jumploci import laurent, loci
    from jumploci.laurent import TorsionPoint

    assert TorsionPoint is loci.TorsionPoint and laurent.TorsionPoint is TorsionPoint
    for name in serialize._LOCI_NAMES:
        assert getattr(serialize, name) is getattr(loci, name)
        assert name in vars(serialize)  # kept, so a patched name stays patched
    for module in (laurent, serialize):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_the_verdict_and_whole_space_test_keep_one_definition_each():
    # cli binds the verdict from serialize, verdict re-exports it, and the
    # benchmark's tracer patches cli and verdict as one function; the jump
    # ideal report's whole-space test moved from loci with it
    from jumploci import cli, verdict

    assert cli.perversity_verdict is verdict.perversity_verdict is serialize.perversity_verdict
    assert jumploci.is_whole_space is serialize.is_whole_space


def test_package_root_resolves_each_public_name_in_its_home_module():
    assert sorted(jumploci._HOME) == jumploci.__all__
    for name, module in jumploci._HOME.items():
        assert getattr(jumploci, name) is getattr(importlib.import_module(f"jumploci.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        jumploci.no_such_name
    assert not hasattr(jumploci, "_no_such_private_name")


def test_star_import_binds_every_public_name():
    code = "from jumploci import *\nimport jumploci\n"
    code += "print([name for name in jumploci.__all__ if name not in globals()])\n"
    assert _run_fresh(code) == "[]\n"


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


def test_no_module_reads_a_private_attribute_of_another_object():
    # the same rule for attributes: x._name is read only on self or cls;
    # dunders and NamedTuple's public API (_replace, _asdict, ...) are not private
    namedtuple_api = {"_replace", "_asdict", "_make", "_fields"}
    offenders = []
    for path in sorted((ROOT / "src" / "jumploci").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not (node.attr.startswith("__") and node.attr.endswith("__"))
                and node.attr not in namedtuple_api
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                offenders.append(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert offenders == []


def test_every_name_imported_from_a_sibling_is_read():
    # a name imported only to be read elsewhere is an indirection: callers
    # import it from its home.  An unquoted annotation counts as a read.  The
    # one exception: verdict binds serialize.perversity_verdict for the
    # benchmark's tracer, which patches it there and in cli as one function
    unread = []
    for path in sorted((ROOT / "src" / "jumploci").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                bound = [a.asname or a.name for a in node.names]
                unread += [f"{path.stem}.{name}" for name in bound if name not in read]
    assert unread == ["verdict.perversity_verdict"]


_DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


def _names_read(tree: ast.AST, bare: bool) -> set:
    """The names ``tree`` reads: attributes, names imported from jumploci and
    string constants that are a (dotted) name, such as a COMMANDS handler or
    a patched ``(module, "name")`` site.  With ``bare`` false, bare names and
    attributes of objects not imported from jumploci do not count."""
    imported, names = set(), set()  # the names bound by jumploci imports, the names read
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a for a in node.names if a.name.startswith("jumploci")]
            imported |= {a.asname or a.name.partition(".")[0] for a in modules}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jumploci"):
            imported |= {a.asname or a.name for a in node.names}
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and bare:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            while isinstance(owner, ast.Attribute):
                owner = owner.value
            if bare or (isinstance(owner, ast.Name) and owner.id in imported):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED_NAME.fullmatch(node.value):
            names |= set(re.split("[.:]", node.value))
    return names


def test_every_module_level_definition_is_reached_by_the_program():
    # a function or class that only tests call lives with the tests
    # (tests/oracles.py, tests/fixture_helpers.py): each one in src/ is read
    # in src/ outside its own definition, or by the benchmark, the tools or
    # the demos.  Methods are out of scope, and module dunders are the
    # interpreter's hooks
    definitions, readers = [], {}
    for path in sorted((ROOT / "src" / "jumploci").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("__"):
                definitions.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
            for name in _names_read(stmt, bare=True):
                readers.setdefault(name, []).append(stmt)
    outside = set()
    for directory in ("perfbench", "tools", "demos"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _names_read(ast.parse(path.read_text()), bare=False)
    unreached = [
        dotted
        for dotted, name, stmt in definitions
        if name not in outside and all(reader is stmt for reader in readers.get(name, []))
    ]
    assert unreached == []


@pytest.mark.parametrize("module", ["complexes", "groebner"])
def test_integer_kernel_modules_do_not_import_fractions(module):
    # minors, jumping-ideal products and Groebner bases run on integer
    # polynomials; a Fraction becomes an integer only in
    # complexes.laurent_to_polys, which reads numerators and denominators
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


def _readme_table(header: str) -> list[list[str]]:
    """The cells of each row of the README table under ``header``."""
    lines = [line.strip() for line in (ROOT / "README.md").read_text().splitlines()]
    start = lines.index(header)
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _cap_table() -> list[list[str]]:
    return _readme_table("| cap | constant | value | what it bounds | measurement behind the value |")


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


def test_every_cap_constant_has_a_row_in_the_readme_cap_table():
    # the reverse of the test above: a module-level MAX_* constant or the
    # S-pair budget that the table does not name is a cap nobody documented
    named = {constant.strip("`").rpartition("**")[2] for _, constant, *_ in _cap_table()}
    defined = {
        f"jumploci.{path.stem}.{target.id}"
        for path in sorted((ROOT / "src" / "jumploci").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and (target.id.startswith("MAX_") or target.id == "SPAIR_BUDGET")
    }
    assert len(defined) >= 12
    assert sorted(defined - named) == []


def test_the_readme_library_tour_has_one_row_per_module():
    # the package root is the row `jumploci`; `__main__` only calls cli.run
    rows = [module.strip("`") for module, _ in _readme_table("| module | contents |")]
    modules = [
        "jumploci" if path.stem == "__init__" else f"jumploci.{path.stem}"
        for path in (ROOT / "src" / "jumploci").glob("*.py")
        if path.stem != "__main__"
    ]
    assert sorted(rows) == sorted(modules)
