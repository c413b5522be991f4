"""Start-up profile of every benchmark job: what it loads and where its time goes.

    python tools/job_profile.py <workload> <seed>

Builds the workload's inputs with ``perfbench/workloads.build`` in a
temporary directory and runs each job once in a fresh interpreter with
bytecode writing off (``PYTHONDONTWRITEBYTECODE=1``), as the benchmark runs
it, so every module the job loads is compiled from source.  Per job it
reports:

  * the ``jumploci`` modules loaded by the end of the job, the package root
    included, and their source lines;
  * ``import``: the in-process time of ``from jumploci import cli`` for a
    CLI job, or of ``import libjob`` and the three modules ``libjob.main``
    imports for a library job;
  * ``main``: the in-process time of ``cli.run(argv)``, the entry of
    ``python -m jumploci``, or of ``libjob.main(argv)``, which includes the
    modules a handler imports when it runs;
  * ``compile``: the time ``compile()`` takes on those sources afterwards in
    the same process, an estimate of the compiling share of the two above;
  * ``unentered``: the source lines of the functions the job loaded but
    never entered, each outermost such function counted whole, decorators
    and docstring included.  A second run of the job, under
    ``sys.setprofile``, records the functions it enters, so the profiler's
    cost stays out of the times above.

Interpreter start-up outside the program (``site``, ``encodings``) is not
counted.  The last lines give, per module, its source lines, how many jobs
load it and its never-entered lines summed over those jobs, and the totals
and means over the workload.  The program is imported from ``src/`` of the
checkout holding this script, and nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

# Runs one job and writes its record, as JSON, to the file named by argv[1];
# with argv[2] == "entered" it records instead, per module, its file and the
# first lines of the functions the job entered.
CHILD = """
import sys, time
record_path, mode, kind, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
entered = set()
if mode == "entered":
    def note(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
    sys.setprofile(note)
t0 = time.perf_counter()
if kind == "cli":
    from jumploci import cli
    entry = cli.run
else:
    import libjob
    import jumploci.errors, jumploci.loci, jumploci.serialize
    entry = libjob.main
t1 = time.perf_counter()
try:
    code = entry(argv)
except SystemExit as exc:
    code = exc.code
t2 = time.perf_counter()
sys.setprofile(None)
modules = {name: module for name, module in sys.modules.items() if name.partition(".")[0] == "jumploci"}
import json
if mode == "entered":
    with open(record_path, "w") as out:
        json.dump({name: [module.__file__, [line for path, line in entered if path == module.__file__]]
                   for name, module in modules.items()}, out)
    sys.exit(0)
sources = {
    name: open(module.__file__).read() for name, module in sorted(modules.items())
}
t3 = time.perf_counter()
for name, text in sources.items():
    compile(text, name, "exec")
t4 = time.perf_counter()
with open(record_path, "w") as out:
    json.dump({"exit": code, "import_s": t1 - t0, "main_s": t2 - t1, "compile_s": t4 - t3,
               "lines": {name: len(text.splitlines()) for name, text in sources.items()}}, out)
"""


def _run_child(job: dict, work: Path, mode: str) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    record_path = work / "job-profile.json"
    subprocess.run(
        [sys.executable, "-c", CHILD, str(record_path), mode, job["kind"], *job["argv"]],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
    )
    record = json.loads(record_path.read_text())
    record_path.unlink()
    return record


def unentered_lines(path: Path, entered: set[int]) -> int:
    """Source lines of the functions in ``path`` whose first line (the first
    decorator's, else the ``def``'s, as ``co_firstlineno`` reads it) is not
    in ``entered``.  An unentered function is counted whole, nested
    functions included; an entered one is searched for unentered ones."""

    def walk(node) -> int:
        total = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                if first not in entered:
                    total += child.end_lineno - first + 1
                    continue
            total += walk(child)
        return total

    return walk(ast.parse(path.read_text()))


def profile_job(job: dict, work: Path) -> dict:
    """The timed record of one job, with ``unentered`` lines per module from
    a second, profiled run."""
    record = _run_child(job, work, "timed")
    entered = _run_child(job, work, "entered")
    record["unentered"] = {name: unentered_lines(Path(path), set(lines)) for name, (path, lines) in entered.items()}
    return record


def _ms(seconds: float) -> str:
    return f"{1000 * seconds:8.1f}"


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in workloads.GENERATORS:
        print(f"usage: job_profile.py {'|'.join(workloads.GENERATORS)} <seed>", file=sys.stderr)
        return 2
    name, seed = argv[0], int(argv[1])
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = workloads.build(name, seed, work)
        print(f"{'job':<40} {'lines':>6} {'unentered':>9} {'import':>8} {'main':>8} {'compile':>8}  (ms)  modules")
        for job in jobs:
            record = profile_job(job, work)
            records.append(record)
            modules = ",".join(m.removeprefix("jumploci.") for m in record["lines"] if m != "jumploci")
            print(
                f"{job['id']:<40} {sum(record['lines'].values()):>6} {sum(record['unentered'].values()):>9}"
                f" {_ms(record['import_s'])} {_ms(record['main_s'])} {_ms(record['compile_s'])}"
                f"  exit {record['exit']}  {modules}"
            )
    loads = Counter(m for record in records for m in record["lines"])
    sizes = {m: n for record in records for m, n in record["lines"].items()}
    unentered = Counter()
    for record in records:
        unentered.update(record["unentered"])
    print(f"\n{'module':<22} {'lines':>6} {'jobs':>5} {'unentered':>10}  (lines, summed over its jobs)")
    for module in sorted(loads):
        print(f"{module:<22} {sizes[module]:>6} {loads[module]:>5} {unentered[module]:>10}")
    count = len(records)
    print(f"\n{name}, seed {seed}: {count} jobs")
    for key, label in [("import_s", "import"), ("main_s", "main"), ("compile_s", "compile")]:
        total = sum(record[key] for record in records)
        print(f"  {label:<8} total {_ms(total)} ms   mean {_ms(total / count)} ms")
    lines = sum(sum(record["lines"].values()) for record in records)
    print(f"  lines    total {lines:>8}      mean {lines / count:8.1f} per job")
    total = sum(unentered.values())
    print(f"  unentered total {total:>7}      mean {total / count:8.1f} per job")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
