"""Digest of every benchmark job's observable output, for identity checks.

    python tools/traffic_digest.py <seed> <out.json>

Builds each workload's inputs with ``perfbench/workloads.build`` in a
temporary directory, runs every job once in this process (``cli.main`` for
CLI jobs, ``libjob.main`` for library jobs) and writes, per workload, the
exit status and the stdout and stderr sha256 of each job and the sha256
of each input file.  A change that should leave reports, refusal messages,
exit statuses and generated fixtures byte-identical must give the same
output file before and after:

    python tools/traffic_digest.py 7 before.json   # on the parent checkout
    python tools/traffic_digest.py 7 after.json    # on the change
    diff before.json after.json

The program is imported from ``src/`` of the checkout holding this script.
Nothing under ``perfbench/`` is written.  All jobs of a workload share one
process, so caches warmed by one job serve the next; outputs do not depend
on that, timings do, and none are recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import libjob  # noqa: E402
import workloads  # noqa: E402
from jumploci import cli  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(job: dict) -> dict:
    entry = cli.main if job["kind"] == "cli" else libjob.main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(job["argv"])
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    return {
        "exit": code,
        "stderr_sha256": _sha256(err.getvalue().encode()),
        "stdout_sha256": _sha256(out.getvalue().encode()),
    }


def digest(seed: int) -> dict:
    doc = {}
    start = os.getcwd()
    for name in workloads.GENERATORS:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            jobs = workloads.build(name, seed, work)
            files = {p.name: _sha256(p.read_bytes()) for p in sorted(work.iterdir())}
            os.chdir(work)
            try:
                results = {job["id"]: _run(job) for job in jobs}
            finally:
                os.chdir(start)
        doc[name] = {"jobs": results, "files": files}
        print(f"{name}: {len(results)} jobs, {len(files)} input files", file=sys.stderr)
    return doc


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: traffic_digest.py <seed> <out.json>", file=sys.stderr)
        return 2
    doc = digest(int(argv[0]))
    Path(argv[1]).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
