"""Benchmark entry point for jumploci.

    python3 perfbench/run.py --workload ideal-route|pointwise-route|frontier
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else.  The load is a closed loop with
one client: each job is a fresh ``python -m jumploci ...`` process (or a
library certification job, ``libjob.py``), and the next job starts when the
previous one has exited.  Every job has a deadline, set at reference speed
and stretched by the machine speed measured before the jobs start; a job
that passes it is stopped and recorded as a timeout, never dropped.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
every job runs under ``tracer.py`` and the run prints the per-layer metrics.
A human-readable table comes first, then the result as one JSON line.  The
full record (environment, job list, per-job outcomes) is written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import arith
import checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"

WORKLOADS = ("ideal-route", "pointwise-route", "frontier")
# Seconds one timed pass of a route workload takes on a 2-core box; --seconds
# buys whole passes of it.  The frontier always makes one pass (about 60 s).
PASS_SECONDS = {"ideal-route": 13.0, "pointwise-route": 11.0}
SETUP_PROBES = 3
GRACE_S = 3.0

# Calibration.  On a shared 2-core VM the machine's speed swings by a third
# within a minute, so raw times of one run say as much about the neighbours
# as about the program.  Each run therefore also times a fixed reference
# process -- interpreter start-up, a few stdlib imports and a pure-Python
# loop, a profile close to a short job's -- before every PROBE_EVERY-th job,
# after every job of LONG_JOB_S or more, and after every set-up probe.  Each
# measured time is scaled by REFERENCE_S over the median of the three probes
# nearest to it in the run: seconds on a machine where the reference takes
# REFERENCE_S, about its time on a quiet 2-core box.  The reference is
# benchmark code and never changes with the program.  Raw times are kept in
# the result file.
REFERENCE_ARGV = [
    sys.executable, "-c",
    "import argparse, dataclasses, fractions, itertools, json, math, random, re\n"
    "s = 0\n"
    "for i in range(100000):\n"
    "    s += i * i\n",
]
REFERENCE_S = 0.075
PROBE_EVERY = 4
LONG_JOB_S = 1.0

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
_TIMED = [
    "groebner.saturate", "groebner.gb_grevlex", "groebner.rabinowitsch",
    "groebner.LaurentIdeal.groebner_basis", "groebner.LaurentIdeal.radical_contains",
    "groebner.LaurentIdeal.codimension",
    "complexes.minor_generators", "complexes.generic_rank",
    "complexes.FreeComplex.validate", "complexes.Matrix.evaluate",
    "loci.membership_at_point", "loci.propagation_check", "loci.radical_equality_pairs",
    "loci.depth_bounds", "cyclotomic.field_rank",
    "lattices.smith_normal_form", "lattices.hermite_normal_form",
    "lattices.LinearUnion.contains_point", "lattices.LinearUnion.codim_stats",
    "sampling.sample_points", "verdict.spot_check_profile", "verdict.perversity_verdict",
    "laurent.parse_poly", "serialize.load_complex", "serialize.load_loci", "serialize.render",
    "cli.main", "libjob.main",
]
PER_LAYER: dict[str, str] = {}
for _name in _TIMED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.gens_in": "count",
    "groebner.buchberger.basis_out": "count",
    "groebner.basis_cache_hit_ratio": "ratio",
    "complexes.minor_generators.generators_out": "count",
    "loci.distinct_eval_ratio": "ratio",
    "cyclotomic.field_rank.order_max": "count",
    "cyclotomic.field_rank.phi_work": "count",
    "sampling.sample_points.points_out": "count",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
})

# End-to-end metrics on the result line.  job_p50_s, job_tail_s, fail_frac
# and timeouts are printed in the table only: on the frontier the median job
# is one measurement of one job, too noisy to bound; the tail is undefined
# under 20 jobs; the last two are 0 on the route workloads, and the result
# line carries failures as "failed" / "attempted".
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def passes_for(workload: str, seconds: float, traced: bool) -> int:
    """Timed passes of the job list in one run: as many as fit --seconds for
    the route workloads, one for the frontier and for traced runs."""
    if traced or workload not in PASS_SECONDS:
        return 1
    return max(1, round(seconds / PASS_SECONDS[workload]))


def generate(workload: str, seed: int, env) -> dict:
    """Write the workload's inputs into WORK in a separate process; the
    harness itself never imports the program, so its memory high-water mark
    (which children inherit) stays below that of any job."""
    if not (SRC / "jumploci" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'jumploci'}; run from a full checkout")
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(WORK)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode:
        raise SystemExit(f"perfbench: input generation failed:\n{proc.stderr}")
    return json.loads((WORK / "jobs.json").read_text())


# -- running one process with a deadline ----------------------------------------------

_current = {"pid": None, "stage": 0, "timed_out": False}


def _signal_child(pid: int, sig: int) -> None:
    try:
        os.kill(pid, sig)
    except ProcessLookupError:
        pass


def _on_terminate(signum, frame):
    # Unwinds through run_process, which stops and reaps the running job.
    raise SystemExit(128 + signum)


def _on_alarm(signum, frame):
    pid = _current["pid"]
    if pid is None:
        return
    if _current["stage"] == 0:
        _current.update(stage=1, timed_out=True)
        _signal_child(pid, signal.SIGTERM)
        signal.setitimer(signal.ITIMER_REAL, GRACE_S)
    else:
        _signal_child(pid, signal.SIGKILL)


def run_process(argv, env, deadline, out_path: Path, err_path: Path) -> dict:
    """Spawn, wait for exit (stopping the process at the deadline) and return
    latency from spawn to exit, exit code, max RSS and whether it timed out."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=WORK, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _current.update(pid=proc.pid, stage=0, timed_out=False)
        reaped = False
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            _current["pid"] = None
            if not reaped:
                proc.kill()
                proc.wait()
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "latency_s": latency,
        "exit": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": _current["timed_out"],
    }


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("JUMPLOCI_SPAIR_BUDGET", None)  # the program's default budget
    return env


def reference_probe(env, timeline: list) -> None:
    """Time one run of the reference process into the timeline."""
    r = run_process(REFERENCE_ARGV, env, 60.0, WORK / "ref.out", WORK / "ref.err")
    if r["exit"] != 0:
        raise SystemExit(f"perfbench: reference probe failed: {(WORK / 'ref.err').read_text()}")
    timeline.append(("probe", r["latency_s"]))


def measure_setup(env, timeline: list) -> None:
    """Fresh-process ``import jumploci.cli``, which every CLI job pays, each
    followed by a reference probe.  One untimed warm-up writes the bytecode
    caches first."""
    argv = [sys.executable, "-c", "import jumploci.cli"]
    for k in range(SETUP_PROBES + 1):
        r = run_process(argv, env, 60.0, WORK / "setup.out", WORK / "setup.err")
        if r["exit"] != 0:
            raise SystemExit(f"perfbench: import jumploci.cli failed: {(WORK / 'setup.err').read_text()}")
        if k:
            timeline.append(("setup", r["latency_s"]))
            reference_probe(env, timeline)


# -- a run ------------------------------------------------------------------------------


def job_argv(job: dict, spans_path: Path | None) -> list[str]:
    if spans_path is not None:
        return [sys.executable, str(HERE / "tracer.py"), str(spans_path), job["id"], job["kind"], *job["argv"]]
    if job["kind"] == "cli":
        return [sys.executable, "-m", "jumploci", *job["argv"]]
    return [sys.executable, str(HERE / "libjob.py"), *job["argv"]]


def run_jobs(jobs, passes, traced, env, timeline: list):
    """Run the job list ``passes`` times, then (untraced) the jobs marked for
    repeat once more; every repeat's stdout must match the first.  A
    reference probe precedes every ``PROBE_EVERY``-th job and follows every
    job of ``LONG_JOB_S`` or more, so long jobs are bracketed.  Each
    deadline is stretched by how much slower than the reference the last
    three probes ran.  Returns per-job
    records (``pass`` is "repeat" for the repeats) and, when traced, the
    span documents of each job."""
    records, traces = [], []
    stdout_digest: dict[str, str] = {}
    rounds = [(p, jobs) for p in range(passes)]
    if not traced:
        rounds.append(("repeat", [job for job in jobs if job["repeat"]]))
    for p, round_jobs in rounds:
        after_long_job = False
        for n, job in enumerate(round_jobs):
            if n % PROBE_EVERY == 0 or after_long_job:
                reference_probe(env, timeline)
            spans_path = WORK / f"spans-{p}-{n}.json" if traced else None
            out_path, err_path = WORK / "job.out", WORK / "job.err"
            recent = [value for kind, value in timeline if kind == "probe"][-3:]
            deadline = job["deadline"] * arith.median(recent) / REFERENCE_S
            r = run_process(job_argv(job, spans_path), env, deadline, out_path, err_path)
            stdout = out_path.read_bytes()
            stderr = err_path.read_text(errors="replace")
            if r["timed_out"]:
                status, reason = "timeout", f"stopped at the deadline ({deadline:.1f} s here)"
            else:
                reason = checker.check(job["expect"], r["exit"], stdout.decode(errors="replace"), stderr)
                digest = hashlib.sha256(stdout).hexdigest()
                if reason is None and stdout_digest.setdefault(job["id"], digest) != digest:
                    reason = "stdout differs from an earlier repeat of this job"
                status = "ok" if reason is None else "wrong"
            records.append({"id": job["id"], "pass": p, "status": status, "reason": reason,
                            "deadline_s": job["deadline"], "deadline_applied_s": deadline, **r})
            timeline.append(("job", records[-1]))
            after_long_job = r["latency_s"] >= LONG_JOB_S
            if traced and spans_path.is_file():
                doc = json.loads(spans_path.read_text())
                doc["wall_s"] = r["latency_s"]
                traces.append(doc)
        if after_long_job:
            reference_probe(env, timeline)
    return records, traces


def _digest(root: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args, deadline_s) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": _digest(SRC / "jumploci", "*.py"),
        "bench_sha256": _digest(HERE, "*.py"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": deadline_s,
    }


def workload_why(workload: str) -> str | None:
    """The workload's reason as BENCHMARK.json records it."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return next((w["why"] for w in json.loads(path.read_text())["workloads"] if w["name"] == workload), None)


def untraced_baseline(env_record: dict):
    """The latest untraced result of this workload made with the same program
    source and benchmark code, preferring the same seed, for the tracing
    overhead."""
    best = None
    for path in sorted(RESULTS.glob(f"{env_record['workload']}-s*-t0-*.json"), key=lambda p: p.stat().st_mtime):
        doc = json.loads(path.read_text())
        other = doc["environment"]
        if (other["src_sha256"], other.get("bench_sha256")) != (env_record["src_sha256"], env_record["bench_sha256"]):
            continue
        same_seed = other["seed"] == env_record["seed"]
        if best is None or same_seed or not best[0]:
            best = (same_seed, doc)
    return best[1] if best else None


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_terminate)
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    env = job_env()
    generated = generate(args.workload, args.seed, env)
    jobs, deadline_s = generated["jobs"], generated["deadline_s"]
    timeline: list = []
    measure_setup(env, timeline)
    traced = bool(args.trace)
    passes = passes_for(args.workload, args.seconds, traced)
    records, traces = run_jobs(jobs, passes, traced, env, timeline)

    setup, setup_scaled = [], []
    for (kind, value), factor in zip(timeline, arith.local_factors(timeline, REFERENCE_S)):
        if kind == "job":
            value["factor"] = factor
        elif kind == "setup":
            setup.append(value)
            setup_scaled.append(value * factor)
    probes = [value for kind, value in timeline if kind == "probe"]
    statuses = [r["status"] for r in records]
    attempted, failed, timeouts = arith.fail_counts(statuses)
    wrong = [r for r in records if r["status"] == "wrong"]
    timed = [r for r in records if r["pass"] != "repeat"]
    latencies = [arith.scaled_latency(r) for r in timed]
    walls = arith.pass_walls(records)
    e2e = {
        "wall_s": arith.median(walls),
        "job_p50_s": arith.median(latencies),
        "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        "setup_s": arith.median(setup_scaled),
    }
    raw = {
        "wall_s": arith.median(arith.pass_walls(records, scaled=False)),
        "job_p50_s": arith.median([r["latency_s"] for r in timed]),
        "setup_s": arith.median(setup),
    }
    tail = arith.tail(latencies)
    report = {
        "environment": environment(args, deadline_s),
        "why": workload_why(args.workload),
        "passes": passes,
        "jobs": jobs,
        "records": records,
        "calibration": {
            "reference_s": REFERENCE_S,
            "timeline": [kind if kind == "job" else [kind, value] for kind, value in timeline],
            "raw": raw,
        },
        "setup_probes_s": setup,
        "end_to_end": {
            **e2e,
            "job_tail_s": tail,
            "fail_frac": arith.fail_frac(statuses),
            "timeouts": timeouts,
        },
    }
    lines = [
        f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)} x {passes} pass(es) "
        f"+ {len(records) - passes * len(jobs)} repeats  "
        f"nproc {os.cpu_count()}  python {platform.python_version()}  deadline {deadline_s:g} s at reference speed",
        f"  times at reference speed ({REFERENCE_S} s per reference probe; {len(probes)} probes, "
        f"median {arith.median(probes):.4f} s); raw times in brackets",
        f"  wall_s       {e2e['wall_s']:.4f} s   [{raw['wall_s']:.4f}]  (median pass)",
        f"  job_p50_s    {e2e['job_p50_s']:.4f} s   [{raw['job_p50_s']:.4f}]",
        "  job_tail_s   "
        + (f"{tail['value']:.4f} s   (p{tail['percentile']:.1f} of {tail['jobs']} jobs, {tail['beyond']} beyond)"
           if tail else f"omitted (fewer than {arith.TAIL_MIN_JOBS} jobs)"),
        f"  fail_frac    {failed / attempted:.4f} ratio   ({failed} of {attempted})",
        f"  timeouts     {timeouts} count",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB",
        f"  setup_s      {e2e['setup_s']:.4f} s   [{raw['setup_s']:.4f}]  (median of {len(setup)} fresh imports)",
    ]
    lines += [f"  {r['status']}: {r['id']} (pass {r['pass']}): {r['reason']}" for r in records if r["status"] != "ok"]

    if traced:
        layer = arith.aggregate(traces)
        layer["trace.wall_s"] = walls[0]
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
        base = untraced_baseline(report["environment"])
        overhead = None
        if base is not None:
            overhead = {
                "traced_wall_s": walls[0],
                "untraced_wall_s": base["end_to_end"]["wall_s"],
                "overhead_s": walls[0] - base["end_to_end"]["wall_s"],
                "untraced_seed": base["environment"]["seed"],
            }
        report["per_layer"] = {name: m["value"] for name, m in metrics.items()}
        report["tracing_overhead"] = overhead
        lines.append(
            "  tracing overhead: "
            + (f"{overhead['overhead_s']:+.3f} s (traced {overhead['traced_wall_s']:.3f} s vs untraced "
               f"{overhead['untraced_wall_s']:.3f} s, seed {overhead['untraced_seed']})"
               if overhead else "no untraced result of this workload yet")
        )
        lines += [f"  {name:48s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime()) + f"-{os.getpid()}"
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
