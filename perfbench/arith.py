"""The benchmark's own arithmetic: medians, the tail rule, self time from
nested spans, failure accounting and the per-layer aggregation.

Pure functions over plain data, so ``tests/test_perfbench_arith.py`` can
cover them without running a job.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# The tail percentile must leave at least this many jobs beyond it.
TAIL_BEYOND = 10
# Below this many jobs the tail percentile would fall under the median, so
# no tail is reported.
TAIL_MIN_JOBS = 2 * TAIL_BEYOND


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile of job latency with at least ``TAIL_BEYOND`` jobs
    strictly beyond it in sorted order, with the percentile and the job
    count; None when there are fewer than ``TAIL_MIN_JOBS`` jobs."""
    n = len(latencies)
    if n < TAIL_MIN_JOBS:
        return None
    ordered = sorted(latencies)
    index = n - 1 - TAIL_BEYOND
    return {
        "value": ordered[index],
        "percentile": 100.0 * (index + 1) / n,
        "jobs": n,
        "beyond": TAIL_BEYOND,
    }


def local_factors(timeline: list[tuple[str, object]], reference_s: float, k: int = 3) -> list[float | None]:
    """Speed factor for each measurement in a run's timeline.

    ``timeline`` lists ("probe", seconds) for reference probes and (kind,
    anything) for everything measured, in the order they ran.  A measurement's
    factor is ``reference_s`` over the median of the ``k`` probes nearest to
    it in that order (earlier first on ties); probes get None."""
    probes = [(i, t) for i, (kind, t) in enumerate(timeline) if kind == "probe"]
    if not probes:
        raise ValueError("a timeline needs at least one reference probe")
    factors: list[float | None] = []
    for i, (kind, _) in enumerate(timeline):
        if kind == "probe":
            factors.append(None)
            continue
        nearest = sorted(probes, key=lambda p: (abs(p[0] - i), p[0]))[:k]
        factors.append(reference_s / median([t for _, t in nearest]))
    return factors


def scaled_latency(record: dict) -> float:
    """A job's latency at reference speed.  A timed-out job counts as its
    deadline, which is set at reference speed."""
    if record["status"] == "timeout":
        return record["deadline_s"]
    return record["latency_s"] * record["factor"]


def pass_walls(records: list[dict], scaled: bool = True) -> list[float]:
    """Per timed pass, in order: the sum of its jobs' latencies (scaled to
    reference speed unless ``scaled`` is false), the time one client needs
    to get through the job list.  Repeats are not a pass."""
    walls: dict[int, float] = {}
    for r in records:
        if r["pass"] != "repeat":
            walls[r["pass"]] = walls.get(r["pass"], 0.0) + (scaled_latency(r) if scaled else r["latency_s"])
    return [walls[p] for p in sorted(walls)]


def fail_counts(statuses: list[str]) -> tuple[int, int, int]:
    """(attempted, failed, timeouts).  Every job that is not "ok" failed:
    wrong exit, failed output check, traceback, or timeout."""
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s != "ok")
    timeouts = sum(1 for s in statuses if s == "timeout")
    return attempted, failed, timeouts


def fail_frac(statuses: list[str]) -> float:
    attempted, failed, _ = fail_counts(statuses)
    return failed / attempted if attempted else 0.0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children.
    Spans are dicts with "start", "end" and "parent" (index or None)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - _covered(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


# Attributes that aggregate by maximum; every other numeric attribute sums.
MAX_ATTRS = {"order_max"}

BUCHBERGER_SPANS = ("groebner.saturate", "groebner.gb_grevlex", "groebner.rabinowitsch")


def aggregate(jobs: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced jobs of one pass.

    Each job is {"spans": [...], "counters": {...}, "wall_s": float}, with
    "wall_s" the job's measured latency.  Returns "<span>.calls", "<span>.self_s" and
    "<span>.<attr>" for every span name seen, plus the derived ratios."""
    out: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    startups = []
    for job in jobs:
        spans = job["spans"]
        for s, self_s in zip(spans, self_times(spans)):
            name = s["name"]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            for key, value in s.get("attrs", {}).items():
                metric = f"{name}.{key}"
                out[metric] = max(out[metric], value) if key in MAX_ATTRS else out[metric] + value
        for key, value in job.get("counters", {}).items():
            counters[key] += value
        mains = [s for s in spans if s["name"] == "cli.main"]
        if mains:
            startups.append(job["wall_s"] - (mains[0]["end"] - mains[0]["start"]))
    for key in ("calls", "gens_in", "basis_out"):
        out[f"groebner.buchberger.{key}"] = sum(out.get(f"{s}.{key}", 0.0) for s in BUCHBERGER_SPANS)
    gb_calls = out.get("groebner.LaurentIdeal.groebner_basis.calls", 0.0)
    out["groebner.basis_cache_hit_ratio"] = (
        1.0 - out.get("groebner.gb_grevlex.calls", 0.0) / gb_calls if gb_calls else 0.0
    )
    fr_calls = out.get("cyclotomic.field_rank.calls", 0.0)
    out["loci.distinct_eval_ratio"] = (
        counters["distinct_specialisations"] / fr_calls if fr_calls else 0.0
    )
    out["cli.startup_s"] = median(startups) if startups else 0.0
    return dict(out)
