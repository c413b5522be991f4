"""Tests for the benchmark's own arithmetic: self time from nested spans,
the tail-percentile rule, failure accounting and the per-layer aggregation."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import arith  # noqa: E402
import checker  # noqa: E402
import run  # noqa: E402


def span(name, start, end, parent=None, **attrs):
    s = {"name": name, "start": start, "end": end, "parent": parent}
    if attrs:
        s["attrs"] = attrs
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.inner", 2.0, 3.0, parent=1),
        span("b", 5.0, 6.0, parent=0),
    ]
    assert arith.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        span("root", 0.0, 10.0),
        span("c1", 1.0, 4.0, parent=0),
        span("c2", 3.0, 6.0, parent=0),
        span("late", 9.0, 12.0, parent=0),
    ]
    # covered: [1, 6] and [9, 10] -> 6 s of the 10 s span
    assert arith.self_times(spans)[0] == pytest.approx(4.0)


def test_tail_needs_ten_jobs_beyond_and_omits_small_runs():
    assert arith.tail([1.0] * 19) is None
    t = arith.tail([float(x) for x in range(1, 21)])
    assert t == {"value": 10.0, "percentile": 50.0, "jobs": 20, "beyond": 10}
    t = arith.tail([float(x) for x in range(100, 0, -1)])
    assert t["value"] == 90.0 and t["percentile"] == 90.0
    assert sum(1 for x in range(1, 101) if x > t["value"]) == 10


def test_fail_frac_counts_wrong_outcomes_and_timeouts():
    statuses = ["ok", "wrong", "timeout", "ok"]
    assert arith.fail_counts(statuses) == (4, 2, 1)
    assert arith.fail_frac(statuses) == 0.5
    assert arith.fail_frac(["ok"] * 3) == 0.0
    assert arith.fail_frac([]) == 0.0


def test_local_factors_use_the_nearest_probes():
    timeline = [
        ("probe", 0.10), ("job", 1.0), ("probe", 0.20), ("job", 1.0),
        ("job", 1.0), ("probe", 0.40), ("probe", 0.80),
    ]
    factors = arith.local_factors(timeline, reference_s=0.2, k=3)
    assert factors[0] is None and factors[2] is None
    # job at 1: probes at 0, 2 (distance 1) and 5 -> median 0.2
    assert factors[1] == pytest.approx(1.0)
    # job at 4: probes at 5 (1), 2 (2), 6 (2) -> median 0.4
    assert factors[4] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        arith.local_factors([("job", 1.0)], 0.2)


def test_pass_walls_scale_finished_jobs_and_count_timeouts_as_deadline():
    records = [
        {"pass": 0, "status": "ok", "latency_s": 2.0, "factor": 0.5, "deadline_s": 22.0},
        {"pass": 0, "status": "timeout", "latency_s": 30.0, "factor": 0.5, "deadline_s": 22.0},
        {"pass": 1, "status": "wrong", "latency_s": 4.0, "factor": 2.0, "deadline_s": 22.0},
        {"pass": "repeat", "status": "ok", "latency_s": 9.0, "factor": 1.0, "deadline_s": 22.0},
    ]
    # the timeout counts as its deadline at reference speed
    assert arith.pass_walls(records) == [23.0, 8.0]
    assert arith.pass_walls(records, scaled=False) == [32.0, 4.0]


def test_aggregate_classifies_and_derives_ratios():
    job = {
        "wall_s": 1.0,
        "counters": {"distinct_specialisations": 3},
        "spans": [
            span("cli.main", 0.2, 0.9),
            span("groebner.LaurentIdeal.groebner_basis", 0.3, 0.6, parent=0),
            span("groebner.saturate", 0.3, 0.4, parent=1, gens_in=4, basis_out=2),
            span("groebner.gb_grevlex", 0.4, 0.5, parent=1, gens_in=2, basis_out=2),
            span("groebner.LaurentIdeal.groebner_basis", 0.6, 0.61, parent=0),
            span("cyclotomic.field_rank", 0.7, 0.72, parent=0, order_max=12, phi_work=16),
            span("cyclotomic.field_rank", 0.72, 0.74, parent=0, order_max=60, phi_work=32),
        ],
    }
    out = arith.aggregate([job])
    assert out["groebner.buchberger.calls"] == 2
    assert out["groebner.buchberger.gens_in"] == 6
    assert out["groebner.basis_cache_hit_ratio"] == pytest.approx(0.5)
    assert out["groebner.LaurentIdeal.groebner_basis.self_s"] == pytest.approx(0.1 + 0.01)
    assert out["cyclotomic.field_rank.order_max"] == 60
    assert out["cyclotomic.field_rank.phi_work"] == 48
    assert out["loci.distinct_eval_ratio"] == pytest.approx(1.5)
    assert out["cli.startup_s"] == pytest.approx(0.3)


def test_checker_codimension_from_declared_lattices():
    assert checker.rational_rank([[1, 0], [2, 0]]) == 1
    assert checker.declared_codim([]) == "inf"
    assert checker.declared_codim([[[1, 0], [0, 1]], [[0, 2]]]) == 1
    expect = {"type": "jump-ideals", "exit": 0,
              "degrees": {"0": [[[1, 0], [0, 1]]]}}
    good = {"degrees": [{"degree": 0, "codimension": "2", "empty": False, "whole_space": False}]}
    assert checker.check(expect, 0, json.dumps(good), "") is None
    bad = {"degrees": [{"degree": 0, "codimension": "1", "empty": False, "whole_space": False}]}
    assert "codimension" in checker.check(expect, 0, json.dumps(bad), "")
    assert checker.check(expect, 1, json.dumps(good), "") is not None
    assert checker.check(expect, 0, json.dumps(good), "Traceback (most recent call last)") is not None


def test_benchmark_json_names_the_metrics_run_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
