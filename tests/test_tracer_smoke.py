"""The benchmark's traced run patches engine functions by name
(``groebner.buchberger``, ``LaurentIdeal.groebner_basis``,
``cyclotomic.field_rank``, ...) and reads attributes of what they return.  A
refactor that moves one of them breaks the benchmark, not the program, so
this runs the tracer once on a small job per route and checks that it still
records that route's spans."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jumploci import serialize
from jumploci.fixtures import mellin_constant_torus

ROOT = Path(__file__).resolve().parent.parent

# an order-12 point on the 2-torus: angles 1/3 and 1/4
ORDER_12_POINTS = [[["1", "1/3"], ["1", "1/4"]]]


@pytest.mark.parametrize(
    "argv, required",
    [
        (["jump-ideals", "m2.complex"], ["groebner."]),
        (
            ["sample", "m2.complex", "--points", "points.json"],
            ["cyclotomic.field_rank", "loci.membership_at_point"],
        ),
        (
            ["perversity", "m2.complex", "--loci", "m2.loci", "--samples", "4"],
            ["verdict.perversity_verdict", "loci.membership_at_point"],
        ),
    ],
    ids=["jump-ideals", "sample", "perversity"],
)
def test_tracer_records_route_spans(tmp_path, argv, required):
    m2 = mellin_constant_torus(2)
    (tmp_path / "m2.complex").write_text(serialize.dump_complex(m2.complex))
    (tmp_path / "m2.loci").write_text(serialize.dump_loci(m2.profile))
    (tmp_path / "points.json").write_text(json.dumps(ORDER_12_POINTS))
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "smoke", "cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    names = [span["name"] for span in json.loads(spans_out.read_text())["spans"]]
    for prefix in required:
        assert any(name.startswith(prefix) for name in names), (prefix, names)
