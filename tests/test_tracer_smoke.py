"""The benchmark's traced run patches engine functions by name
(``groebner.buchberger``, ``LaurentIdeal.groebner_basis``,
``cyclotomic.field_rank``, ...) and reads attributes of what they return.  A
refactor that moves one of them breaks the benchmark, not the program, so
this runs the tracer once on a small job per route, and on the subcommands
that load the fewest modules (``codims``, loci-only ``perversity``), and
checks that it still records their spans: ``serialize.load_loci`` among
them, which the command line calls through ``serialize`` although the
loader lives in ``loci``.  The library job runs
``loci.propagation_check`` by name, and the benchmark's checker requires it
to report an exact verdict."""

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
    "kind, argv, required, printed",
    [
        ("cli", ["jump-ideals", "m2.complex"], ["groebner."], ""),
        (
            "cli",
            ["sample", "m2.complex", "--points", "points.json"],
            ["cyclotomic.field_rank", "loci.membership_at_point"],
            "",
        ),
        (
            "cli",
            ["perversity", "m2.complex", "--loci", "m2.loci", "--samples", "4"],
            ["verdict.perversity_verdict", "loci.membership_at_point", "serialize.load_loci"],
            "",
        ),
        ("cli", ["codims", "m2.loci"], ["lattices.LinearUnion.codim_stats", "serialize.load_loci"], ""),
        ("cli", ["perversity", "m2.loci"], ["verdict.perversity_verdict", "serialize.load_loci"], ""),
        ("lib", ["m2.complex"], ["libjob.main", "loci.propagation_check"], '"provenance": "exact"'),
    ],
    ids=["jump-ideals", "sample", "perversity", "codims", "perversity-loci", "lib"],
)
def test_tracer_records_route_spans(tmp_path, kind, argv, required, printed):
    m2 = mellin_constant_torus(2)
    (tmp_path / "m2.complex").write_text(serialize.dump_complex(m2.complex))
    (tmp_path / "m2.loci").write_text(serialize.dump_loci(m2.profile))
    (tmp_path / "points.json").write_text(json.dumps(ORDER_12_POINTS))
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out), "smoke", kind, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout
    names = [span["name"] for span in json.loads(spans_out.read_text())["spans"]]
    for prefix in required:
        assert any(name.startswith(prefix) for name in names), (prefix, names)
